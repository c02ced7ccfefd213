// Subword-parallel arithmetic: functional (bit-exact) fast path.
//
// The DVAFS datapath processes, per 16-bit word slot, N independent signed
// lanes: 1x16b, 2x8b or 4x4b (paper Fig. 1b). This header gives the packed
// lane representation and exact lane-wise multiply/MAC used by the SIMD
// processor simulator and the CNN engine. The gate-level dvafs_multiplier
// must agree with these functions bit for bit (asserted in tests).

#pragma once

#include "fixedpoint/bitops.h"

#include <array>
#include <cstdint>
#include <string>
#include <vector>

namespace dvafs {

enum class sw_mode : std::uint8_t {
    w1x16 = 0, // one 16-bit lane
    w2x8 = 1,  // two 8-bit lanes
    w4x4 = 2,  // four 4-bit lanes
};

constexpr int lane_count(sw_mode m) noexcept
{
    return m == sw_mode::w1x16 ? 1 : (m == sw_mode::w2x8 ? 2 : 4);
}
constexpr int lane_bits(sw_mode m) noexcept { return 16 / lane_count(m); }

const char* to_string(sw_mode m) noexcept;
// Parses "1x16", "2x8", "4x4".
sw_mode parse_sw_mode(const std::string& s);

// All modes, widest lane first (paper order: 16b, 8b, 4b).
inline constexpr std::array<sw_mode, 3> all_sw_modes{
    sw_mode::w1x16, sw_mode::w2x8, sw_mode::w4x4};

// -- packing -----------------------------------------------------------------

// Packs signed lane values (lane 0 in the LSBs) into a 16-bit word.
// Values are truncated to the lane width.
std::uint16_t pack_lanes(const std::vector<std::int32_t>& lanes, sw_mode m);

// Unpacks a 16-bit word into sign-extended lane values.
std::vector<std::int32_t> unpack_lanes(std::uint16_t word, sw_mode m);

// Packs / unpacks 2n-bit products (lane i occupies bits [2*lb*i, 2*lb*(i+1))).
std::uint32_t pack_products(const std::vector<std::int32_t>& lanes,
                            sw_mode m);
std::vector<std::int32_t> unpack_products(std::uint32_t word, sw_mode m);

// -- arithmetic ---------------------------------------------------------------

// Lane-wise signed multiply of packed operands; each lane result is the
// exact 2*lane_bits product, packed into a 32-bit word.
std::uint32_t subword_multiply(std::uint16_t a, std::uint16_t b, sw_mode m);

// Lane-wise truncation of packed operands to `keep_bits` MSBs per lane
// (DAS input gating). keep_bits must be in [1, lane_bits].
std::uint16_t subword_truncate(std::uint16_t a, sw_mode m, int keep_bits);

// Lane-wise saturating add of packed `acc` (2n-bit lanes) with the packed
// product lanes of a*b: the accumulate step of a subword MAC unit.
std::uint32_t subword_mac(std::uint32_t acc, std::uint16_t a, std::uint16_t b,
                          sw_mode m);

} // namespace dvafs
