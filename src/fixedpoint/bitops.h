// Bit-manipulation and rounding helpers shared by the quantizers, the
// subword arithmetic fast paths, and the gate-level multiplier models.

#pragma once

#include <cassert>
#include <cmath>
#include <cstdint>

namespace dvafs {

// Mask with the low `width` bits set (width in [0, 64]).
constexpr std::uint64_t low_mask(int width) noexcept
{
    return width >= 64 ? ~0ULL : ((1ULL << width) - 1ULL);
}

// Sign-extends the low `width` bits of `v` into a signed 64-bit value.
constexpr std::int64_t sign_extend(std::uint64_t v, int width) noexcept
{
    if (width <= 0 || width >= 64) {
        return static_cast<std::int64_t>(v);
    }
    const std::uint64_t m = 1ULL << (width - 1);
    const std::uint64_t x = v & low_mask(width);
    return static_cast<std::int64_t>((x ^ m) - m);
}

// Two's-complement encode a signed value into `width` bits (truncating).
constexpr std::uint64_t to_bits(std::int64_t v, int width) noexcept
{
    return static_cast<std::uint64_t>(v) & low_mask(width);
}

// Smallest / largest signed values representable in `width` bits.
constexpr std::int64_t signed_min(int width) noexcept
{
    return width >= 64 ? INT64_MIN : -(1LL << (width - 1));
}
constexpr std::int64_t signed_max(int width) noexcept
{
    return width >= 64 ? INT64_MAX : (1LL << (width - 1)) - 1;
}

// Saturating clamp of `v` to the signed `width`-bit range.
constexpr std::int64_t clamp_signed(std::int64_t v, int width) noexcept
{
    const std::int64_t lo = signed_min(width);
    const std::int64_t hi = signed_max(width);
    return v < lo ? lo : (v > hi ? hi : v);
}

// True if `v` fits in signed `width` bits without truncation.
constexpr bool fits_signed(std::int64_t v, int width) noexcept
{
    return v >= signed_min(width) && v <= signed_max(width);
}

// Extracts bit `i` of `v` as 0/1.
constexpr int bit_of(std::uint64_t v, int i) noexcept
{
    return static_cast<int>((v >> i) & 1ULL);
}

// Hamming distance (number of toggling bits) between two words; this is the
// elementary switching-activity measure for bus transitions.
constexpr int hamming(std::uint64_t a, std::uint64_t b) noexcept
{
    return __builtin_popcountll(a ^ b);
}

// In-place transpose of a 64x64 bit matrix stored row-major (bit c of
// x[r] is element (r, c); after the call bit r of x[c] is that element).
// Recursive block swaps, 6 rounds of 32 masked exchanges -- the fast path
// for turning per-vector operand words into per-input lane words when
// packing stimuli for the bit-parallel gate simulators. This is the
// reference network; the hot packing loop (mult/dvafs_mult.cpp) calls the
// dispatched host-SIMD version instead (src/vec/, which vectorizes the
// wide exchange rounds and is bit-identical to this one).
inline void transpose64(std::uint64_t x[64]) noexcept
{
    std::uint64_t m = 0x00000000FFFFFFFFULL;
    for (int j = 32; j != 0; j >>= 1, m ^= m << j) {
        for (int k = 0; k < 64; k = (k + j + 1) & ~j) {
            const std::uint64_t t = ((x[k] >> j) ^ x[k + j]) & m;
            x[k] ^= t << j;
            x[k + j] ^= t;
        }
    }
}

// Rounds a scaled real value to the nearest integer, ties away from zero
// (the common DSP convention): the value -> code step of every quantizer
// (quantize.h quantize_value, make_requant_scale).
inline std::int64_t round_half_away(double scaled) noexcept
{
    return static_cast<std::int64_t>(scaled >= 0.0 ? std::floor(scaled + 0.5)
                                                   : std::ceil(scaled - 0.5));
}

// Arithmetic right shift with round-half-away-from-zero -- the repo-wide
// rounding discipline for dropping fixed-point fraction bits (matches
// round_half_away above and the DVAFS subword datapath's post-multiply
// scaling stage). shift in [0, 62]; |v| must stay below 2^62 so adding
// the rounding bias cannot overflow (asserted).
constexpr std::int64_t rounding_rshift(std::int64_t v, int shift) noexcept
{
    assert(shift >= 0 && shift <= 62);
    if (shift == 0) {
        return v;
    }
    assert(v > -(1LL << 62) && v < (1LL << 62));
    const std::int64_t bias = 1LL << (shift - 1);
    return v >= 0 ? (v + bias) >> shift : -((-v + bias) >> shift);
}

// Saturating signed add in `width` bits: both operands must already fit the
// width (asserted), the exact 64-bit sum is clamped to the signed range.
// This is the accumulate step of the subword MAC -- saturation instead of
// the wrap UB a native narrow add would invoke.
constexpr std::int64_t saturating_add(std::int64_t a, std::int64_t b,
                                      int width) noexcept
{
    assert(width >= 1 && width <= 63);
    assert(fits_signed(a, width) && fits_signed(b, width));
    return clamp_signed(a + b, width);
}

// Fixed-point requantization core: scales an integer accumulator onto an
// output grid as acc * multiplier * 2^-shift (round half away from zero,
// the same discipline as rounding_rshift), then saturates to signed
// `out_width` bits. multiplier is a Q31-style integer scale (see
// quantize.h make_requant_scale); shift may be negative (a left shift) for
// scales >= 2. The product and shift run in 128 bits, so the arithmetic is
// exact and the final clamp can never wrap -- signed-overflow-free by
// construction under UBSan for every input.
constexpr std::int64_t requantize(std::int64_t acc, std::int32_t multiplier,
                                  int shift, int out_width) noexcept
{
    assert(shift >= -32 && shift <= 94);
    assert(out_width >= 1 && out_width <= 63);
    // Hot path: an int32 accumulator (the int8 engine) times the Q31
    // multiplier stays under 2^62, so the whole computation fits the
    // native 64-bit rounding shift -- same exact result, no 128-bit ops.
    if (multiplier >= 0 && shift >= 0 && shift <= 62
        && acc >= signed_min(32) && acc <= signed_max(32)) {
        const std::int64_t p = acc * static_cast<std::int64_t>(multiplier);
        return clamp_signed(rounding_rshift(p, shift), out_width);
    }
    using i128 = __int128;
    const i128 p = static_cast<i128>(acc) * multiplier;
    i128 q;
    if (shift > 0) {
        const i128 bias = static_cast<i128>(1) << (shift - 1);
        q = p >= 0 ? (p + bias) >> shift : -((-p + bias) >> shift);
    } else if (shift < 0) {
        q = p * (static_cast<i128>(1) << -shift);
    } else {
        q = p;
    }
    const i128 lo = signed_min(out_width);
    const i128 hi = signed_max(out_width);
    return static_cast<std::int64_t>(q < lo ? lo : (q > hi ? hi : q));
}

// Truncates (LSB-gates) a signed `width`-bit value so that only the top
// `keep_bits` carry information; the dropped LSBs read as zero. This is the
// DAS input-truncation operation from the paper (Fig. 1a: LSBs gated).
constexpr std::int64_t truncate_lsbs(std::int64_t v, int width,
                                     int keep_bits) noexcept
{
    if (keep_bits >= width) {
        return v;
    }
    const int drop = width - keep_bits;
    const std::uint64_t bits = to_bits(v, width) & (low_mask(width)
                                                    & ~low_mask(drop));
    return sign_extend(bits, width);
}

} // namespace dvafs
