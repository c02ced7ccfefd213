// The subword-parallel DVAFS multiplier (paper Fig. 1b, Sec. II-C/III-A).
//
// One unified radix-4 Booth partial-product array computes, depending on two
// mode inputs, either one WxW product (1x16), two (W/2)x(W/2) products (2x8)
// or four (W/4)x(W/4) products (4x4), each lane signed and independent:
//
//  * Booth groups restart at lane boundaries: the overlap bit b[2g-1] of a
//    group whose weight bit 2g starts a lane is mode-gated to zero.
//  * Mode gating is applied at the partial-product *inputs* (operand
//    isolation), so logic belonging to another mode's cross terms is fully
//    static -- this is what makes switching activity track the active
//    precision, as the paper's k parameters assume.
//  * Each row's sign handling uses the inverted-MSB + hardwired-compensation
//    scheme per mode, with compensation constants folded within each lane's
//    product field; carries are cut at field boundaries in both the Wallace
//    compressor and the final carry-select adder.
//
// DAS operation (paper Fig. 1a: "the LSBs of the inputs are gated") uses two
// further precision-select inputs with quarter-word granularity. At
// truncation level t (t LSBs of both operands gated to zero), partial-
// product bits in the truncated columns are force-gated and each active
// row's two's-complement +neg correction moves from column 2g up to column
// 2g+t -- an exact transformation when the operand LSBs are zero, which the
// driver enforces. This makes the truncated cone static, so activity falls
// quadratically with precision (k0 = 12.5 at 4 b in the paper's Table I),
// and the active-cone critical path shortens, which DVAS converts into
// supply-voltage reduction.
//
// Precision selects are honoured in 1xW mode; in subword modes they must be
// zero (full lane precision) -- per-lane DAS inside subword modes is a data
// contract (truncated operands), as in the paper's SIMD processor.

#pragma once

#include "mult/multiplier.h"
#include "mult/subword.h"

#include <cstdint>
#include <utility>
#include <vector>

namespace dvafs {

class dvafs_multiplier final : public structural_multiplier {
public:
    // width must be divisible by 4; lanes are width/1, width/2, width/4 wide.
    // The paper's design is width 16; width 8 keeps exhaustive testing cheap.
    explicit dvafs_multiplier(int width = 16);

    // -- functional interface -------------------------------------------------
    void set_mode(sw_mode m);
    sw_mode mode() const noexcept { return mode_; }

    // DAS precision: keep the top `keep_bits` of each operand (quarter-word
    // granularity: keep_bits in {W/4, W/2, 3W/4, W}). Only meaningful in
    // 1xW mode; other modes require full precision.
    void set_das_precision(int keep_bits);

    // Lane-wise multiply through the gate-level netlist; operands and result
    // are packed per subword.h (for width 16 these are the real types; for
    // width 8 the lanes are 8/4/2 bits wide). Operands are truncated to the
    // DAS precision before driving the netlist (hardware contract).
    std::uint64_t simulate_packed(std::uint64_t a, std::uint64_t b);

    // Batched lane-wise multiply through the compiled 512-lane simulator:
    // n packed operand pairs, products in `out` when non-null. Statistics
    // accumulate as n consecutive simulate_packed() calls would (on the
    // batch engine's counters; see structural_multiplier::simulate_batch).
    void simulate_packed_batch(const std::uint64_t* a, const std::uint64_t* b,
                               std::size_t n, std::uint64_t* out = nullptr);

    // Expected result computed arithmetically (must match simulate_packed).
    std::uint64_t functional_packed(std::uint64_t a, std::uint64_t b) const;

    // In 1x mode behaves like any signed multiplier (via base simulate()).
    std::int64_t functional(std::int64_t a, std::int64_t b) const override;

    // -- mode-aware analysis --------------------------------------------------
    // Input ties describing an operating mode: mode selects, DAS precision
    // selects, and the truncated operand LSBs tied to zero.
    std::vector<std::pair<net_id, bool>>
    tied_inputs(sw_mode m, int das_keep_bits = 0) const;

    // Critical path of the active cone in the given mode [ps].
    double mode_critical_path_ps(const tech_model& t, double vdd, sw_mode m,
                                 int das_keep_bits = 0) const;

    // Gates that can still toggle in the given mode.
    std::size_t active_gate_count(sw_mode m, int das_keep_bits = 0) const;

    int lane_width(sw_mode m) const noexcept
    {
        return width() / lane_count(m);
    }

    // Primary-input vector driving packed operands a, b under an explicit
    // (mode, DAS precision) -- independent of set_mode()/set_das_precision()
    // state, so sweep workers can share one const multiplier across threads,
    // each driving its own simulator over net(). Operand LSBs below the DAS
    // precision are gated to zero exactly as in hardware.
    std::vector<bool> input_vector_for(sw_mode m, int das_keep_bits,
                                       std::uint64_t a,
                                       std::uint64_t b) const;

    // Packs `count` (1..compiled_sim::lane_capacity) operand pairs
    // straight into the compiled simulator's input words:
    // compiled_sim::lane_words uint64 per primary input, input-major (lane
    // v = bit v%64 of the input's word v/64). The hot-path equivalent of
    // calling input_vector_for per vector without the per-vector
    // allocation. `words` is resized and zeroed. Throws
    // std::invalid_argument when `count` is out of range.
    void pack_input_words(sw_mode m, int das_keep_bits,
                          const std::uint64_t* a, const std::uint64_t* b,
                          int count,
                          std::vector<std::uint64_t>& words) const;

private:
    void input_vector_into(std::int64_t a, std::int64_t b,
                           std::vector<bool>& v) const override;

    bus mode_bus_; // two mode selects: (s0, s1); 00=1xW, 01=2x, 10=4x
    bus das_bus_;  // two precision selects: t = (W/4) * (d0 + 2*d1)
    sw_mode mode_ = sw_mode::w1x16;
    int das_keep_ = 0; // full width
};

} // namespace dvafs
