// Tensor / vector quantizers for the CNN path.
//
// The paper (Sec. IV, Fig. 6) quantizes weights and input feature maps of each
// layer to b bits with a per-layer scale. We implement symmetric uniform
// quantization: scale is chosen so that the largest-magnitude element maps to
// the largest representable code.

#pragma once

#include "fixedpoint/bitops.h"

#include <cstdint>
#include <span>
#include <vector>

namespace dvafs {

// Symmetric uniform quantizer: code = round(value / step), with
// step = max_abs / (2^(bits-1) - 1). Codes saturate to the signed range.
struct quant_params {
    int bits = 8;
    double step = 1.0; // real value of one code unit
};

// The one value -> code map every quantizer in the repo uses:
// round-half-away-from-zero of value / step, saturated into `bits`.
inline std::int64_t quantize_value(double value, double step,
                                   int bits) noexcept
{
    return clamp_signed(round_half_away(value / step), bits);
}

// Integer requantization scale: a positive real scale decomposed as
// multiplier * 2^-shift with multiplier a Q31-style integer in
// [2^30, 2^31) (gemmlowp's normalization; relative error <= 2^-31).
// multiplier == 0 encodes scale 0 and maps every accumulator to code 0.
// This is the form fixedpoint/bitops.h requantize() consumes: between an
// integer accumulator and the output codes the only arithmetic is one
// integer multiply plus one saturating rounding right shift -- exactly the
// requantization stage of the DVAFS subword datapath.
struct requant_scale {
    std::int32_t multiplier = 0;
    int shift = 0;
};

// Decomposes `scale`; scale <= 0 (or denormal-small) yields {0, 0}.
requant_scale make_requant_scale(double scale);

// Applies the scale to one accumulator, saturating into `out_width` bits.
inline std::int64_t requantize(std::int64_t acc, const requant_scale& s,
                               int out_width) noexcept
{
    return requantize(acc, s.multiplier, s.shift, out_width);
}

// Chooses quantization parameters for `data` at `bits` precision: the
// largest observed magnitude maps to the largest code. Throws
// std::invalid_argument when `data` holds a NaN or an infinity (no grid
// can represent it).
quant_params choose_quant(std::span<const float> data, int bits);

// Quantizes to integer codes of type T (int8_t / int16_t for the integer
// inference path, int32_t for wider grids) through quantize_value's map,
// saturating and rounding half away from zero. qp.bits must fit T
// (asserted). Throws std::invalid_argument on non-finite data or a step
// that is not finite and positive. Instantiated for int8_t, int16_t and
// int32_t.
template <typename T>
std::vector<T> quantize_codes(std::span<const float> data,
                              const quant_params& qp);

// Fake quantization on a given grid: out[i] = code(data[i]) * step on
// qp's grid (a choose_quant result), so one grid chosen over a whole
// tensor can be applied to it piece by piece. `out` holds data.size()
// floats and may alias `data`. Throws std::invalid_argument on
// non-finite data or a step that is not finite and positive.
void fake_quantize(std::span<const float> data, const quant_params& qp,
                   float* out);

// One-shot "fake quantization": each value is replaced by code * step on
// the choose_quant grid. This is what the Fig. 6 sweeps apply to
// weights/activations to emulate b-bit hardware. Throws
// std::invalid_argument, leaving `data` untouched, when it holds a NaN or
// an infinity.
void fake_quantize_inplace(std::span<float> data, int bits);

} // namespace dvafs
