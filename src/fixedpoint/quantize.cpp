#include "fixedpoint/quantize.h"

#include <algorithm>
#include <cmath>

namespace dvafs {

quant_params choose_quant(std::span<const float> data, int bits)
{
    double max_abs = 0.0;
    for (const float v : data) {
        max_abs = std::max(max_abs, static_cast<double>(std::fabs(v)));
    }
    quant_params qp;
    qp.bits = bits;
    const double levels = static_cast<double>((1LL << (bits - 1)) - 1);
    qp.step = (max_abs > 0.0 && levels > 0.0) ? max_abs / levels : 1.0;
    return qp;
}

requant_scale make_requant_scale(double scale)
{
    requant_scale rs;
    if (!(scale > 0.0)) {
        return rs;
    }
    int exp = 0;
    const double m = std::frexp(scale, &exp); // m in [0.5, 1)
    std::int64_t q = round_half_away(m * static_cast<double>(1LL << 31));
    int shift = 31 - exp;
    if (q == (1LL << 31)) {
        // m rounded up to exactly 1.0: renormalize.
        q >>= 1;
        --shift;
    }
    if (shift > 62) {
        // Vanishing scale: push the excess into the multiplier so the
        // shift stays in requantize()'s exact range.
        q >>= std::min(shift - 62, 62);
        shift = 62;
        if (q == 0) {
            return rs; // underflow to the zero scale
        }
    }
    if (shift < -32) {
        // Astronomical scale (>= 2^63): every nonzero accumulator
        // saturates anyway; pin the shift at the exact-range edge.
        shift = -32;
        q = signed_max(32);
    }
    rs.multiplier = static_cast<std::int32_t>(q);
    rs.shift = shift;
    return rs;
}

void fake_quantize_inplace(std::span<float> data, int bits)
{
    const quant_params qp = choose_quant(data, bits);
    for (float& v : data) {
        v = static_cast<float>(
            static_cast<double>(
                quantize_value(static_cast<double>(v), qp.step, bits))
            * qp.step);
    }
}

} // namespace dvafs
