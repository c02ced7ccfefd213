#include "fixedpoint/quantize.h"

#include "vec/vec.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>
#include <type_traits>

namespace dvafs {

namespace {

// The one non-finite rule: NaN or +-inf anywhere in the data is rejected
// before any int64 conversion could see it (that cast would be undefined
// behaviour). choose_quant's scan and every vec quantize kernel apply it.
void require_finite(bool finite, const char* who)
{
    if (!finite) {
        throw std::invalid_argument(
            std::string(who) + ": non-finite value (NaN or inf) in data");
    }
}

// Runs the dispatched vec quantize kernel over `x` on qp's grid.
void run_quantize(std::span<const float> x, const quant_params& qp,
                  float* fake, std::int32_t* codes, const char* who)
{
    if (!(qp.step > 0.0 && qp.step < std::numeric_limits<double>::infinity())) {
        throw std::invalid_argument(std::string(who)
                                    + ": step must be finite and > 0");
    }
    require_finite(vec::active().quantize_f32(
                       x.data(), x.size(), qp.step,
                       static_cast<double>(signed_min(qp.bits)),
                       static_cast<double>(signed_max(qp.bits)), fake,
                       codes),
                   who);
}

} // namespace

quant_params choose_quant(std::span<const float> data, int bits)
{
    // max |v| as the IEEE bit pattern with the sign cleared: for
    // non-negative floats the integer order is the float order, and every
    // NaN or inf pattern is >= the pattern of inf -- so one integer max
    // (the vec absmax_bits kernel) finds the magnitude and the non-finite
    // case together, in any order.
    const std::uint32_t max_bits =
        vec::active().absmax_bits(data.data(), data.size());
    require_finite(max_bits < 0x7f800000U, "choose_quant");
    const double max_abs =
        static_cast<double>(std::bit_cast<float>(max_bits));
    quant_params qp;
    qp.bits = bits;
    const double levels = static_cast<double>((1LL << (bits - 1)) - 1);
    qp.step = (max_abs > 0.0 && levels > 0.0) ? max_abs / levels : 1.0;
    return qp;
}

template <typename T>
std::vector<T> quantize_codes(std::span<const float> data,
                              const quant_params& qp)
{
    static_assert(std::is_signed_v<T> && sizeof(T) <= 4);
    assert(qp.bits >= 1 && qp.bits <= static_cast<int>(8 * sizeof(T)));
    std::vector<T> out(data.size());
    if constexpr (std::is_same_v<T, std::int32_t>) {
        run_quantize(data, qp, nullptr, out.data(), "quantize_codes");
    } else {
        // Narrower codes go through a small int32 buffer.
        constexpr std::size_t chunk = 256;
        std::int32_t buf[chunk];
        for (std::size_t i = 0; i < data.size(); i += chunk) {
            const std::size_t len = std::min(chunk, data.size() - i);
            run_quantize(data.subspan(i, len), qp, nullptr, buf,
                         "quantize_codes");
            for (std::size_t j = 0; j < len; ++j) {
                out[i + j] = static_cast<T>(buf[j]);
            }
        }
    }
    return out;
}

template std::vector<std::int8_t>
quantize_codes<std::int8_t>(std::span<const float>, const quant_params&);
template std::vector<std::int16_t>
quantize_codes<std::int16_t>(std::span<const float>, const quant_params&);
template std::vector<std::int32_t>
quantize_codes<std::int32_t>(std::span<const float>, const quant_params&);

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

void fake_quantize(std::span<const float> data, const quant_params& qp,
                   float* out)
{
    run_quantize(data, qp, out, nullptr, "fake_quantize");
}

void fake_quantize_inplace(std::span<float> data, int bits)
{
    // choose_quant rejects non-finite data before anything is written.
    fake_quantize(data, choose_quant(data, bits), data.data());
}

} // namespace dvafs
