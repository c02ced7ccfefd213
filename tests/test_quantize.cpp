#include "fixedpoint/quantize.h"

#include "util/rng.h"
#include "vec/vec.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <vector>

namespace dvafs {
namespace {

// RMSE of representing `data` on its fake-quantized `bits` grid.
double fake_quantize_rmse(const std::vector<float>& data, int bits)
{
    std::vector<float> q = data;
    fake_quantize_inplace(q, bits);
    double sq = 0.0;
    for (std::size_t i = 0; i < data.size(); ++i) {
        const double err =
            static_cast<double>(q[i]) - static_cast<double>(data[i]);
        sq += err * err;
    }
    return std::sqrt(sq / static_cast<double>(data.size()));
}

// Fraction of elements whose code is 0 on the choose_quant grid at `bits`
// (Envision gates zero operands).
double zero_code_fraction(const std::vector<float>& data, int bits)
{
    const auto codes =
        quantize_codes<std::int32_t>(data, choose_quant(data, bits));
    std::size_t zeros = 0;
    for (const std::int32_t c : codes) {
        zeros += (c == 0);
    }
    return static_cast<double>(zeros) / static_cast<double>(data.size());
}

TEST(quantize, round_trip_within_half_step)
{
    pcg32 rng(4);
    std::vector<float> data;
    for (int i = 0; i < 200; ++i) {
        data.push_back(static_cast<float>(rng.uniform(-2.0, 2.0)));
    }
    const quant_params qp = choose_quant(data, 8);
    const auto codes = quantize_codes<std::int32_t>(data, qp);
    std::vector<float> back = data;
    fake_quantize_inplace(back, 8);
    for (std::size_t i = 0; i < data.size(); ++i) {
        // Fake quantization is exactly code * step on the same grid.
        EXPECT_EQ(back[i], static_cast<float>(codes[i] * qp.step));
        EXPECT_NEAR(back[i], data[i], qp.step / 2 + 1e-6);
    }
}

TEST(quantize, max_maps_to_max_code)
{
    const std::vector<float> data{-1.0F, 0.25F, 1.0F};
    const quant_params qp = choose_quant(data, 4);
    const auto codes = quantize_codes<std::int32_t>(data, qp);
    EXPECT_EQ(codes[2], 7);  // 2^(4-1) - 1
    EXPECT_EQ(codes[0], -7); // symmetric
}

TEST(quantize, codes_saturate_with_override_scale)
{
    const std::vector<float> data{10.0F, -10.0F};
    // A grid scaled for max |value| = 1.0: 10.0 lies far outside it.
    const quant_params qp{.bits = 4, .step = 1.0 / 7.0};
    const auto codes = quantize_codes<std::int32_t>(data, qp);
    EXPECT_EQ(codes[0], 7);
    EXPECT_EQ(codes[1], -8);
}

TEST(quantize, all_zero_data_is_safe)
{
    const std::vector<float> data(8, 0.0F);
    const quant_params qp = choose_quant(data, 8);
    const auto codes = quantize_codes<std::int32_t>(data, qp);
    for (const auto c : codes) {
        EXPECT_EQ(c, 0);
    }
    std::vector<float> fq = data;
    fake_quantize_inplace(fq, 8);
    for (const float v : fq) {
        EXPECT_EQ(v, 0.0F);
    }
}

TEST(quantize, rmse_decreases_with_bits)
{
    pcg32 rng(9);
    std::vector<float> data;
    for (int i = 0; i < 500; ++i) {
        data.push_back(static_cast<float>(rng.gaussian(0.0, 1.0)));
    }
    double prev = 1e9;
    for (int bits = 2; bits <= 10; ++bits) {
        const double r = fake_quantize_rmse(data, bits);
        EXPECT_LT(r, prev) << "bits=" << bits;
        prev = r;
    }
}

TEST(quantize, rmse_roughly_halves_per_bit)
{
    pcg32 rng(10);
    std::vector<float> data;
    for (int i = 0; i < 4000; ++i) {
        data.push_back(static_cast<float>(rng.uniform(-1.0, 1.0)));
    }
    const double r6 = fake_quantize_rmse(data, 6);
    const double r7 = fake_quantize_rmse(data, 7);
    EXPECT_NEAR(r6 / r7, 2.0, 0.3);
}

TEST(quantize, fake_quantize_is_idempotent)
{
    pcg32 rng(11);
    std::vector<float> data;
    for (int i = 0; i < 100; ++i) {
        data.push_back(static_cast<float>(rng.uniform(-3.0, 3.0)));
    }
    std::vector<float> once = data;
    fake_quantize_inplace(once, 5);
    std::vector<float> twice = once;
    fake_quantize_inplace(twice, 5);
    // Idempotence up to scale re-estimation: the max element is preserved
    // by the first pass, so the second pass reuses the same grid.
    for (std::size_t i = 0; i < once.size(); ++i) {
        EXPECT_NEAR(twice[i], once[i], 1e-6);
    }
}

TEST(quantize, sparsity_counts_zero_codes)
{
    // Values below step/2 quantize to zero.
    const std::vector<float> data{0.0F, 0.001F, 1.0F, -1.0F, 0.002F};
    const double sp = zero_code_fraction(data, 4);
    EXPECT_NEAR(sp, 3.0 / 5.0, 1e-9);
}

TEST(quantize, lower_precision_is_sparser)
{
    pcg32 rng(12);
    std::vector<float> data;
    for (int i = 0; i < 2000; ++i) {
        data.push_back(static_cast<float>(rng.gaussian(0.0, 0.2)));
    }
    data.push_back(3.0F); // one large outlier stretches the scale
    const double sp2 = zero_code_fraction(data, 2);
    const double sp8 = zero_code_fraction(data, 8);
    EXPECT_GT(sp2, sp8);
}

// Pins the dispatched backend for one scope and restores the previous
// one on exit.
class isa_scope {
public:
    isa_scope() : restore_(vec::active_isa()) {}
    isa_scope(const isa_scope&) = delete;
    isa_scope& operator=(const isa_scope&) = delete;
    ~isa_scope() { vec::force_isa(restore_); }

private:
    vec::isa restore_;
};

// The vector quantize kernel behind fake_quantize_inplace and
// quantize_codes computes quantize_value's map without its int64 round
// trip; under every backend both entry points must equal the scalar map
// element for element, ties and saturation included.
TEST(quantize, every_backend_follows_quantize_value)
{
    const isa_scope scope;
    pcg32 rng(21);
    std::vector<float> data;
    for (int i = 0; i < 203; ++i) {
        const std::uint32_t r = rng.bounded(8);
        data.push_back(r == 0   ? -0.0F
                       : r == 1 ? static_cast<float>(
                                      0.25 * (static_cast<double>(
                                                  rng.bounded(33))
                                              - 16.0))
                                : static_cast<float>(rng.gaussian(0.0, 2.0)));
    }
    for (const vec::isa level : vec::available()) {
        ASSERT_TRUE(vec::force_isa(level));
        for (const int bits : {1, 2, 3, 5, 8, 12, 16}) {
            const quant_params qp = choose_quant(data, bits);
            std::vector<float> fake = data;
            fake_quantize_inplace(fake, bits);
            const quant_params narrow{.bits = bits, .step = 0.125};
            const auto codes = quantize_codes<std::int32_t>(data, narrow);
            for (std::size_t i = 0; i < data.size(); ++i) {
                const double v = static_cast<double>(data[i]);
                const float want = static_cast<float>(
                    static_cast<double>(quantize_value(v, qp.step, bits))
                    * qp.step);
                ASSERT_EQ(std::bit_cast<std::uint32_t>(fake[i]),
                          std::bit_cast<std::uint32_t>(want))
                    << vec::isa_name(level) << " bits " << bits << " x "
                    << data[i];
                ASSERT_EQ(codes[i], quantize_value(v, narrow.step, bits))
                    << vec::isa_name(level) << " bits " << bits << " x "
                    << data[i];
            }
            if (bits <= 8) {
                const auto c8 = quantize_codes<std::int8_t>(data, narrow);
                for (std::size_t i = 0; i < data.size(); ++i) {
                    ASSERT_EQ(c8[i], codes[i]) << vec::isa_name(level);
                }
            }
        }
    }
}

// NaN and +-inf have no code on any grid. A NaN skipped by the max pass,
// or an inf turned into an inf step, would reach an int64 conversion
// (undefined behaviour), so every entry point rejects non-finite data
// under every backend -- and fake_quantize_inplace leaves it untouched.
TEST(quantize, non_finite_data_is_rejected)
{
    const isa_scope scope;
    const float inf = std::numeric_limits<float>::infinity();
    for (const float bad :
         {std::numeric_limits<float>::quiet_NaN(), inf, -inf}) {
        for (const vec::isa level : vec::available()) {
            ASSERT_TRUE(vec::force_isa(level));
            for (const std::size_t at : {0, 5, 16}) {
                std::vector<float> data(17, 0.5F);
                data[3] = -1.25F;
                data[at] = bad;
                const std::vector<float> before = data;
                EXPECT_THROW(fake_quantize_inplace(data, 6),
                             std::invalid_argument)
                    << vec::isa_name(level) << " at " << at;
                for (std::size_t i = 0; i < data.size(); ++i) {
                    EXPECT_EQ(std::bit_cast<std::uint32_t>(data[i]),
                              std::bit_cast<std::uint32_t>(before[i]));
                }
                EXPECT_THROW(choose_quant(data, 8), std::invalid_argument);
                const quant_params qp{.bits = 8, .step = 0.01};
                EXPECT_THROW(quantize_codes<std::int8_t>(data, qp),
                             std::invalid_argument)
                    << vec::isa_name(level) << " at " << at;
                EXPECT_THROW(quantize_codes<std::int32_t>(data, qp),
                             std::invalid_argument)
                    << vec::isa_name(level) << " at " << at;
            }
        }
    }
    // A step that is not finite and positive is rejected as well.
    const std::vector<float> data{1.0F, -2.0F};
    for (const double step : {0.0, -1.0, static_cast<double>(inf)}) {
        EXPECT_THROW(
            quantize_codes<std::int16_t>(data, {.bits = 8, .step = step}),
            std::invalid_argument)
            << step;
    }
}

} // namespace
} // namespace dvafs
