#include "fixedpoint/quantize.h"

#include "util/rng.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
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

} // namespace
} // namespace dvafs
