#include "mult/error_analysis.h"

#include "fixedpoint/bitops.h"

#include <gtest/gtest.h>

namespace dvafs {
namespace {

TEST(error_analysis, exact_multiplier_has_zero_error)
{
    const error_report rep = analyze_multiplier_error(
        [](std::int64_t a, std::int64_t b) { return a * b; }, 8, true,
        2000, 1);
    EXPECT_EQ(rep.rmse, 0.0);
    EXPECT_EQ(rep.error_rate, 0.0);
    EXPECT_EQ(rep.samples, 2000U);
}

TEST(error_analysis, constant_offset_detected)
{
    const error_report rep = analyze_multiplier_error(
        [](std::int64_t a, std::int64_t b) { return a * b + 4; }, 8, true,
        1000, 2);
    EXPECT_DOUBLE_EQ(rep.rmse, 4.0);
    EXPECT_DOUBLE_EQ(rep.mean_error, 4.0);
    EXPECT_DOUBLE_EQ(rep.max_abs_error, 4.0);
    EXPECT_DOUBLE_EQ(rep.error_rate, 1.0);
}

TEST(error_analysis, relative_rmse_normalization)
{
    const error_report rep = analyze_multiplier_error(
        [](std::int64_t a, std::int64_t b) { return a * b + 16; }, 8, true,
        500, 3);
    // Full scale for 8-bit operands is 2^14.
    EXPECT_DOUBLE_EQ(rep.rmse_relative, 16.0 / 16384.0);
}

TEST(error_analysis, deterministic_for_seed)
{
    const auto f = [](std::int64_t a, std::int64_t b) {
        return (a * b) & ~1LL;
    };
    const error_report r1 = analyze_multiplier_error(f, 12, true, 500, 9);
    const error_report r2 = analyze_multiplier_error(f, 12, true, 500, 9);
    EXPECT_EQ(r1.rmse, r2.rmse);
    EXPECT_EQ(r1.error_rate, r2.error_rate);
}

TEST(error_analysis, unsigned_sampling_stays_in_range)
{
    const error_report rep = analyze_multiplier_error(
        [](std::int64_t a, std::int64_t b) {
            EXPECT_GE(a, 0);
            EXPECT_LT(a, 256);
            EXPECT_GE(b, 0);
            EXPECT_LT(b, 256);
            return a * b;
        },
        8, false, 300, 4);
    EXPECT_EQ(rep.rmse, 0.0);
}

TEST(error_analysis, width_guards)
{
    const auto f = [](std::int64_t a, std::int64_t b) { return a * b; };
    EXPECT_THROW((void)analyze_multiplier_error(f, 1, true, 10, 1),
                 std::invalid_argument);
    EXPECT_THROW((void)analyze_multiplier_error(f, 32, true, 10, 1),
                 std::invalid_argument);
}

} // namespace
} // namespace dvafs
