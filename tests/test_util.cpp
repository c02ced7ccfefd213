#include "util/bench_json.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/table.h"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <string>
#include <vector>

namespace dvafs {
namespace {

// argv as a bench's main receives it.
struct fake_argv {
    explicit fake_argv(std::vector<std::string> args) : words(std::move(args))
    {
        for (std::string& w : words) {
            ptrs.push_back(w.data());
        }
    }
    int argc() const { return static_cast<int>(ptrs.size()); }
    char** argv() { return ptrs.data(); }

    std::vector<std::string> words;
    std::vector<char*> ptrs;
};

TEST(bench_reporter, accepts_the_flags_the_bench_reads)
{
    fake_argv a({"bench_x", "--json", "out.json", "--min-speedup", "10",
                 "--bench-suffix", "warm"});
    const bench_reporter r("x", a.argc(), a.argv(), {"min-speedup"});
    EXPECT_TRUE(r.enabled());
    EXPECT_EQ(bench_flag_double(a.argc(), a.argv(), "min-speedup", 0.0),
              10.0);
}

TEST(bench_reporter, rejects_a_flag_the_bench_does_not_read)
{
    fake_argv a({"bench_x", "--min-speedp", "10"});
    try {
        const bench_reporter r("x", a.argc(), a.argv(), {"min-speedup"});
        ADD_FAILURE() << "a misspelt flag was accepted";
    } catch (const std::invalid_argument& e) {
        EXPECT_NE(std::string(e.what()).find("--min-speedp"),
                  std::string::npos)
            << e.what();
    }
    fake_argv stray({"bench_x", "extra"});
    EXPECT_THROW(bench_reporter("x", stray.argc(), stray.argv()),
                 std::invalid_argument);
    fake_argv missing({"bench_x", "--json"});
    EXPECT_THROW(bench_reporter("x", missing.argc(), missing.argv()),
                 std::invalid_argument);
}

TEST(bench_reporter, help_prints_usage_and_exits_without_running)
{
    fake_argv a({"bench_x", "--help"});
    EXPECT_EXIT(bench_reporter("x", a.argc(), a.argv(), {"min-speedup"}),
                ::testing::ExitedWithCode(0), "");
}

TEST(rng, deterministic_for_same_seed)
{
    pcg32 a(123);
    pcg32 b(123);
    for (int i = 0; i < 100; ++i) {
        EXPECT_EQ(a.next_u32(), b.next_u32());
    }
}

TEST(rng, different_seeds_diverge)
{
    pcg32 a(1);
    pcg32 b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i) {
        same += (a.next_u32() == b.next_u32());
    }
    EXPECT_LT(same, 3);
}

TEST(rng, bounded_stays_in_range)
{
    pcg32 r(7);
    for (int i = 0; i < 1000; ++i) {
        EXPECT_LT(r.bounded(17), 17U);
    }
    EXPECT_EQ(r.bounded(0), 0U);
    EXPECT_EQ(r.bounded(1), 0U);
}

TEST(rng, range_inclusive_bounds)
{
    pcg32 r(9);
    bool saw_lo = false;
    bool saw_hi = false;
    for (int i = 0; i < 2000; ++i) {
        const std::int64_t v = r.range(-3, 3);
        EXPECT_GE(v, -3);
        EXPECT_LE(v, 3);
        saw_lo |= (v == -3);
        saw_hi |= (v == 3);
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
    EXPECT_EQ(r.range(5, 5), 5);
    EXPECT_EQ(r.range(5, 4), 5);
}

TEST(rng, uniform_mean_near_half)
{
    pcg32 r(11);
    running_stats s;
    for (int i = 0; i < 20000; ++i) {
        s.add(r.uniform());
    }
    EXPECT_NEAR(s.mean(), 0.5, 0.01);
    EXPECT_GE(s.min(), 0.0);
    EXPECT_LT(s.max(), 1.0);
}

TEST(rng, gaussian_moments)
{
    pcg32 r(13);
    running_stats s;
    for (int i = 0; i < 40000; ++i) {
        s.add(r.gaussian(2.0, 3.0));
    }
    EXPECT_NEAR(s.mean(), 2.0, 0.08);
    EXPECT_NEAR(s.stddev(), 3.0, 0.08);
}

TEST(rng, bernoulli_rate)
{
    pcg32 r(17);
    int hits = 0;
    for (int i = 0; i < 10000; ++i) {
        hits += r.bernoulli(0.3);
    }
    EXPECT_NEAR(hits / 10000.0, 0.3, 0.02);
}

TEST(running_stats, basic_moments)
{
    running_stats s;
    for (const double v : {1.0, 2.0, 3.0, 4.0}) {
        s.add(v);
    }
    EXPECT_EQ(s.count(), 4U);
    EXPECT_DOUBLE_EQ(s.mean(), 2.5);
    EXPECT_DOUBLE_EQ(s.variance(), 1.25);
    EXPECT_DOUBLE_EQ(s.min(), 1.0);
    EXPECT_DOUBLE_EQ(s.max(), 4.0);
    EXPECT_DOUBLE_EQ(s.sum(), 10.0);
}

TEST(running_stats, empty_is_safe)
{
    const running_stats s;
    EXPECT_EQ(s.count(), 0U);
    EXPECT_EQ(s.mean(), 0.0);
    EXPECT_EQ(s.variance(), 0.0);
}

TEST(error_stats, exact_stream_has_zero_error)
{
    error_stats e;
    for (int i = 0; i < 10; ++i) {
        e.add(i, i);
    }
    EXPECT_EQ(e.rmse(), 0.0);
    EXPECT_EQ(e.error_rate(), 0.0);
    EXPECT_EQ(e.max_abs_error(), 0.0);
}

TEST(error_stats, known_errors)
{
    error_stats e;
    e.add(0.0, 3.0);  // +3
    e.add(0.0, -4.0); // -4
    EXPECT_DOUBLE_EQ(e.rmse(), std::sqrt((9.0 + 16.0) / 2.0));
    EXPECT_DOUBLE_EQ(e.mean_error(), -0.5);
    EXPECT_DOUBLE_EQ(e.mean_abs_error(), 3.5);
    EXPECT_DOUBLE_EQ(e.max_abs_error(), 4.0);
    EXPECT_DOUBLE_EQ(e.error_rate(), 1.0);
    EXPECT_DOUBLE_EQ(e.rmse_relative(10.0), e.rmse() / 10.0);
}

TEST(snr_stats, clean_signal_is_infinite)
{
    snr_stats s;
    s.add(1.0, 1.0);
    EXPECT_TRUE(std::isinf(s.snr_db()));
}

TEST(snr_stats, known_snr)
{
    snr_stats s;
    // signal power 1, noise power 0.01 -> 20 dB
    for (int i = 0; i < 100; ++i) {
        s.add(1.0, 1.1);
    }
    EXPECT_NEAR(s.snr_db(), 20.0, 1e-9);
}

TEST(ascii_table, renders_all_rows)
{
    ascii_table t({"a", "bb"});
    t.add_row({"1", "x"});
    t.add_row_numeric({2.5, 3.25});
    const std::string s = t.to_string();
    EXPECT_NE(s.find("bb"), std::string::npos);
    EXPECT_NE(s.find("2.5"), std::string::npos);
    EXPECT_NE(s.find("3.25"), std::string::npos);
    EXPECT_EQ(t.rows(), 2U);
    EXPECT_EQ(t.columns(), 2U);
}

TEST(ascii_table, pads_short_rows)
{
    ascii_table t({"a", "b", "c"});
    t.add_row({"only"});
    EXPECT_NO_THROW(t.to_string());
}

TEST(fmt, formatting_helpers)
{
    EXPECT_EQ(fmt_fixed(1.005, 2), "1.00");
    EXPECT_EQ(fmt_percent(0.5, 0), "50%");
    EXPECT_EQ(fmt_double(1234.0, 4), "1234");
    EXPECT_NE(fmt_sci(0.001, 2).find("e"), std::string::npos);
}

} // namespace
} // namespace dvafs
