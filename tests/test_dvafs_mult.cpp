// Functional correctness of the subword-parallel DVAFS multiplier:
// exhaustive at width 8 (all modes, all DAS levels), randomized at width 16,
// plus the packing helpers it shares with the SIMD processor.

#include "mult/dvafs_mult.h"

#include "util/rng.h"

#include <gtest/gtest.h>

#include <ostream>
#include <vector>

namespace dvafs {

// Readable, stable parameter names for the per-mode suites ("1x16"
// instead of gtest's raw-byte dump of the enum).
void PrintTo(sw_mode m, std::ostream* os)
{
    *os << to_string(m);
}

namespace {

TEST(subword, pack_unpack_round_trip)
{
    for (const sw_mode m : all_sw_modes) {
        const int n = lane_count(m);
        const int lb = lane_bits(m);
        pcg32 rng(1);
        for (int it = 0; it < 200; ++it) {
            std::vector<std::int32_t> lanes(static_cast<std::size_t>(n));
            for (auto& v : lanes) {
                v = static_cast<std::int32_t>(
                    rng.range(signed_min(lb), signed_max(lb)));
            }
            const std::uint16_t w = pack_lanes(lanes, m);
            EXPECT_EQ(unpack_lanes(w, m), lanes);
        }
    }
}

TEST(subword, product_pack_round_trip)
{
    for (const sw_mode m : all_sw_modes) {
        const int n = lane_count(m);
        const int pb = 2 * lane_bits(m);
        pcg32 rng(2);
        for (int it = 0; it < 200; ++it) {
            std::vector<std::int32_t> lanes(static_cast<std::size_t>(n));
            for (auto& v : lanes) {
                v = static_cast<std::int32_t>(
                    rng.range(signed_min(pb), signed_max(pb)));
            }
            const std::uint32_t w = pack_products(lanes, m);
            EXPECT_EQ(unpack_products(w, m), lanes);
        }
    }
}

TEST(subword, multiply_lane_semantics)
{
    pcg32 rng(3);
    for (const sw_mode m : all_sw_modes) {
        const int lb = lane_bits(m);
        for (int it = 0; it < 500; ++it) {
            const auto a = static_cast<std::uint16_t>(rng.next_u32());
            const auto b = static_cast<std::uint16_t>(rng.next_u32());
            const std::uint32_t p = subword_multiply(a, b, m);
            const auto av = unpack_lanes(a, m);
            const auto bv = unpack_lanes(b, m);
            const auto pv = unpack_products(p, m);
            for (std::size_t i = 0; i < av.size(); ++i) {
                EXPECT_EQ(pv[i], av[i] * bv[i])
                    << to_string(m) << " lane " << i;
            }
            (void)lb;
        }
    }
}

TEST(subword, truncate_per_lane)
{
    const std::uint16_t a = pack_lanes({0x7f, -0x80}, sw_mode::w2x8);
    const std::uint16_t t = subword_truncate(a, sw_mode::w2x8, 4);
    const auto lanes = unpack_lanes(t, sw_mode::w2x8);
    EXPECT_EQ(lanes[0], 0x70);
    EXPECT_EQ(lanes[1], -0x80);
}

TEST(subword, mac_saturates_per_lane)
{
    // Accumulate the max product repeatedly in 4x4 mode: each 8-bit lane
    // accumulator must clamp at 127.
    const std::uint16_t a = pack_lanes({7, 7, 7, 7}, sw_mode::w4x4);
    const std::uint16_t b = pack_lanes({7, 7, 7, 7}, sw_mode::w4x4);
    std::uint32_t acc = 0;
    for (int i = 0; i < 10; ++i) {
        acc = subword_mac(acc, a, b, sw_mode::w4x4);
    }
    for (const std::int32_t v : unpack_products(acc, sw_mode::w4x4)) {
        EXPECT_EQ(v, 127);
    }
}

TEST(subword, mode_parsing)
{
    EXPECT_EQ(parse_sw_mode("1x16"), sw_mode::w1x16);
    EXPECT_EQ(parse_sw_mode("2x8"), sw_mode::w2x8);
    EXPECT_EQ(parse_sw_mode("4x4"), sw_mode::w4x4);
    EXPECT_THROW((void)parse_sw_mode("3x5"), std::invalid_argument);
    EXPECT_STREQ(to_string(sw_mode::w2x8), "2x8");
}

// -- gate-level multiplier ----------------------------------------------------

class dvafs_mode_test : public ::testing::TestWithParam<sw_mode> {};

TEST_P(dvafs_mode_test, width8_exhaustive)
{
    const sw_mode mode = GetParam();
    dvafs_multiplier m(8);
    m.set_mode(mode);
    for (std::uint64_t a = 0; a < 256; ++a) {
        for (std::uint64_t b = 0; b < 256; ++b) {
            ASSERT_EQ(m.simulate_packed(a, b), m.functional_packed(a, b))
                << to_string(mode) << " a=" << a << " b=" << b;
        }
    }
}

TEST_P(dvafs_mode_test, width16_randomized)
{
    const sw_mode mode = GetParam();
    dvafs_multiplier m(16);
    m.set_mode(mode);
    pcg32 rng(31);
    for (int i = 0; i < 3000; ++i) {
        const std::uint64_t a = rng.next_u32() & 0xffff;
        const std::uint64_t b = rng.next_u32() & 0xffff;
        ASSERT_EQ(m.simulate_packed(a, b), m.functional_packed(a, b))
            << to_string(mode) << " a=" << a << " b=" << b;
    }
}

INSTANTIATE_TEST_SUITE_P(modes, dvafs_mode_test,
                         ::testing::ValuesIn(all_sw_modes));

class dvafs_das_test : public ::testing::TestWithParam<int> {};

TEST_P(dvafs_das_test, width8_das_exhaustive)
{
    const int keep = GetParam();
    dvafs_multiplier m(8);
    m.set_mode(sw_mode::w1x16);
    m.set_das_precision(keep);
    for (std::uint64_t a = 0; a < 256; ++a) {
        for (std::uint64_t b = 0; b < 256; ++b) {
            ASSERT_EQ(m.simulate_packed(a, b), m.functional_packed(a, b))
                << "keep=" << keep << " a=" << a << " b=" << b;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(das_levels, dvafs_das_test,
                         ::testing::Values(2, 4, 6, 8));

TEST(dvafs_mult, width16_das_randomized)
{
    dvafs_multiplier m(16);
    pcg32 rng(37);
    for (const int keep : {4, 8, 12, 16}) {
        m.set_das_precision(keep);
        for (int i = 0; i < 2000; ++i) {
            const std::uint64_t a = rng.next_u32() & 0xffff;
            const std::uint64_t b = rng.next_u32() & 0xffff;
            ASSERT_EQ(m.simulate_packed(a, b), m.functional_packed(a, b))
                << "keep=" << keep;
        }
    }
}

TEST(dvafs_mult, das_truncates_operands)
{
    dvafs_multiplier m(16);
    m.set_das_precision(8);
    // 0x00ff truncated to the top 8 bits is 0 -> product 0.
    EXPECT_EQ(m.simulate_packed(0x00ff, 0x00ff), 0U);
    // 0x0100 survives truncation.
    EXPECT_EQ(m.simulate_packed(0x0100, 0x0100),
              static_cast<std::uint64_t>(0x0100 * 0x0100));
}

TEST(dvafs_mult, full_mode_matches_plain_signed_multiply)
{
    dvafs_multiplier m(16);
    pcg32 rng(41);
    for (int i = 0; i < 500; ++i) {
        const std::int64_t a = rng.range(-32768, 32767);
        const std::int64_t b = rng.range(-32768, 32767);
        EXPECT_EQ(m.simulate(a, b), a * b);
        EXPECT_EQ(m.functional(a, b), a * b);
    }
}

TEST(dvafs_mult, corner_cases_all_modes)
{
    dvafs_multiplier m(16);
    for (const sw_mode mode : all_sw_modes) {
        m.set_mode(mode);
        const int lb = lane_bits(mode);
        const std::vector<std::int32_t> corners{
            static_cast<std::int32_t>(signed_min(lb)),
            static_cast<std::int32_t>(signed_max(lb)), -1, 0, 1};
        for (const std::int32_t av : corners) {
            for (const std::int32_t bv : corners) {
                std::vector<std::int32_t> al(
                    static_cast<std::size_t>(lane_count(mode)), av);
                std::vector<std::int32_t> bl(
                    static_cast<std::size_t>(lane_count(mode)), bv);
                const std::uint16_t a = pack_lanes(al, mode);
                const std::uint16_t b = pack_lanes(bl, mode);
                ASSERT_EQ(m.simulate_packed(a, b),
                          m.functional_packed(a, b))
                    << to_string(mode) << " " << av << "*" << bv;
            }
        }
    }
}

TEST(dvafs_mult, lane_independence_property)
{
    // Changing one lane's operands must not change any other lane's result.
    dvafs_multiplier m(16);
    m.set_mode(sw_mode::w4x4);
    pcg32 rng(43);
    for (int it = 0; it < 300; ++it) {
        std::vector<std::int32_t> a(4);
        std::vector<std::int32_t> b(4);
        for (int l = 0; l < 4; ++l) {
            a[static_cast<std::size_t>(l)] =
                static_cast<std::int32_t>(rng.range(-8, 7));
            b[static_cast<std::size_t>(l)] =
                static_cast<std::int32_t>(rng.range(-8, 7));
        }
        const std::uint64_t p0 = m.simulate_packed(
            pack_lanes(a, sw_mode::w4x4), pack_lanes(b, sw_mode::w4x4));
        // Perturb lane 2 only.
        auto a2 = a;
        a2[2] = static_cast<std::int32_t>(rng.range(-8, 7));
        const std::uint64_t p1 = m.simulate_packed(
            pack_lanes(a2, sw_mode::w4x4), pack_lanes(b, sw_mode::w4x4));
        const auto lanes0 = unpack_products(
            static_cast<std::uint32_t>(p0), sw_mode::w4x4);
        const auto lanes1 = unpack_products(
            static_cast<std::uint32_t>(p1), sw_mode::w4x4);
        EXPECT_EQ(lanes0[0], lanes1[0]);
        EXPECT_EQ(lanes0[1], lanes1[1]);
        EXPECT_EQ(lanes0[3], lanes1[3]);
    }
}

TEST(dvafs_mult, das_requires_1x_mode)
{
    dvafs_multiplier m(16);
    m.set_das_precision(8);
    EXPECT_THROW(m.set_mode(sw_mode::w2x8), std::logic_error);
    m.set_das_precision(16);
    m.set_mode(sw_mode::w2x8);
    EXPECT_THROW(m.set_das_precision(8), std::logic_error);
}

TEST(dvafs_mult, das_precision_granularity)
{
    dvafs_multiplier m(16);
    EXPECT_THROW(m.set_das_precision(5), std::invalid_argument);
    EXPECT_THROW(m.set_das_precision(0), std::invalid_argument);
    EXPECT_THROW(m.set_das_precision(20), std::invalid_argument);
    EXPECT_NO_THROW(m.set_das_precision(12));
}

TEST(dvafs_mult, pack_input_words_rejects_count_out_of_range)
{
    // A count above the lane capacity would write past each input's words
    // into the next input's lanes; it must be refused like
    // compiled_sim::apply refuses it.
    const dvafs_multiplier m(8);
    constexpr int cap = compiled_sim::lane_capacity;
    const std::vector<std::uint64_t> a(cap + 1, 3);
    const std::vector<std::uint64_t> b(cap + 1, 5);
    std::vector<std::uint64_t> words;
    EXPECT_THROW(m.pack_input_words(sw_mode::w1x16, 8, a.data(), b.data(),
                                    0, words),
                 std::invalid_argument);
    EXPECT_THROW(m.pack_input_words(sw_mode::w1x16, 8, a.data(), b.data(),
                                    cap + 1, words),
                 std::invalid_argument);
    m.pack_input_words(sw_mode::w1x16, 8, a.data(), b.data(), cap, words);
    EXPECT_EQ(words.size(),
              m.net().inputs().size() * compiled_sim::lane_words);
    // a = 3 in every lane: inputs a0 and a1 are all ones, a2 all zeros.
    constexpr auto lw = static_cast<std::size_t>(compiled_sim::lane_words);
    for (std::size_t k = 0; k < lw; ++k) {
        EXPECT_EQ(words[k], ~0ULL);
        EXPECT_EQ(words[lw + k], ~0ULL);
        EXPECT_EQ(words[2 * lw + k], 0ULL);
    }
}

TEST(dvafs_mult, rejects_bad_width)
{
    EXPECT_THROW(dvafs_multiplier m(6), std::invalid_argument);
    EXPECT_THROW(dvafs_multiplier m(20), std::invalid_argument);
}

} // namespace
} // namespace dvafs
