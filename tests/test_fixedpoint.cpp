#include "fixedpoint/bitops.h"
#include "fixedpoint/quantize.h"
#include "mult/dvafs_mult.h"

#include "util/rng.h"

#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

namespace dvafs {
namespace {

TEST(bitops, low_mask)
{
    EXPECT_EQ(low_mask(0), 0ULL);
    EXPECT_EQ(low_mask(1), 1ULL);
    EXPECT_EQ(low_mask(16), 0xffffULL);
    EXPECT_EQ(low_mask(64), ~0ULL);
}

TEST(bitops, sign_extend_round_trip)
{
    for (int width = 2; width <= 16; ++width) {
        const std::int64_t lo = signed_min(width);
        const std::int64_t hi = signed_max(width);
        for (std::int64_t v = lo; v <= hi; ++v) {
            EXPECT_EQ(sign_extend(to_bits(v, width), width), v)
                << "width=" << width << " v=" << v;
        }
    }
}

TEST(bitops, signed_range)
{
    EXPECT_EQ(signed_min(8), -128);
    EXPECT_EQ(signed_max(8), 127);
    EXPECT_EQ(signed_min(4), -8);
    EXPECT_EQ(signed_max(4), 7);
}

TEST(bitops, clamp_signed)
{
    EXPECT_EQ(clamp_signed(300, 8), 127);
    EXPECT_EQ(clamp_signed(-300, 8), -128);
    EXPECT_EQ(clamp_signed(5, 8), 5);
}

TEST(bitops, fits_signed)
{
    EXPECT_TRUE(fits_signed(127, 8));
    EXPECT_FALSE(fits_signed(128, 8));
    EXPECT_TRUE(fits_signed(-128, 8));
    EXPECT_FALSE(fits_signed(-129, 8));
}

TEST(bitops, hamming)
{
    EXPECT_EQ(hamming(0, 0), 0);
    EXPECT_EQ(hamming(0xff, 0x00), 8);
    EXPECT_EQ(hamming(0b1010, 0b0101), 4);
}

TEST(bitops, truncate_lsbs_matches_masking)
{
    // Truncation keeps the top bits and zeroes the dropped LSBs.
    for (int keep = 1; keep <= 8; ++keep) {
        for (std::int64_t v = -128; v <= 127; ++v) {
            const std::int64_t t = truncate_lsbs(v, 8, keep);
            const std::int64_t mask =
                static_cast<std::int64_t>(~low_mask(8 - keep));
            EXPECT_EQ(t, v & mask) << "keep=" << keep << " v=" << v;
        }
    }
}

TEST(bitops, truncate_lsbs_idempotent)
{
    for (std::int64_t v = -128; v <= 127; ++v) {
        const std::int64_t once = truncate_lsbs(v, 8, 4);
        EXPECT_EQ(truncate_lsbs(once, 8, 4), once);
    }
}

TEST(bitops, round_half_away_ties_away_from_zero)
{
    EXPECT_EQ(round_half_away(2.5), 3);
    EXPECT_EQ(round_half_away(-2.5), -3);
    EXPECT_EQ(round_half_away(0.5), 1);
    EXPECT_EQ(round_half_away(-0.5), -1);
    EXPECT_EQ(round_half_away(2.49), 2);
    EXPECT_EQ(round_half_away(-2.7), -3);
    EXPECT_EQ(round_half_away(0.0), 0);
    EXPECT_EQ(round_half_away(-0.0), 0);
}

TEST(bitops, rounding_rshift_matches_round_half_away)
{
    // The integer shift must agree with the real-valued round-half-away
    // discipline (round_half_away) at every scale.
    for (int shift = 0; shift <= 8; ++shift) {
        for (std::int64_t v = -2049; v <= 2049; ++v) {
            const double exact = std::ldexp(static_cast<double>(v), -shift);
            EXPECT_EQ(rounding_rshift(v, shift), round_half_away(exact))
                << "v=" << v << " shift=" << shift;
        }
    }
}

TEST(bitops, rounding_rshift_symmetric)
{
    for (const std::int64_t v :
         {1LL, 3LL, 100LL, 12345LL, (1LL << 40) + 1, (1LL << 61) - 7}) {
        for (int shift = 0; shift <= 20; ++shift) {
            EXPECT_EQ(rounding_rshift(-v, shift),
                      -rounding_rshift(v, shift))
                << "v=" << v << " shift=" << shift;
        }
    }
}

TEST(bitops, saturating_add_clamps)
{
    EXPECT_EQ(saturating_add(3, 4, 8), 7);
    EXPECT_EQ(saturating_add(100, 100, 8), 127);
    EXPECT_EQ(saturating_add(-100, -100, 8), -128);
    EXPECT_EQ(saturating_add(signed_max(16), 1, 16), signed_max(16));
    EXPECT_EQ(saturating_add(signed_min(16), -1, 16), signed_min(16));
    EXPECT_EQ(saturating_add(signed_max(32), signed_max(32), 33),
              2LL * signed_max(32));
}

TEST(bitops, requantize_identity_scale)
{
    // multiplier 2^30 with shift 30 is exactly scale 1.0.
    const std::int32_t one = std::int32_t{1} << 30;
    for (std::int64_t v = -300; v <= 300; ++v) {
        EXPECT_EQ(requantize(v, one, 30, 16), v);
        EXPECT_EQ(requantize(v, one, 30, 8), clamp_signed(v, 8));
    }
}

TEST(bitops, requantize_saturates_without_wrapping)
{
    const std::int32_t one = std::int32_t{1} << 30;
    const std::int64_t top = std::numeric_limits<std::int64_t>::max();
    EXPECT_EQ(requantize(top, one, 30, 32), signed_max(32));
    EXPECT_EQ(requantize(-top, one, 30, 32), signed_min(32));
    // Negative shift (scale > 1) amplifies before the clamp.
    EXPECT_EQ(requantize(1LL << 20, one, -2, 32), signed_max(32));
    EXPECT_EQ(requantize(-(1LL << 20), one, -2, 32), signed_min(32));
}

TEST(fixed_point, make_requant_scale_normalized)
{
    for (const double scale : {1.0, 0.5, 1.0 / 3.0, 0.123456, 7.25, 1e-6,
                               1e6, 255.0 / 127.0}) {
        const requant_scale rs = make_requant_scale(scale);
        EXPECT_GE(rs.multiplier, std::int32_t{1} << 30) << scale;
        EXPECT_LE(rs.multiplier, signed_max(32)) << scale;
        const double rebuilt =
            std::ldexp(static_cast<double>(rs.multiplier), -rs.shift);
        EXPECT_NEAR(rebuilt / scale, 1.0, 1e-9) << scale;
    }
    // Zero / negative scales collapse to the all-zeros encoding.
    EXPECT_EQ(make_requant_scale(0.0).multiplier, 0);
    EXPECT_EQ(make_requant_scale(-3.0).multiplier, 0);
    EXPECT_EQ(requantize(12345, make_requant_scale(0.0), 16), 0);
}

// -- property suites ---------------------------------------------------------
// Exhaustive differential check of the integer engine's multiply against the
// gate-level DVAFS multiplier: every signed operand pair at the engine's lane
// widths, driven through the compiled 512-lane batch simulator, must match
// the exact arithmetic product (and the functional subword_multiply fast
// path) bit for bit in every subword mode. This is the arithmetic contract
// the int8/int16 GEMM (cnn/gemm_int.h) builds on.

TEST(fixedpoint_property, exhaustive_int8_multiply_matches_gate_level_2x8)
{
    dvafs_multiplier mult(16);
    mult.set_mode(sw_mode::w2x8);
    // All 256*256 int8 pairs, two independent pairs per 16-bit word.
    const int pairs = 256 * 256;
    std::vector<std::uint64_t> aw(pairs / 2);
    std::vector<std::uint64_t> bw(pairs / 2);
    for (int p = 0; p < pairs; p += 2) {
        const std::int32_t a0 = p / 256 - 128;
        const std::int32_t b0 = p % 256 - 128;
        const std::int32_t a1 = (p + 1) / 256 - 128;
        const std::int32_t b1 = (p + 1) % 256 - 128;
        aw[p / 2] = pack_lanes({a0, a1}, sw_mode::w2x8);
        bw[p / 2] = pack_lanes({b0, b1}, sw_mode::w2x8);
    }
    std::vector<std::uint64_t> got(aw.size());
    mult.simulate_packed_batch(aw.data(), bw.data(), aw.size(), got.data());
    for (std::size_t i = 0; i < got.size(); ++i) {
        const std::uint16_t a = static_cast<std::uint16_t>(aw[i]);
        const std::uint16_t b = static_cast<std::uint16_t>(bw[i]);
        ASSERT_EQ(got[i], subword_multiply(a, b, sw_mode::w2x8))
            << "word " << i;
        const auto av = unpack_lanes(a, sw_mode::w2x8);
        const auto bv = unpack_lanes(b, sw_mode::w2x8);
        const auto pv = unpack_products(static_cast<std::uint32_t>(got[i]),
                                        sw_mode::w2x8);
        ASSERT_EQ(pv[0], av[0] * bv[0]) << av[0] << "*" << bv[0];
        ASSERT_EQ(pv[1], av[1] * bv[1]) << av[1] << "*" << bv[1];
    }
}

TEST(fixedpoint_property, exhaustive_int8_multiply_matches_gate_level_1x16)
{
    // The same int8 operand space sign-extended into 16-bit lanes: the
    // widest mode must compute the identical products.
    dvafs_multiplier mult(16);
    mult.set_mode(sw_mode::w1x16);
    const int pairs = 256 * 256;
    std::vector<std::uint64_t> aw(pairs);
    std::vector<std::uint64_t> bw(pairs);
    for (int p = 0; p < pairs; ++p) {
        aw[p] = to_bits(p / 256 - 128, 16);
        bw[p] = to_bits(p % 256 - 128, 16);
    }
    std::vector<std::uint64_t> got(aw.size());
    mult.simulate_packed_batch(aw.data(), bw.data(), aw.size(), got.data());
    for (int p = 0; p < pairs; ++p) {
        const std::int32_t a = p / 256 - 128;
        const std::int32_t b = p % 256 - 128;
        const auto pv = unpack_products(static_cast<std::uint32_t>(got[p]),
                                        sw_mode::w1x16);
        ASSERT_EQ(pv[0], a * b) << a << "*" << b;
    }
}

TEST(fixedpoint_property, exhaustive_int4_multiply_matches_gate_level_4x4)
{
    dvafs_multiplier mult(16);
    mult.set_mode(sw_mode::w4x4);
    // All 16*16 int4 pairs, four independent pairs per word.
    const int pairs = 16 * 16;
    std::vector<std::uint64_t> aw(pairs / 4);
    std::vector<std::uint64_t> bw(pairs / 4);
    for (int p = 0; p < pairs; p += 4) {
        std::vector<std::int32_t> al(4);
        std::vector<std::int32_t> bl(4);
        for (int l = 0; l < 4; ++l) {
            al[l] = (p + l) / 16 - 8;
            bl[l] = (p + l) % 16 - 8;
        }
        aw[p / 4] = pack_lanes(al, sw_mode::w4x4);
        bw[p / 4] = pack_lanes(bl, sw_mode::w4x4);
    }
    std::vector<std::uint64_t> got(aw.size());
    mult.simulate_packed_batch(aw.data(), bw.data(), aw.size(), got.data());
    for (std::size_t i = 0; i < got.size(); ++i) {
        const std::uint16_t a = static_cast<std::uint16_t>(aw[i]);
        const std::uint16_t b = static_cast<std::uint16_t>(bw[i]);
        ASSERT_EQ(got[i], subword_multiply(a, b, sw_mode::w4x4))
            << "word " << i;
        const auto av = unpack_lanes(a, sw_mode::w4x4);
        const auto bv = unpack_lanes(b, sw_mode::w4x4);
        const auto pv = unpack_products(static_cast<std::uint32_t>(got[i]),
                                        sw_mode::w4x4);
        for (int l = 0; l < 4; ++l) {
            ASSERT_EQ(pv[l], av[l] * bv[l]) << av[l] << "*" << bv[l];
        }
    }
}

TEST(fixedpoint_property, requantize_fuzz_never_wraps_and_stays_symmetric)
{
    // Random scales over ~12 decades against accumulators spanning the
    // full int64 range: the result must always land inside the output
    // width (saturation, never wraparound) and rounding must be symmetric
    // about zero whenever the magnitude survives the clamp.
    pcg32 rng(91);
    for (int trial = 0; trial < 20000; ++trial) {
        const double scale =
            std::exp2(static_cast<double>(rng.next_u64() % 4000) / 100.0
                      - 20.0);
        const requant_scale rs = make_requant_scale(scale);
        const int drop = static_cast<int>(rng.next_u64() % 60);
        std::int64_t acc = static_cast<std::int64_t>(rng.next_u64() >> 1)
                           >> drop;
        if (rng.next_u64() & 1) {
            acc = -acc;
        }
        const int w = 2 + static_cast<int>(rng.next_u64() % 31);
        const std::int64_t rp = requantize(acc, rs, w);
        ASSERT_GE(rp, signed_min(w)) << "acc=" << acc << " scale=" << scale;
        ASSERT_LE(rp, signed_max(w)) << "acc=" << acc << " scale=" << scale;
        if (rp > signed_min(w) && rp < signed_max(w)) {
            ASSERT_EQ(requantize(-acc, rs, w), -rp)
                << "acc=" << acc << " scale=" << scale << " w=" << w;
        }
    }
}

TEST(fixedpoint_property, requantize_quantize_round_trip_within_one_ulp)
{
    // Quantize a real value onto a fine grid, requantize the code onto a
    // coarser grid through the integer pipeline, and compare against
    // quantizing directly onto the coarse grid: the detour may cost at most
    // one output code (a half-code from each rounding stage).
    pcg32 rng(17);
    for (int trial = 0; trial < 5000; ++trial) {
        const double x = rng.gaussian(0.0, 4.0);
        const double step1 =
            std::exp2(static_cast<double>(rng.next_u64() % 800) / 100.0
                      - 8.0);
        const double ratio =
            std::exp2(-static_cast<double>(rng.next_u64() % 600) / 100.0);
        const double step2 = step1 / ratio; // coarser or equal grid
        const std::int64_t fine = round_half_away(x / step1);
        const std::int64_t via = requantize(
            fine, make_requant_scale(ratio), 32);
        const std::int64_t direct = round_half_away(x / step2);
        const std::int64_t diff = via > direct ? via - direct : direct - via;
        ASSERT_LE(diff, 1)
            << "x=" << x << " step1=" << step1 << " step2=" << step2;
    }
}

} // namespace
} // namespace dvafs
