// Differential suite for the host-SIMD layer (src/vec/): every backend
// available on this host must be bit-identical to the scalar overlay on
// every kernel -- the fused toggle kernel, the 64x64 bit transpose, the
// float GEMM, the quantizer and the int8/int16 widening MAC kernels --
// over random inputs, ragged sizes, signed extremes and IEEE corner
// values.
// Plus the dispatch contracts: DVAFS_FORCE_ISA round-trip via
// refresh_from_env, graceful fallback when a forced ISA is unavailable,
// and an end-to-end compiled_sim run per forced backend.

#include "vec/vec.h"

#include "circuit/compiled_sim.h"
#include "circuit/gate_kinds.h"
#include "circuit/netlist.h"
#include "fixedpoint/bitops.h"
#include "util/rng.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <vector>

namespace dvafs {
namespace {

// Every test in this file pins and re-pins the dispatched backend;
// restore whatever the environment selected so test order cannot leak.
class vec_test : public ::testing::Test {
protected:
    void SetUp() override { restore_ = vec::active_isa(); }
    void TearDown() override
    {
        ASSERT_TRUE(vec::force_isa(restore_));
    }

private:
    vec::isa restore_ = vec::isa::scalar;
};

const vec::kernel_table& scalar_table()
{
    const vec::kernel_table* t = vec::scalar::table();
    EXPECT_NE(t, nullptr);
    return *t;
}

// Backends to test against scalar: all available non-scalar ones.
std::vector<vec::isa> other_backends()
{
    std::vector<vec::isa> out;
    for (const vec::isa level : vec::available()) {
        if (level != vec::isa::scalar) {
            out.push_back(level);
        }
    }
    return out;
}

TEST_F(vec_test, scalar_always_available)
{
    const std::vector<vec::isa> avail = vec::available();
    ASSERT_FALSE(avail.empty());
    EXPECT_EQ(avail.front(), vec::isa::scalar);
    for (const vec::isa level : avail) {
        const vec::kernel_table* t = vec::table_for(level);
        ASSERT_NE(t, nullptr);
        EXPECT_EQ(t->level, static_cast<int>(level));
        EXPECT_STREQ(t->name, vec::isa_name(level));
    }
}

TEST_F(vec_test, shift_transitions_matches_scalar)
{
    pcg32 rng(202);
    for (const vec::isa level : other_backends()) {
        const vec::kernel_table& kt = *vec::table_for(level);
        for (int n = 0; n <= 21; ++n) {
            for (int rep = 0; rep < 16; ++rep) {
                std::vector<std::uint64_t> cur(std::max(n, 1));
                std::vector<std::uint64_t> m(std::max(n, 1));
                for (int i = 0; i < n; ++i) {
                    cur[static_cast<std::size_t>(i)] = rng.next_u64();
                    m[static_cast<std::size_t>(i)] =
                        rep % 4 == 0 ? ~0ULL : rng.next_u64();
                }
                const std::uint64_t carry = rep & 1;
                ASSERT_EQ(
                    kt.shift_transitions(cur.data(), m.data(), n, carry),
                    scalar_table().shift_transitions(cur.data(), m.data(),
                                                     n, carry))
                    << vec::isa_name(level) << " n=" << n;
            }
        }
    }
}

TEST_F(vec_test, transpose64_matches_reference_network)
{
    pcg32 rng(303);
    for (const vec::isa level : vec::available()) {
        const vec::kernel_table& kt = *vec::table_for(level);
        for (int rep = 0; rep < 32; ++rep) {
            std::uint64_t ref[64];
            std::uint64_t got[64];
            for (std::uint64_t& w : ref) {
                w = rng.next_u64();
            }
            std::memcpy(got, ref, sizeof(ref));
            transpose64(ref); // fixedpoint/bitops.h reference
            kt.transpose64(got);
            ASSERT_EQ(std::memcmp(got, ref, sizeof(ref)), 0)
                << vec::isa_name(level);
        }
    }
}

// GEMM shapes covering the fc n == 1 fast path, full 4x16 int8 and 4x8
// int16 tiles, ragged m/n edges, k == 0 (bias copy) and single elements.
// The n == 1 rows with k = 17, 33, 47 give every integer dot width (8,
// 16, 32) a full vector step plus a scalar tail.
struct gemm_shape {
    std::size_t m, k, n;
};

const gemm_shape kGemmShapes[] = {
    {8, 576, 1}, {4, 64, 16}, {4, 8, 8},  {5, 33, 19}, {1, 7, 1},
    {3, 66, 40}, {4, 0, 8},   {2, 5, 3},  {1, 1, 1},   {9, 31, 17},
    {3, 17, 1},  {3, 33, 1},  {3, 47, 1},
};

// Bit equality, except that any NaN matches any NaN: which of two NaN
// operands an add propagates depends on the operand order the compiler
// picks, so a NaN's sign and payload are outside the contract.
bool same_bits(float x, float y)
{
    return (std::isnan(x) && std::isnan(y))
           || std::bit_cast<std::uint32_t>(x)
                  == std::bit_cast<std::uint32_t>(y);
}

// Uniform values with signed zeros (1 in 8) and, when `specials`, a few
// infinities, NaNs, +-FLT_MAX, +-FLT_MIN and subnormals mixed in.
void fill_float_operands(std::vector<float>& v, pcg32& rng, double span,
                         bool specials)
{
    const float inf = std::numeric_limits<float>::infinity();
    const float big = std::numeric_limits<float>::max();
    const float tiny = std::numeric_limits<float>::min();
    for (float& x : v) {
        const std::uint32_t r = rng.bounded(1200);
        const float sign = r % 2 == 0 ? 1.0F : -1.0F;
        x = r < 75                ? 0.0F
            : r < 150             ? -0.0F
            : !specials || r >= 166
                ? static_cast<float>(rng.uniform(-span, span))
            : r < 152 ? inf
            : r < 154 ? -inf
            : r < 156 ? std::numeric_limits<float>::quiet_NaN()
            : r < 159 ? sign * big
            : r < 161 ? sign * tiny
                      : sign * std::bit_cast<float>(
                          1U + rng.bounded(0x7fffffU));
    }
}

// Order-sensitive operands (see fill_cancelling in test_gemm.cpp): a
// quarter are +-2^30, whose exactly cancelling products make the float
// output depend on the order and width of the k reduction.
void fill_cancelling(std::vector<float>& v, pcg32& rng)
{
    for (float& x : v) {
        const std::uint32_t r = rng.bounded(8);
        x = r == 0   ? 0x1p30F
            : r == 1 ? -0x1p30F
                     : static_cast<float>(rng.uniform(-2.0, 2.0));
    }
}

TEST_F(vec_test, gemm_f32_bit_identical)
{
    // kGemmShapes plus the edges of the 8-row panel, the 24-column tile
    // (and its 8-column groups) and the n == 1 matrix-vector path, whose
    // passes of one to four groups of eight rows the m >= 24 rows reach.
    std::vector<gemm_shape> shapes(std::begin(kGemmShapes),
                                   std::end(kGemmShapes));
    for (const std::size_t m : {1, 6, 7, 9, 15, 17}) {
        for (const std::size_t n : {1, 9, 23, 24, 25, 49, 100}) {
            for (const std::size_t k : {0, 1, 27, 433}) {
                shapes.push_back({m, k, n});
            }
        }
    }
    for (const std::size_t m : {24, 31, 32, 33, 65}) {
        for (const std::size_t k : {0, 1, 27, 433}) {
            shapes.push_back({m, k, 1});
        }
    }
    pcg32 rng(404);
    const char* const mode_names[] = {"", " specials", " cancelling"};
    for (const gemm_shape& sh : shapes) {
        for (int mode = 0; mode < 3; ++mode) {
            std::vector<float> a(sh.m * sh.k);
            std::vector<float> b(sh.k * sh.n);
            std::vector<float> bias(sh.m);
            if (mode == 2) {
                fill_cancelling(a, rng);
                fill_cancelling(b, rng);
                fill_cancelling(bias, rng);
            } else {
                const bool specials = mode == 1;
                fill_float_operands(a, rng, 2.0, specials);
                fill_float_operands(b, rng, 2.0, specials);
                fill_float_operands(bias, rng, 1.0, specials);
            }
            const float* const biases[] = {bias.data(), nullptr};
            for (const float* bp : biases) {
                std::vector<float> ref(sh.m * sh.n);
                scalar_table().gemm_f32(a.data(), b.data(), bp, ref.data(),
                                        sh.m, sh.k, sh.n, nullptr);
                for (const vec::isa level : other_backends()) {
                    std::vector<float> c(sh.m * sh.n);
                    vec::table_for(level)->gemm_f32(a.data(), b.data(), bp,
                                                    c.data(), sh.m, sh.k,
                                                    sh.n, nullptr);
                    for (std::size_t e = 0; e < c.size(); ++e) {
                        ASSERT_TRUE(same_bits(c[e], ref[e]))
                            << vec::isa_name(level) << " " << sh.m << "x"
                            << sh.k << "x" << sh.n
                            << mode_names[mode]
                            << (bp == nullptr ? " no bias" : "")
                            << " element " << e << ": " << c[e] << " vs "
                            << ref[e];
                    }
                }
            }
        }
    }
}

// The row-offset form of gemm_f32, B(r, j) = b[boff[r] + j], on rows
// that are overlapping shifted views of one buffer, as the stride-1 conv
// lowering makes them (cnn/gemm.h). The scalar table must give the bits
// of a dense GEMM over the same rows gathered into a k x n matrix, and
// every backend those of the scalar table -- n == 1 included, which a
// row-offset B sends down the panel path instead of the dense gemv.
TEST_F(vec_test, gemm_f32_row_offsets_bit_identical)
{
    pcg32 rng(505);
    const char* const mode_names[] = {"", " specials", " cancelling"};
    for (const std::size_t m : {1, 7, 9, 17}) {
        for (const std::size_t n : {1, 9, 23, 24, 25, 49}) {
            for (const std::size_t k : {0, 1, 27, 150}) {
                for (int mode = 0; mode < 3; ++mode) {
                    std::vector<float> a(m * k);
                    std::vector<float> plane(2 * n + 37);
                    std::vector<float> bias(m);
                    if (mode == 2) {
                        fill_cancelling(a, rng);
                        fill_cancelling(plane, rng);
                        fill_cancelling(bias, rng);
                    } else {
                        fill_float_operands(a, rng, 2.0, mode == 1);
                        fill_float_operands(plane, rng, 2.0, mode == 1);
                        fill_float_operands(bias, rng, 1.0, mode == 1);
                    }
                    std::vector<std::size_t> boff(k);
                    std::vector<float> dense(k * n);
                    for (std::size_t r = 0; r < k; ++r) {
                        boff[r] = rng.bounded(
                            static_cast<std::uint32_t>(plane.size() - n + 1));
                        for (std::size_t j = 0; j < n; ++j) {
                            dense[r * n + j] = plane[boff[r] + j];
                        }
                    }
                    const std::string what =
                        std::to_string(m) + "x" + std::to_string(k) + "x"
                        + std::to_string(n) + mode_names[mode];
                    std::vector<float> want(m * n);
                    scalar_table().gemm_f32(a.data(), dense.data(),
                                            bias.data(), want.data(), m, k,
                                            n, nullptr);
                    for (const vec::isa level : vec::available()) {
                        std::vector<float> c(m * n);
                        vec::table_for(level)->gemm_f32(
                            a.data(), plane.data(), bias.data(), c.data(), m,
                            k, n, boff.data());
                        for (std::size_t e = 0; e < c.size(); ++e) {
                            ASSERT_TRUE(same_bits(c[e], want[e]))
                                << vec::isa_name(level) << " " << what
                                << " element " << e << ": " << c[e]
                                << " vs " << want[e];
                        }
                    }
                }
            }
        }
    }
}

// The quantizer kernel: every backend matches the scalar overlay byte for
// byte in both output forms, over ragged lengths, every bit-width the
// engines use, steps that put values on rounding ties, and saturating
// steps; and every backend reports a non-finite input the same way.
TEST_F(vec_test, quantize_f32_bit_identical)
{
    pcg32 rng(808);
    for (const std::size_t len : {1, 3, 4, 7, 8, 9, 15, 16, 17, 100, 257}) {
        std::vector<float> x(len);
        for (float& v : x) {
            const std::uint32_t r = rng.bounded(10);
            // Half-integers times the step are exact ties.
            v = r == 0   ? 0.0F
                : r == 1 ? -0.0F
                : r < 4  ? static_cast<float>(
                              0.5 * (static_cast<double>(rng.bounded(41))
                                     - 20.0))
                         : static_cast<float>(rng.gaussian(0.0, 3.0));
        }
        for (const int bits : {1, 2, 4, 8, 12, 16, 31, 32}) {
            for (const double step : {1.0, 0.25, 1e-3, 7.0 / 3.0}) {
                const double lo =
                    static_cast<double>(signed_min(bits));
                const double hi =
                    static_cast<double>(signed_max(bits));
                std::vector<float> fake_ref(len);
                std::vector<std::int32_t> codes_ref(len);
                ASSERT_TRUE(scalar_table().quantize_f32(
                    x.data(), len, step, lo, hi, fake_ref.data(), nullptr));
                ASSERT_TRUE(scalar_table().quantize_f32(
                    x.data(), len, step, lo, hi, nullptr, codes_ref.data()));
                for (const vec::isa level : other_backends()) {
                    const vec::kernel_table& t = *vec::table_for(level);
                    std::vector<float> fake(len);
                    std::vector<std::int32_t> codes(len);
                    ASSERT_TRUE(t.quantize_f32(x.data(), len, step, lo, hi,
                                               fake.data(), nullptr));
                    ASSERT_TRUE(t.quantize_f32(x.data(), len, step, lo, hi,
                                               nullptr, codes.data()));
                    ASSERT_EQ(std::memcmp(fake.data(), fake_ref.data(),
                                          len * sizeof(float)),
                              0)
                        << vec::isa_name(level) << " len " << len
                        << " bits " << bits << " step " << step;
                    ASSERT_EQ(codes, codes_ref)
                        << vec::isa_name(level) << " len " << len
                        << " bits " << bits << " step " << step;
                }
            }
        }
        // One non-finite element anywhere, the tail included, is reported
        // by every backend.
        for (const float bad : {std::numeric_limits<float>::infinity(),
                                -std::numeric_limits<float>::infinity(),
                                std::numeric_limits<float>::quiet_NaN()}) {
            std::vector<float> y = x;
            y[rng.bounded(static_cast<std::uint32_t>(len))] = bad;
            std::vector<std::int32_t> codes(len);
            for (const vec::isa level : vec::available()) {
                EXPECT_FALSE(vec::table_for(level)->quantize_f32(
                    y.data(), len, 0.5, -128.0, 127.0, nullptr,
                    codes.data()))
                    << vec::isa_name(level) << " len " << len;
            }
        }
    }
}

TEST_F(vec_test, gemm_s8_exact_including_extremes)
{
    pcg32 rng(505);
    for (const gemm_shape& sh : kGemmShapes) {
        std::vector<std::int8_t> a(std::max<std::size_t>(sh.m * sh.k, 1));
        std::vector<std::int8_t> b(std::max<std::size_t>(sh.k * sh.n, 1));
        std::vector<std::int32_t> bias(sh.m);
        // Saturate some entries to the INT8_MIN corner that breaks the
        // maddubs abs/sign trick -- the kernels must not use it.
        for (std::int8_t& v : a) {
            const std::uint64_t r = rng.next_u64();
            v = (r & 7) == 0 ? std::int8_t{-128}
                             : static_cast<std::int8_t>(r);
        }
        for (std::int8_t& v : b) {
            const std::uint64_t r = rng.next_u64();
            v = (r & 7) == 0 ? std::int8_t{-128}
                             : static_cast<std::int8_t>(r);
        }
        for (std::int32_t& v : bias) {
            v = static_cast<std::int32_t>(rng.next_u64());
        }
        const std::int32_t* const biases[] = {bias.data(), nullptr};
        for (const std::int32_t* bp : biases) {
            std::vector<std::int32_t> ref(sh.m * sh.n);
            scalar_table().gemm_s8(a.data(), b.data(), bp, ref.data(), sh.m,
                                   sh.k, sh.n);
            // The scalar overlay itself must match the textbook loop.
            for (std::size_t i = 0; i < sh.m; ++i) {
                for (std::size_t j = 0; j < sh.n; ++j) {
                    std::int32_t acc = bp != nullptr ? bp[i] : 0;
                    for (std::size_t r = 0; r < sh.k; ++r) {
                        acc += static_cast<std::int32_t>(a[i * sh.k + r])
                               * static_cast<std::int32_t>(b[r * sh.n + j]);
                    }
                    ASSERT_EQ(ref[i * sh.n + j], acc)
                        << "scalar kernel vs reference at " << i << ","
                        << j;
                }
            }
            for (const vec::isa level : other_backends()) {
                std::vector<std::int32_t> c(sh.m * sh.n);
                vec::table_for(level)->gemm_s8(a.data(), b.data(), bp,
                                               c.data(), sh.m, sh.k, sh.n);
                ASSERT_EQ(c, ref)
                    << vec::isa_name(level) << " " << sh.m << "x" << sh.k
                    << "x" << sh.n << (bp == nullptr ? " no bias" : "");
            }
        }
    }
}

TEST_F(vec_test, gemm_s16_exact_including_extremes)
{
    pcg32 rng(606);
    for (const gemm_shape& sh : kGemmShapes) {
        std::vector<std::int16_t> a(std::max<std::size_t>(sh.m * sh.k, 1));
        std::vector<std::int16_t> b(std::max<std::size_t>(sh.k * sh.n, 1));
        std::vector<std::int64_t> bias(sh.m);
        for (std::int16_t& v : a) {
            const std::uint64_t r = rng.next_u64();
            v = (r & 7) == 0 ? std::int16_t{-32768}
                             : static_cast<std::int16_t>(r);
        }
        for (std::int16_t& v : b) {
            const std::uint64_t r = rng.next_u64();
            v = (r & 7) == 0 ? std::int16_t{-32768}
                             : static_cast<std::int16_t>(r);
        }
        for (std::int64_t& v : bias) {
            v = static_cast<std::int64_t>(rng.next_u64() >> 16);
        }
        const std::int64_t* const biases[] = {bias.data(), nullptr};
        for (const std::int64_t* bp : biases) {
            std::vector<std::int64_t> ref(sh.m * sh.n);
            scalar_table().gemm_s16(a.data(), b.data(), bp, ref.data(),
                                    sh.m, sh.k, sh.n);
            // The scalar overlay itself must match the textbook loop.
            for (std::size_t i = 0; i < sh.m; ++i) {
                for (std::size_t j = 0; j < sh.n; ++j) {
                    std::int64_t acc = bp != nullptr ? bp[i] : 0;
                    for (std::size_t r = 0; r < sh.k; ++r) {
                        acc += static_cast<std::int64_t>(a[i * sh.k + r])
                               * static_cast<std::int64_t>(b[r * sh.n + j]);
                    }
                    ASSERT_EQ(ref[i * sh.n + j], acc)
                        << "scalar kernel vs reference at " << i << ","
                        << j;
                }
            }
            for (const vec::isa level : other_backends()) {
                std::vector<std::int64_t> c(sh.m * sh.n);
                vec::table_for(level)->gemm_s16(a.data(), b.data(), bp,
                                                c.data(), sh.m, sh.k, sh.n);
                ASSERT_EQ(c, ref)
                    << vec::isa_name(level) << " " << sh.m << "x" << sh.k
                    << "x" << sh.n << (bp == nullptr ? " no bias" : "");
            }
        }
    }
}

// Random netlist over every gate kind (mirrors test_compiled_sim.cpp).
netlist random_netlist(int n_inputs, int n_gates, std::uint64_t seed)
{
    pcg32 rng(seed);
    netlist nl;
    for (int i = 0; i < n_inputs; ++i) {
        nl.add_input("i" + std::to_string(i));
    }
    nl.add_const(false);
    nl.add_const(true);
    const gate_kind kinds[] = {
        gate_kind::buf,    gate_kind::not_g,  gate_kind::and_g,
        gate_kind::or_g,   gate_kind::xor_g,  gate_kind::nand_g,
        gate_kind::nor_g,  gate_kind::xnor_g, gate_kind::and3_g,
        gate_kind::or3_g,  gate_kind::mux_g,  gate_kind::maj_g,
    };
    for (int g = 0; g < n_gates; ++g) {
        const gate_kind k =
            kinds[rng.bounded(static_cast<std::uint32_t>(std::size(kinds)))];
        const auto pick = [&] {
            return static_cast<net_id>(
                rng.bounded(static_cast<std::uint32_t>(nl.size())));
        };
        nl.add_gate(k, pick(),
                    fanin_count(k) >= 2 ? pick() : no_net,
                    fanin_count(k) >= 3 ? pick() : no_net);
    }
    return nl;
}

// Drives the same partial-batch stream through compiled_sim under one
// backend, returning final toggles per net (the exec_gates + fused toggle
// kernel end to end, including the masked partial batch).
std::vector<std::uint64_t> compiled_toggles(const netlist& nl,
                                            vec::isa level,
                                            std::uint64_t seed)
{
    constexpr std::size_t words_per_input = compiled_sim::lane_words;
    EXPECT_TRUE(vec::force_isa(level));
    compiled_sim sim(
        std::make_shared<const compiled_schedule>(compile_netlist(nl)));
    pcg32 rng(seed);
    const std::size_t n_in = nl.inputs().size();
    for (const int count : {compiled_sim::lane_capacity, 17, 1, 63, 200}) {
        std::vector<std::uint64_t> words(n_in * words_per_input, 0);
        for (int lane = 0; lane < count; ++lane) {
            for (std::size_t i = 0; i < n_in; ++i) {
                if (rng.bernoulli(0.5)) {
                    words[i * words_per_input
                          + static_cast<std::size_t>(lane) / 64] |=
                        1ULL << (lane & 63);
                }
            }
        }
        sim.apply(words, count);
    }
    std::vector<std::uint64_t> out;
    for (net_id id = 0; id < nl.size(); ++id) {
        out.push_back(sim.toggles(id));
    }
    out.push_back(sim.transitions());
    return out;
}

TEST_F(vec_test, compiled_sim_identical_across_backends)
{
    const netlist nl = random_netlist(12, 300, 777);
    const auto ref = compiled_toggles(nl, vec::isa::scalar, 9);
    for (const vec::isa level : other_backends()) {
        EXPECT_EQ(compiled_toggles(nl, level, 9), ref)
            << vec::isa_name(level);
    }
}

TEST_F(vec_test, force_isa_round_trip)
{
    for (const vec::isa level : vec::available()) {
        ASSERT_TRUE(vec::force_isa(level));
        EXPECT_EQ(vec::active_isa(), level);
        EXPECT_STREQ(vec::active().name, vec::isa_name(level));
        // The string overload agrees.
        ASSERT_TRUE(vec::force_isa(std::string(vec::isa_name(level))));
        EXPECT_EQ(vec::active_isa(), level);
    }
}

TEST_F(vec_test, force_unavailable_isa_fails_gracefully)
{
    // On any single host at least one of neon/avx512 is unavailable.
    const std::vector<vec::isa> avail = vec::available();
    for (const vec::isa level :
         {vec::isa::neon, vec::isa::avx2, vec::isa::avx512}) {
        if (std::find(avail.begin(), avail.end(), level) != avail.end()) {
            continue;
        }
        const vec::isa before = vec::active_isa();
        EXPECT_FALSE(vec::force_isa(level));
        EXPECT_EQ(vec::active_isa(), before) << "failed force must not "
                                                "change dispatch";
    }
    EXPECT_FALSE(vec::force_isa(std::string("no-such-isa")));
}

TEST_F(vec_test, refresh_from_env_round_trip)
{
    for (const vec::isa level : vec::available()) {
        ASSERT_EQ(setenv("DVAFS_FORCE_ISA", vec::isa_name(level), 1), 0);
        EXPECT_EQ(vec::refresh_from_env(), level);
        EXPECT_EQ(vec::active_isa(), level);
    }
    // Unknown and unavailable values warn and fall back to best-available;
    // an unset variable restores best-available.
    ASSERT_EQ(setenv("DVAFS_FORCE_ISA", "bogus", 1), 0);
    const vec::isa best = vec::refresh_from_env();
    ASSERT_EQ(unsetenv("DVAFS_FORCE_ISA"), 0);
    EXPECT_EQ(vec::refresh_from_env(), best);
}

TEST_F(vec_test, parse_isa_names)
{
    vec::isa out{};
    EXPECT_TRUE(vec::parse_isa("scalar", out));
    EXPECT_EQ(out, vec::isa::scalar);
    EXPECT_TRUE(vec::parse_isa("avx512", out));
    EXPECT_EQ(out, vec::isa::avx512);
    EXPECT_FALSE(vec::parse_isa("", out));
    EXPECT_FALSE(vec::parse_isa("AVX2", out));
}

} // namespace
} // namespace dvafs
