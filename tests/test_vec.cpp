// Differential suite for the host-SIMD layer (src/vec/): every backend
// available on this host must be bit-identical to the scalar overlay on
// every vocabulary op -- masked popcount, the fused toggle kernel, the
// 64x64 bit transpose, the float GEMM tile and the int8/int16 widening
// MAC kernels -- over random inputs, ragged sizes and signed extremes.
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
#include <cstdlib>
#include <cstring>
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

TEST_F(vec_test, masked_popcount_matches_scalar)
{
    pcg32 rng(101);
    for (const vec::isa level : other_backends()) {
        const vec::kernel_table& kt = *vec::table_for(level);
        for (int n = 0; n <= 21; ++n) {
            for (int rep = 0; rep < 16; ++rep) {
                std::vector<std::uint64_t> x(std::max(n, 1));
                std::vector<std::uint64_t> m(std::max(n, 1));
                for (int i = 0; i < n; ++i) {
                    x[static_cast<std::size_t>(i)] = rng.next_u64();
                    m[static_cast<std::size_t>(i)] =
                        rep % 4 == 0 ? ~0ULL : rng.next_u64();
                }
                ASSERT_EQ(kt.masked_popcount(x.data(), m.data(), n),
                          scalar_table().masked_popcount(x.data(),
                                                         m.data(), n))
                    << vec::isa_name(level) << " n=" << n;
            }
        }
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

// GEMM shapes covering the fc n == 1 fast path, full 4x8 / 4x16 tiles,
// ragged m/n edges, k == 0 (bias copy) and single elements.
struct gemm_shape {
    std::size_t m, k, n;
};

const gemm_shape kGemmShapes[] = {
    {8, 576, 1}, {4, 64, 16}, {4, 8, 8},  {5, 33, 19}, {1, 7, 1},
    {3, 66, 40}, {4, 0, 8},   {2, 5, 3},  {1, 1, 1},   {9, 31, 17},
};

TEST_F(vec_test, gemm_f32_bit_identical)
{
    pcg32 rng(404);
    for (const gemm_shape& sh : kGemmShapes) {
        std::vector<float> a(std::max<std::size_t>(sh.m * sh.k, 1));
        std::vector<float> b(std::max<std::size_t>(sh.k * sh.n, 1));
        std::vector<float> bias(sh.m);
        for (float& v : a) {
            v = static_cast<float>(rng.uniform(-2.0, 2.0));
        }
        for (float& v : b) {
            v = static_cast<float>(rng.uniform(-2.0, 2.0));
        }
        for (float& v : bias) {
            v = static_cast<float>(rng.uniform(-1.0, 1.0));
        }
        std::vector<float> ref(sh.m * sh.n);
        scalar_table().gemm_f32(a.data(), b.data(), bias.data(),
                                ref.data(), sh.m, sh.k, sh.n);
        for (const vec::isa level : other_backends()) {
            std::vector<float> c(sh.m * sh.n);
            vec::table_for(level)->gemm_f32(a.data(), b.data(),
                                            bias.data(), c.data(), sh.m,
                                            sh.k, sh.n);
            ASSERT_EQ(std::memcmp(c.data(), ref.data(),
                                  c.size() * sizeof(float)),
                      0)
                << vec::isa_name(level) << " " << sh.m << "x" << sh.k
                << "x" << sh.n;
        }
        // Null bias path.
        scalar_table().gemm_f32(a.data(), b.data(), nullptr, ref.data(),
                                sh.m, sh.k, sh.n);
        for (const vec::isa level : other_backends()) {
            std::vector<float> c(sh.m * sh.n);
            vec::table_for(level)->gemm_f32(a.data(), b.data(), nullptr,
                                            c.data(), sh.m, sh.k, sh.n);
            ASSERT_EQ(std::memcmp(c.data(), ref.data(),
                                  c.size() * sizeof(float)),
                      0)
                << vec::isa_name(level) << " (no bias)";
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
        std::vector<std::int32_t> ref(sh.m * sh.n);
        scalar_table().gemm_s8(a.data(), b.data(), bias.data(), ref.data(),
                               sh.m, sh.k, sh.n);
        // The scalar overlay itself must match the textbook loop.
        for (std::size_t i = 0; i < sh.m; ++i) {
            for (std::size_t j = 0; j < sh.n; ++j) {
                std::int32_t acc = bias[i];
                for (std::size_t r = 0; r < sh.k; ++r) {
                    acc += static_cast<std::int32_t>(a[i * sh.k + r])
                           * static_cast<std::int32_t>(b[r * sh.n + j]);
                }
                ASSERT_EQ(ref[i * sh.n + j], acc)
                    << "scalar kernel vs reference at " << i << "," << j;
            }
        }
        for (const vec::isa level : other_backends()) {
            std::vector<std::int32_t> c(sh.m * sh.n);
            vec::table_for(level)->gemm_s8(a.data(), b.data(), bias.data(),
                                           c.data(), sh.m, sh.k, sh.n);
            ASSERT_EQ(c, ref) << vec::isa_name(level) << " " << sh.m << "x"
                              << sh.k << "x" << sh.n;
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
        std::vector<std::int64_t> ref(sh.m * sh.n);
        scalar_table().gemm_s16(a.data(), b.data(), bias.data(),
                                ref.data(), sh.m, sh.k, sh.n);
        for (const vec::isa level : other_backends()) {
            std::vector<std::int64_t> c(sh.m * sh.n);
            vec::table_for(level)->gemm_s16(a.data(), b.data(),
                                            bias.data(), c.data(), sh.m,
                                            sh.k, sh.n);
            ASSERT_EQ(c, ref) << vec::isa_name(level) << " " << sh.m << "x"
                              << sh.k << "x" << sh.n;
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
