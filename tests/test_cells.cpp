#include "circuit/cells.h"

#include "circuit/logic_sim.h"
#include "fixedpoint/bitops.h"
#include "util/rng.h"

#include <gtest/gtest.h>

namespace dvafs {
namespace {

// Drives the inputs of `nl` with the bits of `packed` and reads `out`.
std::uint64_t eval(const netlist& nl, std::uint64_t packed, const bus& out)
{
    logic_sim sim(nl);
    sim.apply_packed(packed);
    return sim.read_bus(out);
}

bus make_inputs(netlist& nl, const std::string& prefix, int n)
{
    bus b;
    for (int i = 0; i < n; ++i) {
        b.push_back(nl.add_input(prefix + std::to_string(i)));
    }
    return b;
}

TEST(cells, half_and_full_adder)
{
    netlist nl;
    const bus in = make_inputs(nl, "i", 3);
    const adder_bit ha = build_half_adder(nl, in[0], in[1]);
    const adder_bit fa = build_full_adder(nl, in[0], in[1], in[2]);
    logic_sim sim(nl);
    for (int v = 0; v < 8; ++v) {
        sim.apply_packed(static_cast<std::uint64_t>(v));
        const int a = v & 1;
        const int b = (v >> 1) & 1;
        const int c = (v >> 2) & 1;
        EXPECT_EQ(sim.value(ha.sum), ((a + b) & 1) != 0);
        EXPECT_EQ(sim.value(ha.carry), (a + b) >= 2);
        EXPECT_EQ(sim.value(fa.sum), ((a + b + c) & 1) != 0);
        EXPECT_EQ(sim.value(fa.carry), (a + b + c) >= 2);
    }
}

// Exhaustive adder equivalence: ripple vs Kogge-Stone vs carry-select.
class adder_test : public ::testing::TestWithParam<int> {};

TEST_P(adder_test, ripple_exhaustive)
{
    const int n = GetParam();
    netlist nl;
    const bus a = make_inputs(nl, "a", n);
    const bus b = make_inputs(nl, "b", n);
    const bus sum = build_ripple_adder(nl, a, b);
    ASSERT_EQ(sum.size(), static_cast<std::size_t>(n + 1));
    for (std::uint64_t x = 0; x < (1ULL << n); ++x) {
        for (std::uint64_t y = 0; y < (1ULL << n); ++y) {
            EXPECT_EQ(eval(nl, x | (y << n), sum), x + y);
        }
    }
}

TEST_P(adder_test, kogge_stone_exhaustive)
{
    const int n = GetParam();
    netlist nl;
    const bus a = make_inputs(nl, "a", n);
    const bus b = make_inputs(nl, "b", n);
    const bus sum = build_kogge_stone_adder(nl, a, b);
    for (std::uint64_t x = 0; x < (1ULL << n); ++x) {
        for (std::uint64_t y = 0; y < (1ULL << n); ++y) {
            EXPECT_EQ(eval(nl, x | (y << n), sum), x + y);
        }
    }
}

TEST_P(adder_test, carry_select_exhaustive)
{
    const int n = GetParam();
    netlist nl;
    const bus a = make_inputs(nl, "a", n);
    const bus b = make_inputs(nl, "b", n);
    const bus sum =
        build_carry_select_adder(nl, a, b, /*block_bits=*/2, {},
                                 /*drop_carry=*/false);
    for (std::uint64_t x = 0; x < (1ULL << n); ++x) {
        for (std::uint64_t y = 0; y < (1ULL << n); ++y) {
            EXPECT_EQ(eval(nl, x | (y << n), sum), x + y);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(widths, adder_test, ::testing::Values(2, 3, 4, 6));

TEST(cells, kogge_stone_width_mismatch_throws)
{
    netlist nl;
    const bus a = make_inputs(nl, "a", 4);
    const bus b = make_inputs(nl, "b", 3);
    EXPECT_THROW((void)build_kogge_stone_adder(nl, a, b),
                 std::invalid_argument);
}

TEST(cells, carry_select_kill_matches_segmented_semantics)
{
    netlist nl;
    const bus a = make_inputs(nl, "a", 4);
    const bus b = make_inputs(nl, "b", 4);
    const net_id keep = nl.add_input("keep");
    const bus sum = build_carry_select_adder(nl, a, b, 2, {{2, keep}});
    logic_sim sim(nl);
    for (std::uint64_t x = 0; x < 16; ++x) {
        for (std::uint64_t y = 0; y < 16; ++y) {
            for (int k = 0; k <= 1; ++k) {
                sim.apply_packed(x | (y << 4)
                                 | (static_cast<std::uint64_t>(k) << 8));
                std::uint64_t want;
                if (k != 0) {
                    want = (x + y) & 0xf;
                } else {
                    const std::uint64_t lo = ((x & 3) + (y & 3)) & 3;
                    const std::uint64_t hi =
                        ((x >> 2) + (y >> 2)) & 3;
                    want = lo | (hi << 2);
                }
                EXPECT_EQ(sim.read_bus(sum), want)
                    << "x=" << x << " y=" << y << " keep=" << k;
            }
        }
    }
}

TEST(cells, wallace_sum_of_many_terms)
{
    // Sum 10 random 6-bit unsigned values via the column compressor.
    netlist nl;
    std::vector<bus> terms;
    for (int t = 0; t < 10; ++t) {
        terms.push_back(make_inputs(nl, "t" + std::to_string(t), 6));
    }
    std::vector<std::vector<net_id>> cols(10);
    for (const bus& t : terms) {
        for (std::size_t i = 0; i < t.size(); ++i) {
            cols[i].push_back(t[i]);
        }
    }
    const bus sum = build_wallace_sum(nl, cols, 10);
    logic_sim sim(nl);
    pcg32 rng(5);
    for (int it = 0; it < 200; ++it) {
        std::uint64_t packed = 0;
        std::uint64_t want = 0;
        for (int t = 0; t < 10; ++t) {
            const std::uint64_t v = rng.next_u32() & 0x3f;
            packed |= v << (6 * t);
            want += v;
        }
        sim.apply_packed(packed);
        EXPECT_EQ(sim.read_bus(sum), want & 0x3ff);
    }
}

TEST(cells, wallace_compressor_reports_adder_counts)
{
    netlist nl;
    const bus a = make_inputs(nl, "a", 4);
    std::vector<std::vector<net_id>> cols(1);
    cols[0] = {a[0], a[1], a[2], a[3]};
    const compressed_rows rows = build_wallace_compressor(nl, cols);
    EXPECT_GT(rows.full_adders + rows.half_adders, 0U);
    EXPECT_GE(rows.row0.size(), 1U);
}

} // namespace
} // namespace dvafs
