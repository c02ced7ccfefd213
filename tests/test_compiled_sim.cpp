// Differential suite for the compiled 512-lane gate simulator: random
// netlists x random batch shapes x every subword mode, asserting values,
// per-net toggles, switched capacitance and transition counts bit-exact
// against the scalar oracle (logic_sim), including the batch-boundary
// toggle carry, reset_stats keeping the boundary transition and the
// !initialized_ first-vector edge case. Plus the compile-time contracts:
// cone pruning under tied inputs, tie validation, and content-keyed
// schedule sharing.

#include "circuit/compiled_sim.h"

#include "circuit/gate_kinds.h"
#include "circuit/logic_sim.h"
#include "circuit/tech.h"
#include "fixedpoint/bitops.h"
#include "mult/dvafs_mult.h"
#include "util/rng.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

namespace dvafs {
namespace {

// Random netlist over every gate kind (mirrors test_sim_engine.cpp).
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

constexpr std::size_t words_per_input = compiled_sim::lane_words;

// Drives one identical random vector stream through logic_sim and
// compiled_sim (the compiled side split into `batches`), then asserts
// bit-exact equality of final values, per-net toggles, switched
// capacitance and transitions. Batch sizes that straddle 64-lane word
// boundaries exercise the carry between words as well as between
// batches.
void run_differential(const netlist& nl, const std::vector<int>& batches,
                      std::uint64_t seed)
{
    const std::size_t n_in = nl.inputs().size();
    logic_sim scalar(nl);
    compiled_sim comp(std::make_shared<const compiled_schedule>(
        compile_netlist(nl)));
    pcg32 rng(seed);

    for (const int count : batches) {
        ASSERT_GE(count, 1);
        ASSERT_LE(count, compiled_sim::lane_capacity);
        std::vector<std::uint64_t> words(n_in * words_per_input, 0);
        for (int lane = 0; lane < count; ++lane) {
            std::vector<bool> v(n_in);
            for (std::size_t i = 0; i < n_in; ++i) {
                v[i] = rng.bernoulli(0.5);
                if (v[i]) {
                    words[i * words_per_input
                          + static_cast<std::size_t>(lane) / 64] |=
                        1ULL << (lane & 63);
                }
            }
            scalar.apply(v);
        }
        comp.apply(words, count);

        // Final-lane values match the scalar state after the same stream.
        for (net_id id = 0; id < nl.size(); ++id) {
            ASSERT_EQ(comp.value(id, count - 1), scalar.value(id))
                << "net " << id;
        }
    }

    ASSERT_EQ(comp.transitions(), scalar.transitions());
    for (net_id id = 0; id < nl.size(); ++id) {
        ASSERT_EQ(comp.toggles(id), scalar.toggles(id)) << "net " << id;
    }
    ASSERT_EQ(comp.total_toggles(), scalar.total_toggles());
    const tech_model& tech = tech_40nm_lp();
    // Exact: the compiled engine accumulates capacitance in original net
    // order precisely so the double sum is bit-identical.
    ASSERT_EQ(comp.switched_capacitance_ff(tech),
              scalar.switched_capacitance_ff(tech));
}

TEST(compiled_sim, matches_oracles_on_random_netlists)
{
    for (const std::uint64_t seed : {1ULL, 2ULL, 3ULL}) {
        const netlist nl = random_netlist(12, 300, seed);
        run_differential(nl, {512, 512, 512}, seed * 7 + 1);
    }
}

TEST(compiled_sim, matches_oracles_with_ragged_batches)
{
    const netlist nl = random_netlist(10, 200, 11);
    // Partial batches, single-vector batches, full batches and sizes that
    // straddle every kind of 64-lane word boundary.
    run_differential(nl,
                     {1, 7, 64, 3, 1, 30, 63, 65, 5, 127, 128, 129, 512,
                      300, 1, 450, 256, 17},
                     99);
}

TEST(compiled_sim, first_vector_initializes_without_counting)
{
    // The !initialized_ edge: the very first vector establishes state and
    // must count neither a transition nor any toggle, exactly like the
    // oracle -- including when it arrives as a 1-vector batch.
    const netlist nl = random_netlist(8, 120, 21);
    run_differential(nl, {1, 100}, 5);

    compiled_sim comp(std::make_shared<const compiled_schedule>(
        compile_netlist(nl)));
    std::vector<std::uint64_t> words(nl.inputs().size() * words_per_input,
                                     ~0ULL);
    comp.apply(words, 1);
    EXPECT_EQ(comp.transitions(), 0U);
    EXPECT_EQ(comp.total_toggles(), 0U);
}

TEST(compiled_sim, reset_stats_keeps_boundary_transition)
{
    const netlist nl = random_netlist(8, 100, 5);
    logic_sim scalar(nl);
    compiled_sim comp(std::make_shared<const compiled_schedule>(
        compile_netlist(nl)));
    pcg32 rng(21);

    std::vector<bool> v(nl.inputs().size());
    std::vector<std::uint64_t> words(nl.inputs().size() * words_per_input,
                                     0);
    for (std::size_t i = 0; i < v.size(); ++i) {
        v[i] = rng.bernoulli(0.5);
        words[i * words_per_input] = v[i] ? 1 : 0;
    }
    scalar.apply(v);
    comp.apply(words, 1);
    scalar.reset_stats();
    comp.reset_stats();

    // The next vector still counts its transition against the pre-reset
    // state (warm-up contract of the k-parameter extraction).
    for (std::size_t i = 0; i < v.size(); ++i) {
        v[i] = !v[i];
        words[i * words_per_input] = v[i] ? 1 : 0;
    }
    scalar.apply(v);
    comp.apply(words, 1);
    EXPECT_EQ(scalar.transitions(), 1U);
    EXPECT_EQ(comp.transitions(), 1U);
    for (net_id id = 0; id < nl.size(); ++id) {
        ASSERT_EQ(comp.toggles(id), scalar.toggles(id)) << "net " << id;
    }
}

// -- mode-specialized schedules ----------------------------------------------

TEST(compiled_sim, mode_specialized_schedules_match_interpreter)
{
    // Width 8 keeps this cheap: every mode x structural DAS level, the
    // identical stream through the scalar oracle over the full netlist
    // and a pruned compiled schedule. Covers the engine_activity
    // measurement contract end to end (ragged final batch included).
    const dvafs_multiplier mult(8);
    const tech_model& tech = tech_40nm_lp();
    const int w = mult.width();

    for (const sw_mode mode : all_sw_modes) {
        const int lane_w = w / lane_count(mode);
        for (int keep = w / 4; keep <= lane_w; keep += w / 4) {
            const int das_keep = mode == sw_mode::w1x16 ? keep : w;
            if (mode != sw_mode::w1x16 && keep != lane_w) {
                continue; // structural ties cover mode + DAS selects only
            }
            logic_sim scalar(mult.net());
            compiled_sim comp(compiled_netlist_cache::global().get(
                mult.net(), mult.tied_inputs(mode, das_keep)));

            pcg32 rng(7);
            const std::uint64_t mask = low_mask(w);
            const int total = 600; // ragged 512 + 88 split
            std::vector<std::uint64_t> sa(total);
            std::vector<std::uint64_t> sb(total);
            for (int i = 0; i < total; ++i) {
                sa[i] = rng.next_u64() & mask;
                sb[i] = rng.next_u64() & mask;
                scalar.apply(
                    mult.input_vector_for(mode, das_keep, sa[i], sb[i]));
            }
            std::vector<std::uint64_t> words;
            for (int done = 0; done < total;) {
                const int count =
                    std::min(compiled_sim::lane_capacity, total - done);
                mult.pack_input_words(mode, das_keep, sa.data() + done,
                                      sb.data() + done, count, words);
                comp.apply(words, count);
                done += count;
            }

            ASSERT_EQ(comp.transitions(), scalar.transitions());
            ASSERT_EQ(comp.total_toggles(), scalar.total_toggles())
                << to_string(mode) << "@" << keep;
            ASSERT_EQ(comp.switched_capacitance_ff(tech),
                      scalar.switched_capacitance_ff(tech));
            for (net_id id = 0; id < mult.net().size(); ++id) {
                ASSERT_EQ(comp.toggles(id), scalar.toggles(id))
                    << to_string(mode) << "@" << keep << " net " << id;
            }
            // Bus values readable lane by lane, including folded nets.
            std::vector<net_id> out_nets;
            for (int i = 0; i < 2 * w; ++i) {
                out_nets.push_back(
                    mult.net().output("p" + std::to_string(i)));
            }
            const int last = (total - 1) % compiled_sim::lane_capacity;
            ASSERT_EQ(comp.read_bus(out_nets, last),
                      scalar.read_bus(out_nets));
        }
    }
}

TEST(compiled_sim, cone_pruning_shrinks_mode_schedules)
{
    const dvafs_multiplier mult(16);
    const auto generic =
        compiled_netlist_cache::global().get(mult.net());
    const auto m4x4 = compiled_netlist_cache::global().get(
        mult.net(), mult.tied_inputs(sw_mode::w4x4, 16));
    const auto das4 = compiled_netlist_cache::global().get(
        mult.net(), mult.tied_inputs(sw_mode::w1x16, 4));
    // Tying the mode/DAS selects must fold real logic, not just the
    // select nets themselves.
    EXPECT_LT(m4x4->scheduled_gates(), generic->scheduled_gates());
    EXPECT_GT(m4x4->pruned_gates, 100U);
    // Structural truncation to a quarter precision prunes most of the
    // array ("half-precision modes simulate roughly half the netlist").
    EXPECT_LT(das4->scheduled_gates(),
              generic->scheduled_gates() / 2);
}

TEST(compiled_sim, rejects_stimulus_contradicting_ties)
{
    const dvafs_multiplier mult(8);
    compiled_sim comp(compiled_netlist_cache::global().get(
        mult.net(), mult.tied_inputs(sw_mode::w4x4, 8)));
    // Pack a 1x16-mode stimulus against the 4x4-specialized schedule:
    // the mode-select ties are violated and apply() must throw rather
    // than silently miscount.
    std::vector<std::uint64_t> words;
    std::vector<std::uint64_t> a(64, 1);
    std::vector<std::uint64_t> b(64, 2);
    mult.pack_input_words(sw_mode::w1x16, 8, a.data(), b.data(), 8, words);
    EXPECT_THROW(comp.apply(words, 8), std::invalid_argument);
}

TEST(compiled_sim, rejects_ties_on_non_inputs)
{
    const netlist nl = random_netlist(4, 20, 3);
    // Net n_inputs+2 is a gate, not a primary input.
    const net_id gate_net = static_cast<net_id>(nl.size() - 1);
    EXPECT_THROW((void)compile_netlist(nl, {{gate_net, true}}),
                 std::invalid_argument);
}

TEST(compiled_sim, apply_validates_shape)
{
    const netlist nl = random_netlist(6, 30, 9);
    compiled_sim comp(std::make_shared<const compiled_schedule>(
        compile_netlist(nl)));
    std::vector<std::uint64_t> words(nl.inputs().size() * words_per_input,
                                     0);
    EXPECT_THROW(comp.apply(words, 0), std::invalid_argument);
    EXPECT_THROW(comp.apply(words, compiled_sim::lane_capacity + 1),
                 std::invalid_argument);
    std::vector<std::uint64_t> short_words(nl.inputs().size(), 0);
    EXPECT_THROW(comp.apply(short_words, 1), std::invalid_argument);
}

TEST(compiled_sim, read_bus_rejects_oversized_bus)
{
    // A 65-net bus cannot be packed into the return word; a narrower bus
    // reaching net 64 still reads.
    netlist nl;
    std::vector<net_id> bus;
    for (int i = 0; i < 65; ++i) {
        bus.push_back(nl.add_input("i" + std::to_string(i)));
    }
    compiled_sim comp(std::make_shared<const compiled_schedule>(
        compile_netlist(nl)));
    comp.apply(std::vector<std::uint64_t>(65 * words_per_input, 1ULL), 1);
    EXPECT_THROW((void)comp.read_bus(bus, 0), std::invalid_argument);
    EXPECT_EQ(comp.read_bus({bus[0], bus[64]}, 0), 0b11ULL);
    EXPECT_THROW((void)comp.read_bus({bus[0]}, compiled_sim::lane_capacity),
                 std::invalid_argument);
}

TEST(compiled_netlist_cache, shares_schedules_by_content)
{
    // Two distinct but structurally identical netlist objects share one
    // schedule (content keying), and a different tie set does not.
    const dvafs_multiplier a(8);
    const dvafs_multiplier b(8);
    const auto sa = compiled_netlist_cache::global().get(a.net());
    const auto sb = compiled_netlist_cache::global().get(b.net());
    EXPECT_EQ(sa.get(), sb.get());
    const auto tied = compiled_netlist_cache::global().get(
        a.net(), a.tied_inputs(sw_mode::w2x8, 8));
    EXPECT_NE(sa.get(), tied.get());
}

} // namespace
} // namespace dvafs
