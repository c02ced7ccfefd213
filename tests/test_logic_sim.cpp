#include "circuit/logic_sim.h"

#include "circuit/tech.h"

#include <gtest/gtest.h>

namespace dvafs {
namespace {

// Builds one gate of each 2-input kind fed by the two inputs.
struct two_input_fixture {
    netlist nl;
    net_id a, b;
    net_id g_and, g_or, g_xor, g_nand, g_nor, g_xnor;

    two_input_fixture()
    {
        a = nl.add_input("a");
        b = nl.add_input("b");
        g_and = nl.add_gate(gate_kind::and_g, a, b);
        g_or = nl.add_gate(gate_kind::or_g, a, b);
        g_xor = nl.add_gate(gate_kind::xor_g, a, b);
        g_nand = nl.add_gate(gate_kind::nand_g, a, b);
        g_nor = nl.add_gate(gate_kind::nor_g, a, b);
        g_xnor = nl.add_gate(gate_kind::xnor_g, a, b);
    }
};

TEST(logic_sim, two_input_truth_tables)
{
    two_input_fixture f;
    logic_sim sim(f.nl);
    for (int av = 0; av <= 1; ++av) {
        for (int bv = 0; bv <= 1; ++bv) {
            sim.apply({av != 0, bv != 0});
            EXPECT_EQ(sim.value(f.g_and), (av & bv) != 0);
            EXPECT_EQ(sim.value(f.g_or), (av | bv) != 0);
            EXPECT_EQ(sim.value(f.g_xor), (av ^ bv) != 0);
            EXPECT_EQ(sim.value(f.g_nand), !((av & bv) != 0));
            EXPECT_EQ(sim.value(f.g_nor), !((av | bv) != 0));
            EXPECT_EQ(sim.value(f.g_xnor), ((av ^ bv) == 0));
        }
    }
}

TEST(logic_sim, three_input_gates)
{
    netlist nl;
    const net_id a = nl.add_input("a");
    const net_id b = nl.add_input("b");
    const net_id c = nl.add_input("c");
    const net_id g_and3 = nl.add_gate(gate_kind::and3_g, a, b, c);
    const net_id g_or3 = nl.add_gate(gate_kind::or3_g, a, b, c);
    const net_id g_maj = nl.add_gate(gate_kind::maj_g, a, b, c);
    const net_id g_mux = nl.add_gate(gate_kind::mux_g, a, b, c);
    logic_sim sim(nl);
    for (int v = 0; v < 8; ++v) {
        const bool av = (v & 1) != 0;
        const bool bv = (v & 2) != 0;
        const bool cv = (v & 4) != 0;
        sim.apply({av, bv, cv});
        EXPECT_EQ(sim.value(g_and3), av && bv && cv);
        EXPECT_EQ(sim.value(g_or3), av || bv || cv);
        EXPECT_EQ(sim.value(g_maj), (av + bv + cv) >= 2);
        EXPECT_EQ(sim.value(g_mux), cv ? bv : av);
    }
}

TEST(logic_sim, toggle_counting)
{
    netlist nl;
    const net_id a = nl.add_input("a");
    const net_id n = nl.not_g(a);
    logic_sim sim(nl);
    sim.apply({false}); // baseline, no transition counted
    EXPECT_EQ(sim.transitions(), 0U);
    EXPECT_EQ(sim.total_toggles(), 0U);
    sim.apply({true}); // a and n toggle
    EXPECT_EQ(sim.transitions(), 1U);
    EXPECT_EQ(sim.toggles(a), 1U);
    EXPECT_EQ(sim.toggles(n), 1U);
    sim.apply({true}); // no change
    EXPECT_EQ(sim.transitions(), 2U);
    EXPECT_EQ(sim.total_toggles(), 2U);
}

TEST(logic_sim, reset_stats)
{
    netlist nl;
    const net_id a = nl.add_input("a");
    nl.not_g(a);
    logic_sim sim(nl);
    sim.apply({false});
    sim.apply({true});
    EXPECT_GT(sim.total_toggles(), 0U);
    sim.reset_stats();
    EXPECT_EQ(sim.total_toggles(), 0U);
    EXPECT_EQ(sim.transitions(), 0U);
}

TEST(logic_sim, switched_capacitance_weighted_by_kind)
{
    netlist nl;
    const net_id a = nl.add_input("a");
    const net_id b = nl.add_input("b");
    const net_id x = nl.add_gate(gate_kind::xor_g, a, b);
    (void)x;
    logic_sim sim(nl);
    sim.apply({false, false});
    sim.apply({true, false}); // a toggles, xor toggles
    const tech_model& t = tech_40nm_lp();
    const double expected =
        t.gate_cap_ff(gate_kind::input) + t.gate_cap_ff(gate_kind::xor_g);
    EXPECT_DOUBLE_EQ(sim.switched_capacitance_ff(t), expected);
}

TEST(logic_sim, input_size_mismatch_throws)
{
    netlist nl;
    nl.add_input("a");
    logic_sim sim(nl);
    EXPECT_THROW(sim.apply({true, false}), std::invalid_argument);
}

TEST(logic_sim, read_bus_packs_lsb_first)
{
    netlist nl;
    const net_id a = nl.add_input("a");
    const net_id b = nl.add_input("b");
    logic_sim sim(nl);
    sim.apply({true, false});
    EXPECT_EQ(sim.read_bus({a, b}), 0b01ULL);
    sim.apply({false, true});
    EXPECT_EQ(sim.read_bus({a, b}), 0b10ULL);
}

TEST(logic_sim, read_bus_rejects_oversized_bus)
{
    // Regression: this used to be a debug-only assert, so release builds
    // silently packed only the low 64 nets and read garbage weights.
    netlist nl;
    std::vector<net_id> bus;
    for (int i = 0; i < 65; ++i) {
        bus.push_back(nl.add_input("i" + std::to_string(i)));
    }
    logic_sim scalar(nl);
    scalar.apply(std::vector<bool>(65, true));
    EXPECT_THROW((void)scalar.read_bus(bus), std::invalid_argument);
    EXPECT_EQ(scalar.read_bus({bus[0], bus[64]}), 0b11ULL);
}

TEST(find_static_gates, constant_propagation)
{
    netlist nl;
    const net_id a = nl.add_input("a");
    const net_id b = nl.add_input("b");
    const net_id g1 = nl.add_gate(gate_kind::and_g, a, b);
    const net_id g2 = nl.add_gate(gate_kind::or_g, a, b);
    const net_id g3 = nl.add_gate(gate_kind::xor_g, g1, g2);

    // Tie a = 0: the AND output is static 0; OR and XOR still follow b.
    const auto st = find_static_gates(nl, {{a, false}});
    EXPECT_TRUE(st[a]);
    EXPECT_TRUE(st[g1]);
    EXPECT_FALSE(st[g2]);
    EXPECT_FALSE(st[g3]);
}

TEST(find_static_gates, mux_select_tied)
{
    netlist nl;
    const net_id a = nl.add_input("a");
    const net_id b = nl.add_input("b");
    const net_id s = nl.add_input("s");
    const net_id m = nl.add_gate(gate_kind::mux_g, a, b, s);
    // sel = 0 -> mux follows a (not static).
    auto st = find_static_gates(nl, {{s, false}});
    EXPECT_FALSE(st[m]);
    // sel = 0 and a = 1 -> static.
    st = find_static_gates(nl, {{s, false}, {a, true}});
    EXPECT_TRUE(st[m]);
}

TEST(find_static_gates, maj_two_zeros_is_static)
{
    netlist nl;
    const net_id a = nl.add_input("a");
    const net_id b = nl.add_input("b");
    const net_id c = nl.add_input("c");
    const net_id m = nl.add_gate(gate_kind::maj_g, a, b, c);
    const auto st = find_static_gates(nl, {{a, false}, {b, false}});
    EXPECT_TRUE(st[m]);
}

TEST(find_static_gates, nothing_tied_nothing_static)
{
    netlist nl;
    const net_id a = nl.add_input("a");
    const net_id b = nl.add_input("b");
    const net_id g = nl.add_gate(gate_kind::and_g, a, b);
    const auto st = find_static_gates(nl, {});
    EXPECT_FALSE(st[g]);
    // Constants are always static.
    netlist nl2;
    nl2.add_input("x");
    const net_id c = nl2.add_const(true);
    const auto st2 = find_static_gates(nl2, {});
    EXPECT_TRUE(st2[c]);
}

} // namespace
} // namespace dvafs
