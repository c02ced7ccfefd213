#include "circuit/vcd.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include <unistd.h>

namespace dvafs {
namespace {

std::string slurp(const std::string& path)
{
    std::ifstream in(path);
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

// A file of its own per case and process: ctest runs the cases as
// concurrent processes, and a shared path let one case read or delete
// another's dump.
std::string case_path()
{
    return ::testing::TempDir() + "dvafs_vcd_"
           + ::testing::UnitTest::GetInstance()->current_test_info()->name()
           + "_" + std::to_string(::getpid()) + ".vcd";
}

struct vcd_fixture : ::testing::Test {
    std::string path = case_path();
    netlist nl;
    net_id a = nl.add_input("a");
    net_id b = nl.add_input("b");
    net_id x = nl.xor_g(a, b);

    void TearDown() override { std::remove(path.c_str()); }
};

TEST_F(vcd_fixture, header_declares_signals)
{
    logic_sim sim(nl);
    vcd_writer vcd(path, "top");
    vcd.add_signal("a", a);
    vcd.add_bus("ab", {a, b});
    sim.apply({false, false});
    vcd.sample(sim, 0);
    const std::string s = slurp(path);
    EXPECT_NE(s.find("$scope module top $end"), std::string::npos);
    EXPECT_NE(s.find("$var wire 1"), std::string::npos);
    EXPECT_NE(s.find("$var wire 2"), std::string::npos);
    EXPECT_NE(s.find("ab [1:0]"), std::string::npos);
    EXPECT_NE(s.find("$enddefinitions $end"), std::string::npos);
    EXPECT_EQ(vcd.signal_count(), 2U);
}

TEST_F(vcd_fixture, dumps_only_changes)
{
    logic_sim sim(nl);
    vcd_writer vcd(path);
    vcd.add_signal("x", x);
    sim.apply({false, false});
    vcd.sample(sim, 0); // x = 0, initial dump
    sim.apply({true, false});
    vcd.sample(sim, 5); // x = 1, change
    sim.apply({true, false});
    vcd.sample(sim, 10); // no change: no #10 stamp
    const std::string s = slurp(path);
    EXPECT_NE(s.find("#0"), std::string::npos);
    EXPECT_NE(s.find("#5"), std::string::npos);
    EXPECT_EQ(s.find("#10"), std::string::npos);
}

TEST_F(vcd_fixture, bus_value_msb_first)
{
    logic_sim sim(nl);
    vcd_writer vcd(path);
    vcd.add_bus("ba", {a, b}); // a is bit 0
    sim.apply({true, false}); // a=1, b=0 -> "b01"
    vcd.sample(sim, 0);
    const std::string s = slurp(path);
    EXPECT_NE(s.find("b01 "), std::string::npos);
}

TEST_F(vcd_fixture, time_must_not_decrease)
{
    logic_sim sim(nl);
    vcd_writer vcd(path);
    vcd.add_signal("a", a);
    sim.apply({false, false});
    vcd.sample(sim, 10);
    EXPECT_THROW(vcd.sample(sim, 5), std::invalid_argument);
}

TEST_F(vcd_fixture, no_signals_after_sampling)
{
    logic_sim sim(nl);
    vcd_writer vcd(path);
    vcd.add_signal("a", a);
    sim.apply({false, false});
    vcd.sample(sim, 0);
    EXPECT_THROW(vcd.add_signal("b", b), std::logic_error);
}

TEST_F(vcd_fixture, empty_bus_rejected)
{
    vcd_writer vcd(path);
    EXPECT_THROW(vcd.add_bus("e", {}), std::invalid_argument);
}

TEST(vcd_ids, unique_for_many_signals)
{
    netlist nl;
    const net_id a = nl.add_input("a");
    const std::string path = ::testing::TempDir() + "dvafs_vcd_ids.vcd";
    vcd_writer vcd(path);
    for (int i = 0; i < 200; ++i) {
        vcd.add_signal("s" + std::to_string(i), a);
    }
    logic_sim sim(nl);
    sim.apply({false});
    vcd.sample(sim, 0);
    // 200 distinct identifiers emitted without collisions: the $var lines
    // must contain 200 unique ids.
    std::ifstream in(path);
    std::string line;
    std::set<std::string> ids;
    while (std::getline(in, line)) {
        if (line.rfind("$var", 0) == 0) {
            std::istringstream ls(line);
            std::string tok;
            ls >> tok >> tok >> tok >> tok; // $var wire 1 <id>
            ids.insert(tok);
        }
    }
    EXPECT_EQ(ids.size(), 200U);
    std::remove(path.c_str());
}

} // namespace
} // namespace dvafs
