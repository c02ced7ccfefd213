#include "core/planner.h"

#include <gtest/gtest.h>

#include <limits>

namespace dvafs {
namespace {

class planner_test : public ::testing::Test {
protected:
    envision_model model;
    precision_planner planner{model};
};

TEST_F(planner_test, plan_with_explicit_requirements)
{
    const network net = make_lenet5({.seed = 2});
    std::vector<layer_quant_requirement> reqs;
    std::vector<layer_sparsity> sp;
    const char* names[] = {"conv1", "conv2", "fc3", "fc4", "fc5"};
    const int wbits[] = {3, 4, 5, 5, 6};
    const int ibits[] = {1, 6, 4, 4, 4};
    for (int i = 0; i < 5; ++i) {
        layer_quant_requirement r;
        r.layer_name = names[i];
        r.layer_index = static_cast<std::size_t>(i);
        r.min_weight_bits = wbits[i];
        r.min_input_bits = ibits[i];
        reqs.push_back(r);
        layer_sparsity s;
        s.layer_name = names[i];
        s.weight_sparsity = 0.2;
        s.input_sparsity = 0.4;
        sp.push_back(s);
    }
    const network_plan plan = planner.plan_with_requirements(net, reqs, sp);
    ASSERT_EQ(plan.layers.size(), 5U);
    EXPECT_EQ(plan.layers[0].mode.mode, sw_mode::w4x4);
    EXPECT_EQ(plan.layers[1].mode.mode, sw_mode::w2x8);
    EXPECT_GT(plan.total_energy_mj, 0.0);
    EXPECT_GT(plan.fps, 0.0);
    // Layer-wise precision must beat the 16-bit baseline.
    EXPECT_GT(plan.savings_factor, 1.5);
    EXPECT_GT(plan.baseline_energy_mj, plan.total_energy_mj);
}

TEST_F(planner_test, requirement_count_mismatch_throws)
{
    const network net = make_lenet5();
    EXPECT_THROW(
        (void)planner.plan_with_requirements(net, {}, {}),
        std::invalid_argument);
}

// plan() runs the sweep's engine end to end: an i8 sweep's layers are
// planned for the 8-bit integer engine, so none lands on a mode wider than
// 2x8 -- under the default frontier search and the heuristic alike.
TEST_F(planner_test, i8_sweep_plans_no_layer_wider_than_2x8)
{
    const network net = make_lenet5({.seed = 4});
    quant_sweep_config cfg;
    cfg.images = 8;
    cfg.compute = compute_mode::i8;
    planner_config heuristic;
    heuristic.policy = plan_policy::heuristic;
    for (const precision_planner& p :
         {planner, precision_planner(model, heuristic)}) {
        const network_plan plan = p.plan(net, cfg);
        ASSERT_FALSE(plan.layers.empty());
        for (const layer_plan& lp : plan.layers) {
            EXPECT_LE(lane_bits(lp.mode.mode), 8)
                << to_string(p.config().policy) << " " << lp.layer_name;
        }
    }
}

TEST_F(planner_test, end_to_end_plan_on_lenet)
{
    network net = make_lenet5({.seed = 4});
    quant_sweep_config cfg;
    cfg.images = 8;
    cfg.max_bits = 10;
    const network_plan plan = planner.plan(net, cfg);
    ASSERT_EQ(plan.layers.size(), 5U);
    // The sweep found the bits; the plan achieved its accuracy target
    // within tolerance and saves energy.
    EXPECT_GE(plan.relative_accuracy, 0.7);
    EXPECT_GT(plan.savings_factor, 1.0);
    for (const layer_plan& lp : plan.layers) {
        EXPECT_GE(lp.weight_bits, 1);
        EXPECT_LE(lp.weight_bits, 10);
        EXPECT_GT(lp.power_mw, 0.0);
    }
}

TEST_F(planner_test, non_finite_accuracy_budget_throws)
{
    // A NaN or infinite budget cannot size the selection DP; the
    // frontier search rejects it instead of casting it to a table size.
    const network net = make_lenet5({.seed = 4});
    quant_sweep_config cfg;
    cfg.images = 4;
    cfg.max_bits = 8;
    for (const double budget : {std::numeric_limits<double>::quiet_NaN(),
                                std::numeric_limits<double>::infinity(),
                                -std::numeric_limits<double>::infinity()}) {
        planner_config pc;
        pc.accuracy_budget = budget;
        const precision_planner p(model, pc);
        EXPECT_THROW((void)p.plan(net, cfg), std::invalid_argument)
            << budget;
    }
}

TEST_F(planner_test, lower_bits_lower_energy_property)
{
    const network net = make_lenet5({.seed = 2});
    const auto make_reqs = [&](int bits) {
        std::vector<layer_quant_requirement> reqs;
        for (const std::size_t li : net.weighted_layers()) {
            layer_quant_requirement r;
            r.layer_index = li;
            r.layer_name = net.at(li).name();
            r.min_weight_bits = bits;
            r.min_input_bits = bits;
            reqs.push_back(r);
        }
        return reqs;
    };
    const std::vector<layer_sparsity> sp(5);
    const double e4 =
        planner.plan_with_requirements(net, make_reqs(4), sp)
            .total_energy_mj;
    const double e8 =
        planner.plan_with_requirements(net, make_reqs(8), sp)
            .total_energy_mj;
    const double e16 =
        planner.plan_with_requirements(net, make_reqs(16), sp)
            .total_energy_mj;
    EXPECT_LT(e4, e8);
    EXPECT_LT(e8, e16);
}

} // namespace
} // namespace dvafs
