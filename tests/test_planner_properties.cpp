// Property-based tests of the frontier-searching precision planner: for
// randomly generated networks the planner must pick points on the layer
// frontier, never lose to the 16 b baseline, produce bit-identical plans
// for any thread count, and spend a relaxed accuracy budget only to
// *reduce* energy.

#include "core/planner.h"

#include "cnn/zoo.h"
#include "util/rng.h"

#include <gtest/gtest.h>

#include <limits>
#include <memory>

namespace dvafs {
namespace {

// Small random conv/pool/fc networks: 1-2 conv blocks and 1-2 fc layers
// with seeded dimensions, He-initialized weights and magnitude pruning
// (the zoo's weight generator).
network random_network(std::uint64_t seed)
{
    pcg32 rng(seed);
    const int side = 12 + static_cast<int>(rng.bounded(9)); // 12..20
    const int channels = 1 + static_cast<int>(rng.bounded(3));
    network net("random-" + std::to_string(seed),
                tensor_shape{channels, side, side});

    const int blocks = 1 + static_cast<int>(rng.bounded(2));
    int ch = channels;
    for (int b = 0; b < blocks; ++b) {
        const int filters = 4 + static_cast<int>(rng.bounded(5));
        const int kernel = 3 + 2 * static_cast<int>(rng.bounded(2));
        net.add(std::make_unique<conv_layer>(
            "conv" + std::to_string(b), filters, ch, kernel, 1,
            kernel / 2));
        net.add(std::make_unique<relu_layer>("relu" + std::to_string(b)));
        net.add(std::make_unique<maxpool_layer>(
            "pool" + std::to_string(b), 2, 2));
        ch = filters;
    }
    const tensor_shape conv_out = net.output_shape();
    int flat = conv_out.c * conv_out.h * conv_out.w;
    if (rng.bernoulli(0.5)) {
        const int hidden = 8 + static_cast<int>(rng.bounded(9));
        net.add(std::make_unique<fc_layer>("fc_h", hidden, flat));
        net.add(std::make_unique<relu_layer>("relu_fc"));
        flat = hidden;
    }
    const int classes = 4 + static_cast<int>(rng.bounded(5));
    net.add(std::make_unique<fc_layer>("fc_out", classes, flat));
    init_weights(net, {.seed = seed * 31 + 7, .weight_sparsity = 0.2});
    return net;
}

quant_sweep_config sweep_config()
{
    quant_sweep_config cfg;
    cfg.images = 6;
    cfg.max_bits = 8;
    return cfg;
}

planner_config fast_planner_config()
{
    planner_config cfg;
    cfg.frontier.vectors = 250;
    return cfg;
}

class planner_properties : public ::testing::TestWithParam<std::uint64_t> {
protected:
    envision_model model;
};

TEST_P(planner_properties, chosen_points_lie_on_the_layer_frontier)
{
    const network net = random_network(GetParam());
    const precision_planner planner(model, fast_planner_config());
    const quant_sweep_config qcfg = sweep_config();

    const teacher_dataset data = make_teacher_dataset(net, qcfg);
    const auto reqs = refine_requirements(
        net, sweep_layer_precision(net, data, qcfg), data, qcfg);
    const auto sparsity = measure_sparsity(net, data);

    const network_plan plan =
        planner.plan_with_requirements(net, reqs, sparsity);
    const std::vector<layer_frontier> fls =
        planner.layer_frontiers(net, reqs, sparsity);
    ASSERT_EQ(plan.layers.size(), fls.size());
    for (std::size_t i = 0; i < plan.layers.size(); ++i) {
        EXPECT_TRUE(fls[i].contains(plan.layers[i].point))
            << plan.layers[i].layer_name << " chose "
            << plan.layers[i].point.label()
            << " which is not on its frontier";
        // Every frontier the planner selects from is itself Pareto: no
        // point may dominate another in (energy, loss).
        for (const layer_frontier_point& a : fls[i].points) {
            for (const layer_frontier_point& b : fls[i].points) {
                if (&a == &b) {
                    continue;
                }
                EXPECT_FALSE(a.energy_mj <= b.energy_mj
                             && a.accuracy_loss <= b.accuracy_loss
                             && (a.energy_mj < b.energy_mj
                                 || a.accuracy_loss < b.accuracy_loss))
                    << fls[i].layer_name << " has a dominated point";
            }
        }
    }
}

TEST_P(planner_properties, searched_plan_never_loses_to_baseline)
{
    const network net = random_network(GetParam() * 13 + 1);
    const precision_planner planner(model, fast_planner_config());
    const network_plan plan = planner.plan(net, sweep_config());
    EXPECT_GE(plan.savings_factor, 1.0);
    EXPECT_LE(plan.total_energy_mj,
              plan.baseline_energy_mj * (1.0 + 1e-12));
    EXPECT_GT(plan.total_energy_mj, 0.0);
    EXPECT_GT(plan.fps, 0.0);
}

TEST_P(planner_properties, searched_beats_heuristic_measured_accounting)
{
    // At a zero accuracy budget the DP minimum over the layer frontiers
    // can never exceed the heuristic's choice priced by the same measured
    // accounting.
    const network net = random_network(GetParam() * 17 + 3);
    planner_config search_cfg = fast_planner_config();
    planner_config heur_cfg = fast_planner_config();
    heur_cfg.policy = plan_policy::heuristic_measured;
    const precision_planner searched(model, search_cfg);
    const precision_planner heuristic(model, heur_cfg);
    const quant_sweep_config qcfg = sweep_config();
    const double e_searched =
        searched.plan(net, qcfg).total_energy_mj;
    const double e_heuristic =
        heuristic.plan(net, qcfg).total_energy_mj;
    EXPECT_LE(e_searched, e_heuristic * (1.0 + 1e-12));
}

TEST_P(planner_properties, plan_is_bit_identical_across_thread_counts)
{
    // End-to-end determinism: 1/2/8 sweep workers must produce the same
    // plan. The frontier cache shares one measurement across thread counts
    // (it may legally do so because measurement-level bit-identity is
    // asserted separately in test_pareto), so this test additionally pins
    // each planner to an uncached frontier via a distinct seed-equal
    // config measured through measure_mode_frontier.
    const network net = random_network(GetParam() * 7 + 5);
    const quant_sweep_config qcfg = sweep_config();
    std::vector<network_plan> plans;
    for (const unsigned threads : {1U, 2U, 8U}) {
        planner_config cfg = fast_planner_config();
        cfg.accuracy_budget = 0.1; // exercise the loss measurements too
        cfg.frontier.threads = threads;
        const precision_planner planner(model, cfg);
        // The measured frontier itself must not depend on the pool size.
        const mode_frontier direct = measure_mode_frontier(
            cfg.frontier, tech_28nm_fdsoi(),
            default_envision_calibration());
        const mode_frontier ref_front = measure_mode_frontier(
            fast_planner_config().frontier, tech_28nm_fdsoi(),
            default_envision_calibration());
        ASSERT_EQ(direct.points.size(), ref_front.points.size());
        for (std::size_t i = 0; i < direct.points.size(); ++i) {
            ASSERT_EQ(direct.points[i].mean_cap_ff,
                      ref_front.points[i].mean_cap_ff);
            ASSERT_EQ(direct.points[i].vdd, ref_front.points[i].vdd);
        }
        plans.push_back(planner.plan(net, qcfg));
    }
    const network_plan& ref = plans.front();
    for (std::size_t p = 1; p < plans.size(); ++p) {
        const network_plan& other = plans[p];
        ASSERT_EQ(ref.layers.size(), other.layers.size());
        EXPECT_EQ(ref.total_energy_mj, other.total_energy_mj);
        EXPECT_EQ(ref.total_time_ms, other.total_time_ms);
        EXPECT_EQ(ref.baseline_energy_mj, other.baseline_energy_mj);
        EXPECT_EQ(ref.relative_accuracy, other.relative_accuracy);
        for (std::size_t i = 0; i < ref.layers.size(); ++i) {
            EXPECT_TRUE(ref.layers[i].point == other.layers[i].point)
                << ref.layers[i].layer_name;
            EXPECT_EQ(ref.layers[i].energy_mj, other.layers[i].energy_mj);
            EXPECT_EQ(ref.layers[i].activity_divisor,
                      other.layers[i].activity_divisor);
            EXPECT_EQ(ref.layers[i].mode.vdd, other.layers[i].mode.vdd);
            EXPECT_EQ(ref.layers[i].mode.f_mhz,
                      other.layers[i].mode.f_mhz);
        }
    }
}

TEST_P(planner_properties, priced_frontiers_identical_across_probe_threads)
{
    // The loss-pricing probes' worker count (the runtime passes its sweep
    // workers) changes how images are spread, never a frontier value.
    // These seeds give networks whose frontiers keep points below a
    // layer's requirement, so the probes run (checked at the end).
    const network net = random_network(GetParam() * 3 + 4);
    const quant_sweep_config qcfg = sweep_config();
    planner_config cfg = fast_planner_config();
    cfg.accuracy_budget = 0.2;
    const precision_planner planner(model, cfg);
    const teacher_dataset data = make_teacher_dataset(net, qcfg);
    const auto reqs = refine_requirements(
        net, sweep_layer_precision(net, data, qcfg), data, qcfg);
    const auto sparsity = measure_sparsity(net, data);
    const std::vector<layer_frontier> one =
        planner.layer_frontiers(net, reqs, sparsity, &data, 1);
    const std::vector<layer_frontier> three =
        planner.layer_frontiers(net, reqs, sparsity, &data, 3);
    ASSERT_EQ(one.size(), three.size());
    std::size_t priced = 0; // points below a requirement: loss probed
    for (std::size_t i = 0; i < one.size(); ++i) {
        EXPECT_EQ(one[i].layer_name, three[i].layer_name);
        EXPECT_EQ(one[i].layer_index, three[i].layer_index);
        EXPECT_EQ(one[i].required_bits, three[i].required_bits);
        ASSERT_EQ(one[i].points.size(), three[i].points.size())
            << one[i].layer_name;
        for (std::size_t j = 0; j < one[i].points.size(); ++j) {
            const layer_frontier_point& a = one[i].points[j];
            const layer_frontier_point& b = three[i].points[j];
            EXPECT_EQ(a.mode_point, b.mode_point);
            EXPECT_TRUE(a.spec == b.spec) << one[i].layer_name;
            EXPECT_EQ(a.activity_divisor, b.activity_divisor);
            EXPECT_EQ(a.mode.vdd, b.mode.vdd);
            EXPECT_EQ(a.mode.f_mhz, b.mode.f_mhz);
            EXPECT_EQ(a.energy_mj, b.energy_mj);
            EXPECT_EQ(a.time_ms, b.time_ms);
            EXPECT_EQ(a.accuracy_loss, b.accuracy_loss);
            priced += a.spec.keep_bits < one[i].required_bits ? 1U : 0U;
        }
    }
    EXPECT_GT(priced, 0U);
}

TEST_P(planner_properties, relaxing_the_budget_never_increases_energy)
{
    const network net = random_network(GetParam() * 29 + 11);
    const quant_sweep_config qcfg = sweep_config();
    double prev = std::numeric_limits<double>::infinity();
    for (const double budget : {0.0, 0.05, 0.15, 0.4}) {
        planner_config cfg = fast_planner_config();
        cfg.accuracy_budget = budget;
        const precision_planner planner(model, cfg);
        const network_plan plan = planner.plan(net, qcfg);
        EXPECT_LE(plan.total_energy_mj, prev * (1.0 + 1e-12))
            << "budget " << budget;
        // The DP must never spend more measured loss than budgeted.
        double spent = 0.0;
        for (const layer_plan& lp : plan.layers) {
            spent += lp.accuracy_loss;
        }
        EXPECT_LE(spent, budget + 1e-12) << "budget " << budget;
        prev = plan.total_energy_mj;
    }
}

INSTANTIATE_TEST_SUITE_P(random_networks, planner_properties,
                         ::testing::Values(11ULL, 23ULL, 42ULL));

// The planner must leave the network untouched: one immutable network can
// serve many concurrent planners (the const sweep path).
TEST(planner_const_contract, plan_does_not_mutate_the_network)
{
    const network net = make_lenet5({.seed = 6});
    tensor in(net.input_shape());
    pcg32 rng(61);
    for (float& v : in.flat()) {
        v = static_cast<float>(rng.uniform(0.0, 1.0));
    }
    std::vector<layer_quant> overlay(net.depth());
    for (const std::size_t li : net.weighted_layers()) {
        overlay[li] = {.weight_bits = 5, .input_bits = 6};
    }
    const tensor float_before =
        net.forward(in, std::vector<layer_quant>(net.depth()));
    const tensor quant_before = net.forward(in, overlay);

    const envision_model model;
    planner_config cfg;
    cfg.frontier.vectors = 250;
    const precision_planner planner(model, cfg);
    quant_sweep_config qcfg;
    qcfg.images = 6;
    qcfg.max_bits = 8;
    (void)planner.plan(net, qcfg);

    const tensor float_after =
        net.forward(in, std::vector<layer_quant>(net.depth()));
    const tensor quant_after = net.forward(in, overlay);
    for (std::size_t i = 0; i < float_before.size(); ++i) {
        EXPECT_EQ(float_before.flat()[i], float_after.flat()[i]) << i;
        EXPECT_EQ(quant_before.flat()[i], quant_after.flat()[i]) << i;
    }
}

} // namespace
} // namespace dvafs
