// Tests of the streaming runtime (src/runtime/): scenario plumbing,
// scheduler overlays and ledger attribution, phase-transition determinism
// across thread counts, latency-budget monotonicity, the governor's
// infeasible-deadline fallback, and the overload valve and drift probe as
// pure state machines (no network) and inside the engine.

#include "core/dvafs.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

namespace dvafs {
namespace {

// Small shared config: LeNet-5 with a reduced teacher sweep so a full
// engine run stays in test-suite time.
governor_config small_governor()
{
    governor_config g;
    g.sweep.images = 8;
    g.sweep.max_bits = 8;
    return g;
}

scenario two_phase_scenario()
{
    scenario sc;
    sc.name = "test";
    sc.networks.push_back(make_lenet5({.seed = 7}));
    scenario_phase loose;
    loose.name = "loose";
    loose.frames = 20;
    loose.target_fps = 25.0;
    loose.accuracy_budget = 0.08;
    loose.input_noise = 0.2;
    sc.phases.push_back(loose);
    scenario_phase tight = loose;
    tight.name = "tight";
    tight.frames = 12;
    tight.accuracy_budget = 0.0;
    tight.input_noise = 0.0;
    sc.phases.push_back(tight);
    return sc;
}

// -- scenario -----------------------------------------------------------------

TEST(scenario, validate_rejects_bad_descriptions)
{
    scenario sc;
    EXPECT_THROW(sc.validate(), std::invalid_argument); // no phases
    sc.networks.push_back(make_lenet5({.seed = 7}));
    scenario_phase ph;
    ph.name = "p";
    ph.network = 1; // out of range
    sc.phases.push_back(ph);
    EXPECT_THROW(sc.validate(), std::invalid_argument);
    sc.phases[0].network = 0;
    sc.phases[0].frames = 0;
    EXPECT_THROW(sc.validate(), std::invalid_argument);
    sc.phases[0].frames = 4;
    sc.phases[0].target_fps = 0.0;
    EXPECT_THROW(sc.validate(), std::invalid_argument);
    sc.phases[0].target_fps = 30.0;
    EXPECT_NO_THROW(sc.validate());
    EXPECT_EQ(sc.total_frames(), 4U);
}

TEST(scenario, stream_frames_depend_only_on_seed_and_index)
{
    const network net = make_lenet5({.seed = 7});
    scenario_phase ph;
    const tensor a = make_stream_frame(net, ph, 42, 5);
    const tensor b = make_stream_frame(net, ph, 42, 5);
    const tensor c = make_stream_frame(net, ph, 42, 6);
    const tensor d = make_stream_frame(net, ph, 43, 5);
    ASSERT_EQ(a.size(), b.size());
    bool differs_c = false;
    bool differs_d = false;
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a.flat()[i], b.flat()[i]);
        differs_c |= a.flat()[i] != c.flat()[i];
        differs_d |= a.flat()[i] != d.flat()[i];
    }
    EXPECT_TRUE(differs_c);
    EXPECT_TRUE(differs_d);
}

// -- scheduler ----------------------------------------------------------------

TEST(stream_scheduler, overlay_maps_plan_bits_onto_weighted_layers)
{
    const network net = make_lenet5({.seed = 7});
    const envision_model model;
    const precision_planner planner(model);
    const quant_sweep_config qcfg{.images = 6, .max_bits = 8, .seed = 3};
    const network_plan plan = planner.plan(net, qcfg);

    const std::vector<layer_quant> overlay = plan_overlay(net, plan);
    ASSERT_EQ(overlay.size(), net.depth());
    const std::vector<std::size_t> weighted = net.weighted_layers();
    ASSERT_EQ(weighted.size(), plan.layers.size());
    for (std::size_t k = 0; k < weighted.size(); ++k) {
        EXPECT_EQ(overlay[weighted[k]].weight_bits,
                  plan.layers[k].weight_bits);
        EXPECT_EQ(overlay[weighted[k]].input_bits,
                  plan.layers[k].input_bits);
    }
    for (std::size_t i = 0; i < overlay.size(); ++i) {
        if (std::find(weighted.begin(), weighted.end(), i)
            == weighted.end()) {
            EXPECT_EQ(overlay[i], layer_quant{});
        }
    }
}

TEST(stream_scheduler, ledger_attribution_matches_plan_energy)
{
    const network net = make_lenet5({.seed = 7});
    const envision_model model;
    const precision_planner planner(model);
    const quant_sweep_config qcfg{.images = 6, .max_bits = 8, .seed = 3};
    const network_plan plan = planner.plan(net, qcfg);

    scenario_phase ph;
    std::vector<tensor> frames;
    for (std::uint64_t f = 0; f < 3; ++f) {
        frames.push_back(make_stream_frame(net, ph, 11, f));
    }
    const stream_scheduler sched(1);
    std::vector<frame_result> out;
    energy_ledger ledger;
    const bound_network served(net, plan_overlay(net, plan));
    const bound_network teacher(net, std::vector<layer_quant>(net.depth()));
    sched.run_batch(served, teacher, plan, frames, 0, 0, 1, 40.0, 1.0, out,
                    ledger);

    ASSERT_EQ(out.size(), 3U);
    for (std::size_t i = 0; i < out.size(); ++i) {
        EXPECT_EQ(out[i].frame, i);
        EXPECT_DOUBLE_EQ(out[i].energy_mj, plan.total_energy_mj);
        EXPECT_DOUBLE_EQ(out[i].time_ms, plan.total_time_ms);
    }
    // Per-domain attribution sums back to the plan's frame energy
    // (1 mJ = 1e9 pJ); every domain carries some of it.
    EXPECT_NEAR(ledger.total_pj(), 3.0 * plan.total_energy_mj * 1e9,
                3.0 * plan.total_energy_mj * 1e9 * 1e-9);
    for (const power_domain d :
         {power_domain::as, power_domain::nas, power_domain::mem}) {
        EXPECT_GT(ledger.pj(d), 0.0);
    }
}

// -- determinism --------------------------------------------------------------

// Same stream + seed => bit-identical per-frame plans, predictions and
// energies at 1 and N threads (measured planning_ms is wall clock and is
// the one field excluded).
TEST(stream_engine, phase_transitions_bit_identical_across_threads)
{
    const envision_model model;
    stream_result results[2];
    const unsigned thread_counts[2] = {1, 3};
    for (int r = 0; r < 2; ++r) {
        governor_config g = small_governor();
        g.sweep.threads = thread_counts[r];
        stream_config s;
        s.threads = thread_counts[r];
        s.probe_interval = 6;
        s.probe_window = 6;
        s.drift_margin = 0.02;
        const scenario sc = two_phase_scenario();
        stream_engine engine(model, g, s);
        results[r] = engine.run(sc);
    }
    const stream_result& a = results[0];
    const stream_result& b = results[1];

    ASSERT_EQ(a.frames.size(), b.frames.size());
    for (std::size_t i = 0; i < a.frames.size(); ++i) {
        EXPECT_EQ(a.frames[i].frame, b.frames[i].frame);
        EXPECT_EQ(a.frames[i].phase, b.frames[i].phase);
        EXPECT_EQ(a.frames[i].plan_version, b.frames[i].plan_version);
        EXPECT_EQ(a.frames[i].predicted, b.frames[i].predicted);
        EXPECT_EQ(a.frames[i].teacher, b.frames[i].teacher);
        EXPECT_EQ(a.frames[i].time_ms, b.frames[i].time_ms);
        EXPECT_EQ(a.frames[i].energy_mj, b.frames[i].energy_mj);
    }
    ASSERT_EQ(a.replans.size(), b.replans.size());
    for (std::size_t i = 0; i < a.replans.size(); ++i) {
        EXPECT_EQ(a.replans[i].reason, b.replans[i].reason);
        EXPECT_EQ(a.replans[i].plan_version, b.replans[i].plan_version);
        EXPECT_EQ(a.replans[i].frame, b.replans[i].frame);
        EXPECT_EQ(a.replans[i].accuracy_budget,
                  b.replans[i].accuracy_budget);
        EXPECT_EQ(a.replans[i].plan.total_energy_mj,
                  b.replans[i].plan.total_energy_mj);
        EXPECT_EQ(a.replans[i].plan.total_time_ms,
                  b.replans[i].plan.total_time_ms);
        EXPECT_EQ(a.replans[i].window_accuracy_before,
                  b.replans[i].window_accuracy_before);
        EXPECT_EQ(a.replans[i].window_accuracy_after,
                  b.replans[i].window_accuracy_after);
        ASSERT_EQ(a.replans[i].plan.layers.size(),
                  b.replans[i].plan.layers.size());
        for (std::size_t k = 0; k < a.replans[i].plan.layers.size();
             ++k) {
            EXPECT_EQ(a.replans[i].plan.layers[k].point,
                      b.replans[i].plan.layers[k].point);
        }
    }
    for (const power_domain d :
         {power_domain::as, power_domain::nas, power_domain::mem}) {
        EXPECT_EQ(a.ledger.pj(d), b.ledger.pj(d));
    }
    EXPECT_EQ(a.total_energy_mj, b.total_energy_mj);
    EXPECT_EQ(a.stream_accuracy, b.stream_accuracy);
}

// The noisy loose phase must provoke at least one drift escalation, and
// escalations must tighten the effective budget.
TEST(stream_engine, drift_escalation_tightens_the_budget)
{
    const envision_model model;
    governor_config g = small_governor();
    stream_config s;
    s.probe_interval = 6;
    s.probe_window = 6;
    s.drift_margin = 0.02;
    const scenario sc = two_phase_scenario();
    stream_engine engine(model, g, s);
    EXPECT_FALSE(engine.governor().prepared(sc.networks[0]));
    const stream_result res = engine.run(sc);
    EXPECT_TRUE(engine.governor().prepared(sc.networks[0]));
    // Every re-plan event carries a fresh plan version.
    EXPECT_EQ(static_cast<std::size_t>(
                  engine.governor().versions_issued()),
              res.replans.size());

    bool saw_drift = false;
    double last_budget = sc.phases[0].accuracy_budget;
    for (const replan_event& ev : res.replans) {
        if (ev.reason != replan_reason::drift || ev.frame >= 20) {
            continue;
        }
        saw_drift = true;
        EXPECT_LT(ev.accuracy_budget, last_budget);
        last_budget = ev.accuracy_budget;
        // The engine verified the escalation on the live window.
        EXPECT_GE(ev.window_accuracy_before, 0.0);
        EXPECT_GE(ev.window_accuracy_after, ev.window_accuracy_before);
    }
    EXPECT_TRUE(saw_drift);
}

// -- latency budgets ----------------------------------------------------------

class latency_budget_test : public ::testing::Test {
protected:
    static void SetUpTestSuite()
    {
        net_ = new network(make_lenet5({.seed = 7}));
        model_ = new envision_model();
        governor_ = new adaptive_governor(*model_, small_governor());
        governor_->prepare(*net_);
    }
    static void TearDownTestSuite()
    {
        delete governor_;
        governor_ = nullptr;
        delete model_;
        model_ = nullptr;
        delete net_;
        net_ = nullptr;
    }

    static network* net_;
    static envision_model* model_;
    static adaptive_governor* governor_;
};

network* latency_budget_test::net_ = nullptr;
envision_model* latency_budget_test::model_ = nullptr;
adaptive_governor* latency_budget_test::governor_ = nullptr;

// Tighter latency budget never lowers fps: each feasible plan fits its
// deadline, and relaxing the deadline never raises energy.
TEST_F(latency_budget_test, tighter_deadline_never_lowers_fps)
{
    const auto& frontiers = governor_->prepare(*net_).frontiers;
    double prev_energy = -1.0;
    for (const double deadline : {0.01, 0.02, 0.05, 0.2, 1.0}) {
        const frontier_selection sel = select_frontier_points_budgeted(
            frontiers, 0.0, deadline, 0.0025, 1e-4);
        if (!sel.feasible) {
            continue;
        }
        EXPECT_LE(sel.time_ms, deadline + 1e-12);
        const double fps = 1000.0 / sel.time_ms;
        EXPECT_GE(fps + 1e-9, 1000.0 / deadline);
        if (prev_energy >= 0.0) {
            EXPECT_GE(prev_energy + 1e-12, sel.energy_mj)
                << "deadline " << deadline;
        }
        prev_energy = sel.energy_mj;
    }
    ASSERT_GE(prev_energy, 0.0) << "no deadline was feasible";
}

// The governor's cache is keyed by network name: a rebuilt same-seed
// network re-binds (second run works after the first scenario died), but
// a *different* network stealing the name is rejected.
TEST(stream_engine, engine_reuse_across_rebuilt_scenarios)
{
    const envision_model model;
    governor_config g = small_governor();
    stream_config s;
    s.probe_interval = 0;
    stream_engine engine(model, g, s);

    stream_result first;
    {
        scenario sc = two_phase_scenario();
        first = engine.run(sc);
    } // first scenario (and its networks) destroyed here
    scenario sc2 = two_phase_scenario();
    const stream_result second = engine.run(sc2);
    ASSERT_EQ(first.frames.size(), second.frames.size());
    for (std::size_t i = 0; i < first.frames.size(); ++i) {
        EXPECT_EQ(first.frames[i].predicted, second.frames[i].predicted);
        EXPECT_EQ(first.frames[i].energy_mj, second.frames[i].energy_mj);
    }

    // A structurally different network stealing the name is rejected...
    network impostor(sc2.networks[0].name(),
                     sc2.networks[0].input_shape());
    EXPECT_THROW(engine.governor().prepare(impostor),
                 std::invalid_argument);
    // ...and so is the same architecture built from a different seed
    // (the weight digest differs, so the cached sweeps do not apply).
    const network reseeded = make_lenet5({.seed = 12345});
    EXPECT_THROW(engine.governor().prepare(reseeded),
                 std::invalid_argument);
}

// An impossible frame rate falls back to the minimum-time plan with
// deadline_met = false -- and the stream keeps running on it.
TEST_F(latency_budget_test, infeasible_deadline_falls_back)
{
    scenario_phase ph;
    ph.name = "impossible";
    ph.frames = 8;
    ph.target_fps = 1e9;
    ph.accuracy_budget = 0.0;
    const replan_event ev =
        governor_->replan(*net_, ph, replan_reason::phase_change, 0);
    EXPECT_FALSE(ev.plan.deadline_met);
    EXPECT_GT(ev.plan.total_time_ms, 1000.0 / ph.target_fps);
    // Fallback = per-layer fastest: no other selection can be faster.
    const auto& frontiers = governor_->prepare(*net_).frontiers;
    double fastest = 0.0;
    for (const layer_frontier& lf : frontiers) {
        double best = lf.points.front().time_ms;
        for (const layer_frontier_point& p : lf.points) {
            best = std::min(best, p.time_ms);
        }
        fastest += best;
    }
    EXPECT_NEAR(ev.plan.total_time_ms, fastest, fastest * 1e-9);

    scenario sc;
    sc.networks.push_back(make_lenet5({.seed = 7}));
    sc.phases.push_back(ph);
    governor_config g = small_governor();
    stream_config s;
    s.probe_interval = 0; // no drift probes: isolate the fallback path
    const envision_model model;
    stream_engine engine(model, g, s);
    const stream_result res = engine.run(sc);
    ASSERT_EQ(res.frames.size(), 8U);
    EXPECT_FALSE(res.phases[0].deadline_met);
    for (const frame_result& fr : res.frames) {
        EXPECT_FALSE(fr.deadline_met);
    }
}

// -- drift escalation convergence ---------------------------------------------

// Satellite regression: repeated escalation under permanent drift must
// converge -- budget halves to its zero floor, stage two saturates every
// requirement at the frontier width -- and then report plan_stale instead
// of looping the rebuild or underflowing the budget.
TEST(adaptive_governor, escalation_converges_to_plan_stale)
{
    const envision_model model;
    adaptive_governor gov(model, small_governor());
    const network net = make_lenet5({.seed = 7});
    gov.prepare(net);
    scenario_phase ph;
    ph.name = "perma-drift";
    ph.frames = 8;
    ph.target_fps = 25.0;
    ph.accuracy_budget = 0.08;

    bool saw_stale = false;
    int stale_events = 0;
    double prev_budget = 1.0;
    network_plan converged;
    for (int i = 0; i < 32; ++i) {
        const replan_event ev =
            gov.escalate(net, ph, static_cast<std::uint64_t>(i));
        // The budget only ever tightens and never underflows.
        EXPECT_GE(ev.accuracy_budget, 0.0);
        EXPECT_LE(ev.accuracy_budget, prev_budget);
        prev_budget = ev.accuracy_budget;
        if (ev.plan_stale) {
            // Stale implies both levers exhausted: zero budget, no
            // frontier rebuild (the no-op re-measure must be skipped).
            EXPECT_EQ(ev.accuracy_budget, 0.0);
            EXPECT_FALSE(ev.rebuilt_frontiers);
            if (!saw_stale) {
                converged = ev.plan;
            } else {
                // The converged plan is a fixed point.
                ASSERT_EQ(ev.plan.layers.size(), converged.layers.size());
                for (std::size_t k = 0; k < converged.layers.size(); ++k) {
                    EXPECT_EQ(ev.plan.layers[k].point,
                              converged.layers[k].point);
                }
            }
            saw_stale = true;
            ++stale_events;
        } else {
            // Staleness is terminal: once there is no lever left there
            // is never one again.
            EXPECT_FALSE(saw_stale);
        }
    }
    EXPECT_TRUE(saw_stale);
    EXPECT_GE(stale_events, 2);
}

// -- overload_valve / drift_probe (no network) --------------------------------

namespace {

network_plan plan_with(double time_ms, double energy_mj)
{
    network_plan p;
    p.total_time_ms = time_ms;
    p.total_energy_mj = energy_mj;
    return p;
}

valve_config unit_valve()
{
    valve_config vc;
    vc.shed_after = 3;
    vc.recover_after = 4;
    vc.recover_below = 0.8;
    vc.max_level = 2;
    return vc;
}

// Sheds one level from `active` under over-pressure in one batch.
void shed_once(overload_valve& v, std::uint64_t& f,
               const network_plan& active, double eff_period)
{
    v.observe(2.0, f, f + 3);
    f += 3;
    const auto d = v.decide(active, eff_period, 10.0);
    ASSERT_TRUE(d.has_value());
    EXPECT_EQ(d->reason, replan_reason::shed);
}

} // namespace

TEST(overload_valve, sheds_after_shed_after_frames_whatever_the_batches)
{
    const network_plan active = plan_with(12.0, 1.0);
    // One batch of three, batches of one, and a two-then-one split all
    // shed on the third over-pressure frame and not before.
    for (const std::vector<int>& batches :
         {std::vector<int>{3}, std::vector<int>{1, 1, 1},
          std::vector<int>{2, 1}}) {
        overload_valve v(unit_valve());
        std::uint64_t f = 0;
        for (std::size_t i = 0; i < batches.size(); ++i) {
            v.observe(1.5, f, f + static_cast<std::uint64_t>(batches[i]));
            f += static_cast<std::uint64_t>(batches[i]);
            const auto d = v.decide(active, 8.0, 10.0);
            if (i + 1 < batches.size()) {
                EXPECT_FALSE(d.has_value());
                continue;
            }
            ASSERT_TRUE(d.has_value());
            EXPECT_EQ(d->reason, replan_reason::shed);
            EXPECT_EQ(d->level, 1);
            EXPECT_EQ(d->latency_budget_ms, 8.0);
        }
        EXPECT_EQ(v.level(), 1);
        EXPECT_EQ(v.last_over_frame(), 2U);
    }
}

TEST(overload_valve, dead_band_resets_both_streaks)
{
    const network_plan active = plan_with(12.0, 1.0);
    overload_valve v(unit_valve());
    // Two over frames, one dead-band frame (0.8 < 0.9 <= 1), then two
    // more over frames: the streak restarted, so no shed.
    v.observe(1.5, 0, 2);
    v.observe(0.9, 2, 3);
    v.observe(1.5, 3, 5);
    EXPECT_FALSE(v.decide(active, 8.0, 10.0).has_value());
    v.observe(1.5, 5, 6);
    ASSERT_TRUE(v.decide(active, 8.0, 10.0).has_value());
    // Calm streak: three calm frames, a dead-band frame, three calm: no
    // recovery (recover_after = 4) until one more calm frame.
    v.observe(0.5, 6, 9);
    v.observe(0.9, 9, 10);
    v.observe(0.5, 10, 13);
    EXPECT_FALSE(v.decide(active, 100.0, 10.0).has_value());
    v.observe(0.5, 13, 14);
    const auto d = v.decide(active, 100.0, 10.0);
    ASSERT_TRUE(d.has_value());
    EXPECT_EQ(d->reason, replan_reason::recover);
}

TEST(overload_valve, recovery_waits_for_calm_and_a_stacked_plan_that_fits)
{
    overload_valve v(unit_valve());
    std::uint64_t f = 0;
    shed_once(v, f, plan_with(12.0, 1.0), 8.0);
    const network_plan shed = plan_with(7.0, 0.5);
    // recover_after - 1 calm frames: not yet.
    v.observe(0.5, f, f + 3);
    f += 3;
    EXPECT_FALSE(v.decide(shed, 20.0, 10.0).has_value());
    v.observe(0.5, f, f + 1);
    ++f;
    // The stacked plan (12 ms) does not fit 0.8 x 14 ms = 11.2 ms...
    EXPECT_FALSE(v.decide(shed, 14.0, 10.0).has_value());
    // ...but fits 0.8 x 15 ms = 12 ms exactly.
    const auto d = v.decide(shed, 15.0, 10.0);
    ASSERT_TRUE(d.has_value());
    EXPECT_EQ(d->reason, replan_reason::recover);
    EXPECT_EQ(d->level, 0);
    EXPECT_EQ(v.level(), 0);

    // With an energy budget the stacked plan's energy must fit too.
    valve_config vc = unit_valve();
    vc.energy_budget_mj = 1.0;
    overload_valve e(vc);
    f = 0;
    shed_once(e, f, plan_with(1.0, 0.9), 8.0);
    e.observe(0.5, f, f + 8);
    f += 8;
    EXPECT_FALSE(e.decide(shed, 100.0, 10.0).has_value())
        << "0.9 mJ stacked does not fit 0.8 x 1 mJ";
    overload_valve e2(vc);
    f = 0;
    shed_once(e2, f, plan_with(1.0, 0.8), 8.0);
    e2.observe(0.5, f, f + 8);
    EXPECT_TRUE(e2.decide(shed, 100.0, 10.0).has_value());
}

TEST(overload_valve, recovery_to_level_zero_uses_the_nominal_period)
{
    overload_valve v(unit_valve());
    std::uint64_t f = 0;
    shed_once(v, f, plan_with(6.0, 1.0), 8.0);
    shed_once(v, f, plan_with(5.0, 1.0), 7.0);
    ASSERT_EQ(v.level(), 2);
    v.observe(0.5, f, f + 4);
    f += 4;
    const auto to1 = v.decide(plan_with(4.0, 1.0), 9.0, 10.0);
    ASSERT_TRUE(to1.has_value());
    EXPECT_EQ(to1->level, 1);
    EXPECT_EQ(to1->latency_budget_ms, 9.0); // still the effective period
    v.observe(0.5, f, f + 4);
    const auto to0 = v.decide(plan_with(5.0, 1.0), 9.0, 10.0);
    ASSERT_TRUE(to0.has_value());
    EXPECT_EQ(to0->level, 0);
    EXPECT_EQ(to0->latency_budget_ms, 10.0); // the nominal period
}

TEST(overload_valve, max_level_caps_shedding)
{
    overload_valve v(unit_valve());
    std::uint64_t f = 0;
    shed_once(v, f, plan_with(12.0, 1.0), 8.0);
    shed_once(v, f, plan_with(11.0, 1.0), 8.0);
    v.observe(2.0, f, f + 10);
    EXPECT_FALSE(v.decide(plan_with(10.0, 1.0), 8.0, 10.0).has_value());
    EXPECT_EQ(v.level(), 2);

    // max_level = 0 turns the valve off: nothing sheds, so nothing
    // recovers either.
    valve_config off = unit_valve();
    off.max_level = 0;
    overload_valve o(off);
    o.observe(5.0, 0, 50);
    EXPECT_FALSE(o.decide(plan_with(12.0, 1.0), 8.0, 10.0).has_value());
    o.observe(0.1, 50, 100);
    EXPECT_FALSE(o.decide(plan_with(12.0, 1.0), 100.0, 10.0).has_value());
    EXPECT_EQ(o.level(), 0);
}

TEST(overload_valve, pressure_is_the_larger_utilization)
{
    valve_config vc = unit_valve();
    const overload_valve latency_only(vc);
    EXPECT_EQ(latency_only.pressure(5.0, 100.0, 10.0), 0.5);
    vc.energy_budget_mj = 2.0;
    const overload_valve both(vc);
    EXPECT_EQ(both.pressure(5.0, 3.0, 10.0), 1.5);
    EXPECT_EQ(both.pressure(5.0, 0.5, 10.0), 0.5);
}

namespace {

frame_result logged(std::uint64_t frame, int version, bool hit)
{
    frame_result fr;
    fr.frame = frame;
    fr.plan_version = version;
    fr.teacher = 3;
    fr.predicted = hit ? 3 : 1;
    return fr;
}

stream_config probe_config()
{
    stream_config s;
    s.probe_interval = 4;
    s.probe_window = 3;
    s.drift_margin = 0.1;
    s.max_escalations_per_phase = 2;
    return s;
}

} // namespace

TEST(drift_probe, schedule_cuts_batches_at_probe_points)
{
    drift_probe p(probe_config(), 10, 20);
    EXPECT_EQ(p.cut(30), 14U);
    EXPECT_EQ(p.cut(12), 12U);
    EXPECT_FALSE(p.due(12));
    EXPECT_TRUE(p.due(14));
    EXPECT_EQ(p.cut(30), 18U);
    EXPECT_TRUE(p.due(18));
    // The next point (22) lies past the phase end.
    EXPECT_FALSE(p.due(20));

    stream_config off = probe_config();
    off.probe_interval = 0;
    drift_probe none(off, 10, 20);
    EXPECT_EQ(none.cut(30), 20U);
    EXPECT_FALSE(none.due(20));
}

TEST(drift_probe, window_stops_at_a_version_change_and_short_ones_skip)
{
    const drift_probe p(probe_config(), 0, 100);
    std::vector<frame_result> log = {
        logged(0, 1, true), logged(1, 1, true), logged(2, 2, false),
        logged(3, 2, true)};
    // Only two frames of version 2: the window is short.
    EXPECT_FALSE(p.score(log, 0, 2).has_value());
    log.push_back(logged(4, 2, false));
    const auto w = p.score(log, 0, 2);
    ASSERT_TRUE(w.has_value());
    EXPECT_EQ(*w, 1.0 / 3.0);
    // The window never reaches back before the phase's first frame.
    EXPECT_FALSE(p.score(log, 3, 2).has_value());
    // A window of the newest frames only: (miss, hit) + hit.
    log.push_back(logged(5, 2, true));
    EXPECT_EQ(p.score(log, 0, 2), 2.0 / 3.0);
}

TEST(drift_probe, cap_stale_and_pending_stop_escalation)
{
    drift_probe p(probe_config(), 0, 100);
    // Floor 0.9, margin 0.1: escalate strictly below 0.8.
    EXPECT_TRUE(p.should_escalate(0.7, 0.9, false));
    EXPECT_FALSE(p.should_escalate(0.85, 0.9, false));
    EXPECT_FALSE(p.should_escalate(0.7, 0.9, true));
    p.escalated(false);
    EXPECT_TRUE(p.should_escalate(0.7, 0.9, false));
    p.escalated(false);
    EXPECT_FALSE(p.should_escalate(0.0, 0.9, false)) << "per-phase cap";

    drift_probe q(probe_config(), 0, 100);
    q.escalated(true);
    EXPECT_FALSE(q.should_escalate(0.0, 0.9, false)) << "stale";
}

// -- overload valve -----------------------------------------------------------

namespace {

// Per-layer fastest / cheapest sums over the cached frontiers: the bounds
// the valve tests use to place a storm's effective period between "the
// nominal plan overruns" and "some frontier selection still fits".
double frontier_min_time_ms(const std::vector<layer_frontier>& frontiers)
{
    double total = 0.0;
    for (const layer_frontier& lf : frontiers) {
        double best = lf.points.front().time_ms;
        for (const layer_frontier_point& p : lf.points) {
            best = std::min(best, p.time_ms);
        }
        total += best;
    }
    return total;
}

scenario storm_scenario(int frames)
{
    scenario sc;
    sc.name = "storm";
    sc.networks.push_back(make_lenet5({.seed = 7}));
    scenario_phase ph;
    ph.name = "steady";
    ph.frames = frames;
    ph.target_fps = 25.0;
    ph.accuracy_budget = 0.0;
    sc.phases.push_back(ph);
    return sc;
}

stream_config valve_test_config()
{
    stream_config s;
    s.probe_interval = 0; // no drift probes: isolate the valve
    s.valve.shed_after = 3;
    s.valve.recover_after = 6;
    // A generous allowance so one shed level is enough to reach any
    // feasible frontier selection under the storm's deadline.
    s.valve.budget_step = 0.25;
    return s;
}

} // namespace

// A deadline storm (effective period between the per-layer fastest sum and
// the nominal plan's service time) sheds accuracy instead of frames, and
// once the storm clears the valve restores the original plan exactly.
TEST(stream_engine, valve_sheds_in_a_deadline_storm_and_recovers_exactly)
{
    const envision_model model;
    stream_engine engine(model, small_governor(), valve_test_config());
    const scenario sc = storm_scenario(80);
    const auto& st = engine.governor().prepare(sc.networks[0]);
    const double fastest = frontier_min_time_ms(st.frontiers);
    const double nominal =
        engine.governor()
            .replan(sc.networks[0], sc.phases[0],
                    replan_reason::startup, 0)
            .plan.total_time_ms;
    ASSERT_GT(nominal, 0.0);
    if (fastest >= nominal) {
        GTEST_SKIP() << "frontier has no faster point than the nominal "
                        "plan; storm cannot be answered";
    }

    const double period_ms = 1000.0 / sc.phases[0].target_fps;
    const double eff_period = 0.5 * (fastest + nominal);
    fault_script script;
    script.rate.push_back(
        {{.first = 10, .count = 30}, eff_period / period_ms});
    const fault_injector faults(std::move(script));

    const stream_result res = engine.run(sc, &faults);
    EXPECT_EQ(res.stats.frames_served, 80U);
    EXPECT_EQ(res.stats.frames_dropped, 0U);
    EXPECT_GE(res.stats.shed_events, 1);
    EXPECT_GE(res.stats.recover_events, 1);
    EXPECT_GE(res.stats.max_valve_level, 1);
    // The storm frames served before the shed activated missed their
    // effective deadline; nothing else did.
    EXPECT_GT(res.stats.deadline_misses, 0);
    EXPECT_LT(res.stats.deadline_misses, 30);
    EXPECT_EQ(res.stats.faulted_frames, 30U);

    // The shed plan fits the storm's effective period; the recover event
    // at level 0 restores the startup plan point for point (same DP
    // inputs: nominal period, no extra allowance).
    const replan_event* shed = nullptr;
    const replan_event* recover = nullptr;
    for (const replan_event& ev : res.replans) {
        if (ev.reason == replan_reason::shed && shed == nullptr) {
            shed = &ev;
        }
        if (ev.reason == replan_reason::recover && ev.valve_level == 0) {
            recover = &ev;
        }
    }
    ASSERT_NE(shed, nullptr);
    ASSERT_NE(recover, nullptr);
    EXPECT_EQ(shed->valve_level, 1);
    EXPECT_NEAR(shed->latency_budget_ms, eff_period, eff_period * 1e-12);
    EXPECT_LE(shed->plan.total_time_ms, eff_period);
    EXPECT_LT(shed->plan.total_time_ms, nominal);
    EXPECT_EQ(recover->latency_budget_ms, period_ms);
    const network_plan& original = res.replans.front().plan;
    ASSERT_EQ(recover->plan.layers.size(), original.layers.size());
    for (std::size_t k = 0; k < original.layers.size(); ++k) {
        EXPECT_EQ(recover->plan.layers[k].point, original.layers[k].point);
    }
    EXPECT_EQ(recover->plan.total_time_ms, original.total_time_ms);
    EXPECT_EQ(recover->plan.total_energy_mj, original.total_energy_mj);
    EXPECT_GT(res.stats.recovery_frames, 0U);

    // The stream's tail runs on the restored plan.
    EXPECT_EQ(res.frames.back().plan_version, recover->plan_version);
    EXPECT_EQ(res.frames.back().time_ms, original.total_time_ms);
}

// The same storm with the valve turned off (max_level = 0): the stream still serves every
// frame (no drops -- that contract does not depend on the valve), but the
// storm frames simply miss their deadlines and no accuracy is shed.
TEST(stream_engine, valve_disabled_misses_deadlines_without_shedding)
{
    const envision_model model;
    stream_config scfg = valve_test_config();
    scfg.valve.max_level = 0;
    stream_engine engine(model, small_governor(), scfg);
    const scenario sc = storm_scenario(80);
    const auto& st = engine.governor().prepare(sc.networks[0]);
    const double fastest = frontier_min_time_ms(st.frontiers);
    const double nominal =
        engine.governor()
            .replan(sc.networks[0], sc.phases[0],
                    replan_reason::startup, 0)
            .plan.total_time_ms;
    if (fastest >= nominal) {
        GTEST_SKIP() << "frontier has no faster point than the nominal "
                        "plan; storm cannot be answered";
    }
    const double period_ms = 1000.0 / sc.phases[0].target_fps;
    const double eff_period = 0.5 * (fastest + nominal);
    fault_script script;
    script.rate.push_back(
        {{.first = 10, .count = 30}, eff_period / period_ms});
    const fault_injector faults(std::move(script));

    const stream_result res = engine.run(sc, &faults);
    EXPECT_EQ(res.stats.frames_served, 80U);
    EXPECT_EQ(res.stats.frames_dropped, 0U);
    EXPECT_EQ(res.stats.shed_events, 0);
    EXPECT_EQ(res.stats.recover_events, 0);
    EXPECT_EQ(res.stats.max_valve_level, 0);
    // Every storm frame misses the collapsed deadline.
    EXPECT_EQ(res.stats.deadline_misses, 30);
}

// Persistent energy pressure (a per-frame energy budget below the nominal
// plan's appetite) sheds to a cheaper plan and *holds* it: recovery is
// gated on the stacked plan fitting comfortably again, so the valve does
// not oscillate against a constraint that never clears.
TEST(stream_engine, valve_holds_under_persistent_energy_pressure)
{
    const envision_model model;
    stream_engine probe_engine(model, small_governor(),
                               valve_test_config());
    const scenario sc = storm_scenario(64);
    const auto& st = probe_engine.governor().prepare(sc.networks[0]);
    double cheapest = 0.0;
    for (const layer_frontier& lf : st.frontiers) {
        double best = lf.points.front().energy_mj;
        for (const layer_frontier_point& p : lf.points) {
            best = std::min(best, p.energy_mj);
        }
        cheapest += best;
    }
    const double nominal =
        probe_engine.governor()
            .replan(sc.networks[0], sc.phases[0],
                    replan_reason::startup, 0)
            .plan.total_energy_mj;
    if (cheapest >= nominal) {
        GTEST_SKIP() << "frontier has no cheaper point than the nominal "
                        "plan; energy pressure cannot be answered";
    }

    stream_config scfg = valve_test_config();
    scfg.valve.energy_budget_mj = 0.5 * (cheapest + nominal);
    stream_engine engine(model, small_governor(), scfg);
    const stream_result res = engine.run(sc);
    EXPECT_EQ(res.stats.frames_dropped, 0U);
    EXPECT_GE(res.stats.shed_events, 1);
    // The pressure never clears, so the shed plan is held.
    EXPECT_EQ(res.stats.recover_events, 0);
    const frame_result& last = res.frames.back();
    EXPECT_LT(last.energy_mj, nominal);
}

} // namespace
} // namespace dvafs
