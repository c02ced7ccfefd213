// `replan`: the governor's online decisions. Set-up admits LeNet-5,
// AlexNet-S and VGG16-S; the timed part is a seeded sequence of replan
// (phase change over a budget x frame-rate grid) and replan_valve (shed
// levels 1-4 under shrunken latency budgets) calls, each followed by
// verify_plan as the stream engine's gate does. The sequence repeats
// until the time is up and every pass must reproduce the first. Then an
// escalation ladder runs per network until the governor reports
// plan_stale. The core DP and the verifier do nearly all the work; the
// only forwards are the ladder's stage-two re-pricing.

#include "bench.h"

#include <algorithm>
#include <limits>
#include <optional>

namespace e2e {

namespace {

struct replan_sizes {
    int calls = 3000;
    int setup_reps = 3;
    int min_passes = 2;
    std::size_t ladder_nets = 3;
};

struct call {
    std::size_t net = 0;
    bool valve = false;
    int level = 0;
    scenario_phase phase;
    double latency_ms = 0.0; // valve calls only
};

constexpr double budget_step = 0.02;

// Sum over layers of the fastest zero-loss frontier point: a selection
// with this latency meets any accuracy budget, so latency budgets at or
// above 1.1x it are always feasible (the margin covers the DP's
// round-up discretization of times).
double zero_loss_min_time_ms(const std::vector<layer_frontier>& frontiers)
{
    double total = 0.0;
    for (const layer_frontier& lf : frontiers) {
        double best = std::numeric_limits<double>::infinity();
        for (const layer_frontier_point& p : lf.points) {
            if (p.accuracy_loss == 0.0) {
                best = std::min(best, p.time_ms);
            }
        }
        total += best;
    }
    return total;
}

std::vector<call> make_calls(const std::vector<network>& nets,
                             adaptive_governor& gov, int count,
                             std::uint64_t seed)
{
    const double budgets[] = {0.0, 0.01, 0.02, 0.05, 0.10};
    const double stretch[] = {0.0, 0.25, 0.5, 1.0, 2.0};
    const double shrink[] = {0.5, 0.75, 0.9};
    std::vector<double> t0;
    std::vector<std::vector<double>> t_free; // min-energy plan time per budget
    for (const network& net : nets) {
        const auto& st = gov.prepare(net);
        t0.push_back(zero_loss_min_time_ms(st.frontiers));
        std::vector<double> per_budget;
        for (const double b : budgets) {
            per_budget.push_back(
                select_frontier_points_budgeted(st.frontiers, b, 0.0)
                    .time_ms);
        }
        t_free.push_back(std::move(per_budget));
    }
    pcg32 rng(seed);
    std::vector<call> calls;
    for (int i = 0; i < count; ++i) {
        call c;
        c.net = rng.next_u32() % nets.size();
        const std::size_t b = rng.next_u32() % std::size(budgets);
        const double s = stretch[rng.next_u32() % std::size(stretch)];
        const double floor_ms = 1.1 * t0[c.net];
        const double latency =
            floor_ms + s * std::max(0.0, t_free[c.net][b] - t0[c.net]);
        c.phase.name = "grid";
        c.phase.accuracy_budget = budgets[b];
        c.phase.target_fps = 1000.0 / latency;
        c.valve = (rng.next_u32() & 1U) != 0;
        if (c.valve) {
            c.level = 1 + static_cast<int>(rng.next_u32() % 4);
            c.latency_ms = std::max(
                floor_ms, latency * shrink[rng.next_u32() % std::size(shrink)]);
        }
        calls.push_back(c);
    }
    return calls;
}

replan_event decide(adaptive_governor& gov, const network& net, const call& c,
                    std::uint64_t frame)
{
    return c.valve ? gov.replan_valve(net, c.phase, replan_reason::shed, frame,
                                      c.level, budget_step, c.latency_ms)
                   : gov.replan(net, c.phase, replan_reason::phase_change,
                                frame);
}

struct ladder_step {
    double ms = 0.0;
    bool rebuilt = false;
    bool stale = false;
};

scenario_phase ladder_phase()
{
    scenario_phase ph;
    ph.name = "ladder";
    ph.accuracy_budget = 0.02;
    ph.target_fps = 1.0; // any saturated plan fits a 1 s frame
    return ph;
}

} // namespace

result run_replan(const options& opt)
{
    result r;
    replan_sizes z;
    if (opt.tiny) {
        z = {.calls = 200, .setup_reps = 1, .min_passes = 1, .ladder_nets = 1};
    }
    if (opt.trace) {
        z.min_passes = 1;
    }
    const governor_config gcfg = bench_governor_config(opt.threads);
    const envision_model model;
    warm_process_caches(gcfg, model);

    // Set-up: admission of the three networks, freshly built, in a fresh
    // governor; the last set-up's networks and governor are timed.
    std::vector<double> setup_s;
    std::vector<network> nets;
    std::optional<adaptive_governor> gov;
    for (int rep = 0; rep < z.setup_reps; ++rep) {
        gov.reset();
        nets = make_zoo_networks();
        gov.emplace(model, gcfg);
        const auto t0 = clock_type::now();
        for (const network& net : nets) {
            gov->prepare(net);
        }
        setup_s.push_back(ms_since(t0) / 1000.0);
    }
    r.set("setup_s", median(setup_s), "s");
    std::vector<const std::vector<layer_frontier>*> frontiers;
    for (const network& net : nets) {
        frontiers.push_back(&gov->prepare(net).frontiers);
    }
    const std::vector<call> calls =
        make_calls(nets, *gov, z.calls, opt.seed);

    // Timed part: decision passes over the seeded call sequence.
    std::vector<double> decision_ms;
    std::vector<double> pass_ms;
    std::vector<double> first_energy;
    std::vector<double> first_loss;
    std::vector<decision> decisions;
    const auto start = clock_type::now();
    while (static_cast<int>(pass_ms.size()) < z.min_passes
           || ms_since(start) < opt.seconds * 1000.0) {
        const bool first = pass_ms.empty();
        const auto p0 = clock_type::now();
        for (std::size_t i = 0; i < calls.size(); ++i) {
            const call& c = calls[i];
            const network& net = nets[c.net];
            try {
                const auto t0 = clock_type::now();
                replan_event ev = decide(*gov, net, c, i);
                const lint_report rep =
                    verify_plan(net, ev.plan, frontiers[c.net]);
                decision_ms.push_back(ms_since(t0));
                if (opt.corrupt && first && i == 0) {
                    ev.plan.total_energy_mj *= 2.0;
                    r.ops.check(verify_plan(net, ev.plan, frontiers[c.net])
                                    .ok(),
                                "replan: tampered plan v"
                                    + std::to_string(ev.plan_version)
                                    + " failed verify");
                }
                r.ops.check(rep.ok(), "replan: plan v"
                                          + std::to_string(ev.plan_version)
                                          + " failed verify");
                r.ops.check(ev.plan.deadline_met,
                            "replan: deadline_met=false fallback at call "
                                + std::to_string(i));
                if (first) {
                    first_energy.push_back(ev.plan.total_energy_mj);
                    first_loss.push_back(ev.plan.planned_accuracy_loss);
                    decisions.push_back({&net, ev.accuracy_budget,
                                         ev.latency_budget_ms});
                } else {
                    r.ops.check(first_energy[i] == ev.plan.total_energy_mj,
                                "replan: a pass diverged from the first");
                }
            } catch (const std::exception& e) {
                r.ops.fail(std::string("replan: call threw: ") + e.what());
            }
        }
        pass_ms.push_back(ms_since(p0));
    }
    add_latency_metrics(r, decision_ms, "replan+verify decision");
    std::vector<double> uj;
    std::vector<double> acc;
    for (std::size_t i = 0; i < first_energy.size(); ++i) {
        uj.push_back(first_energy[i] * 1e3);
        acc.push_back(1.0 - first_loss[i]);
    }
    r.set("model.uj_per_frame", mean(uj), "uJ");
    r.set("model.accuracy", mean(acc), "ratio");

    // Escalation ladders, each on a copy of the admitted governor (the
    // original outlives the copies, which share its envision model).
    std::vector<std::vector<ladder_step>> ladders;
    double ladder_ms = 0.0;
    const scenario_phase lph = ladder_phase();
    for (std::size_t n = 0; n < std::min(z.ladder_nets, nets.size()); ++n) {
        adaptive_governor g = *gov;
        std::vector<ladder_step> steps;
        const auto l0 = clock_type::now();
        try {
            for (int k = 0; k < 64 && (steps.empty() || !steps.back().stale);
                 ++k) {
                const auto t0 = clock_type::now();
                const replan_event ev = g.escalate(nets[n], lph,
                                                   static_cast<std::uint64_t>(k));
                const bool ok =
                    verify_plan(nets[n], ev.plan, &g.prepare(nets[n]).frontiers)
                        .ok();
                steps.push_back({ms_since(t0), ev.rebuilt_frontiers,
                                 ev.plan_stale});
                r.ops.check(ok && ev.plan.deadline_met,
                            "replan: escalation of " + nets[n].name()
                                + " failed verify or its deadline");
            }
        } catch (const std::exception& e) {
            r.ops.fail(std::string("replan: escalation threw: ") + e.what());
        }
        ladder_ms += ms_since(l0);
        r.ops.check(!steps.empty() && steps.back().stale,
                    "replan: the ladder of " + nets[n].name()
                        + " did not end plan_stale");
        ladders.push_back(std::move(steps));
    }
    std::vector<double> reprice;
    for (const auto& steps : ladders) {
        for (const ladder_step& s : steps) {
            if (s.rebuilt) {
                reprice.push_back(s.ms);
            }
        }
    }
    r.notes.push_back("ladders: " + std::to_string(reprice.size())
                      + " stage-two re-pricings, mean "
                      + std::to_string(mean(reprice)) + " ms, "
                      + std::to_string(ladder_ms) + " ms in all");

    if (!opt.trace) {
        return r;
    }
    // Traced run: admission stage by stage, the first decision pass, then
    // the ladders, each call in its own span.
    tracer t;
    int mismatches = 0;
    {
        const std::vector<network> fresh = make_zoo_networks();
        const auto root = t("replay");
        for (std::size_t i = 0; i < fresh.size(); ++i) {
            mismatches +=
                !same_state(replay_admission(t, fresh[i], gcfg, model),
                            gov->prepare(nets[i]));
        }
        adaptive_governor g = *gov;
        const int id_replan = t.id("runtime.replan");
        const int id_valve = t.id("runtime.replan_valve");
        const int id_verify = t.id("analysis.verify_plan");
        for (std::size_t i = 0; i < calls.size(); ++i) {
            const call& c = calls[i];
            replan_event ev;
            {
                const auto sp = t(c.valve ? id_valve : id_replan);
                ev = decide(g, nets[c.net], c, i);
            }
            {
                const auto sp = t(id_verify);
                verify_plan(nets[c.net], ev.plan, frontiers[c.net]);
            }
            mismatches += i < first_energy.size()
                          && ev.plan.total_energy_mj != first_energy[i];
        }
        for (std::size_t n = 0; n < ladders.size(); ++n) {
            adaptive_governor lg = *gov;
            for (std::size_t k = 0; k < ladders[n].size(); ++k) {
                replan_event ev;
                {
                    const auto sp = t("runtime.escalate");
                    ev = lg.escalate(nets[n], lph, k);
                }
                const auto sp = t(id_verify);
                verify_plan(nets[n], ev.plan, &lg.prepare(nets[n]).frontiers);
            }
        }
    }
    add_coverage_metrics(r, t, "replay",
                         median(setup_s) * 1000.0 + median(pass_ms)
                             + ladder_ms);
    attribution_probes(t, *gov, decisions, gcfg, model);

    add_common_trace_metrics(r, t);
    r.set("runtime.reprice_ms", mean(reprice), "ms");
    r.set("runtime.replans", static_cast<double>(calls.size()), "count");
    r.set("trace.replay_mismatches", mismatches, "count");
    t.write_chrome(opt.out_dir + "/trace-replan-" + std::to_string(opt.seed)
                   + ".json");
    return r;
}

} // namespace e2e
