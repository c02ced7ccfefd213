// Streaming runtime benchmark: sustained fps, energy per frame and
// re-planning overhead of the scenario engine on the zoo's smallest
// network (LeNet-5).
//
// The scenario alternates three phases on one network with different
// accuracy budgets and frame rates, so every boundary exercises the
// governor's DP-only re-plan path (cached frontiers; no sweeps, no
// gate-level measurement in-stream). After the run, each of the stream's
// DP-only re-plans is re-issued 200 times on a copy of the governor (same
// phase, reason and latency budget), and `replan.mean_ms` is the median
// of those calls' measured planning time: a handful of microsecond calls
// in one run would let a single slow call set a mean. The gate: that
// re-plan time must stay under --max-overhead (default 5%) of the frame
// period -- the per-frame time budget of the stream at the phase's
// target rate -- i.e. re-planning must be cheap enough to hide inside a
// single frame slot. Frontier-rebuild escalations are reported
// separately (rare, priced in the log) and excluded from the gate.
//
// Exit codes: 3 = re-plan overhead above the gate, 4 = --json write
// failed, 1 = the stream produced no re-plans (harness bug).

#include "core/dvafs.h"

#include <algorithm>
#include <iostream>

using namespace dvafs;

int main(int argc, char** argv)
{
    bench_reporter report("runtime_stream", argc, argv, {"max-overhead"});
    const double max_overhead =
        bench_flag_double(argc, argv, "max-overhead", 0.05);

    scenario sc;
    sc.name = "lenet-budget-ladder";
    sc.networks.push_back(make_lenet5({.seed = 2017}));
    const double fps = 25.0; // 40 ms frame period
    for (const auto& [name, budget] :
         {std::pair<const char*, double>{"loose", 0.08},
          {"tight", 0.0},
          {"mid", 0.02}}) {
        scenario_phase ph;
        ph.name = name;
        ph.network = 0;
        ph.frames = 48;
        ph.target_fps = fps;
        ph.accuracy_budget = budget;
        sc.phases.push_back(ph);
    }

    governor_config gcfg;
    gcfg.sweep.images = 12;
    gcfg.sweep.max_bits = 10;
    stream_config scfg;

    const envision_model model;
    stream_engine engine(model, gcfg, scfg);
    std::cout << "streaming " << sc.total_frames() << " frames of "
              << sc.networks[0].name() << " across " << sc.phases.size()
              << " phases at " << fmt_fixed(fps, 0) << " fps..."
              << std::flush;
    const stream_result res = engine.run(sc);
    std::cout << " done\n\n";

    print_banner(std::cout, "phase roll-up");
    ascii_table t({"phase", "budget", "fps", "ms/frame", "uJ/frame",
                   "stream acc", "replans"});
    for (std::size_t i = 0; i < res.phases.size(); ++i) {
        const phase_stats& ps = res.phases[i];
        t.add_row({ps.name, fmt_percent(sc.phases[i].accuracy_budget, 1),
                   fmt_fixed(ps.sustained_fps, 1),
                   fmt_fixed(ps.mean_frame_ms, 3),
                   fmt_fixed(ps.energy_per_frame_mj * 1e3, 2),
                   fmt_percent(ps.stream_accuracy, 0),
                   std::to_string(ps.replans)});
    }
    t.print(std::cout);

    // Re-plan cost: the DP-only events re-timed on a copy of the governor
    // (frontier rebuilds are the explicitly priced slow path and are
    // reported separately).
    constexpr int kReplanReps = 200;
    adaptive_governor gov = engine.governor();
    std::vector<double> dp_ms;
    int dp_events = 0;
    double rebuild_ms = 0.0;
    int rebuilds = 0;
    for (const replan_event& ev : res.replans) {
        if (ev.rebuilt_frontiers) {
            rebuild_ms += ev.planning_ms;
            ++rebuilds;
            continue;
        }
        ++dp_events;
        std::size_t p = 0; // the phase serving ev.frame
        auto end = static_cast<std::uint64_t>(sc.phases[0].frames);
        while (ev.frame >= end && p + 1 < sc.phases.size()) {
            end += static_cast<std::uint64_t>(sc.phases[++p].frames);
        }
        for (int r = 0; r < kReplanReps; ++r) {
            dp_ms.push_back(gov.replan_valve(sc.networks[0], sc.phases[p],
                                             ev.reason, ev.frame, 0, 0.0,
                                             ev.latency_budget_ms)
                                .planning_ms);
        }
    }
    if (dp_events == 0) {
        std::cerr << "FAIL: the stream never re-planned\n";
        return 1;
    }
    const auto mid = dp_ms.begin()
                     + static_cast<std::ptrdiff_t>(dp_ms.size() / 2);
    std::nth_element(dp_ms.begin(), mid, dp_ms.end());
    const double mean_replan_ms = *mid;
    const double period_ms = 1000.0 / fps;
    const double overhead = mean_replan_ms / period_ms;

    std::cout << "\nsustained " << fmt_fixed(res.sustained_fps, 1)
              << " fps, "
              << fmt_fixed(res.total_energy_mj * 1e3
                               / static_cast<double>(res.frames.size()),
                           3)
              << " uJ/frame, " << dp_events << " re-plans at "
              << fmt_fixed(mean_replan_ms, 4) << " ms median = "
              << fmt_percent(overhead, 2) << " of the "
              << fmt_fixed(period_ms, 0) << " ms frame period (gate "
              << fmt_percent(max_overhead, 0) << ")";
    if (rebuilds > 0) {
        std::cout << "; " << rebuilds << " frontier rebuilds at "
                  << fmt_fixed(rebuild_ms / rebuilds, 1) << " ms mean";
    }
    // Cold-start-to-first-replan: admission (teacher sweep + gate-level
    // frontier, both served from DVAFS_CACHE_DIR when warm) plus the first
    // plan. CI's bench-release lane runs this bench twice against one
    // cache dir and gates warm/cold on this metric
    // (scripts/check_warm_cache.py).
    const double cold_start_ms =
        res.prepare_ms + res.replans.front().planning_ms;
    std::cout << "\nadmission (startup, cached thereafter): "
              << fmt_fixed(res.prepare_ms, 0)
              << " ms; cold-start to first re-plan: "
              << fmt_fixed(cold_start_ms, 0) << " ms\n";

    report.add("sustained_fps", res.sustained_fps, "fps");
    report.add("energy_per_frame_uj",
               res.total_energy_mj * 1e3
                   / static_cast<double>(res.frames.size()),
               "uJ");
    report.add("stream_accuracy", res.stream_accuracy, "-");
    report.add("replan.count", dp_events, "-");
    report.add("replan.mean_ms", mean_replan_ms, "ms");
    report.add("replan.overhead_frac", overhead, "-");
    report.add("prepare_ms", res.prepare_ms, "ms");
    report.add("cold_start.first_replan_ms", cold_start_ms, "ms");
    for (const power_domain d :
         {power_domain::as, power_domain::nas, power_domain::mem}) {
        report.add(std::string("energy_share.") + to_string(d),
                   res.ledger.share(d), "-");
    }
    if (!report.write()) {
        return 4;
    }
    if (overhead > max_overhead) {
        std::cerr << "FAIL: re-plan overhead "
                  << fmt_percent(overhead, 2) << " exceeds the gate\n";
        return 3;
    }
    return 0;
}
