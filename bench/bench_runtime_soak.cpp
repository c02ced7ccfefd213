// Robustness soak for the streaming runtime: one long LeNet-5 stream hit
// by the full fault taxonomy -- a drift burst, a deadline storm (the
// effective frame period collapses below the nominal plan's service
// time), a service overrun and a window of transient cache faults -- all
// from one fixed, replayable script.
//
// The soak is the acceptance harness for the overload valve: under the
// storm the engine must shed accuracy (a cheaper re-plan) instead of
// frames, then restore the original plan exactly once the storm clears.
// The whole run executes twice, at 1 thread and at --threads (default:
// up to 4), against private cache dirs, and the two results must be
// bit-identical -- faults included, threading only buys wall clock.
//
// Gates (numeric, tunable per lane):
//   --min-fps             wall-clock streaming throughput floor
//   --max-p99-ms          p99 *modeled* frame latency ceiling
//   --max-recovery-frames ceiling on frames from last overload pressure
//                         to full plan restoration; the engine's counter
//                         spans the whole storm (the shed plan keeps
//                         pressure under 1 while the fault persists), so
//                         the default (0 = auto) is storm length plus a
//                         fixed hysteresis-and-latency allowance
//
// Exit codes: 1 = a robustness invariant broke (frame loss, no
// shed/recover cycle, plan not restored, thread-count divergence),
// 3 = a numeric gate failed, 4 = --json write failed.

#include "core/dvafs.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

using namespace dvafs;
namespace fs = std::filesystem;

namespace {

// Private cache dir per run so the scripted cache faults hit a
// deterministic op sequence (cold admission both runs) and the soak never
// touches the user's warm DVAFS_CACHE_DIR.
class scoped_cache_dir {
public:
    explicit scoped_cache_dir(const std::string& tag)
    {
        if (const char* old = std::getenv("DVAFS_CACHE_DIR")) {
            had_ = true;
            old_ = old;
        }
        dir_ = (fs::temp_directory_path()
                / ("dvafs_soak_" + tag + "_" + std::to_string(::getpid())))
                   .string();
        fs::remove_all(dir_);
        fs::create_directories(dir_);
        ::setenv("DVAFS_CACHE_DIR", dir_.c_str(), 1);
    }
    ~scoped_cache_dir()
    {
        if (had_) {
            ::setenv("DVAFS_CACHE_DIR", old_.c_str(), 1);
        } else {
            ::unsetenv("DVAFS_CACHE_DIR");
        }
        std::error_code ec;
        fs::remove_all(dir_, ec);
    }
    scoped_cache_dir(const scoped_cache_dir&) = delete;
    scoped_cache_dir& operator=(const scoped_cache_dir&) = delete;

private:
    bool had_ = false;
    std::string old_;
    std::string dir_;
};

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

bool bit_identical(const stream_result& a, const stream_result& b)
{
    if (a.frames.size() != b.frames.size()
        || a.replans.size() != b.replans.size()) {
        return false;
    }
    for (std::size_t i = 0; i < a.frames.size(); ++i) {
        if (a.frames[i].plan_version != b.frames[i].plan_version
            || a.frames[i].predicted != b.frames[i].predicted
            || a.frames[i].time_ms != b.frames[i].time_ms
            || a.frames[i].energy_mj != b.frames[i].energy_mj
            || a.frames[i].deadline_met != b.frames[i].deadline_met) {
            return false;
        }
    }
    for (std::size_t i = 0; i < a.replans.size(); ++i) {
        const replan_event& x = a.replans[i];
        const replan_event& y = b.replans[i];
        if (x.reason != y.reason || x.frame != y.frame
            || x.valve_level != y.valve_level
            || x.latency_budget_ms != y.latency_budget_ms
            || x.plan.total_time_ms != y.plan.total_time_ms
            || x.plan.total_energy_mj != y.plan.total_energy_mj) {
            return false;
        }
    }
    for (const power_domain d :
         {power_domain::as, power_domain::nas, power_domain::mem}) {
        if (a.ledger.pj(d) != b.ledger.pj(d)) {
            return false;
        }
    }
    return a.stats.deadline_misses == b.stats.deadline_misses
           && a.stats.shed_events == b.stats.shed_events
           && a.stats.recover_events == b.stats.recover_events
           && a.stats.escalations == b.stats.escalations;
}

double p99_frame_ms(const stream_result& res)
{
    std::vector<double> ms;
    ms.reserve(res.frames.size());
    for (const frame_result& fr : res.frames) {
        ms.push_back(fr.time_ms);
    }
    std::sort(ms.begin(), ms.end());
    const std::size_t idx = static_cast<std::size_t>(
        std::ceil(0.99 * static_cast<double>(ms.size())));
    return ms[std::min(ms.size(), idx) - 1];
}

} // namespace

int main(int argc, char** argv)
{
    bench_reporter report("runtime_soak", argc, argv,
                          {"min-fps", "max-p99-ms", "max-recovery-frames",
                           "frames", "threads"});
    const double min_fps = bench_flag_double(argc, argv, "min-fps", 50.0);
    const double max_p99_ms =
        bench_flag_double(argc, argv, "max-p99-ms", 5.0);
    double max_recovery_frames =
        bench_flag_double(argc, argv, "max-recovery-frames", 0.0);
    const int frames = static_cast<int>(
        bench_flag_double(argc, argv, "frames", 480.0));
    int wide_threads = static_cast<int>(
        bench_flag_double(argc, argv, "threads", 0.0));
    if (wide_threads <= 0) {
        wide_threads = static_cast<int>(std::min(
            4U, std::max(2U, std::thread::hardware_concurrency())));
    }

    scenario sc;
    sc.name = "soak";
    sc.networks.push_back(make_lenet5({.seed = 2017}));
    scenario_phase ph;
    ph.name = "steady";
    ph.network = 0;
    ph.frames = frames;
    ph.target_fps = 25.0;
    ph.accuracy_budget = 0.0;
    sc.phases.push_back(ph);
    const double period_ms = 1000.0 / ph.target_fps;

    governor_config gcfg;
    gcfg.sweep.images = 12;
    gcfg.sweep.max_bits = 10;

    // Probe pass (own cache dir, no faults): the frontier bounds place the
    // storm's effective period between "the nominal plan overruns" and
    // "some frontier selection still fits", so the valve has an answer.
    double eff_period = 0.0;
    double nominal_ms = 0.0;
    {
        const scoped_cache_dir env("probe");
        const envision_model model;
        stream_engine probe(model, gcfg, stream_config{});
        const auto& st = probe.governor().prepare(sc.networks[0]);
        const double fastest = frontier_min_time_ms(st.frontiers);
        nominal_ms = probe.governor()
                         .replan(sc.networks[0], sc.phases[0],
                                 replan_reason::startup, 0)
                         .plan.total_time_ms;
        if (fastest >= nominal_ms) {
            std::cerr << "FAIL: frontier has no faster point than the "
                         "nominal plan; the storm cannot be answered\n";
            return 1;
        }
        eff_period = 0.5 * (fastest + nominal_ms);
    }

    // The fixed soak script: every fault class in one pass. Windows are
    // fractions of the stream so --frames scales the soak without moving
    // the faults relative to each other.
    const auto at = [&](double frac) {
        return static_cast<std::uint64_t>(frac * frames);
    };
    fault_script script;
    script.drift.push_back(
        {{.first = at(0.10), .count = at(0.15)}, 0.25});
    script.rate.push_back({{.first = at(0.40), .count = at(0.25)},
                           eff_period / period_ms});
    script.service.push_back(
        {{.first = at(0.75), .count = at(0.08)}, 2.0});
    if (max_recovery_frames <= 0.0) {
        max_recovery_frames = static_cast<double>(at(0.25)) + 24.0;
    }
    // Transient cache faults across admission's first loads: the store
    // must retry through them without changing any stream outcome.
    script.cache.push_back({{.first = 1, .count = 4},
                            disk_fault::transient});
    script.cache.push_back(
        {{.first = 8, .count = 2}, disk_fault::slow_read});

    stream_config scfg;
    scfg.probe_interval = 16;
    scfg.probe_window = 8;
    scfg.valve.shed_after = 3;
    scfg.valve.recover_after = 6;
    scfg.valve.budget_step = 0.25;

    std::cout << "soaking " << frames << " frames of "
              << sc.networks[0].name() << " through drift burst + deadline"
              << " storm + service overrun + cache faults (storm period "
              << fmt_fixed(eff_period, 3) << " ms vs nominal plan "
              << fmt_fixed(nominal_ms, 3) << " ms)...\n";

    const int thread_counts[2] = {1, wide_threads};
    disk_store::reset_stats();
    stream_result results[2];
    double stream_wall_ms[2] = {0.0, 0.0};
    for (int r = 0; r < 2; ++r) {
        fault_injector faults(script);
        const scoped_cache_dir env("r" + std::to_string(r));
        const scoped_disk_fault_hook hook_guard(&faults);
        governor_config g = gcfg;
        g.sweep.threads = static_cast<unsigned>(thread_counts[r]);
        stream_config s = scfg;
        s.threads = static_cast<unsigned>(thread_counts[r]);
        const envision_model model;
        stream_engine engine(model, g, s);
        const auto t0 = std::chrono::steady_clock::now();
        results[r] = engine.run(sc, &faults);
        const auto t1 = std::chrono::steady_clock::now();
        stream_wall_ms[r] =
            std::chrono::duration<double, std::milli>(t1 - t0).count()
            - results[r].prepare_ms;
        std::cout << "  " << thread_counts[r] << " thread"
                  << (thread_counts[r] == 1 ? "" : "s") << ": "
                  << fmt_fixed(stream_wall_ms[r], 0) << " ms streaming ("
                  << fmt_fixed(results[r].prepare_ms, 0)
                  << " ms admission)\n";
    }
    const stream_result& res = results[0];
    const stream_stats& st = res.stats;

    print_banner(std::cout, "soak roll-up");
    ascii_table t({"counter", "value"});
    t.add_row({"frames served", std::to_string(st.frames_served)});
    t.add_row({"frames dropped", std::to_string(st.frames_dropped)});
    t.add_row({"deadline misses", std::to_string(st.deadline_misses)});
    t.add_row({"shed events", std::to_string(st.shed_events)});
    t.add_row({"recover events", std::to_string(st.recover_events)});
    t.add_row({"max valve level", std::to_string(st.max_valve_level)});
    t.add_row({"escalations", std::to_string(st.escalations)});
    t.add_row({"faulted frames", std::to_string(st.faulted_frames)});
    t.add_row({"recovery frames", std::to_string(st.recovery_frames)});
    t.print(std::cout);

    // -- robustness invariants (exit 1) -----------------------------------
    if (st.frames_served != sc.total_frames() || st.frames_dropped != 0
        || res.frames.size() != sc.total_frames()) {
        std::cerr << "FAIL: frame loss -- served " << st.frames_served
                  << " dropped " << st.frames_dropped << " of "
                  << sc.total_frames() << "\n";
        return 1;
    }
    if (st.shed_events < 1 || st.recover_events < 1
        || st.max_valve_level < 1) {
        std::cerr << "FAIL: the storm did not drive a shed/recover cycle"
                     " (shed " << st.shed_events << ", recover "
                  << st.recover_events << ")\n";
        return 1;
    }
    // After recovery the tail must run the original startup plan exactly.
    const network_plan& original = res.replans.front().plan;
    if (res.frames.back().time_ms != original.total_time_ms
        || res.frames.back().energy_mj != original.total_energy_mj) {
        std::cerr << "FAIL: the original plan was not restored after the"
                     " storm\n";
        return 1;
    }
    if (!bit_identical(results[0], results[1])) {
        std::cerr << "FAIL: results diverge between 1 and "
                  << wide_threads << " threads\n";
        return 1;
    }

    // -- numeric gates (exit 3) -------------------------------------------
    const double wall_s =
        std::max(stream_wall_ms[0], stream_wall_ms[1]) / 1000.0;
    const double wall_fps = static_cast<double>(frames) / wall_s;
    const double p99_ms = p99_frame_ms(res);

    std::cout << "\n" << fmt_fixed(wall_fps, 0) << " frames/s wall (gate "
              << fmt_fixed(min_fps, 0) << "), p99 "
              << fmt_fixed(p99_ms, 3) << " ms modeled (gate "
              << fmt_fixed(max_p99_ms, 1) << "), recovery in "
              << st.recovery_frames << " frames (gate "
              << fmt_fixed(max_recovery_frames, 0) << "), "
              << st.deadline_misses << " deadline misses, 0 drops\n";

    report.add("frames_per_s", wall_fps, "fps");
    report.add("p99_frame_ms", p99_ms, "ms");
    report.add("recovery_frames", st.recovery_frames, "frames");
    report.add("frames_dropped", st.frames_dropped, "frames");
    report.add("deadline_misses", st.deadline_misses, "-");
    report.add("shed_events", st.shed_events, "-");
    report.add("recover_events", st.recover_events, "-");
    report.add("faulted_frames", st.faulted_frames, "frames");
    const disk_store_stats ds = disk_store::stats();
    report.add("disk.retries", static_cast<double>(ds.retries), "-");
    report.add("disk.faults_injected",
               static_cast<double>(ds.faults_injected), "-");
    if (!report.write()) {
        return 4;
    }
    if (wall_fps < min_fps) {
        std::cerr << "FAIL: " << fmt_fixed(wall_fps, 0)
                  << " frames/s below the gate\n";
        return 3;
    }
    if (p99_ms > max_p99_ms) {
        std::cerr << "FAIL: p99 " << fmt_fixed(p99_ms, 3)
                  << " ms above the gate\n";
        return 3;
    }
    if (static_cast<double>(st.recovery_frames) > max_recovery_frames) {
        std::cerr << "FAIL: recovery took " << st.recovery_frames
                  << " frames, above the gate\n";
        return 3;
    }
    return 0;
}
