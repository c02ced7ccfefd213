// Scenario fuzzing for the streaming runtime's robustness layer: random
// phase scripts (frame counts, rates, budgets, noise) crossed with random
// fault scripts (drift bursts, rate storms, service overruns, cache
// faults) from fault_injector::random. Every case must hold the runtime's
// hard invariants -- no frame dropped or stalled, every governor plan
// accepted by the static re-plan gate, ledger energy conservation, and
// bit-identical results at 1 and N threads -- and the stream_stats
// counters must agree with the event and frame logs exactly.
//
// The deterministic unit tests of fault_injector itself (window algebra,
// batch cutting, op-indexed cache faults, replayable random scripts) live
// here too.

#include "core/dvafs.h"

#include "util/rng.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include <unistd.h>

namespace dvafs {
namespace {

namespace fs = std::filesystem;

// -- fault_injector unit tests ------------------------------------------------

TEST(fault_injector, frame_windows_compose_and_mark_batch_cuts)
{
    fault_script script;
    script.service.push_back({{.first = 2, .count = 2}, 2.0});
    script.drift.push_back({{.first = 4, .count = 4}, 0.1});
    script.drift.push_back({{.first = 6, .count = 4}, 0.2});
    script.rate.push_back({{.first = 8, .count = 4}, 0.5});
    const fault_injector fi(script);

    EXPECT_DOUBLE_EQ(fi.noise_delta(3), 0.0);
    EXPECT_DOUBLE_EQ(fi.noise_delta(5), 0.1);
    // Overlapping drift bursts add.
    EXPECT_DOUBLE_EQ(fi.noise_delta(7), 0.1 + 0.2);
    EXPECT_DOUBLE_EQ(fi.noise_delta(9), 0.2);
    EXPECT_DOUBLE_EQ(fi.period_scale(7), 1.0);
    EXPECT_DOUBLE_EQ(fi.period_scale(9), 0.5);
    EXPECT_DOUBLE_EQ(fi.service_scale(2), 2.0);
    EXPECT_DOUBLE_EQ(fi.service_scale(4), 1.0);
    EXPECT_FALSE(fi.active(0));
    EXPECT_TRUE(fi.active(2));
    EXPECT_TRUE(fi.active(11));
    EXPECT_FALSE(fi.active(12));

    // next_change enumerates every window start and end after the frame:
    // the engine's batch-cut points. Windows above: [2,4) [4,8) [6,10)
    // [8,12).
    EXPECT_EQ(fi.next_change(0), 2U);
    EXPECT_EQ(fi.next_change(2), 4U);
    EXPECT_EQ(fi.next_change(4), 6U);
    EXPECT_EQ(fi.next_change(6), 8U);
    EXPECT_EQ(fi.next_change(8), 10U);
    EXPECT_EQ(fi.next_change(10), 12U);
    EXPECT_EQ(fi.next_change(12), fault_injector::no_change);
    EXPECT_EQ(fault_injector().next_change(0), fault_injector::no_change);
}

TEST(fault_injector, cache_faults_are_op_indexed)
{
    fault_script script;
    script.cache.push_back(
        {{.first = 1, .count = 2}, disk_fault::transient});
    fault_injector fi(script);

    EXPECT_EQ(fi.on_disk_op(disk_op::load, "teacher", "k"),
              disk_fault::none);
    EXPECT_EQ(fi.on_disk_op(disk_op::load, "teacher", "k"),
              disk_fault::transient);
    EXPECT_EQ(fi.on_disk_op(disk_op::store, "frontier", "j"),
              disk_fault::transient);
    EXPECT_EQ(fi.on_disk_op(disk_op::load, "teacher", "k"),
              disk_fault::none);
    EXPECT_EQ(fi.disk_ops(), 4U);
    EXPECT_EQ(fi.disk_faults_injected(), 2U);
}

TEST(fault_injector, random_scripts_replay_exactly)
{
    bool any_nonempty = false;
    for (const std::uint64_t seed : {1ULL, 7ULL, 42ULL, 1234ULL}) {
        const fault_injector a = fault_injector::random(seed, 96);
        const fault_injector b = fault_injector::random(seed, 96);
        const fault_script& sa = a.script();
        const fault_script& sb = b.script();
        ASSERT_EQ(sa.drift.size(), sb.drift.size());
        for (std::size_t i = 0; i < sa.drift.size(); ++i) {
            EXPECT_EQ(sa.drift[i].frames.first, sb.drift[i].frames.first);
            EXPECT_EQ(sa.drift[i].frames.count, sb.drift[i].frames.count);
            EXPECT_EQ(sa.drift[i].extra_noise, sb.drift[i].extra_noise);
            EXPECT_GT(sa.drift[i].extra_noise, 0.0);
            EXPECT_LT(sa.drift[i].frames.first, 96U);
        }
        ASSERT_EQ(sa.rate.size(), sb.rate.size());
        for (std::size_t i = 0; i < sa.rate.size(); ++i) {
            EXPECT_EQ(sa.rate[i].period_scale, sb.rate[i].period_scale);
            EXPECT_GT(sa.rate[i].period_scale, 0.0);
        }
        ASSERT_EQ(sa.service.size(), sb.service.size());
        for (std::size_t i = 0; i < sa.service.size(); ++i) {
            EXPECT_EQ(sa.service[i].service_scale,
                      sb.service[i].service_scale);
            EXPECT_GE(sa.service[i].service_scale, 1.0);
        }
        ASSERT_EQ(sa.cache.size(), sb.cache.size());
        for (std::size_t i = 0; i < sa.cache.size(); ++i) {
            EXPECT_EQ(sa.cache[i].fault, sb.cache[i].fault);
            EXPECT_NE(sa.cache[i].fault, disk_fault::none);
        }
        any_nonempty = any_nonempty || !sa.empty();
    }
    EXPECT_TRUE(any_nonempty);
}

TEST(fault_injector, phase_window_maps_global_frame_numbering)
{
    scenario sc;
    sc.networks.push_back(make_lenet5({.seed = 7}));
    scenario_phase a;
    a.name = "a";
    a.frames = 20;
    scenario_phase b = a;
    b.name = "b";
    b.frames = 12;
    sc.phases = {a, b};

    const fault_window wa = phase_window(sc, 0);
    EXPECT_EQ(wa.first, 0U);
    EXPECT_EQ(wa.count, 20U);
    const fault_window wb = phase_window(sc, 1);
    EXPECT_EQ(wb.first, 20U);
    EXPECT_EQ(wb.count, 12U);
    EXPECT_THROW(phase_window(sc, 2), std::invalid_argument);
}

// -- the fuzzer ---------------------------------------------------------------

std::string fresh_dir(const std::string& tag)
{
    const fs::path dir = fs::path(::testing::TempDir())
                         / ("dvafs_fuzz_" + tag + "_"
                            + std::to_string(::getpid()));
    fs::remove_all(dir);
    fs::create_directories(dir);
    return dir.string();
}

class scoped_cache_dir {
public:
    explicit scoped_cache_dir(const std::string& dir)
    {
        if (const char* old = std::getenv("DVAFS_CACHE_DIR")) {
            had_ = true;
            old_ = old;
        }
        ::setenv("DVAFS_CACHE_DIR", dir.c_str(), 1);
    }
    ~scoped_cache_dir()
    {
        if (had_) {
            ::setenv("DVAFS_CACHE_DIR", old_.c_str(), 1);
        } else {
            ::unsetenv("DVAFS_CACHE_DIR");
        }
    }
    scoped_cache_dir(const scoped_cache_dir&) = delete;
    scoped_cache_dir& operator=(const scoped_cache_dir&) = delete;

private:
    bool had_ = false;
    std::string old_;
};

// A random phase script over one LeNet-5: 1-2 phases with drawn frame
// counts, rates, budgets and stream noise. One network keeps admission
// (the expensive teacher sweep) to a single prepare per engine.
scenario random_scenario(pcg32& rng)
{
    scenario sc;
    sc.name = "fuzz";
    sc.networks.push_back(make_lenet5({.seed = 7}));
    sc.stream_seed = rng.next_u64();
    const int phases = static_cast<int>(rng.range(1, 2));
    constexpr double rates[] = {20.0, 25.0, 40.0};
    constexpr double budgets[] = {0.0, 0.04, 0.08};
    constexpr double noises[] = {0.0, 0.15};
    for (int p = 0; p < phases; ++p) {
        scenario_phase ph;
        ph.name = "ph" + std::to_string(p);
        ph.frames = static_cast<int>(rng.range(16, 40));
        ph.target_fps = rates[rng.range(0, 2)];
        ph.accuracy_budget = budgets[rng.range(0, 2)];
        ph.input_noise = noises[rng.range(0, 1)];
        sc.phases.push_back(ph);
    }
    return sc;
}

void expect_invariants(const stream_result& res, const scenario& sc,
                       const char* ctx)
{
    SCOPED_TRACE(ctx);
    // No stall, no drop: every scenario frame was served in order.
    EXPECT_EQ(res.stats.frames_served, sc.total_frames());
    EXPECT_EQ(res.stats.frames_dropped, 0U);
    ASSERT_EQ(res.frames.size(), sc.total_frames());
    for (std::size_t i = 0; i < res.frames.size(); ++i) {
        EXPECT_EQ(res.frames[i].frame, i);
        EXPECT_GT(res.frames[i].time_ms, 0.0);
        EXPECT_GT(res.frames[i].energy_mj, 0.0);
    }
    // Every plan passed the static re-plan gate (it always runs; a
    // rejected plan would have thrown out of run()).
    EXPECT_EQ(res.stats.verify_failures, 0);

    // Ledger energy conservation: per-domain attribution sums back to the
    // per-frame energies.
    double frame_energy_mj = 0.0;
    int misses = 0;
    for (const frame_result& fr : res.frames) {
        frame_energy_mj += fr.energy_mj;
        misses += !fr.deadline_met;
    }
    EXPECT_NEAR(res.ledger.total_pj(), frame_energy_mj * 1e9,
                frame_energy_mj * 1e9 * 1e-9);
    EXPECT_EQ(res.stats.deadline_misses, misses);

    // The counters agree with the event log.
    int replans = 0;
    int escalations = 0;
    int stale = 0;
    int shed = 0;
    int recover = 0;
    int max_level = 0;
    for (const replan_event& ev : res.replans) {
        replans += ev.reason == replan_reason::startup
                   || ev.reason == replan_reason::phase_change;
        escalations += ev.reason == replan_reason::drift;
        stale += ev.plan_stale;
        shed += ev.reason == replan_reason::shed;
        recover += ev.reason == replan_reason::recover;
        max_level = std::max(max_level, ev.valve_level);
    }
    EXPECT_EQ(res.stats.replans, replans);
    EXPECT_EQ(res.stats.escalations, escalations);
    EXPECT_EQ(res.stats.stale_escalations, stale);
    EXPECT_EQ(res.stats.shed_events, shed);
    EXPECT_EQ(res.stats.recover_events, recover);
    EXPECT_EQ(res.stats.max_valve_level, max_level);
    // The valve can only restore levels it shed.
    EXPECT_LE(res.stats.recover_events, res.stats.shed_events);
    EXPECT_GE(res.stream_accuracy, 0.0);
    EXPECT_LE(res.stream_accuracy, 1.0);
}

void expect_bit_identical(const stream_result& a, const stream_result& b)
{
    ASSERT_EQ(a.frames.size(), b.frames.size());
    for (std::size_t i = 0; i < a.frames.size(); ++i) {
        EXPECT_EQ(a.frames[i].plan_version, b.frames[i].plan_version);
        EXPECT_EQ(a.frames[i].predicted, b.frames[i].predicted);
        EXPECT_EQ(a.frames[i].teacher, b.frames[i].teacher);
        EXPECT_EQ(a.frames[i].time_ms, b.frames[i].time_ms);
        EXPECT_EQ(a.frames[i].energy_mj, b.frames[i].energy_mj);
        EXPECT_EQ(a.frames[i].deadline_met, b.frames[i].deadline_met);
    }
    ASSERT_EQ(a.replans.size(), b.replans.size());
    for (std::size_t i = 0; i < a.replans.size(); ++i) {
        EXPECT_EQ(a.replans[i].reason, b.replans[i].reason);
        EXPECT_EQ(a.replans[i].frame, b.replans[i].frame);
        EXPECT_EQ(a.replans[i].valve_level, b.replans[i].valve_level);
        EXPECT_EQ(a.replans[i].plan_stale, b.replans[i].plan_stale);
        EXPECT_EQ(a.replans[i].latency_budget_ms,
                  b.replans[i].latency_budget_ms);
        EXPECT_EQ(a.replans[i].plan.total_time_ms,
                  b.replans[i].plan.total_time_ms);
        EXPECT_EQ(a.replans[i].plan.total_energy_mj,
                  b.replans[i].plan.total_energy_mj);
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
    EXPECT_EQ(a.stats.deadline_misses, b.stats.deadline_misses);
    EXPECT_EQ(a.stats.shed_events, b.stats.shed_events);
    EXPECT_EQ(a.stats.recover_events, b.stats.recover_events);
    EXPECT_EQ(a.stats.escalations, b.stats.escalations);
}

// Random scenarios crossed with random fault scripts: every case holds
// the invariants above and is bit-identical at 1 and 3 threads -- with
// the fault injector also installed as the disk-store hook, so admission
// runs through scripted cache faults (slow, corrupt, transient, ENOSPC)
// on a private cache dir.
TEST(runtime_fuzz, random_scenarios_with_faults_hold_invariants)
{
    for (const std::uint64_t seed : {11ULL, 23ULL, 58ULL, 91ULL}) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        pcg32 rng(seed, 0xf022U);
        const scenario sc = random_scenario(rng);
        const fault_injector script_source = fault_injector::random(
            seed, sc.total_frames());

        const unsigned thread_counts[2] = {1, 3};
        stream_result results[2];
        for (int r = 0; r < 2; ++r) {
            // A fresh injector per run: the disk-op counter restarts, so
            // both runs see the same fault sequence against their own
            // private cache dir.
            fault_injector faults(script_source.script());
            const scoped_cache_dir env(fresh_dir(
                std::to_string(seed) + "_r" + std::to_string(r)));
            const scoped_disk_fault_hook hook_guard(&faults);

            governor_config g;
            g.sweep.images = 8;
            g.sweep.max_bits = 8;
            g.sweep.threads = thread_counts[r];
            stream_config s;
            s.threads = thread_counts[r];
            s.probe_interval = 8;
            s.probe_window = 6;
            s.drift_margin = 0.03;
            s.valve.shed_after = 3;
            s.valve.recover_after = 6;
            const envision_model model;
            stream_engine engine(model, g, s);
            results[r] = engine.run(sc, &faults);
            expect_invariants(results[r], sc,
                              r == 0 ? "1 thread" : "3 threads");
        }
        expect_bit_identical(results[0], results[1]);
    }
}

} // namespace
} // namespace dvafs
