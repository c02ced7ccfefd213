// The streaming scenario engine: executes a multi-network scenario
// frame-by-frame under per-phase latency and energy budgets, re-planning
// operating points online.
//
// Timeline model (deterministic -- wall clock never feeds back into
// decisions, so a run is bit-identical across thread counts, and two
// freshly constructed engines given the same scenario produce identical
// results; note that governor adaptation -- drift-tightened budgets,
// escalated requirements -- deliberately persists across run() calls on
// one engine, so a *repeat* run on the same engine starts from what the
// governor learned):
//
//  * Frames of phase p arrive at target_fps; each frame's modeled service
//    time is its plan's total_time_ms. An optional fault_injector
//    perturbs the stream deterministically: drift bursts add input
//    noise, rate bursts scale the effective arrival period (a deadline
//    storm), service overruns scale the modeled service time. Admission
//    batches are cut at fault-window boundaries, so injection cannot
//    change any batching-dependent outcome.
//  * Every re-plan -- phase boundary, valve shed/recover, drift
//    escalation -- takes one issue path: the re-plan gate
//    (analysis/plan_verifier.h) checks it against the network's cached
//    frontiers (a bad plan throws verification_error), and it activates
//    `replan_latency_frames` frames later. Interim frames keep streaming
//    on the previous plan -- or, when the phase switched networks, on the
//    incoming network's heuristic boot plan -- so the stream never
//    stalls.
//  * Every probe_interval frames the drift_probe scores the last
//    probe_window frames' predictions against their float-teacher
//    argmaxes; when that window accuracy drops more than drift_margin
//    below the phase's planned accuracy floor, the governor escalates. A
//    stale escalation (no lever left) stops escalation for the phase.
//  * The overload_valve watches a pressure signal -- the max of latency
//    utilization (modeled service time over the effective period) and
//    energy utilization (frame energy over valve.energy_budget_mj) --
//    with hysteresis: sustained over-pressure sheds *accuracy* (a
//    cheaper/faster frontier re-plan at valve level L, granted
//    L * budget_step extra accuracy allowance and the live effective
//    deadline), never frames; sustained calm restores one level at a
//    time once the stacked pre-shed plan would comfortably fit again.
//    Full recovery restores the original plan exactly. State machine and
//    parameters: docs/robustness.md.
//
// Energy is ledger-attributed per power domain (AS / NAS / MEM) for every
// frame from the active plan's envision power decomposition.

#pragma once

#include "energy/energy_ledger.h"
#include "envision/envision.h"
#include "runtime/adaptive_governor.h"
#include "runtime/fault_injector.h"
#include "runtime/scenario.h"
#include "runtime/stream_scheduler.h"

#include <algorithm>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace dvafs {

// The overload valve: shed accuracy before frames. max_level = 0 turns it
// off -- nothing can shed, so nothing recovers, and over-pressure frames
// simply miss their deadlines.
struct valve_config {
    // Consecutive over-pressure frames (pressure > 1) before shedding one
    // level. Small: a storm should be answered within a frame batch.
    int shed_after = 3;
    // Hysteresis: calm means pressure <= recover_below; this margin keeps
    // shed/recover from oscillating at the boundary.
    double recover_below = 0.85;
    // Consecutive calm frames before restoring one level.
    int recover_after = 12;
    // Extra accuracy-loss allowance granted per shed level (the DP budget
    // becomes phase budget + level * budget_step, clamped to 1).
    double budget_step = 0.02;
    // Maximum shed depth.
    int max_level = 4;
    // Optional global energy pressure: a per-frame energy budget in mJ
    // (0 = latency pressure only). Frame energy above it reads as
    // over-pressure exactly like a deadline overrun.
    double energy_budget_mj = 0.0;
};

struct stream_config {
    unsigned threads = 0;          // forward-pass workers (0 = hardware)
    int max_in_flight = 4;         // frames batched per scheduler call
    int probe_interval = 16;       // frames between drift probes
    int probe_window = 8;          // frames scored per probe
    double drift_margin = 0.05;    // tolerated drop below the accuracy floor
    int replan_latency_frames = 2; // frames served on the old plan while a
                                   // re-plan is in flight
    int max_escalations_per_phase = 3;
    valve_config valve;
};

// Robustness counters for one run (tests and benches assert on these
// instead of scraping the logs). frames_dropped is the no-drop contract
// made visible: the engine serves every scenario frame by construction,
// so it must read 0 -- anything else is a harness bug.
struct stream_stats {
    std::uint64_t frames_served = 0;
    std::uint64_t frames_dropped = 0;  // always 0: shed accuracy, not frames
    int replans = 0;                   // startup + phase-boundary re-plans
    int escalations = 0;               // drift escalations issued
    int stale_escalations = 0;         // escalations with no lever left
    int shed_events = 0;               // valve: levels shed
    int recover_events = 0;            // valve: levels restored
    int verify_failures = 0;           // always 0: a rejected plan throws
    int deadline_misses = 0;           // frames with deadline_met == false
    int max_valve_level = 0;           // deepest shed this run
    std::uint64_t faulted_frames = 0;  // frames with any active fault
    // Frames from the last over-pressure frame to the recover event that
    // returned the valve to level 0 (the most recent full recovery; 0 if
    // the valve never fully recovered or never shed).
    std::uint64_t recovery_frames = 0;
};

// Per-phase roll-up of the frame log.
struct phase_stats {
    std::string name;
    std::size_t frames = 0;
    int replans = 0;               // events issued during this phase
    double mean_frame_ms = 0.0;    // modeled service time
    double sustained_fps = 0.0;    // min(target, 1000 / mean_frame_ms)
    double energy_per_frame_mj = 0.0;
    double stream_accuracy = 0.0;  // fraction of frames matching teacher
    double deadline_hit_rate = 0.0;
    bool deadline_met = true;      // the active plan met the frame period
};

struct stream_result {
    std::vector<frame_result> frames;   // the per-frame log
    std::vector<replan_event> replans;  // every governor decision
    std::vector<phase_stats> phases;
    stream_stats stats;
    energy_ledger ledger;               // per-domain attribution, all frames
    double total_energy_mj = 0.0;
    double mean_frame_ms = 0.0;
    double sustained_fps = 0.0;         // frame-weighted across phases
    double stream_accuracy = 0.0;
    double prepare_ms = 0.0;            // measured admission cost (startup)
    double planning_ms = 0.0;           // measured re-plan cost, summed
};

// One valve decision: shed to level L+1 or recover to L-1.
struct valve_decision {
    replan_reason reason = replan_reason::shed;
    int level = 0; // the level the re-plan serves at
    double latency_budget_ms = 0.0;
};

// The overload valve's hysteresis state machine for one phase (pressure
// history does not cross a phase boundary). Pure: no governor, no network.
class overload_valve {
public:
    explicit overload_valve(const valve_config& cfg) : cfg_(cfg) {}

    // Latency utilization, or energy utilization when an energy budget is
    // set, whichever is larger.
    double pressure(double frame_ms, double frame_mj,
                    double eff_period_ms) const noexcept;
    // Advances the streaks per frame over [first, end), so hysteresis does
    // not depend on batch sizes.
    void observe(double pressure, std::uint64_t first, std::uint64_t end);
    // At most one decision per batch (docs/robustness.md). A shed stacks
    // `active`'s totals; recovery to level 0 runs under the nominal
    // period_ms, so it restores the phase-boundary plan exactly.
    std::optional<valve_decision> decide(const network_plan& active,
                                         double eff_period_ms,
                                         double period_ms);

    int level() const noexcept { return level_; }
    std::uint64_t last_over_frame() const noexcept { return last_over_; }

private:
    valve_config cfg_;
    int level_ = 0;
    int over_streak_ = 0;
    int under_streak_ = 0;
    std::uint64_t last_over_ = 0;
    // Totals of the plan each shed level replaced.
    std::vector<double> level_time_stack_;
    std::vector<double> level_energy_stack_;
};

// The drift probe for one phase: its schedule, its window score and the
// escalate predicate. Pure: it reads the frame log, never a network.
class drift_probe {
public:
    drift_probe(const stream_config& cfg, std::uint64_t first,
                std::uint64_t end);

    // Caps a batch at the next probe point.
    std::uint64_t cut(std::uint64_t batch_end) const noexcept
    {
        return std::min(batch_end, next_);
    }
    // Whether a batch ending at g ends on a probe point; advances.
    bool due(std::uint64_t g);
    // Accuracy of the newest probe_window frames of `log` from index
    // `first` on, all served by `version` (a swap inside the window would
    // blame the new plan for the old plan's misses); nullopt when fewer.
    std::optional<double> score(const std::vector<frame_result>& log,
                                std::size_t first, int version) const;
    // Nothing pending, no stale escalation this phase, the per-phase cap
    // not reached, and accuracy more than drift_margin below `floor`.
    bool should_escalate(double accuracy, double floor,
                         bool pending) const noexcept;
    void escalated(bool stale) noexcept;

private:
    stream_config cfg_;
    std::uint64_t end_;
    std::uint64_t next_;
    int escalations_ = 0;
    bool stale_ = false;
};

class stream_engine {
public:
    stream_engine(const envision_model& model, governor_config gcfg = {},
                  stream_config scfg = {})
        : governor_(model, gcfg), scheduler_(scfg.threads), cfg_(scfg)
    {
    }

    // Prepares every scenario network (admission), then streams all
    // phases. The scenario must outlive the call; networks are only read.
    // An engine may run several scenarios: governor state is cached by
    // network name, and a rebuilt network re-binds under its name when
    // its structural fingerprint matches (same seeds, same network).
    //
    // `faults` (optional) injects the scripted adversities of
    // runtime/fault_injector.h into the frame loop; it must outlive the
    // call. Cache faults are NOT installed here -- callers that want them
    // install the injector process-wide with scoped_disk_fault_hook
    // before admission.
    stream_result run(const scenario& sc,
                      const fault_injector* faults = nullptr);

    adaptive_governor& governor() noexcept { return governor_; }

private:
    adaptive_governor governor_;
    stream_scheduler scheduler_;
    stream_config cfg_;
};

} // namespace dvafs
