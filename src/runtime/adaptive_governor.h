// Online operating-point governance for the streaming runtime.
//
// The governor splits planning into a slow, once-per-network *prepare*
// (teacher-dataset sweep, joint refinement, sparsity, accuracy-priced
// time-aware layer frontiers -- all cached, with the gate-level mode
// frontier shared process-wide through frontier_cache; its sweeps run on
// the compiled mode-specialized gate engine of circuit/compiled_sim.h)
// and a fast *re-plan* (precision_planner::plan_from_frontiers: a DP over
// the cached frontiers under the phase's accuracy and latency budgets,
// against a plan basis built at admission; e2ebench `replan` measures p50
// ~0.007 ms and p99 ~0.06 ms per decision on a 4-vCPU AVX-512 host).
// That split is what lets the stream engine swap operating points at phase
// boundaries and on drift without stalling the stream: re-planning costs a
// fraction of one frame period.
//
// Drift escalation is two-staged and deterministic: first halve the
// phase's effective accuracy budget (floor at zero), then -- at a zero
// budget -- raise every layer requirement by one bit and rebuild the
// cached frontiers (the rare, expensive path, flagged on the event).
// Escalation is bounded: once the budget is floored and every requirement
// saturates the frontier width there is no lever left, and the event is
// flagged plan_stale instead of looping or underflowing the budget --
// the stream keeps serving the converged plan.
//
// The overload valve (stream_engine's graceful-degradation path) re-plans
// through replan_valve: the same frontier DP, but under the *live*
// effective frame period (shrunk by a rate burst) and an extra accuracy
// allowance per shed level -- trading accuracy for feasibility before any
// frame is dropped. A valve re-plan at level 0 under the nominal period
// is input-identical to the phase-boundary re-plan, which is what makes
// recovery restore the original plan exactly. See docs/robustness.md.

#pragma once

#include "core/planner.h"
#include "runtime/scenario.h"

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace dvafs {

struct governor_config {
    quant_sweep_config sweep;     // per-network requirement sweep
    frontier_config frontier;     // gate-level measured frontier (cached)
    double budget_resolution = 0.0025;
};

enum class replan_reason {
    startup,
    phase_change,
    drift,
    shed,    // overload valve: spend accuracy to fit the live deadline
    recover, // overload valve: pressure cleared, restore one level
};
const char* to_string(replan_reason r) noexcept;

// One governor decision, kept in the stream result's re-plan log.
struct replan_event {
    replan_reason reason = replan_reason::startup;
    int plan_version = 0;
    std::uint64_t frame = 0;       // global frame index at issue time
    double planning_ms = 0.0;      // measured wall clock (reporting only;
                                   // excluded from determinism checks)
    double accuracy_budget = 0.0;  // effective budget the DP ran under
    bool rebuilt_frontiers = false;
    // Drift escalations only: the governor had no lever left (budget
    // floored at zero AND every requirement saturated at the frontier
    // width) -- the plan is as good as the frontiers allow, and the
    // engine stops escalating this phase instead of looping.
    bool plan_stale = false;
    // Overload-valve events (shed/recover): the valve level this plan
    // serves at (0 = nominal). Zero for every other reason.
    int valve_level = 0;
    // The per-frame latency budget the DP ran under: the phase's nominal
    // 1000/target_fps for ordinary re-plans, the live effective period
    // for valve events.
    double latency_budget_ms = 0.0;
    // Drift events only: live-window accuracy of the outgoing plan and of
    // this plan, measured by the engine's suffix-cached window_probe.
    double window_accuracy_before = -1.0;
    double window_accuracy_after = -1.0;
    network_plan plan;
};

class adaptive_governor {
public:
    explicit adaptive_governor(const envision_model& model,
                               governor_config cfg = {});

    // Cached per-network planning state (built once, keyed by name; a
    // rebuilt network may re-bind under its name if its structural
    // fingerprint matches -- same seeds produce the same network, so the
    // cached sweeps and frontiers stay valid).
    struct network_state {
        const network* net = nullptr;
        // Fingerprint captured at prepare time (the pointer may dangle
        // once the original network is destroyed; these stay
        // comparable): structure plus a sampled weight checksum, so two
        // same-architecture networks built from different seeds do not
        // silently share planning state. It is compared once per network
        // version (network::version): `verified_version` is the stamp
        // that last matched, and a call with that same stamp skips the
        // comparison. Stamps are never reused, so a rebuilt, moved or
        // written-to network -- even one at a reused address -- is
        // compared again.
        std::size_t depth = 0;
        std::uint64_t total_macs = 0;
        std::uint64_t weight_digest = 0;
        std::uint64_t verified_version = 0;
        teacher_dataset data;
        std::vector<layer_quant_requirement> reqs;
        std::vector<layer_sparsity> sparsity;
        std::vector<layer_frontier> frontiers;
        // What every re-plan reads besides the frontiers (workloads at
        // reqs and sparsity, 16 b baseline); rebuilt whenever reqs change.
        plan_basis basis;
        double reference_accuracy = 1.0; // joint accuracy at reqs
        // Heuristic boot plan: what interim frames run on while the first
        // frontier plan for a newly entered network is still in flight.
        network_plan fallback;
    };

    // Builds (or returns) the cached state -- the slow admission path; the
    // stream engine runs it for every scenario network before streaming.
    const network_state& prepare(const network& net);
    bool prepared(const network& net) const;

    // Fast re-plan of `net` for `ph` against the cached frontiers. The
    // phase's latency budget is 1000 / target_fps ms; when no frontier
    // selection meets both budgets the plan is the minimum-time fallback
    // with deadline_met = false (never throws on infeasibility).
    replan_event replan(const network& net, const scenario_phase& ph,
                        replan_reason reason, std::uint64_t frame);

    // Drift response for (net, ph); see the header comment.
    replan_event escalate(const network& net, const scenario_phase& ph,
                          std::uint64_t frame);

    // Overload-valve re-plan: DP under the phase budget plus
    // `level * budget_step` extra accuracy allowance and an explicit
    // per-frame latency budget (the live effective period under a rate
    // burst). `reason` is shed or recover; level 0 under the nominal
    // period reproduces the phase-boundary plan exactly (same DP
    // inputs). The extra allowance is clamped to [0, 1].
    replan_event replan_valve(const network& net,
                              const scenario_phase& ph,
                              replan_reason reason, std::uint64_t frame,
                              int level, double budget_step,
                              double latency_budget_ms);

    int versions_issued() const noexcept { return version_; }
    const governor_config& config() const noexcept { return cfg_; }

private:
    network_state& prepare_mutable(const network& net);
    replan_event replan_with(const network& net, replan_reason reason,
                             std::uint64_t frame, double accuracy_budget,
                             double latency_budget_ms);
    double effective_budget(const network& net,
                            const scenario_phase& ph) const;
    void rebuild_frontiers(network_state& st);

    envision_model model_;
    governor_config cfg_;
    precision_planner planner_;          // frontier_search, time-aware
    precision_planner boot_planner_;     // heuristic_measured fallback
    std::map<std::string, network_state> states_;
    // Effective accuracy budgets tightened by drift, keyed "net/phase".
    std::map<std::string, double> budget_override_;
    int version_ = 0;
};

// Codec of the "teacher" blob prepare() keeps in the disk store: the
// reference accuracy, requirements, sparsity and priced layer frontiers.
// The decoder returns false unless each list holds exactly
// `expected_layers` entries and no layer frontier is empty; `st` may then
// be partly overwritten.
std::vector<std::uint8_t>
serialize_teacher(const adaptive_governor::network_state& st);
bool deserialize_teacher(const std::vector<std::uint8_t>& blob,
                         std::size_t expected_layers,
                         adaptive_governor::network_state& st);

} // namespace dvafs
