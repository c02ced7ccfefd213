// Layer-wise precision planner: combines the CNN quantization requirements
// (Fig. 6) with the Envision model (Sec. V) to schedule every layer of a
// network at its optimal computational accuracy -- the deployment flow the
// paper's introduction motivates.
//
// Two planning policies are available:
//  * heuristic -- PR 1's fixed three-mode rule (<=4b -> 4x4 @ 50 MHz,
//    <=8b -> 2x8 @ 100 MHz, else 1x16 @ 200 MHz) with the closed-form
//    k-parameter power model; kept as the fallback and as the baseline the
//    searched plans are benchmarked against.
//  * frontier_search (default) -- per-layer dynamic programming over the
//    *measured* energy-accuracy Pareto frontier (core/pareto.h): every
//    (subword mode x voltage x frequency) operating point is measured
//    gate-level through sim_engine, mapped onto each layer with the
//    measured activity divisor, and the plan minimizes network energy
//    under a network accuracy budget.
// heuristic_measured re-accounts the heuristic's mode choices with the
// measured divisors, so the two policies compare on equal footing.

#pragma once

#include "cnn/quant_analysis.h"
#include "cnn/workload.h"
#include "core/pareto.h"
#include "core/select.h"
#include "envision/layer_runner.h"

#include <string>
#include <vector>

namespace dvafs {

enum class plan_policy {
    heuristic,          // three-mode rule, closed-form k-parameter model
    heuristic_measured, // three-mode rule, measured activity divisors
    frontier_search,    // DP over measured per-layer Pareto frontiers
};

const char* to_string(plan_policy p) noexcept;

struct planner_config {
    plan_policy policy = plan_policy::frontier_search;
    // Allowed *extra* network accuracy loss (relative-accuracy points, e.g.
    // 0.05 = five points below the quant sweep's achieved accuracy). With a
    // zero budget the searched plan meets every layer's precision
    // requirement exactly and only optimizes mode/voltage/frequency.
    // The budget is enforced first-order: per-layer losses are measured by
    // downgrading one layer at a time and the DP bounds their *sum*, the
    // same additivity assumption the paper's per-layer sweep makes.
    // Quantization noise compounds across simultaneously downgraded
    // layers, so the *joint* loss can exceed the budget; the plan's
    // relative_accuracy field always reports the measured joint value --
    // check it (or tighten the budget) when the margin matters.
    double accuracy_budget = 0.0;
    // Discretization of the budget DP (see
    // select_frontier_points_budgeted).
    double budget_resolution = 0.0025;
    // Keep per-layer runtime as a third Pareto criterion when building
    // layer frontiers. Offline planning prunes over (energy, accuracy
    // loss) only; the streaming runtime sets this so latency-budgeted
    // re-plans (plan_from_frontiers) can trade energy for speed -- a
    // faster-but-costlier point must survive the prune to be selectable
    // under a deadline.
    bool time_pareto = false;
    // Gate-level sweep behind the measured frontier (cached process-wide).
    frontier_config frontier;
};

struct layer_plan {
    std::string layer_name;
    int weight_bits = 16;
    int input_bits = 16;
    envision_mode mode;        // resolved Envision operating point
    // Measured operating point behind `mode` (frontier policies only;
    // divisor 0 marks a closed-form heuristic row).
    operating_point_spec point;
    double activity_divisor = 0.0;
    double accuracy_loss = 0.0; // measured extra loss bought at this layer
    double power_mw = 0.0;
    double energy_mj = 0.0;    // per frame
    double time_ms = 0.0;
    // Full power decomposition behind power_mw (AS array / guarding /
    // fixed logic / memory) -- the split the streaming runtime's energy
    // ledger attributes per frame and per power domain.
    envision_report report;
};

struct network_plan {
    std::string network_name;
    plan_policy policy = plan_policy::heuristic;
    double accuracy_budget = 0.0;
    std::vector<layer_plan> layers;
    double relative_accuracy = 1.0; // joint accuracy at the planned bits
    double total_energy_mj = 0.0;
    double total_time_ms = 0.0;
    double fps = 0.0;
    double avg_power_mw = 0.0;
    double tops_per_w = 0.0;
    // Energy of the same network with every layer at 16 b (the non-scaled
    // baseline), for the headline savings factor.
    double baseline_energy_mj = 0.0;
    double savings_factor = 1.0;
    // Streaming re-plan fields (plan_from_frontiers): the per-frame
    // latency budget the DP ran under (0 = unconstrained, the offline
    // path), whether the selection met it, and the first-order sum of the
    // selected points' measured accuracy losses (the budget the DP
    // actually spent; relative_accuracy stays the *measured joint* value
    // and is not recomputed on the sub-millisecond re-plan path).
    double latency_budget_ms = 0.0;
    bool deadline_met = true;
    double planned_accuracy_loss = 0.0;
};

// What plan_from_frontiers reads of a network besides its frontiers: the
// layer workloads at the requirements and sparsity, and the energy of the
// same workloads at 16 b. It depends only on (network, requirements,
// sparsity), so a caller that re-plans one network often builds it once
// (the adaptive governor does at admission and on each requirement raise).
struct plan_basis {
    std::string network_name;
    std::vector<layer_workload> workloads;
    double baseline_energy_mj = 0.0;
};

class precision_planner {
public:
    explicit precision_planner(const envision_model& model,
                               planner_config cfg = {})
        : runner_(model), cfg_(cfg)
    {
    }

    const planner_config& config() const noexcept { return cfg_; }

    // Full pipeline: sweep per-layer precision requirements on `net`
    // against a synthetic teacher dataset, attach measured sparsity, pick
    // every layer's operating point per the configured policy, and report
    // network-level energy/fps/efficiency plus the 16 b baseline. The
    // sweep's compute_mode is the engine of every accuracy probe and of
    // every planned layer (an i8 layer is never placed on a 1x16 lane);
    // the other entry points plan for f32. The network is only read; one
    // immutable instance may serve concurrent planners (the sim_engine
    // const-read contract).
    network_plan plan(const network& net,
                      const quant_sweep_config& cfg) const;

    // Plan from externally supplied requirements (e.g. the paper's
    // published per-layer bits), skipping the sweep. Without a teacher
    // dataset the frontier search cannot price accuracy, so it only
    // considers points meeting each layer's requirement (a zero budget).
    network_plan plan_with_requirements(
        const network& net,
        const std::vector<layer_quant_requirement>& reqs,
        const std::vector<layer_sparsity>& sparsity) const;

    // The per-layer energy-accuracy frontiers the search selects from,
    // exposed for benches and the property tests. Points below a layer's
    // requirement are included only when `data` is non-null (their
    // accuracy loss is measured on it) and the accuracy budget is
    // positive. `threads` is the worker count of those loss probes (0 =
    // hardware default); the frontiers do not depend on it.
    std::vector<layer_frontier> layer_frontiers(
        const network& net,
        const std::vector<layer_quant_requirement>& reqs,
        const std::vector<layer_sparsity>& sparsity,
        const teacher_dataset* data = nullptr, unsigned threads = 0) const;

    // The plan_basis of `net` at `reqs` and `sparsity`, its layers on
    // the `compute` engine.
    plan_basis basis(const network& net,
                     const std::vector<layer_quant_requirement>& reqs,
                     const std::vector<layer_sparsity>& sparsity,
                     compute_mode compute = compute_mode::f32) const;

    // Streaming re-plan API (src/runtime/): assembles a plan by DP over
    // *precomputed* layer frontiers under an accuracy and a per-frame
    // latency budget -- no sweeps, no dataset probes, no gate-level
    // measurement. Against a prebuilt basis a decision costs the DP plus
    // one layer_runner pass over the picks: e2ebench `replan` reads about
    // 0.007 ms at the median and 0.06 ms at p99 per decision, verify
    // included (4-vCPU AVX-512 host; the adaptive governor's hot path).
    // When no selection meets both budgets the per-layer minimum-time
    // fallback is returned with deadline_met = false. Build the frontiers
    // with `time_pareto` set, or fast points may have been pruned before
    // the DP sees them.
    network_plan plan_from_frontiers(
        const plan_basis& basis,
        const std::vector<layer_frontier>& frontiers,
        double accuracy_budget, double latency_budget_ms) const;
    // The same plan, building the basis on the call.
    network_plan plan_from_frontiers(
        const network& net,
        const std::vector<layer_quant_requirement>& reqs,
        const std::vector<layer_sparsity>& sparsity,
        const std::vector<layer_frontier>& frontiers,
        double accuracy_budget, double latency_budget_ms) const;

    // The shared measured mode frontier (via frontier_cache).
    std::shared_ptr<const mode_frontier> frontier() const;

private:
    // `threads` is the dataset-level worker count for accuracy probes
    // (quant_sweep_config::threads; 0 = hardware default); `compute` the
    // engine those probes and the planned layers execute.
    network_plan plan_internal(const network& net,
                               const std::vector<layer_quant_requirement>&
                                   reqs,
                               const std::vector<layer_sparsity>& sparsity,
                               const teacher_dataset* data,
                               unsigned threads = 0,
                               compute_mode compute
                               = compute_mode::f32) const;

    std::vector<layer_workload> build_workloads(
        const network& net,
        const std::vector<layer_quant_requirement>& reqs,
        const std::vector<layer_sparsity>& sparsity,
        compute_mode compute = compute_mode::f32) const;

    // Shared implementation behind layer_frontiers/plan_internal; when
    // accuracy is priced, `acc_ref_out` (if non-null) receives the joint
    // reference accuracy so callers need not probe the dataset again.
    std::vector<layer_frontier> layer_frontiers_from_workloads(
        const network& net,
        const std::vector<layer_quant_requirement>& reqs,
        const std::vector<layer_workload>& workloads,
        const teacher_dataset* data, double* acc_ref_out,
        unsigned threads = 0,
        compute_mode compute = compute_mode::f32) const;

    void finish_plan(network_plan& np, const plan_basis& basis) const;

    layer_runner runner_;
    planner_config cfg_;
};

} // namespace dvafs
