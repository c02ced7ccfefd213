// Budgeted selection of one operating point per layer.
//
// The planner's last step (paper Sec. V, Table III): given the per-layer
// frontiers of core/pareto.h, pick one point per layer minimizing the
// network's energy under an accuracy budget and an optional per-frame
// latency budget. One selector serves both the offline flow (no latency
// budget) and the streaming runtime's online re-plans (src/runtime/).
//
// Docs: docs/architecture.md (data flow), docs/glossary.md (terms).

#pragma once

#include "core/pareto.h"

#include <cstddef>
#include <vector>

namespace dvafs {

// Result of a selection. `feasible` is false when no selection satisfies
// both budgets; the returned indices are then the per-layer minimum-time
// fallback (ties broken by energy, then index) so the governor always has
// a plan to swap in.
struct frontier_selection {
    std::vector<std::size_t> indices;  // one per frontier
    bool feasible = true;
    double accuracy_loss = 0.0;        // sum over selected points
    double time_ms = 0.0;
    double energy_mj = 0.0;
};

// Picks one point per layer minimizing total energy subject to
// sum(accuracy_loss) <= accuracy_budget AND sum(time_ms) <=
// latency_budget_ms. A non-positive latency budget means unconstrained
// (the offline planner's accuracy-only selection). Losses are discretized
// at `resolution` and times at `time_resolution_ms` (0 = budget / 256),
// each cost rounding up, which makes the selection exact over the
// discretized problem and bit-identical across platforms and thread
// counts.
//
// The DP runs over sparse labels: per layer, only the nondominated partial
// plans over (loss units, time units, energy). Its picks -- indices and
// `feasible` -- equal those of the dense 2-D knapsack over every
// (loss, time) unit state, including its tie-break (lowest point index at
// equal energy); tests/test_pareto.cpp keeps that dense DP as the oracle.
//
// The DP is bounded by a feasible plan's energy UB: a greedy selection
// that fits both budgets, summed in layer order. A label whose energy plus
// the later layers' minimal point energies (over points that fit with
// every other layer at its cheapest) exceeds UB (times 1 + (n + 2)
// epsilon for n layers, covering rounding) is dropped. The bound is on
// only when every point energy is finite and >= 0; otherwise, or when the
// greedy finds no fitting selection, UB is +inf and nothing is dropped.
// The picks stay exact: fl-addition is monotone, so every label on the
// dense DP's chosen path (or one dominating it) stays within the bound,
// and dropping labels only raises the box minima of points not picked.
//
// *Any* infeasibility -- latency, accuracy, or their combination, under
// either latency spelling -- returns the fallback instead of throwing.
// Throws std::invalid_argument on an empty frontier, a non-finite point
// loss or time, a negative or non-finite budget, or bad resolutions.
frontier_selection select_frontier_points_budgeted(
    const std::vector<layer_frontier>& frontiers, double accuracy_budget,
    double latency_budget_ms, double resolution = 0.0025,
    double time_resolution_ms = 0.0);

} // namespace dvafs
