#include "core/select.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>

namespace dvafs {

namespace {

// Per-layer, per-point unit costs of the discretized selection problem.
using unit_table = std::vector<std::vector<int>>;

// A partial plan over the layers processed so far: its summed unit costs
// and its energy, added in layer order from 0.0.
struct label {
    int loss = 0;
    int time = 0;
    double energy = 0.0;
};

bool label_less(const label& a, const label& b)
{
    if (a.loss != b.loss) {
        return a.loss < b.loss;
    }
    if (a.time != b.time) {
        return a.time < b.time;
    }
    return a.energy < b.energy;
}

// Appends to `labels` every label of [prev_begin, prev_end) -- sorted by
// label_less -- plus one point of the layer, keeping those that fit
// (b_total, t_total) and whose energy plus `rest` (the later layers'
// minimal energies) does not exceed `cut`, sorted by label_less. A sum
// that is +inf or NaN never beats the dense DP's +inf initial cell, so it
// is unreachable there; such labels are dropped.
void append_extensions(std::vector<label>& labels, std::size_t prev_begin,
                       std::size_t prev_end, const layer_frontier& frontier,
                       const std::vector<int>& lu, const std::vector<int>& tu,
                       int b_total, int t_total, double rest, double cut)
{
    const double inf = std::numeric_limits<double>::infinity();
    // Each point shifts the sorted previous set into a sorted run (fl(x +
    // c) is monotone in x); merge each run in as it is appended.
    for (std::size_t pi = 0; pi < lu.size(); ++pi) {
        const double e = frontier.points[pi].energy_mj;
        const std::size_t run = labels.size();
        for (std::size_t i = prev_begin; i < prev_end; ++i) {
            const label x = labels[i];
            if (x.loss > b_total - lu[pi]) {
                break;
            }
            const double sum = x.energy + e;
            if (x.time > t_total - tu[pi] || !(sum < inf)
                || sum + rest > cut) {
                continue;
            }
            labels.push_back({x.loss + lu[pi], x.time + tu[pi], sum});
        }
        const auto at = [&](std::size_t k) {
            return labels.begin() + static_cast<std::ptrdiff_t>(k);
        };
        std::inplace_merge(at(prev_end), at(run), labels.end(), label_less);
    }
}

// (time, energy) steps, time ascending and energy strictly descending.
using staircase = std::vector<std::pair<int, double>>;

// Removes from labels[from, end) -- sorted by label_less -- every label
// another one dominates (<= in loss, time and energy; of equal labels one
// stays), keeping the order. Returns the new end. `stair` and `folded` are
// scratch space.
std::size_t prune_dominated(std::vector<label>& labels, std::size_t from,
                            staircase& stair, staircase& folded)
{
    const double inf = std::numeric_limits<double>::infinity();
    // The kept labels of lower loss levels: the last step at or before a
    // time holds their minimal energy up to that time.
    stair.clear();
    std::size_t kept = from;
    for (std::size_t i = from; i < labels.size();) {
        // One loss level, time ascending: a label is dominated exactly
        // when the staircase or an earlier kept label of its level fits its
        // time at no more energy.
        const int level = labels[i].loss;
        const std::size_t level_begin = kept;
        std::size_t step = 0;
        double level_min = inf;
        for (; i < labels.size() && labels[i].loss == level; ++i) {
            const label l = labels[i];
            while (step < stair.size() && stair[step].first <= l.time) {
                ++step;
            }
            const double below = step > 0 ? stair[step - 1].second : inf;
            if (std::min(below, level_min) <= l.energy) {
                continue;
            }
            level_min = l.energy;
            labels[kept++] = l;
        }
        // Fold the level's kept labels into the staircase.
        folded.clear();
        double lowest = inf;
        std::size_t a = 0;
        std::size_t c = level_begin;
        while (a < stair.size() || c < kept) {
            std::pair<int, double> next;
            if (c == kept
                || (a < stair.size() && stair[a].first <= labels[c].time)) {
                next = stair[a++];
            } else {
                next = {labels[c].time, labels[c].energy};
                ++c;
            }
            if (next.second < lowest) {
                lowest = next.second;
                folded.push_back(next);
            }
        }
        stair.swap(folded);
    }
    return kept;
}

// Minimal energy over the labels [first, last) -- sorted by label_less --
// that fit (b, t) units; +inf when none fits.
double box_min(const label* first, const label* last, int b, int t)
{
    double best = std::numeric_limits<double>::infinity();
    for (; first != last && first->loss <= b; ++first) {
        if (first->time <= t && first->energy < best) {
            best = first->energy;
        }
    }
    return best;
}

// Upper bound of the label DP: fills rest_e[k] with the summed minimal
// point energy of layers k..n-1 and returns the layer-order energy sum of
// one selection that fits (b_total, t_total). Only usable points count: a
// point whose unit costs exceed its layer's cheapest by more than the
// budgets' slack over every layer's cheapest fits in no selection. A
// greedy finds the selection: start at each layer's minimal-energy usable
// point and, while the summed unit costs exceed the budgets, take the
// single-layer swap to a usable point with the smallest energy rise per
// excess unit removed. Returns +inf -- the bound off, whatever rest_e
// holds -- when a point energy is negative or not finite, or when no swap
// removes excess or 256 swaps did not remove it all.
double energy_bound(const std::vector<layer_frontier>& frontiers,
                    const unit_table& lu, const unit_table& tu, int b_total,
                    int t_total, std::vector<double>& rest_e)
{
    const double inf = std::numeric_limits<double>::infinity();
    const std::size_t n = frontiers.size();
    std::vector<int> lu_min(n);
    std::vector<int> tu_min(n);
    std::int64_t loss_slack = b_total;
    std::int64_t time_slack = t_total;
    for (std::size_t li = 0; li < n; ++li) {
        lu_min[li] = *std::min_element(lu[li].begin(), lu[li].end());
        tu_min[li] = *std::min_element(tu[li].begin(), tu[li].end());
        loss_slack -= lu_min[li];
        time_slack -= tu_min[li];
    }
    // The usable points, flat for the swap scans, and each layer's pick.
    struct point {
        std::size_t layer;
        int loss;
        int time;
        double energy;
    };
    std::vector<point> usable;
    std::vector<point> pick(n, {0, 0, 0, inf});
    std::int64_t loss = 0;
    std::int64_t time = 0;
    for (std::size_t li = n; li-- > 0;) {
        for (std::size_t pi = 0; pi < lu[li].size(); ++pi) {
            const point p = {li, lu[li][pi], tu[li][pi],
                             frontiers[li].points[pi].energy_mj};
            if (!(p.energy >= 0.0 && p.energy < inf)) {
                return inf;
            }
            if (p.loss - lu_min[li] <= loss_slack
                && p.time - tu_min[li] <= time_slack) {
                usable.push_back(p);
                if (p.energy < pick[li].energy) {
                    pick[li] = p;
                }
            }
        }
        if (pick[li].energy == inf) {
            return inf;
        }
        rest_e[li] = rest_e[li + 1] + pick[li].energy;
        loss += pick[li].loss;
        time += pick[li].time;
    }
    const auto excess = [&](std::int64_t l, std::int64_t t) {
        return std::max<std::int64_t>(l - b_total, 0)
               + std::max<std::int64_t>(t - t_total, 0);
    };
    for (int swaps = 0; excess(loss, time) > 0; ++swaps) {
        const std::int64_t over = excess(loss, time);
        const point* best = nullptr;
        double best_rate = inf;
        for (const point& p : usable) {
            const point& from = pick[p.layer];
            const std::int64_t removed =
                over - excess(loss + p.loss - from.loss,
                              time + p.time - from.time);
            if (removed <= 0) {
                continue;
            }
            const double rate =
                (p.energy - from.energy) / static_cast<double>(removed);
            if (rate < best_rate) {
                best_rate = rate;
                best = &p;
            }
        }
        if (best == nullptr || swaps == 256) {
            return inf;
        }
        loss += best->loss - pick[best->layer].loss;
        time += best->time - pick[best->layer].time;
        pick[best->layer] = *best;
    }
    double ub = 0.0;
    for (const point& p : pick) {
        ub += p.energy;
    }
    return rest_e[0] < inf ? ub : inf;
}

// Minimal-energy choice of one point per layer whose summed unit costs fit
// (b_total, t_total), or nullopt when none fits.
//
// Forward, layer k's label set is every label of the layer before plus one
// point of layer k, minus the dominated labels and minus those whose
// energy plus rest_e of the later layers exceeds `cut`. Dominance pruning
// never changes the minimal energy within a (b, t) box, and fl(x + c) is
// monotone in x, so each box minimum on the dense DP's optimal path is
// bit-identical to the cell of a dense 2-D knapsack over all (b, t) states
// and no other falls below its cell. The cut keeps that path: with
// energies finite and >= 0, a prefix of it plus rest_e rounds to at most
// (1 + 2n u) times the optimum <= UB (u the unit roundoff), and the cut is
// UB (1 + (2n + 4) u). Backward, each layer takes the lowest point index
// with the strictly smallest box minimum plus its energy -- the dense DP's
// choice rule -- so the picks match it exactly, ties included.
std::optional<std::vector<std::size_t>>
label_dp(const std::vector<layer_frontier>& frontiers,
         const unit_table& loss_units, const unit_table& time_units,
         int b_total, int t_total)
{
    const double inf = std::numeric_limits<double>::infinity();
    const std::size_t n = frontiers.size();
    std::vector<double> rest_e(n + 1, 0.0);
    const double ub = energy_bound(frontiers, loss_units, time_units,
                                   b_total, t_total, rest_e);
    const double cut =
        ub * (1.0 + (n + 2.0) * std::numeric_limits<double>::epsilon());
    // All label sets back to back: the set before layer k is
    // labels[begin[k], begin[k + 1]). Before layer 0 it is the empty plan.
    std::vector<label> labels(1);
    labels.reserve(4096);
    std::vector<std::size_t> begin = {0, 1};
    staircase stair;
    staircase folded;
    for (std::size_t li = 0; li < n; ++li) {
        append_extensions(labels, begin[li], begin[li + 1], frontiers[li],
                          loss_units[li], time_units[li], b_total, t_total,
                          rest_e[li + 1], cut);
        labels.resize(
            prune_dominated(labels, begin[li + 1], stair, folded));
        begin.push_back(labels.size());
    }
    if (begin[n] == begin[n + 1]) {
        return std::nullopt;
    }

    std::vector<std::size_t> picked(n, 0);
    int b = b_total;
    int t = t_total;
    for (std::size_t li = n; li-- > 0;) {
        const label* first = labels.data() + begin[li];
        const label* last = labels.data() + begin[li + 1];
        const std::vector<int>& lu = loss_units[li];
        const std::vector<int>& tu = time_units[li];
        double best = inf;
        for (std::size_t pi = 0; pi < lu.size(); ++pi) {
            if (lu[pi] > b || tu[pi] > t) {
                continue;
            }
            const double m = box_min(first, last, b - lu[pi], t - tu[pi]);
            if (m == inf) {
                continue;
            }
            const double e = m + frontiers[li].points[pi].energy_mj;
            if (e < best) {
                best = e;
                picked[li] = pi;
            }
        }
        b -= lu[picked[li]];
        t -= tu[picked[li]];
    }
    return picked;
}

} // namespace

frontier_selection select_frontier_points_budgeted(
    const std::vector<layer_frontier>& frontiers, double accuracy_budget,
    double latency_budget_ms, double resolution, double time_resolution_ms)
{
    const auto summarize = [&](std::vector<std::size_t> indices,
                               bool feasible) {
        frontier_selection sel;
        sel.indices = std::move(indices);
        sel.feasible = feasible;
        for (std::size_t li = 0; li < frontiers.size(); ++li) {
            const layer_frontier_point& p =
                frontiers[li].points[sel.indices[li]];
            sel.accuracy_loss += p.accuracy_loss;
            sel.time_ms += p.time_ms;
            sel.energy_mj += p.energy_mj;
        }
        return sel;
    };

    if (accuracy_budget < 0.0 || !(resolution > 0.0)
        || !(time_resolution_ms >= 0.0) || !std::isfinite(accuracy_budget)
        || !std::isfinite(latency_budget_ms)) {
        // Non-finite budgets or resolutions would turn the discretization
        // into NaN arithmetic and an undefined float-to-int cast (e.g. a
        // phase with target_fps = 0 yields an infinite deadline); fail
        // loudly instead.
        throw std::invalid_argument(
            "select_frontier_points_budgeted: bad budget/resolution");
    }
    for (const layer_frontier& f : frontiers) {
        if (f.points.empty()) {
            throw std::invalid_argument(
                "select_frontier_points_budgeted: empty layer frontier "
                "for "
                + f.layer_name);
        }
        for (const layer_frontier_point& p : f.points) {
            if (!std::isfinite(p.accuracy_loss) || !std::isfinite(p.time_ms)) {
                throw std::invalid_argument(
                    "select_frontier_points_budgeted: non-finite loss or "
                    "time in layer frontier for "
                    + f.layer_name);
            }
        }
    }

    const auto fastest_fallback = [&]() {
        // Per-layer minimum-time selection (ties by energy, then index)
        // -- the governor's "always have a plan" guarantee on any
        // infeasibility. The caller sees feasible = false.
        std::vector<std::size_t> fastest(frontiers.size(), 0);
        for (std::size_t li = 0; li < frontiers.size(); ++li) {
            for (std::size_t pi = 1; pi < frontiers[li].points.size();
                 ++pi) {
                const layer_frontier_point& p = frontiers[li].points[pi];
                const layer_frontier_point& best =
                    frontiers[li].points[fastest[li]];
                if (p.time_ms < best.time_ms
                    || (p.time_ms == best.time_ms
                        && p.energy_mj < best.energy_mj)) {
                    fastest[li] = pi;
                }
            }
        }
        return summarize(std::move(fastest), false);
    };

    // Both costs round up (conservative: the discretized plan never
    // exceeds either real budget) and clamp into [0, total + 1]: a
    // (hand-built) negative loss or time is "free", and a cost beyond the
    // budget stays unpayable instead of overflowing the cast to int.
    const auto units = [](double cost, double res, int total) {
        const double u = std::ceil(cost / res - 1e-9);
        return static_cast<int>(std::clamp(u, 0.0, total + 1.0));
    };
    const int max_units = 100000;
    if (accuracy_budget / resolution > max_units) {
        throw std::invalid_argument(
            "select_frontier_points_budgeted: budget/resolution too fine");
    }
    const int b_total =
        static_cast<int>(std::floor(accuracy_budget / resolution + 1e-9));

    const std::size_t n = frontiers.size();
    unit_table loss_units(n);
    unit_table time_units(n);
    // An unmeetable *accuracy* budget returns the fallback under either
    // latency spelling (<= 0 = unconstrained, or a positive deadline).
    std::int64_t min_loss_units = 0;
    for (std::size_t li = 0; li < n; ++li) {
        const std::vector<layer_frontier_point>& pts = frontiers[li].points;
        loss_units[li].resize(pts.size());
        time_units[li].assign(pts.size(), 0);
        for (std::size_t pi = 0; pi < pts.size(); ++pi) {
            loss_units[li][pi] =
                units(pts[pi].accuracy_loss, resolution, b_total);
        }
        min_loss_units += *std::min_element(loss_units[li].begin(),
                                            loss_units[li].end());
    }
    if (min_loss_units > b_total) {
        return fastest_fallback();
    }

    // A non-positive latency budget is one time column with zero time
    // costs. A deadline discretizes at `time_resolution_ms` (0 = budget /
    // 256): up to ~73 loss x 257 time units, of which the label DP keeps
    // at most a few hundred nondominated pairs per layer, fewer under the
    // energy bound. The DP alone takes about 0.005 ms at the median and
    // 0.05 ms at p99 on the runtime zoo (bench_pareto_planner
    // `replan_dp.*`); a whole re-plan plus its verify_plan about 0.013 ms
    // and 0.07 ms (e2ebench `replan`, one AVX-512 core).
    int t_total = 0;
    if (latency_budget_ms > 0.0) {
        const double tres = time_resolution_ms > 0.0
                                ? time_resolution_ms
                                : latency_budget_ms / 256.0;
        if (latency_budget_ms / tres > max_units) {
            throw std::invalid_argument(
                "select_frontier_points_budgeted: budget/resolution too "
                "fine");
        }
        t_total =
            static_cast<int>(std::floor(latency_budget_ms / tres + 1e-9));
        // The per-axis caps do not bound the *product*. A pruned label set
        // holds at most one label per (loss, time) unit pair, so cap the
        // pair count too, or a fine 2-D grid turns the label sets into a
        // multi-GB allocation instead of an error.
        const std::int64_t max_states = 1000000;
        if ((static_cast<std::int64_t>(b_total) + 1)
                * (static_cast<std::int64_t>(t_total) + 1)
            > max_states) {
            throw std::invalid_argument(
                "select_frontier_points_budgeted: budget/resolution grid "
                "too large (coarsen a resolution)");
        }
        for (std::size_t li = 0; li < n; ++li) {
            for (std::size_t pi = 0; pi < time_units[li].size(); ++pi) {
                time_units[li][pi] =
                    units(frontiers[li].points[pi].time_ms, tres, t_total);
            }
        }
    }

    std::optional<std::vector<std::size_t>> picked =
        label_dp(frontiers, loss_units, time_units, b_total, t_total);
    if (!picked) {
        // No selection meets both budgets.
        return fastest_fallback();
    }
    return summarize(std::move(*picked), true);
}

} // namespace dvafs
