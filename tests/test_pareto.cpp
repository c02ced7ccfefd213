// Unit tests of the measured Pareto-frontier machinery (core/pareto.h):
// dominance extraction, the budgeted DP selector of core/select.h (with an
// exhaustive-enumeration oracle and the dense 2-D knapsack as a
// differential oracle), the measured mode frontier and its process-wide
// cache.

#include "core/pareto.h"
#include "core/select.h"

#include "util/rng.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <initializer_list>
#include <limits>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <tuple>
#include <utility>

namespace dvafs {
namespace {

// -- pareto_front -------------------------------------------------------------

TEST(pareto_front, keeps_non_dominated_rows)
{
    // (energy, loss): rows 0 and 2 form the frontier; row 1 is dominated
    // by row 0, row 3 by everything.
    const std::vector<std::vector<double>> c = {
        {1.0, 0.5}, {2.0, 0.5}, {0.5, 1.0}, {3.0, 2.0}};
    EXPECT_EQ(pareto_front(c), (std::vector<std::size_t>{0, 2}));
}

TEST(pareto_front, duplicate_rows_keep_lowest_index)
{
    const std::vector<std::vector<double>> c = {
        {1.0, 1.0}, {1.0, 1.0}, {1.0, 1.0}};
    EXPECT_EQ(pareto_front(c), (std::vector<std::size_t>{0}));
}

TEST(pareto_front, empty_and_singleton)
{
    EXPECT_TRUE(pareto_front({}).empty());
    EXPECT_EQ(pareto_front({{3.0, 4.0}}),
              (std::vector<std::size_t>{0}));
}

TEST(pareto_front, incomparable_rows_all_survive)
{
    const std::vector<std::vector<double>> c = {
        {1.0, 3.0}, {2.0, 2.0}, {3.0, 1.0}};
    EXPECT_EQ(pareto_front(c), (std::vector<std::size_t>{0, 1, 2}));
}

// -- offline selection (no latency budget) ------------------------------------

layer_frontier make_frontier(const char* name,
                             std::initializer_list<std::pair<double, double>>
                                 energy_loss)
{
    layer_frontier lf;
    lf.layer_name = name;
    for (const auto& [e, l] : energy_loss) {
        layer_frontier_point p;
        p.energy_mj = e;
        p.accuracy_loss = l;
        lf.points.push_back(p);
    }
    return lf;
}

// The offline planner's call: the one selector with latency budget 0.
std::vector<std::size_t> select_offline(const std::vector<layer_frontier>& fls,
                                        double budget,
                                        double resolution = 0.0025)
{
    const frontier_selection sel =
        select_frontier_points_budgeted(fls, budget, 0.0, resolution);
    EXPECT_TRUE(sel.feasible);
    return sel.indices;
}

TEST(select_frontier_points, zero_budget_picks_cheapest_lossless)
{
    const std::vector<layer_frontier> fls = {
        make_frontier("a", {{5.0, 0.0}, {3.0, 0.0}, {1.0, 0.1}}),
        make_frontier("b", {{2.0, 0.0}, {1.0, 0.2}}),
    };
    EXPECT_EQ(select_offline(fls, 0.0), (std::vector<std::size_t>{1, 0}));
}

TEST(select_frontier_points, budget_buys_the_best_tradeoff)
{
    // With 0.1 of budget the DP must spend it on layer a (saves 2.0), not
    // on layer b (saves 1.0).
    const std::vector<layer_frontier> fls = {
        make_frontier("a", {{3.0, 0.0}, {1.0, 0.1}}),
        make_frontier("b", {{2.0, 0.0}, {1.0, 0.1}}),
    };
    EXPECT_EQ(select_offline(fls, 0.1), (std::vector<std::size_t>{1, 0}));
    // Twice the budget buys both downgrades.
    EXPECT_EQ(select_offline(fls, 0.2), (std::vector<std::size_t>{1, 1}));
}

TEST(select_frontier_points, relaxing_budget_never_raises_energy)
{
    const std::vector<layer_frontier> fls = {
        make_frontier("a", {{4.0, 0.0}, {2.5, 0.04}, {1.0, 0.15}}),
        make_frontier("b", {{3.0, 0.0}, {1.5, 0.08}}),
        make_frontier("c", {{2.0, 0.0}, {0.5, 0.02}}),
    };
    double prev = std::numeric_limits<double>::infinity();
    for (const double budget : {0.0, 0.02, 0.05, 0.1, 0.2, 0.5}) {
        const auto sel = select_offline(fls, budget);
        double e = 0.0;
        double loss = 0.0;
        for (std::size_t i = 0; i < fls.size(); ++i) {
            e += fls[i].points[sel[i]].energy_mj;
            loss += fls[i].points[sel[i]].accuracy_loss;
        }
        EXPECT_LE(e, prev) << "budget " << budget;
        EXPECT_LE(loss, budget + 1e-12) << "budget " << budget;
        prev = e;
    }
}

TEST(select_frontier_points, rejects_bad_inputs)
{
    const std::vector<layer_frontier> ok = {
        make_frontier("a", {{1.0, 0.0}})};
    const double nan = std::numeric_limits<double>::quiet_NaN();
    EXPECT_THROW((void)select_frontier_points_budgeted(ok, -0.1, 0.0),
                 std::invalid_argument);
    EXPECT_THROW((void)select_frontier_points_budgeted(ok, nan, 0.0),
                 std::invalid_argument);
    EXPECT_THROW((void)select_frontier_points_budgeted(ok, 0.1, 0.0, 0.0),
                 std::invalid_argument);
    EXPECT_THROW((void)select_frontier_points_budgeted(ok, 0.1, 0.0, nan),
                 std::invalid_argument);
    EXPECT_THROW(
        (void)select_frontier_points_budgeted({layer_frontier{}}, 0.1, 0.0),
        std::invalid_argument);
    // No zero-loss point and no budget to pay for the lossy one: the
    // selector reports it (the offline planner turns this into a throw).
    const std::vector<layer_frontier> lossy = {
        make_frontier("a", {{1.0, 0.5}})};
    EXPECT_FALSE(select_frontier_points_budgeted(lossy, 0.0, 0.0).feasible);
    EXPECT_TRUE(select_frontier_points_budgeted(lossy, 0.5, 0.0).feasible);
}

// -- select_frontier_points_budgeted ------------------------------------------

layer_frontier make_timed_frontier(
    const char* name,
    std::initializer_list<std::tuple<double, double, double>>
        energy_loss_time)
{
    layer_frontier lf;
    lf.layer_name = name;
    for (const auto& [e, l, t] : energy_loss_time) {
        layer_frontier_point p;
        p.energy_mj = e;
        p.accuracy_loss = l;
        p.time_ms = t;
        lf.points.push_back(p);
    }
    return lf;
}

TEST(select_frontier_points_budgeted, deadline_forces_faster_points)
{
    // Unconstrained, the cheap-but-slow points win; under a 6 ms deadline
    // only the fast points fit.
    const std::vector<layer_frontier> fls = {
        make_timed_frontier("a", {{1.0, 0.0, 5.0}, {3.0, 0.0, 1.0}}),
        make_timed_frontier("b", {{2.0, 0.0, 8.0}, {5.0, 0.0, 2.0}})};
    const frontier_selection loose =
        select_frontier_points_budgeted(fls, 0.0, 100.0);
    EXPECT_TRUE(loose.feasible);
    EXPECT_EQ(loose.indices, (std::vector<std::size_t>{0, 0}));
    const frontier_selection tight =
        select_frontier_points_budgeted(fls, 0.0, 6.0);
    EXPECT_TRUE(tight.feasible);
    EXPECT_EQ(tight.indices, (std::vector<std::size_t>{1, 1}));
    EXPECT_LE(tight.time_ms, 6.0);
    EXPECT_GE(tight.energy_mj, loose.energy_mj);
}

TEST(select_frontier_points_budgeted, mixed_budgets_interact)
{
    // The fast point of layer a costs accuracy; affordable only when the
    // accuracy budget pays for it.
    const std::vector<layer_frontier> fls = {
        make_timed_frontier("a", {{1.0, 0.0, 5.0}, {0.8, 0.05, 1.0}}),
        make_timed_frontier("b", {{2.0, 0.0, 3.0}})};
    const frontier_selection no_acc =
        select_frontier_points_budgeted(fls, 0.0, 5.0);
    EXPECT_FALSE(no_acc.feasible); // 5+3 > 5 and the fast point is lossy
    const frontier_selection paid =
        select_frontier_points_budgeted(fls, 0.05, 5.0);
    EXPECT_TRUE(paid.feasible);
    EXPECT_EQ(paid.indices, (std::vector<std::size_t>{1, 0}));
}

TEST(select_frontier_points_budgeted,
     accuracy_infeasibility_falls_back_in_both_latency_spellings)
{
    // Every point of layer b is lossy and the budget is zero: the
    // selector's contract is "always have a plan" -- under an explicit
    // deadline *and* unconstrained.
    const std::vector<layer_frontier> fls = {
        make_timed_frontier("a", {{1.0, 0.0, 5.0}, {3.0, 0.0, 2.0}}),
        make_timed_frontier("b", {{2.0, 0.1, 4.0}})};
    for (const double latency : {0.0, 1e9}) {
        const frontier_selection sel =
            select_frontier_points_budgeted(fls, 0.0, latency);
        EXPECT_FALSE(sel.feasible);
        EXPECT_EQ(sel.indices, (std::vector<std::size_t>{1, 0}));
    }
}

TEST(select_frontier_points_budgeted, rejects_non_finite_budgets)
{
    const std::vector<layer_frontier> fls = {
        make_timed_frontier("a", {{1.0, 0.0, 5.0}})};
    const double inf = std::numeric_limits<double>::infinity();
    EXPECT_THROW((void)select_frontier_points_budgeted(fls, 0.0, inf),
                 std::invalid_argument);
    EXPECT_THROW((void)select_frontier_points_budgeted(fls, inf, 1.0),
                 std::invalid_argument);
}

TEST(select_frontier_points_budgeted, negative_costs_are_treated_as_free)
{
    // Hand-built frontiers may carry a negative loss (reference minus
    // measured accuracy before clamping); it must never index the DP
    // tables out of bounds.
    const std::vector<layer_frontier> fls = {
        make_timed_frontier("a", {{1.0, -0.05, 5.0}, {0.5, 0.1, -2.0}})};
    const frontier_selection sel =
        select_frontier_points_budgeted(fls, 0.0, 10.0);
    EXPECT_TRUE(sel.feasible);
    EXPECT_EQ(sel.indices, (std::vector<std::size_t>{0}));
    EXPECT_EQ(select_offline(fls, 0.0), (std::vector<std::size_t>{0}));
}

TEST(select_frontier_points_budgeted, infeasible_returns_fastest_fallback)
{
    const std::vector<layer_frontier> fls = {
        make_timed_frontier("a", {{1.0, 0.0, 5.0}, {3.0, 0.0, 2.0}}),
        make_timed_frontier("b", {{2.0, 0.0, 4.0}})};
    const frontier_selection sel =
        select_frontier_points_budgeted(fls, 0.0, 1.0);
    EXPECT_FALSE(sel.feasible);
    // Per-layer minimum time, regardless of energy.
    EXPECT_EQ(sel.indices, (std::vector<std::size_t>{1, 0}));
    EXPECT_DOUBLE_EQ(sel.time_ms, 6.0);
}

TEST(select_frontier_points_budgeted, relaxing_deadline_never_raises_energy)
{
    const std::vector<layer_frontier> fls = {
        make_timed_frontier("a",
                            {{1.0, 0.0, 5.0},
                             {2.0, 0.0, 3.0},
                             {4.0, 0.0, 1.0}}),
        make_timed_frontier("b", {{2.0, 0.0, 6.0}, {3.5, 0.0, 2.0}})};
    double prev = std::numeric_limits<double>::infinity();
    // Fixed time resolution so selections at different deadlines solve the
    // same discretized problem.
    for (const double deadline : {3.0, 5.0, 7.0, 9.0, 11.0, 20.0}) {
        const frontier_selection sel = select_frontier_points_budgeted(
            fls, 0.0, deadline, 0.0025, 0.01);
        if (!sel.feasible) {
            continue;
        }
        EXPECT_LE(sel.time_ms, deadline + 1e-12);
        EXPECT_LE(sel.energy_mj, prev) << "deadline " << deadline;
        prev = sel.energy_mj;
    }
}

TEST(select_frontier_points_budgeted, cost_beyond_the_budget_is_never_free)
{
    // At a 1e-6 ms deadline (resolution 1e-6 / 256 ms) the slow point
    // costs ~2.6e11 time units and a 1e12 loss ~4e14 loss units: far past
    // int. Both must stay unpayable, never wrap into a free point.
    const std::vector<layer_frontier> slow = {
        make_timed_frontier("a", {{1.0, 0.0, 1000.0}, {2.0, 0.0, 1e-7}})};
    const frontier_selection sel =
        select_frontier_points_budgeted(slow, 0.0, 1e-6);
    EXPECT_TRUE(sel.feasible);
    EXPECT_EQ(sel.indices, (std::vector<std::size_t>{1}));
    EXPECT_LE(sel.time_ms, 1e-6);

    const std::vector<layer_frontier> lossy = {
        make_frontier("a", {{1.0, 1e12}, {2.0, 0.0}})};
    EXPECT_EQ(select_offline(lossy, 0.1), (std::vector<std::size_t>{1}));
}

TEST(select_frontier_points_budgeted, rejects_non_finite_point_costs)
{
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const double inf = std::numeric_limits<double>::infinity();
    for (const auto& [loss, time] :
         {std::pair{nan, 1.0}, std::pair{inf, 1.0}, std::pair{0.0, nan},
          std::pair{0.0, inf}, std::pair{-inf, 1.0}}) {
        const std::vector<layer_frontier> fls = {make_timed_frontier(
            "a", {{1.0, 0.0, 1.0}, {0.5, loss, time}})};
        EXPECT_THROW((void)select_frontier_points_budgeted(fls, 0.1, 0.0),
                     std::invalid_argument);
        EXPECT_THROW((void)select_frontier_points_budgeted(fls, 0.1, 5.0),
                     std::invalid_argument);
    }
}

// -- selector property: exhaustive-enumeration oracle -------------------------

// The selector's discretization, restated: costs round up to whole units
// (clamped at zero), budgets round down.
int cost_units(double cost, double res)
{
    return std::max(0, static_cast<int>(std::ceil(cost / res - 1e-9)));
}

int budget_units(double budget, double res)
{
    return static_cast<int>(std::floor(budget / res + 1e-9));
}

TEST(selector_property, minimal_energy_over_every_fitting_selection)
{
    // Random small frontiers (<= 5 layers x <= 5 points) with energies on
    // a coarse grid so ties are common. Every selection is enumerated: the
    // selector's energy must be the minimum over the selections whose
    // rounded-up unit costs fit both budgets; `feasible` must be false
    // exactly when none fits, and the indices are then the per-layer
    // fastest fallback (ties by energy, then index).
    const double res = 0.0025;
    pcg32 rng(2024);
    int feasible_cases = 0;
    int infeasible_cases = 0;
    for (int trial = 0; trial < 400; ++trial) {
        const int layers = 1 + static_cast<int>(rng.next_u64() % 5);
        std::vector<layer_frontier> fls(static_cast<std::size_t>(layers));
        for (layer_frontier& lf : fls) {
            lf.layer_name = "l";
            const int pts = 1 + static_cast<int>(rng.next_u64() % 5);
            for (int k = 0; k < pts; ++k) {
                layer_frontier_point p;
                p.energy_mj = static_cast<double>(1 + rng.next_u64() % 4);
                p.accuracy_loss = rng.next_u64() % 3 == 0
                                      ? 0.0
                                      : rng.uniform(0.0, 0.02);
                p.time_ms = static_cast<double>(1 + rng.next_u64() % 8)
                            * 0.5;
                lf.points.push_back(p);
            }
        }
        for (const double acc_budget : {0.0, 0.004, 0.012, 0.05}) {
            for (const double latency : {0.0, 3.0, 7.5, 20.0}) {
                const frontier_selection sel =
                    select_frontier_points_budgeted(fls, acc_budget,
                                                    latency, res);
                const double tres = latency / 256.0;
                const int b_total = budget_units(acc_budget, res);
                const int t_total =
                    latency > 0.0 ? budget_units(latency, tres) : 0;

                // Enumerate every selection as a mixed-radix counter.
                std::vector<std::size_t> idx(fls.size(), 0);
                double best = std::numeric_limits<double>::infinity();
                for (;;) {
                    int b = 0;
                    int t = 0;
                    double e = 0.0;
                    for (std::size_t li = 0; li < fls.size(); ++li) {
                        const layer_frontier_point& p =
                            fls[li].points[idx[li]];
                        b += cost_units(p.accuracy_loss, res);
                        t += latency > 0.0 ? cost_units(p.time_ms, tres)
                                           : 0;
                        e += p.energy_mj;
                    }
                    if (b <= b_total && t <= t_total) {
                        best = std::min(best, e);
                    }
                    std::size_t li = 0;
                    while (li < fls.size()
                           && ++idx[li] == fls[li].points.size()) {
                        idx[li++] = 0;
                    }
                    if (li == fls.size()) {
                        break;
                    }
                }

                const std::string ctx =
                    "trial " + std::to_string(trial) + " budget "
                    + std::to_string(acc_budget) + " latency "
                    + std::to_string(latency);
                ASSERT_EQ(sel.indices.size(), fls.size()) << ctx;
                ASSERT_EQ(sel.feasible, std::isfinite(best)) << ctx;
                if (sel.feasible) {
                    ++feasible_cases;
                    EXPECT_DOUBLE_EQ(sel.energy_mj, best) << ctx;
                    continue;
                }
                ++infeasible_cases;
                for (std::size_t li = 0; li < fls.size(); ++li) {
                    std::size_t fastest = 0;
                    for (std::size_t pi = 1; pi < fls[li].points.size();
                         ++pi) {
                        const layer_frontier_point& p = fls[li].points[pi];
                        const layer_frontier_point& f =
                            fls[li].points[fastest];
                        if (std::tie(p.time_ms, p.energy_mj)
                            < std::tie(f.time_ms, f.energy_mj)) {
                            fastest = pi;
                        }
                    }
                    EXPECT_EQ(sel.indices[li], fastest) << ctx;
                }
            }
        }
    }
    // Both branches of the contract were exercised.
    EXPECT_GT(feasible_cases, 1000);
    EXPECT_GT(infeasible_cases, 100);
}

// -- selector property: the dense 2-D knapsack as a differential oracle -------

// Per-layer, per-point unit costs of the discretized selection problem.
using unit_table = std::vector<std::vector<int>>;

// The selector's former dense DP, kept verbatim as the oracle.
//
// Knapsack DP over (loss units, time units): the minimal-energy choice of
// one point per layer whose summed unit costs fit (b_total, t_total).
// Energies stay exact; ties keep the lower point index. Returns nullopt
// when no selection fits. With t_total = 0 and all-zero time costs this
// is the accuracy-only DP of the offline planner.
std::optional<std::vector<std::size_t>>
knapsack(const std::vector<layer_frontier>& frontiers,
         const unit_table& loss_units, const unit_table& time_units,
         int b_total, int t_total)
{
    const double inf = std::numeric_limits<double>::infinity();
    const std::size_t n = frontiers.size();
    const std::size_t cols = static_cast<std::size_t>(t_total) + 1;
    const std::size_t states = (static_cast<std::size_t>(b_total) + 1)
                               * cols;
    const auto state = [&](int b, int t) {
        return static_cast<std::size_t>(b) * cols
               + static_cast<std::size_t>(t);
    };
    // dp[state]: minimal energy over processed layers within (b, t) units.
    std::vector<double> dp(states, 0.0);
    std::vector<std::vector<int>> choice(n, std::vector<int>(states, -1));

    for (std::size_t li = 0; li < n; ++li) {
        const std::vector<int>& lu = loss_units[li];
        const std::vector<int>& tu = time_units[li];
        const std::size_t npts = lu.size();
        std::vector<double> ndp(states, inf);
        for (int b = 0; b <= b_total; ++b) {
            for (int t = 0; t <= t_total; ++t) {
                for (std::size_t pi = 0; pi < npts; ++pi) {
                    if (lu[pi] > b || tu[pi] > t
                        || dp[state(b - lu[pi], t - tu[pi])] == inf) {
                        continue;
                    }
                    const double e = dp[state(b - lu[pi], t - tu[pi])]
                                     + frontiers[li].points[pi].energy_mj;
                    if (e < ndp[state(b, t)]) {
                        ndp[state(b, t)] = e;
                        choice[li][state(b, t)] = static_cast<int>(pi);
                    }
                }
            }
        }
        dp = std::move(ndp);
    }

    if (dp[state(b_total, t_total)] == inf) {
        return std::nullopt;
    }

    // Reconstruct backwards from the full budgets.
    std::vector<std::size_t> picked(n, 0);
    int b = b_total;
    int t = t_total;
    for (std::size_t li = n; li-- > 0;) {
        const int pi = choice[li][state(b, t)];
        picked[li] = static_cast<std::size_t>(pi);
        b -= loss_units[li][picked[li]];
        t -= time_units[li][picked[li]];
    }
    return picked;
}

// The selector's former unit discretization around the dense DP, kept
// verbatim (default time resolution); nullopt when no selection fits.
std::optional<std::vector<std::size_t>>
dense_select(const std::vector<layer_frontier>& frontiers,
             double accuracy_budget, double latency_budget_ms,
             double resolution)
{
    const auto units = [](double cost, double res) {
        return std::max(0, static_cast<int>(std::ceil(cost / res - 1e-9)));
    };
    const int b_total =
        static_cast<int>(std::floor(accuracy_budget / resolution + 1e-9));
    const std::size_t n = frontiers.size();
    unit_table loss_units(n);
    unit_table time_units(n);
    std::int64_t min_loss_units = 0;
    for (std::size_t li = 0; li < n; ++li) {
        const std::vector<layer_frontier_point>& pts = frontiers[li].points;
        loss_units[li].resize(pts.size());
        time_units[li].assign(pts.size(), 0);
        for (std::size_t pi = 0; pi < pts.size(); ++pi) {
            loss_units[li][pi] = units(pts[pi].accuracy_loss, resolution);
        }
        min_loss_units += *std::min_element(loss_units[li].begin(),
                                            loss_units[li].end());
    }
    if (min_loss_units > b_total) {
        return std::nullopt;
    }
    int t_total = 0;
    if (latency_budget_ms > 0.0) {
        const double tres = latency_budget_ms / 256.0;
        t_total =
            static_cast<int>(std::floor(latency_budget_ms / tres + 1e-9));
        for (std::size_t li = 0; li < n; ++li) {
            for (std::size_t pi = 0; pi < time_units[li].size(); ++pi) {
                time_units[li][pi] =
                    units(frontiers[li].points[pi].time_ms, tres);
            }
        }
    }
    return knapsack(frontiers, loss_units, time_units, b_total, t_total);
}

TEST(selector_property, label_dp_picks_what_the_dense_dp_picks)
{
    // Random frontiers up to 16 layers x 9 points. Energies sit on a coarse
    // grid (ties across paths are common), and some losses and times are
    // zero, negative or exact unit multiples. Budgets reach 72 loss units;
    // the latency is either unconstrained or 0.5-5x the sum of the
    // per-layer fastest times. Indices and `feasible` must match exactly.
    const double res = 0.0025;
    pcg32 rng(23);
    const auto cost = [&](double scale) {
        switch (rng.next_u32() % 6) {
        case 0:
            return 0.0;
        case 1:
            return -rng.uniform() * scale;
        case 2:
            return static_cast<double>(rng.next_u32() % 8) * scale / 8.0;
        default:
            return rng.uniform() * scale;
        }
    };
    int feasible_cases = 0;
    int infeasible_cases = 0;
    for (int trial = 0; trial < 200; ++trial) {
        const std::size_t layers = 1 + rng.next_u32() % 16;
        std::vector<layer_frontier> fls(layers);
        double fastest_ms = 0.0;
        for (layer_frontier& lf : fls) {
            lf.layer_name = "l";
            const std::size_t pts = 1 + rng.next_u32() % 9;
            double fastest = std::numeric_limits<double>::infinity();
            for (std::size_t k = 0; k < pts; ++k) {
                layer_frontier_point p;
                p.energy_mj = 0.25 * static_cast<double>(rng.next_u32() % 9);
                p.accuracy_loss = cost(0.03);
                p.time_ms = cost(4.0);
                fastest = std::min(fastest, p.time_ms);
                lf.points.push_back(p);
            }
            fastest_ms += fastest;
        }
        for (int q = 0; q < 4; ++q) {
            const double acc_budget =
                static_cast<double>(rng.next_u32() % 73) * res;
            const double latency =
                q == 0 ? 0.0
                       : (0.5 + 4.5 * rng.uniform())
                             * std::max(fastest_ms, 0.5);
            const frontier_selection sel =
                select_frontier_points_budgeted(fls, acc_budget, latency,
                                                res);
            const std::optional<std::vector<std::size_t>> dense =
                dense_select(fls, acc_budget, latency, res);
            const std::string ctx = "trial " + std::to_string(trial)
                                    + " budget " + std::to_string(acc_budget)
                                    + " latency " + std::to_string(latency);
            ASSERT_EQ(sel.feasible, dense.has_value()) << ctx;
            if (dense) {
                ++feasible_cases;
                ASSERT_EQ(sel.indices, *dense) << ctx;
            } else {
                // The indices are then the fastest fallback, which
                // minimal_energy_over_every_fitting_selection checks.
                ++infeasible_cases;
            }
        }
    }
    // Both outcomes were exercised.
    EXPECT_GT(feasible_cases, 300);
    EXPECT_GT(infeasible_cases, 100);
}

// Runs the selector and the dense DP on one instance; their indices and
// `feasible` must match exactly. Returns whether the dense DP found a
// fitting selection.
bool picks_match_dense(const std::vector<layer_frontier>& fls,
                       double acc_budget, double latency,
                       const std::string& ctx)
{
    const double res = 0.0025;
    const frontier_selection sel =
        select_frontier_points_budgeted(fls, acc_budget, latency, res);
    const std::optional<std::vector<std::size_t>> dense =
        dense_select(fls, acc_budget, latency, res);
    EXPECT_EQ(sel.feasible, dense.has_value()) << ctx;
    if (dense && sel.feasible) {
        EXPECT_EQ(sel.indices, *dense) << ctx;
    }
    return dense.has_value();
}

TEST(selector_property, energy_bound_keeps_every_pick)
{
    // The label DP drops every label whose energy plus the later layers'
    // minimal energies exceeds a greedy feasible plan's energy. These
    // instances sit where that bound is exact, tied, zero, absent or must
    // be off; the picks must still be the dense DP's.
    const double res = 0.0025;
    pcg32 rng(31);
    int tight_cases = 0;
    int greedy_stuck_cases = 0;

    // Budgets exactly at the unit costs of the per-layer minimal-energy
    // points (lowest index): the greedy takes no swap, so the bound is the
    // optimum, and every label of an optimal path finishes exactly at it.
    // Energies on a 0.5 grid tie across paths; some layers cost nothing.
    for (int trial = 0; trial < 300; ++trial) {
        const std::size_t layers = 1 + rng.next_u32() % 12;
        std::vector<layer_frontier> fls(layers);
        int min_loss_units = 0;
        double min_time_ms = 0.0;
        for (layer_frontier& lf : fls) {
            lf.layer_name = "l";
            const bool zero_layer = rng.next_u32() % 5 == 0;
            const std::size_t pts = 1 + rng.next_u32() % 8;
            std::size_t cheapest = 0;
            for (std::size_t k = 0; k < pts; ++k) {
                layer_frontier_point p;
                p.energy_mj =
                    zero_layer
                        ? 0.0
                        : 0.5 * static_cast<double>(1 + rng.next_u32() % 4);
                p.accuracy_loss =
                    rng.next_u32() % 2 == 0
                        ? static_cast<double>(rng.next_u32() % 4) * res
                        : rng.uniform(0.0, 0.01);
                p.time_ms = rng.uniform(0.0, 4.0);
                lf.points.push_back(p);
                if (p.energy_mj < lf.points[cheapest].energy_mj) {
                    cheapest = k;
                }
            }
            min_loss_units +=
                cost_units(lf.points[cheapest].accuracy_loss, res);
            min_time_ms += lf.points[cheapest].time_ms;
        }
        const double acc_budget = min_loss_units * res;
        // Each time rounds up by under one unit of latency / 256, so twice
        // the minimal-energy time fits for up to 128 layers.
        const double latency = 2.0 * std::max(min_time_ms, 0.5);
        const std::string ctx = "tight trial " + std::to_string(trial);
        for (const double l : {0.0, latency}) {
            tight_cases += picks_match_dense(fls, acc_budget, l, ctx);
        }
        // Tighter budgets make the greedy swap before it fits.
        picks_match_dense(fls, 0.5 * acc_budget, 0.0, ctx + " half budget");
        picks_match_dense(fls, acc_budget, 0.6 * latency,
                          ctx + " short deadline");
    }
    EXPECT_EQ(tight_cases, 600);

    // A selection fits, but no single swap from the minimal-energy start
    // removes excess, so the greedy finds none and the bound is off. Unit
    // costs (loss, time) at 2 loss and 256 time units: x and y each (1, 0)
    // or (0, 128), z (1, 256) or (1, 128). The start (1, 0) x2 + (1, 256)
    // is one loss unit over; a faster z or a lossless x or y alone only
    // moves the excess to time. Every point fits with the other layers at
    // their cheapest, so none is ruled out up front. Free layers pad it.
    for (int trial = 0; trial < 50; ++trial) {
        std::vector<layer_frontier> fls;
        const auto pad = [&] {
            const std::size_t count = rng.next_u32() % 4;
            for (std::size_t i = 0; i < count; ++i) {
                fls.push_back(make_timed_frontier(
                    "pad", {{0.5 * static_cast<double>(rng.next_u32() % 3),
                             0.0, 0.0},
                            {1.5, 0.0, 0.0}}));
            }
        };
        pad();
        fls.push_back(
            make_timed_frontier("x", {{0.0, res, 0.0}, {1.0, 0.0, 2.0}}));
        pad();
        fls.push_back(
            make_timed_frontier("y", {{0.0, res, 0.0}, {1.0, 0.0, 2.0}}));
        pad();
        fls.push_back(
            make_timed_frontier("z", {{0.0, res, 4.0}, {1.0, res, 2.0}}));
        pad();
        const std::string ctx = "stuck trial " + std::to_string(trial);
        greedy_stuck_cases += picks_match_dense(fls, 2 * res, 4.0, ctx);
    }
    EXPECT_EQ(greedy_stuck_cases, 50);

    // A negative energy turns the bound off: here the layer-order sum
    // cancels to 0 (1 + 1e16 rounds to 1e16), while the first label plus
    // the rest is 1 -- a bound left on would drop the only plan.
    EXPECT_TRUE(picks_match_dense(
        {make_timed_frontier("a", {{1.0, 0.0, 0.0}}),
         make_timed_frontier("b", {{1e16, 0.0, 0.0}}),
         make_timed_frontier("c", {{-1e16, 0.0, 0.0}})},
        0.0, 0.0, "cancelling energies"));

    // Random frontiers with negative or +inf point energies mixed in.
    const double inf = std::numeric_limits<double>::infinity();
    int off_feasible = 0;
    for (int trial = 0; trial < 200; ++trial) {
        const std::size_t layers = 1 + rng.next_u32() % 10;
        std::vector<layer_frontier> fls(layers);
        for (layer_frontier& lf : fls) {
            lf.layer_name = "l";
            const std::size_t pts = 1 + rng.next_u32() % 6;
            for (std::size_t k = 0; k < pts; ++k) {
                layer_frontier_point p;
                const double grid =
                    0.5 * static_cast<double>(rng.next_u32() % 4);
                switch (rng.next_u32() % 8) {
                case 0:
                    p.energy_mj = -grid;
                    break;
                case 1:
                    p.energy_mj = inf;
                    break;
                default:
                    p.energy_mj = grid;
                }
                p.accuracy_loss = rng.uniform(0.0, 0.01);
                p.time_ms = rng.uniform(0.0, 4.0);
                lf.points.push_back(p);
            }
        }
        const double acc_budget =
            static_cast<double>(rng.next_u32() % 17) * res;
        const double latency =
            rng.next_u32() % 2 == 0 ? 0.0 : rng.uniform(1.0, 30.0);
        off_feasible +=
            picks_match_dense(fls, acc_budget, latency,
                              "bound off trial " + std::to_string(trial));
    }
    EXPECT_GT(off_feasible, 50);
}

// -- measured mode frontier ---------------------------------------------------

frontier_config small_config(unsigned threads = 0)
{
    frontier_config cfg;
    cfg.vectors = 200;
    cfg.threads = threads;
    return cfg;
}

class mode_frontier_test : public ::testing::Test {
protected:
    static const mode_frontier& mf()
    {
        static const mode_frontier m = measure_mode_frontier(
            small_config(), tech_28nm_fdsoi(),
            default_envision_calibration());
        return m;
    }
};

TEST_F(mode_frontier_test, every_point_is_feasible)
{
    const tech_model& tech = tech_28nm_fdsoi();
    const envision_calibration& cal = default_envision_calibration();
    ASSERT_FALSE(mf().points.empty());
    for (const frontier_point& p : mf().points) {
        // Chip VF floor and active-cone timing both hold.
        EXPECT_GE(p.vdd + 1e-9, cal.voltage_for_frequency(p.f_mhz))
            << p.spec.label();
        EXPECT_LE(p.crit_path_ps * tech.delay_scale(p.vdd),
                  1e6 / p.f_mhz * (1.0 + 1e-9))
            << p.spec.label();
        EXPECT_GT(p.mean_cap_ff, 0.0);
        EXPECT_GT(p.activity_divisor, 0.0);
        EXPECT_EQ(p.lanes, lane_count(p.spec.mode));
        EXPECT_EQ(p.precision_bits, p.spec.keep_bits);
    }
}

TEST_F(mode_frontier_test, nominal_reference_has_unit_divisor)
{
    ASSERT_LT(mf().nominal, mf().points.size());
    const frontier_point& nom = mf().points[mf().nominal];
    EXPECT_EQ(nom.spec.mode, sw_mode::w1x16);
    EXPECT_EQ(nom.precision_bits, 16);
    EXPECT_DOUBLE_EQ(nom.f_mhz,
                     default_envision_calibration().f_nom_mhz);
    EXPECT_DOUBLE_EQ(nom.activity_divisor, 1.0);
}

TEST_F(mode_frontier_test, reduced_precision_reduces_activity)
{
    // Activity divisors must grow monotonically as precision shrinks in
    // 1x16 (the DAS columns of Table I) and every subword mode must beat
    // full precision.
    double div16 = 0.0;
    double div4 = 0.0;
    for (const frontier_point& p : mf().points) {
        if (p.spec.mode == sw_mode::w1x16 && p.f_mhz == 200.0) {
            if (p.precision_bits == 16) {
                div16 = p.activity_divisor;
            }
            if (p.precision_bits == 4) {
                div4 = p.activity_divisor;
            }
        }
    }
    EXPECT_DOUBLE_EQ(div16, 1.0);
    EXPECT_GT(div4, 4.0); // paper Table I: k0(4b) = 12.5, measured ~8
}

TEST_F(mode_frontier_test, frontier_members_are_points)
{
    ASSERT_FALSE(mf().pareto.empty());
    for (const std::size_t pi : mf().pareto) {
        ASSERT_LT(pi, mf().points.size());
    }
    // Ascending and duplicate-free (pareto_front's contract).
    EXPECT_TRUE(std::is_sorted(mf().pareto.begin(), mf().pareto.end()));
    EXPECT_EQ(std::adjacent_find(mf().pareto.begin(), mf().pareto.end()),
              mf().pareto.end());
}

TEST(mode_frontier, bit_identical_across_thread_counts)
{
    const mode_frontier a = measure_mode_frontier(
        small_config(1), tech_28nm_fdsoi(),
        default_envision_calibration());
    const mode_frontier b = measure_mode_frontier(
        small_config(3), tech_28nm_fdsoi(),
        default_envision_calibration());
    ASSERT_EQ(a.points.size(), b.points.size());
    for (std::size_t i = 0; i < a.points.size(); ++i) {
        EXPECT_TRUE(a.points[i].spec == b.points[i].spec);
        EXPECT_EQ(a.points[i].mean_cap_ff, b.points[i].mean_cap_ff);
        EXPECT_EQ(a.points[i].crit_path_ps, b.points[i].crit_path_ps);
        EXPECT_EQ(a.points[i].vdd, b.points[i].vdd);
        EXPECT_EQ(a.points[i].activity_divisor,
                  b.points[i].activity_divisor);
    }
    EXPECT_EQ(a.pareto, b.pareto);
    EXPECT_EQ(a.nominal, b.nominal);
}

TEST(mode_frontier, rejects_bad_config)
{
    frontier_config bad = small_config();
    bad.width = 10;
    EXPECT_THROW((void)measure_mode_frontier(
                     bad, tech_28nm_fdsoi(),
                     default_envision_calibration()),
                 std::invalid_argument);
    frontier_config no_f = small_config();
    no_f.f_grid_mhz.clear();
    EXPECT_THROW((void)measure_mode_frontier(
                     no_f, tech_28nm_fdsoi(),
                     default_envision_calibration()),
                 std::invalid_argument);
}

TEST(frontier_cache, shares_one_measurement_per_key)
{
    const frontier_config cfg = small_config();
    const auto a = frontier_cache::global().get(
        cfg, tech_28nm_fdsoi(), default_envision_calibration());
    const auto b = frontier_cache::global().get(
        cfg, tech_28nm_fdsoi(), default_envision_calibration());
    EXPECT_EQ(a.get(), b.get());

    frontier_config other = cfg;
    other.vectors = 150;
    const auto c = frontier_cache::global().get(
        other, tech_28nm_fdsoi(), default_envision_calibration());
    EXPECT_NE(a.get(), c.get());

    // Thread count is not part of the identity: measurements are
    // bit-identical for any worker count, so the entry is shared.
    frontier_config threaded = cfg;
    threaded.threads = 4;
    const auto d = frontier_cache::global().get(
        threaded, tech_28nm_fdsoi(), default_envision_calibration());
    EXPECT_EQ(a.get(), d.get());
}

// The key doubles as the on-disk identity (util/disk_store.h), where a
// collision silently serves the wrong frontier. Hexfloat serialization
// makes any ULP of grid drift a distinct key; six-significant-digit
// formatting (the old bug) prints both grids below identically.
TEST(frontier_config, key_distinguishes_near_identical_grids)
{
    const tech_model& tech = tech_28nm_fdsoi();
    const envision_calibration& cal = default_envision_calibration();
    const frontier_config a = small_config();

    frontier_config b = a;
    b.f_grid_mhz.back() = std::nextafter(a.f_grid_mhz.back(), 1e9);
    EXPECT_NE(a.key(tech, cal), b.key(tech, cal));

    frontier_config c = a;
    c.vdd_grid.back() = std::nextafter(a.vdd_grid.back(), 1.0);
    EXPECT_NE(a.key(tech, cal), c.key(tech, cal));

    // Thread count is not identity (measurements are thread-invariant)...
    frontier_config t = a;
    t.threads = 7;
    EXPECT_EQ(a.key(tech, cal), t.key(tech, cal));

    // ...and the vector count is identity for the full key only: shorter
    // measurements are prefixes of longer ones, so resumable states share
    // the base key.
    frontier_config v = a;
    v.vectors += 100;
    EXPECT_NE(a.key(tech, cal), v.key(tech, cal));
    EXPECT_EQ(a.base_key(tech, cal), v.base_key(tech, cal));
}

TEST(frontier_cache, first_measurement_is_single_flight)
{
    // Hermetic: no disk store, so the only sources are measure or share.
    ::unsetenv("DVAFS_CACHE_DIR");
    frontier_cache cache;
    const frontier_config cfg = small_config();
    constexpr int callers = 4;
    std::shared_ptr<const mode_frontier> got[callers];
    std::vector<std::thread> threads;
    threads.reserve(callers);
    for (int t = 0; t < callers; ++t) {
        threads.emplace_back([&cache, &cfg, &got, t] {
            got[t] = cache.get(cfg, tech_28nm_fdsoi(),
                               default_envision_calibration());
        });
    }
    for (std::thread& th : threads) {
        th.join();
    }
    for (int t = 0; t < callers; ++t) {
        ASSERT_NE(got[t], nullptr) << "caller " << t;
        EXPECT_EQ(got[0].get(), got[t].get()) << "caller " << t;
    }
    // Concurrent first callers block on one in-flight measurement instead
    // of duplicating the gate-level sweep.
    EXPECT_EQ(cache.stats().measured, 1u);
    EXPECT_EQ(cache.stats().extended, 0u);
}

TEST(frontier_cache, growing_vectors_extends_the_cached_state)
{
    ::unsetenv("DVAFS_CACHE_DIR");
    frontier_cache cache;
    const frontier_config short_cfg = small_config(); // 200 vectors
    frontier_config long_cfg = short_cfg;
    long_cfg.vectors = 400;

    (void)cache.get(short_cfg, tech_28nm_fdsoi(),
                    default_envision_calibration());
    const auto extended = cache.get(long_cfg, tech_28nm_fdsoi(),
                                    default_envision_calibration());
    EXPECT_EQ(cache.stats().measured, 1u);
    EXPECT_EQ(cache.stats().extended, 1u);

    // The extension must be bit-identical to measuring 400 vectors from
    // scratch: same points, same Pareto set, same doubles.
    const mode_frontier fresh = measure_mode_frontier(
        long_cfg, tech_28nm_fdsoi(), default_envision_calibration());
    ASSERT_EQ(extended->points.size(), fresh.points.size());
    for (std::size_t i = 0; i < fresh.points.size(); ++i) {
        const frontier_point& p = extended->points[i];
        const frontier_point& q = fresh.points[i];
        EXPECT_TRUE(p.spec == q.spec) << "point " << i;
        EXPECT_EQ(p.vdd, q.vdd) << "point " << i;
        EXPECT_EQ(p.f_mhz, q.f_mhz) << "point " << i;
        EXPECT_EQ(p.lanes, q.lanes) << "point " << i;
        EXPECT_EQ(p.precision_bits, q.precision_bits) << "point " << i;
        EXPECT_EQ(p.mean_cap_ff, q.mean_cap_ff) << "point " << i;
        EXPECT_EQ(p.crit_path_ps, q.crit_path_ps) << "point " << i;
        EXPECT_EQ(p.activity_divisor, q.activity_divisor)
            << "point " << i;
    }
    EXPECT_EQ(extended->pareto, fresh.pareto);
    EXPECT_EQ(extended->nominal, fresh.nominal);
}

} // namespace
} // namespace dvafs
