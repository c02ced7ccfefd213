// Heuristic vs measured-Pareto-frontier planning on the network zoo.
//
// For each network the three planner policies run at an equal accuracy
// budget (zero: every layer meets its precision requirement exactly):
//  * heuristic           -- PR 1's three-mode rule, closed-form k-model
//  * heuristic-measured  -- same mode choices, energy re-accounted with
//                          the gate-level measured activity divisors
//  * frontier-search     -- DP over the measured per-layer Pareto
//                          frontiers (subword mode x voltage x frequency)
// The searched plan must beat the heuristic plan under the shared measured
// accounting (the apples-to-apples comparison); the closed-form heuristic
// row is printed for reference against PR 1. Exits non-zero when the
// searched plan fails to win on every network.
//
// LeNet-5 runs the full pipeline (teacher dataset + quantization sweep);
// AlexNet and VGG16 use Table III-style published precision/sparsity
// profiles on the full topologies, isolating the planning policy.
//
// Last, the re-plan DP alone: select_frontier_points_budgeted per call on
// the governor's priced frontiers of the runtime zoo (LeNet-5, AlexNet-S,
// VGG16-S) over a fixed budget x deadline grid (records replan_dp.*).
// Its timings go to stderr, so stdout stays byte-identical across runs.

#include "core/dvafs.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <iostream>
#include <limits>

using namespace dvafs;

namespace {

struct req_profile {
    int wbits;
    int ibits;
    double sp_w;
    double sp_in;
};

std::pair<std::vector<layer_quant_requirement>,
          std::vector<layer_sparsity>>
make_requirements(const network& net,
                  const std::vector<req_profile>& profile)
{
    const std::vector<layer_workload> ws = extract_workloads(net);
    const std::vector<std::size_t> weighted = net.weighted_layers();
    std::vector<layer_quant_requirement> reqs;
    std::vector<layer_sparsity> sp;
    for (std::size_t i = 0; i < ws.size(); ++i) {
        const req_profile& p = profile.at(i);
        layer_quant_requirement r;
        r.layer_name = ws[i].name;
        r.layer_index = weighted.at(i);
        r.min_weight_bits = p.wbits;
        r.min_input_bits = p.ibits;
        reqs.push_back(r);
        layer_sparsity s;
        s.layer_name = ws[i].name;
        s.weight_sparsity = p.sp_w;
        s.input_sparsity = p.sp_in;
        sp.push_back(s);
    }
    return {reqs, sp};
}

void print_plan(const network_plan& np)
{
    ascii_table t({"layer", "wght[b]", "in[b]", "point", "div",
                   "P[mW]", "E[uJ]", "t[ms]"});
    for (const layer_plan& lp : np.layers) {
        t.add_row({lp.layer_name, std::to_string(lp.weight_bits),
                   std::to_string(lp.input_bits),
                   lp.point.f_mhz > 0.0 ? lp.point.label()
                                        : "closed-form " + std::string(
                                              to_string(lp.mode.mode)),
                   lp.activity_divisor > 0.0
                       ? fmt_fixed(lp.activity_divisor, 2)
                       : "-",
                   fmt_fixed(lp.power_mw, 2),
                   fmt_fixed(lp.energy_mj * 1e3, 3),
                   fmt_fixed(lp.time_ms, 4)});
    }
    t.print(std::cout);
    std::cout << "  total " << fmt_fixed(np.total_energy_mj * 1e3, 3)
              << " uJ/frame, baseline "
              << fmt_fixed(np.baseline_energy_mj * 1e3, 3)
              << " uJ, savings " << fmt_fixed(np.savings_factor, 2)
              << "x, " << fmt_fixed(np.fps, 1) << " fps, "
              << fmt_fixed(np.tops_per_w, 2) << " TOPS/W\n\n";
}

// Runs the three policies on one requirement set; returns true when the
// searched plan beats the heuristic under the measured accounting.
bool compare_policies(const network& net,
                      const std::vector<layer_quant_requirement>& reqs,
                      const std::vector<layer_sparsity>& sp,
                      bench_reporter& report)
{
    const envision_model model;
    network_plan plans[3];
    for (const plan_policy policy :
         {plan_policy::heuristic, plan_policy::heuristic_measured,
          plan_policy::frontier_search}) {
        planner_config cfg;
        cfg.policy = policy;
        const precision_planner planner(model, cfg);
        const network_plan np =
            planner.plan_with_requirements(net, reqs, sp);
        plans[static_cast<int>(policy)] = np;
        std::cout << to_string(policy) << ":\n";
        print_plan(np);
    }
    const double heur =
        plans[static_cast<int>(plan_policy::heuristic_measured)]
            .total_energy_mj;
    const double searched =
        plans[static_cast<int>(plan_policy::frontier_search)]
            .total_energy_mj;
    std::cout << net.name() << ": searched/heuristic (measured accounting) "
              << fmt_percent(searched / heur, 1) << " ("
              << fmt_fixed(heur / searched, 2) << "x better)\n\n";
    report.add(net.name() + ".heuristic_measured_uj", heur * 1e3, "uJ");
    report.add(net.name() + ".frontier_search_uj", searched * 1e3, "uJ");
    report.add(net.name() + ".searched_vs_heuristic", heur / searched,
               "x");
    report.add(net.name() + ".savings_factor",
               plans[static_cast<int>(plan_policy::frontier_search)]
                   .savings_factor,
               "x");
    return searched < heur;
}

// Times select_frontier_points_budgeted alone on the governor's frontiers
// of the runtime zoo. The grid follows e2ebench `replan`: five accuracy
// budgets x five deadline stretches above 1.1x the fastest zero-loss
// selection, each also under the overload valve's four shed levels
// (+0.02 budget each) x three shrunken deadlines. The grid repeats; every
// call is timed on its own.
void time_replan_dp(bench_reporter& report)
{
    governor_config gcfg;
    gcfg.sweep.images = 12;
    gcfg.sweep.max_bits = 10;
    const envision_model model;
    adaptive_governor gov(model, gcfg);
    std::vector<network> nets;
    nets.push_back(make_lenet5({.seed = 2017}));
    nets.push_back(make_alexnet_scaled({.seed = 2017}));
    nets.push_back(make_vgg16_scaled({.seed = 2017}));
    struct dp_call {
        const std::vector<layer_frontier>* frontiers;
        double budget;
        double latency_ms;
    };
    std::vector<dp_call> calls;
    for (const network& net : nets) {
        const std::vector<layer_frontier>& fls = gov.prepare(net).frontiers;
        double t_fast = 0.0;
        for (const layer_frontier& lf : fls) {
            double fastest = std::numeric_limits<double>::infinity();
            for (const layer_frontier_point& p : lf.points) {
                if (p.accuracy_loss == 0.0) {
                    fastest = std::min(fastest, p.time_ms);
                }
            }
            t_fast += fastest;
        }
        const double floor_ms = 1.1 * t_fast;
        for (const double b : {0.0, 0.01, 0.02, 0.05, 0.10}) {
            const double t_free =
                select_frontier_points_budgeted(fls, b, 0.0).time_ms;
            for (const double s : {0.0, 0.25, 0.5, 1.0, 2.0}) {
                const double latency =
                    floor_ms + s * std::max(0.0, t_free - t_fast);
                calls.push_back({&fls, b, latency});
                for (int level = 1; level <= 4; ++level) {
                    for (const double shrink : {0.5, 0.75, 0.9}) {
                        calls.push_back(
                            {&fls, std::min(1.0, b + 0.02 * level),
                             std::max(floor_ms, latency * shrink)});
                    }
                }
            }
        }
    }

    const double resolution = gcfg.budget_resolution;
    const int reps = 20;
    std::vector<double> ms;
    ms.reserve(calls.size() * reps);
    int feasible = 0;
    for (int rep = 0; rep < reps; ++rep) {
        for (const dp_call& c : calls) {
            const auto t0 = std::chrono::steady_clock::now();
            const frontier_selection sel = select_frontier_points_budgeted(
                *c.frontiers, c.budget, c.latency_ms, resolution);
            ms.push_back(std::chrono::duration<double, std::milli>(
                             std::chrono::steady_clock::now() - t0)
                             .count());
            feasible += rep == 0 && sel.feasible;
        }
    }
    std::sort(ms.begin(), ms.end());
    const auto at = [&](double q) {
        return ms[static_cast<std::size_t>(
            std::floor(q * static_cast<double>(ms.size() - 1)))];
    };
    std::cout << "re-plan DP: " << calls.size() << " grid calls on "
              << nets.size() << " networks, " << feasible
              << " feasible, timed " << reps << "x (stderr)\n";
    std::cerr << "re-plan DP per call: p50 " << fmt_fixed(at(0.5), 4)
              << " ms, p99 " << fmt_fixed(at(0.99), 4) << " ms over "
              << ms.size() << " calls\n";
    report.add("replan_dp.p50_ms", at(0.5), "ms");
    report.add("replan_dp.p99_ms", at(0.99), "ms");
}

} // namespace

int main(int argc, char** argv)
{
    bench_reporter report("pareto_planner", argc, argv);
    int wins = 0;
    int networks = 0;

    print_banner(std::cout, "LeNet-5 -- full pipeline (teacher sweep + "
                            "measured frontier search)");
    {
        const network net = make_lenet5({.seed = 4});
        quant_sweep_config qcfg;
        qcfg.images = 12;
        qcfg.max_bits = 10;
        const envision_model model;
        const teacher_dataset data = make_teacher_dataset(net, qcfg);
        const auto reqs = refine_requirements(
            net, sweep_layer_precision(net, data, qcfg), data, qcfg);
        const auto sp = measure_sparsity(net, data);
        ++networks;
        wins += compare_policies(net, reqs, sp, report);
    }

    print_banner(std::cout, "AlexNet (full topology) -- Table III "
                            "precision/sparsity profile");
    {
        const network net = make_alexnet_full();
        // Conv profile from Table III (groups expanded); fc layers at the
        // Fig. 6 AlexNet requirement ballpark.
        const auto [reqs, sp] = make_requirements(
            net, {{7, 4, 0.21, 0.29},
                  {7, 7, 0.19, 0.89},
                  {8, 9, 0.11, 0.82},
                  {9, 8, 0.04, 0.72},
                  {9, 8, 0.04, 0.72},
                  {6, 6, 0.30, 0.70},
                  {6, 6, 0.30, 0.70},
                  {7, 7, 0.25, 0.60}});
        ++networks;
        wins += compare_policies(net, reqs, sp, report);
    }

    print_banner(std::cout, "VGG16 (full topology) -- Table III "
                            "precision/sparsity profile");
    {
        const network net = make_vgg16_full();
        std::vector<req_profile> profile;
        const std::vector<layer_workload> ws =
            extract_workloads(net);
        for (std::size_t i = 0; i < ws.size(); ++i) {
            // VGG1 at 5/4 bits, the VGG2-13 group at 5/6 (Table III), the
            // fc layers at 6/6.
            if (i == 0) {
                profile.push_back({5, 4, 0.05, 0.10});
            } else if (ws[i].is_conv) {
                profile.push_back({5, 6, 0.50, 0.56});
            } else {
                profile.push_back({6, 6, 0.35, 0.60});
            }
        }
        const auto [reqs, sp] = make_requirements(net, profile);
        ++networks;
        wins += compare_policies(net, reqs, sp, report);
    }

    std::cout << "searched plan wins on " << wins << "/" << networks
              << " networks at equal accuracy budget\n\n";
    report.add("searched_wins", wins, "networks");

    print_banner(std::cout, "Re-plan DP alone -- runtime zoo frontiers, "
                            "e2ebench replan-shaped grid");
    time_replan_dp(report);
    if (!report.write()) {
        return 4;
    }
    if (wins == 0) {
        std::cerr << "FAIL: frontier search never beat the heuristic\n";
        return 1;
    }
    return 0;
}
