#include "core/planner.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <optional>
#include <stdexcept>

namespace dvafs {

const char* to_string(plan_policy p) noexcept
{
    switch (p) {
    case plan_policy::heuristic: return "heuristic";
    case plan_policy::heuristic_measured: return "heuristic-measured";
    case plan_policy::frontier_search: return "frontier-search";
    }
    return "?";
}

namespace {

int clamp_bits(int bits, int width)
{
    return std::max(1, std::min(bits, width));
}

layer_plan make_layer_plan(const layer_workload& w, const layer_run& lr)
{
    layer_plan lp;
    lp.layer_name = lr.name;
    lp.weight_bits = w.weight_bits;
    lp.input_bits = w.input_bits;
    lp.mode = lr.mode;
    lp.report = lr.report;
    lp.power_mw = lr.report.power_mw;
    lp.energy_mj = lr.energy_mj;
    lp.time_ms = lr.time_ms;
    return lp;
}

// Shared by the offline frontier_search path and the streaming
// plan_from_frontiers: runs the layer at the selected frontier point and
// reports the data-contract precision actually scheduled (the requirement
// clamped to the point's usable bits).
layer_plan assemble_frontier_layer(const layer_runner& runner,
                                   const layer_workload& w,
                                   const layer_frontier_point& p)
{
    const layer_run lr = runner.run_layer(w, p.mode, p.activity_divisor);
    layer_plan lp = make_layer_plan(w, lr);
    lp.weight_bits = std::min(w.weight_bits,
                              std::max(1, p.spec.keep_bits));
    lp.input_bits = std::min(w.input_bits, std::max(1, p.spec.keep_bits));
    lp.point = p.spec;
    lp.activity_divisor = p.activity_divisor;
    lp.accuracy_loss = p.accuracy_loss;
    return lp;
}

} // namespace

network_plan precision_planner::plan(const network& net,
                                     const quant_sweep_config& cfg) const
{
    const teacher_dataset data = make_teacher_dataset(net, cfg);
    // One evaluator serves the sweep, the joint refinement and the
    // sparsity statistics: its float-activation cache is shared across all
    // three (sweeps only recompute the perturbed suffix; see
    // cnn/quant_analysis.h).
    const batch_evaluator eval(net, data, cfg.threads);
    const std::vector<layer_quant_requirement> reqs =
        eval.refine(eval.sweep(cfg), cfg);
    const std::vector<layer_sparsity> sparsity = eval.sparsity();
    return plan_internal(net, reqs, sparsity, &data, cfg.threads,
                         cfg.compute);
}

network_plan precision_planner::plan_with_requirements(
    const network& net, const std::vector<layer_quant_requirement>& reqs,
    const std::vector<layer_sparsity>& sparsity) const
{
    return plan_internal(net, reqs, sparsity, nullptr);
}

network_plan precision_planner::plan_from_frontiers(
    const network& net, const std::vector<layer_quant_requirement>& reqs,
    const std::vector<layer_sparsity>& sparsity,
    const std::vector<layer_frontier>& frontiers, double accuracy_budget,
    double latency_budget_ms) const
{
    const std::vector<layer_workload> workloads =
        build_workloads(net, reqs, sparsity);
    if (frontiers.size() != workloads.size()) {
        throw std::invalid_argument(
            "precision_planner: frontier count mismatch");
    }

    network_plan np;
    np.network_name = net.name();
    np.policy = plan_policy::frontier_search;
    np.accuracy_budget = accuracy_budget;
    np.latency_budget_ms = latency_budget_ms;

    const frontier_selection sel = select_frontier_points_budgeted(
        frontiers, accuracy_budget, latency_budget_ms,
        cfg_.budget_resolution);
    np.planned_accuracy_loss = sel.accuracy_loss;
    np.deadline_met = sel.feasible;

    for (std::size_t k = 0; k < frontiers.size(); ++k) {
        np.layers.push_back(assemble_frontier_layer(
            runner_, workloads[k], frontiers[k].points[sel.indices[k]]));
    }

    finish_plan(np, workloads);
    if (latency_budget_ms > 0.0 && np.total_time_ms > latency_budget_ms) {
        np.deadline_met = false;
    }
    return np;
}

std::shared_ptr<const mode_frontier> precision_planner::frontier() const
{
    // The planner's precision requirements, subword packing and lane
    // arithmetic all speak the Envision 16-bit word; a narrower frontier
    // would silently under-schedule layers (a 16 b requirement "met" by an
    // 8 b grid), so reject it outright.
    if (cfg_.frontier.width != 16) {
        throw std::invalid_argument(
            "precision_planner: frontier width must be 16");
    }
    return frontier_cache::global().get(
        cfg_.frontier, tech_28nm_fdsoi(), runner_.model().calibration());
}

std::vector<layer_workload> precision_planner::build_workloads(
    const network& net, const std::vector<layer_quant_requirement>& reqs,
    const std::vector<layer_sparsity>& sparsity, compute_mode compute) const
{
    std::vector<layer_workload> workloads = extract_workloads(net);
    if (workloads.size() != reqs.size()) {
        throw std::invalid_argument(
            "precision_planner: requirement count mismatch");
    }
    for (std::size_t i = 0; i < workloads.size(); ++i) {
        workloads[i].weight_bits = reqs[i].min_weight_bits;
        workloads[i].input_bits = reqs[i].min_input_bits;
        workloads[i].compute = compute;
        if (i < sparsity.size()) {
            workloads[i].weight_sparsity = sparsity[i].weight_sparsity;
            workloads[i].input_sparsity = sparsity[i].input_sparsity;
        }
    }
    return workloads;
}

std::vector<layer_frontier> precision_planner::layer_frontiers(
    const network& net, const std::vector<layer_quant_requirement>& reqs,
    const std::vector<layer_sparsity>& sparsity,
    const teacher_dataset* data, unsigned threads) const
{
    return layer_frontiers_from_workloads(
        net, reqs, build_workloads(net, reqs, sparsity), data, nullptr,
        threads);
}

std::vector<layer_frontier>
precision_planner::layer_frontiers_from_workloads(
    const network& net, const std::vector<layer_quant_requirement>& reqs,
    const std::vector<layer_workload>& workloads,
    const teacher_dataset* data, double* acc_ref_out,
    unsigned threads, compute_mode compute) const
{
    const std::shared_ptr<const mode_frontier> mf = frontier();
    const bool price_accuracy =
        data != nullptr && cfg_.accuracy_budget > 0.0;
    // The downgrade probes all share the requirement configuration as
    // their prefix: an evaluator based at the requirements overlay only
    // recomputes each probed layer's suffix (and its base-accuracy pass
    // doubles as the reference probe).
    std::optional<batch_evaluator> eval;
    if (price_accuracy) {
        eval.emplace(bound_network(net, requirements_overlay(net, reqs,
                                                             compute)),
                     *data, threads);
    }
    const double acc_ref =
        price_accuracy ? eval->accuracy(eval->base()) : 1.0;
    if (acc_ref_out != nullptr && price_accuracy) {
        *acc_ref_out = acc_ref;
    }

    std::vector<layer_frontier> out;
    for (std::size_t k = 0; k < workloads.size(); ++k) {
        const layer_workload& w = workloads[k];
        layer_frontier lf;
        lf.layer_name = w.name;
        lf.layer_index = reqs[k].layer_index;
        lf.required_bits = clamp_bits(
            std::max(w.weight_bits, w.input_bits), mf->config.width);

        // Measured accuracy loss per candidate precision below the layer's
        // requirement: downgrade only this layer, joint probe on the
        // teacher dataset. Cached per precision (several grid points share
        // one precision).
        std::map<int, double> loss_at;
        const auto loss_for = [&](int precision) {
            const auto it = loss_at.find(precision);
            if (it != loss_at.end()) {
                return it->second;
            }
            std::vector<layer_quant_requirement> probe = reqs;
            probe[k].min_weight_bits =
                std::min(probe[k].min_weight_bits, precision);
            probe[k].min_input_bits =
                std::min(probe[k].min_input_bits, precision);
            const double loss = std::max(
                0.0,
                acc_ref
                    - eval->accuracy(
                        requirements_overlay(net, probe, compute)));
            loss_at.emplace(precision, loss);
            return loss;
        };

        std::vector<layer_frontier_point> candidates;
        for (const std::size_t pi : mf->pareto) {
            const frontier_point& p = mf->points[pi];
            // The integer engine bounds the datapath: an i8 layer's
            // operands are 8-bit codes at most, so operating points on
            // wider lanes describe arithmetic that engine never executes.
            if (lane_bits(p.spec.mode) > repr_bits(w.compute)) {
                continue;
            }
            double loss = 0.0;
            if (p.precision_bits < lf.required_bits) {
                if (!price_accuracy) {
                    continue;
                }
                loss = loss_for(p.precision_bits);
            }
            const envision_mode m = runner_.select_mode(w, p);
            const layer_run lr =
                runner_.run_layer(w, m, p.activity_divisor);
            layer_frontier_point c;
            c.mode_point = pi;
            c.spec = p.spec;
            c.activity_divisor = p.activity_divisor;
            c.mode = m;
            c.energy_mj = lr.energy_mj;
            c.time_ms = lr.time_ms;
            c.accuracy_loss = loss;
            candidates.push_back(c);
        }
        if (candidates.empty()) {
            // Degenerate grid without any narrow-lane point: fall back to
            // the unfiltered set rather than hand the DP an empty
            // frontier (the plan is then conservative, not broken).
            for (const std::size_t pi : mf->pareto) {
                const frontier_point& p = mf->points[pi];
                if (p.precision_bits < lf.required_bits) {
                    continue;
                }
                const envision_mode m = runner_.select_mode(w, p);
                const layer_run lr =
                    runner_.run_layer(w, m, p.activity_divisor);
                layer_frontier_point c;
                c.mode_point = pi;
                c.spec = p.spec;
                c.activity_divisor = p.activity_divisor;
                c.mode = m;
                c.energy_mj = lr.energy_mj;
                c.time_ms = lr.time_ms;
                candidates.push_back(c);
            }
        }

        // Per-layer Pareto prune over (energy, accuracy loss) -- plus
        // runtime when the config keeps the time criterion for the
        // streaming re-plan DP -- then order by energy for the DP's
        // stable tie-breaks.
        std::vector<std::vector<double>> criteria;
        criteria.reserve(candidates.size());
        for (const layer_frontier_point& c : candidates) {
            if (cfg_.time_pareto) {
                criteria.push_back(
                    {c.energy_mj, c.accuracy_loss, c.time_ms});
            } else {
                criteria.push_back({c.energy_mj, c.accuracy_loss});
            }
        }
        std::vector<std::size_t> front = pareto_front(criteria);
        std::sort(front.begin(), front.end(),
                  [&](std::size_t a, std::size_t b) {
                      if (candidates[a].energy_mj
                          != candidates[b].energy_mj) {
                          return candidates[a].energy_mj
                                 < candidates[b].energy_mj;
                      }
                      return a < b;
                  });
        for (const std::size_t idx : front) {
            lf.points.push_back(candidates[idx]);
        }
        out.push_back(std::move(lf));
    }
    return out;
}

network_plan precision_planner::plan_internal(
    const network& net, const std::vector<layer_quant_requirement>& reqs,
    const std::vector<layer_sparsity>& sparsity,
    const teacher_dataset* data, unsigned threads,
    compute_mode compute) const
{
    const std::vector<layer_workload> workloads =
        build_workloads(net, reqs, sparsity, compute);
    // Joint accuracy at the requirements, when a frontier pass measures it
    // anyway (NaN = not measured).
    double acc_ref = std::numeric_limits<double>::quiet_NaN();

    network_plan np;
    np.network_name = net.name();
    np.policy = cfg_.policy;
    np.accuracy_budget =
        cfg_.policy == plan_policy::frontier_search && data != nullptr
            ? cfg_.accuracy_budget
            : 0.0;

    switch (cfg_.policy) {
    case plan_policy::heuristic: {
        for (const layer_workload& w : workloads) {
            np.layers.push_back(make_layer_plan(w, runner_.run_layer(w)));
        }
        break;
    }
    case plan_policy::heuristic_measured: {
        const std::shared_ptr<const mode_frontier> mf = frontier();
        const int q = mf->config.width / 4;
        for (const layer_workload& w : workloads) {
            envision_mode m = runner_.select_mode(w);
            // The measured analog of the heuristic's operating point: same
            // mode and clock, keep_bits the smallest quarter-word multiple
            // covering the layer's precision need.
            const int lane = lane_bits(m.mode);
            const int need = clamp_bits(
                std::max(w.weight_bits, w.input_bits), lane);
            const int keep = std::min(lane, ((need + q - 1) / q) * q);
            const frontier_point* best = nullptr;
            for (const frontier_point& p : mf->points) {
                if (p.spec.mode == m.mode && p.precision_bits == keep
                    && p.f_mhz == m.f_mhz
                    && (best == nullptr || p.vdd < best->vdd)) {
                    best = &p;
                }
            }
            if (best == nullptr) {
                // Grid without the heuristic's point: closed-form fallback.
                np.layers.push_back(
                    make_layer_plan(w, runner_.run_layer(w, m)));
                continue;
            }
            m.vdd = best->vdd;
            const layer_run lr =
                runner_.run_layer(w, m, best->activity_divisor);
            layer_plan lp = make_layer_plan(w, lr);
            lp.point = best->spec;
            lp.activity_divisor = best->activity_divisor;
            np.layers.push_back(lp);
        }
        break;
    }
    case plan_policy::frontier_search: {
        const std::vector<layer_frontier> fls =
            layer_frontiers_from_workloads(net, reqs, workloads, data,
                                           &acc_ref, threads, compute);
        const frontier_selection sel = select_frontier_points_budgeted(
            fls, np.accuracy_budget, 0.0, cfg_.budget_resolution);
        if (!sel.feasible) {
            // Offline there is no previous plan to keep serving: an
            // unmeetable budget is the caller's error, not a fallback.
            throw std::invalid_argument(
                "precision_planner: no selection meets the accuracy "
                "budget");
        }
        for (std::size_t k = 0; k < fls.size(); ++k) {
            np.layers.push_back(assemble_frontier_layer(
                runner_, workloads[k], fls[k].points[sel.indices[k]]));
        }
        break;
    }
    }

    if (data != nullptr) {
        // Joint accuracy at the scheduled bits; reuses the frontier pass's
        // reference probe when no layer was downgraded (the configurations
        // are then identical).
        std::vector<layer_quant_requirement> effective = reqs;
        bool downgraded = false;
        for (std::size_t k = 0; k < np.layers.size(); ++k) {
            downgraded |=
                np.layers[k].weight_bits != effective[k].min_weight_bits
                || np.layers[k].input_bits != effective[k].min_input_bits;
            effective[k].min_weight_bits = np.layers[k].weight_bits;
            effective[k].min_input_bits = np.layers[k].input_bits;
        }
        np.relative_accuracy =
            !downgraded && !std::isnan(acc_ref)
                ? acc_ref
                : requirements_accuracy(net, effective, *data, threads,
                                        compute);
    }

    finish_plan(np, workloads);
    return np;
}

void precision_planner::finish_plan(
    network_plan& np, const std::vector<layer_workload>& workloads) const
{
    double total_mmacs = 0.0;
    for (std::size_t i = 0; i < workloads.size(); ++i) {
        total_mmacs += static_cast<double>(workloads[i].macs) * 1e-6;
        np.total_energy_mj += np.layers[i].energy_mj;
        np.total_time_ms += np.layers[i].time_ms;
    }
    const network_metrics m = derive_network_metrics(
        total_mmacs, np.total_time_ms, np.total_energy_mj);
    np.fps = m.fps;
    np.avg_power_mw = m.avg_power_mw;
    np.tops_per_w = m.tops_per_w;

    // 16-bit baseline: same workloads, full precision, no mode scaling
    // (sparsity levels kept -- they are workload facts). At 16 b the
    // measured activity divisor is 1 by construction, so the closed-form
    // baseline is shared by every policy and savings factors compare.
    std::vector<layer_workload> base = workloads;
    for (layer_workload& w : base) {
        w.weight_bits = 16;
        w.input_bits = 16;
    }
    const network_run base_run =
        runner_.run_network(np.network_name, base);
    np.baseline_energy_mj = base_run.total_energy_mj;
    np.savings_factor = np.total_energy_mj > 0.0
                            ? np.baseline_energy_mj / np.total_energy_mj
                            : 1.0;
}

} // namespace dvafs
