#include "runtime/adaptive_governor.h"

#include "runtime/wallclock.h"
#include "util/disk_store.h"
#include "util/serial.h"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <optional>
#include <sstream>
#include <stdexcept>

namespace dvafs {

namespace {

planner_config search_config(const governor_config& cfg)
{
    planner_config pc;
    pc.policy = plan_policy::frontier_search;
    // The frontiers are priced for *any* phase budget up front (points
    // below a layer's requirement carry their measured loss); each re-plan
    // DP then constrains by the phase's own budget.
    pc.accuracy_budget = 1.0;
    pc.budget_resolution = cfg.budget_resolution;
    pc.time_pareto = true;
    pc.frontier = cfg.frontier;
    return pc;
}

planner_config boot_config(const governor_config& cfg)
{
    planner_config pc;
    pc.policy = plan_policy::heuristic_measured;
    pc.frontier = cfg.frontier;
    return pc;
}

// FNV-1a over each weighted layer's count and a head sample of its
// weights: cheap even for the full-topology zoo networks, and any seed
// or pruning difference perturbs the very first values.
std::uint64_t weight_digest_of(const network& net)
{
    std::uint64_t h = 1469598103934665603ULL;
    const auto mix = [&h](std::uint64_t v) {
        for (int b = 0; b < 8; ++b) {
            h ^= (v >> (8 * b)) & 0xffU;
            h *= 1099511628211ULL;
        }
    };
    for (const std::size_t li : net.weighted_layers()) {
        const std::vector<float>* w = net.at(li).weights();
        if (w == nullptr) {
            continue;
        }
        mix(w->size());
        const std::size_t sample = std::min<std::size_t>(w->size(), 64);
        for (std::size_t i = 0; i < sample; ++i) {
            std::uint32_t bits;
            static_assert(sizeof(bits) == sizeof(float));
            std::memcpy(&bits, &(*w)[i], sizeof(bits));
            mix(bits);
        }
    }
    return h;
}

// -- teacher-sweep persistence ------------------------------------------------
//
// The once-per-network prepare (quantization sweep + joint refinement +
// accuracy-priced layer frontiers) dominates cold-start-to-first-replan,
// and its result depends only on the network fingerprint, the sweep
// config and the measured mode frontier -- all captured in the key below,
// so a fleet of planner processes shares one sweep through DVAFS_CACHE_DIR.
// The escalate() path deliberately never stores: drift-escalated
// requirements are a per-process response, not the network's baseline.

constexpr std::uint32_t teacher_blob_version = 1;

std::string teacher_key(const network& net, std::size_t depth,
                        std::uint64_t macs, std::uint64_t digest,
                        const governor_config& cfg,
                        const std::string& frontier_key)
{
    std::ostringstream os;
    os << std::hexfloat;
    os << "net:" << net.name() << "|d" << depth << "|m" << macs << "|w"
       << digest << "|img" << cfg.sweep.images << "|acc"
       << cfg.sweep.target_accuracy << "|mb" << cfg.sweep.max_bits << "|s"
       << cfg.sweep.seed << "|c" << to_string(cfg.sweep.compute) << "|res"
       << cfg.budget_resolution
       << "|fr:" << frontier_key;
    return os.str();
}

constexpr auto walk_teacher = [](auto& ar, auto& st) {
    ar.f64(st.reference_accuracy);
    ar.seq(st.reqs, [](auto& a, auto& r) {
        a.str(r.layer_name);
        a.u64(r.layer_index);
        a.i64(r.min_weight_bits);
        a.i64(r.min_input_bits);
    });
    ar.seq(st.sparsity, [](auto& a, auto& s) {
        a.str(s.layer_name);
        a.f64(s.weight_sparsity);
        a.f64(s.input_sparsity);
    });
    ar.seq(st.frontiers, [](auto& a, auto& f) {
        a.str(f.layer_name);
        a.u64(f.layer_index);
        a.i64(f.required_bits);
        a.seq(f.points, [](auto& b, auto& p) {
            b.u64(p.mode_point);
            walk_spec(b, p.spec);
            b.f64(p.activity_divisor);
            b.enum8(p.mode.mode, sw_mode::w4x4);
            b.i64(p.mode.weight_bits);
            b.i64(p.mode.input_bits);
            b.f64(p.mode.f_mhz);
            b.f64(p.mode.vdd);
            b.f64(p.mode.weight_sparsity);
            b.f64(p.mode.input_sparsity);
            b.f64(p.energy_mj);
            b.f64(p.time_ms);
            b.f64(p.accuracy_loss);
        });
    });
};

} // namespace

std::vector<std::uint8_t>
serialize_teacher(const adaptive_governor::network_state& st)
{
    return encode_blob(teacher_blob_version, st, walk_teacher);
}

bool deserialize_teacher(const std::vector<std::uint8_t>& blob,
                         std::size_t expected_layers,
                         adaptive_governor::network_state& st)
{
    if (!decode_blob(blob, teacher_blob_version, st, walk_teacher)
        || st.reqs.size() != expected_layers
        || st.sparsity.size() != expected_layers
        || st.frontiers.size() != expected_layers) {
        return false;
    }
    return std::none_of(
        st.frontiers.begin(), st.frontiers.end(),
        [](const layer_frontier& f) { return f.points.empty(); });
}

const char* to_string(replan_reason r) noexcept
{
    switch (r) {
    case replan_reason::startup: return "startup";
    case replan_reason::phase_change: return "phase-change";
    case replan_reason::drift: return "drift";
    case replan_reason::shed: return "shed";
    case replan_reason::recover: return "recover";
    }
    return "?";
}

adaptive_governor::adaptive_governor(const envision_model& model,
                                     governor_config cfg)
    : model_(model), cfg_(cfg), planner_(model_, search_config(cfg_)),
      boot_planner_(model_, boot_config(cfg_))
{
}

bool adaptive_governor::prepared(const network& net) const
{
    return states_.find(net.name()) != states_.end();
}

adaptive_governor::network_state&
adaptive_governor::prepare_mutable(const network& net)
{
    const auto it = states_.find(net.name());
    if (it != states_.end()) {
        // State is keyed by name so a governor survives its networks
        // being rebuilt between runs (same seeds => same network). Guard
        // against a *different* network reusing the name with the
        // fingerprint captured at prepare time -- on every new version
        // stamp, not just on a new address: the cached pointer may dangle
        // and a freed block can be reused, so address identity proves
        // nothing, while a stamp is never issued twice.
        network_state& st = it->second;
        if (st.verified_version != net.version()) {
            if (st.depth != net.depth()
                || st.total_macs != net.total_macs()
                || st.weight_digest != weight_digest_of(net)) {
                throw std::invalid_argument(
                    "adaptive_governor: two different networks named "
                    + net.name());
            }
            st.verified_version = net.version();
        }
        st.net = &net;
        return st;
    }

    network_state st;
    st.net = &net;
    st.verified_version = net.version();
    st.depth = net.depth();
    st.total_macs = net.total_macs();
    st.weight_digest = weight_digest_of(net);
    // The dataset is always rebuilt (deterministic from net + seed, cheap
    // relative to the sweep) -- escalation and drift probing need it live.
    st.data = make_teacher_dataset(net, cfg_.sweep);

    const disk_store store = disk_store::from_env();
    const std::string key = teacher_key(
        net, st.depth, st.total_macs, st.weight_digest, cfg_,
        cfg_.frontier.key(tech_28nm_fdsoi(), model_.calibration()));
    const std::size_t layers = net.weighted_layers().size();
    bool warm = false;
    if (store.enabled()) {
        if (const auto blob = store.load("teacher", key)) {
            warm = deserialize_teacher(*blob, layers, st);
        }
    }
    if (!warm) {
        const batch_evaluator eval(net, st.data, cfg_.sweep.threads);
        st.reqs = eval.refine(eval.sweep(cfg_.sweep), cfg_.sweep);
        st.sparsity = eval.sparsity();
        st.reference_accuracy = requirements_accuracy(net, st.reqs, st.data,
                                                      cfg_.sweep.threads);
        rebuild_frontiers(st);
        if (store.enabled()) {
            store.store("teacher", key, serialize_teacher(st));
        }
    }
    // The boot fallback is a cheap heuristic plan (the frontier cache is
    // warm by now either way); recomputing it, and the plan basis, keeps
    // the blob independent of planner internals.
    st.fallback = boot_planner_.plan_with_requirements(net, st.reqs,
                                                       st.sparsity);
    st.basis = planner_.basis(net, st.reqs, st.sparsity);
    return states_.emplace(net.name(), std::move(st)).first->second;
}

const adaptive_governor::network_state&
adaptive_governor::prepare(const network& net)
{
    return prepare_mutable(net);
}

void adaptive_governor::rebuild_frontiers(network_state& st)
{
    st.frontiers = planner_.layer_frontiers(*st.net, st.reqs, st.sparsity,
                                            &st.data, cfg_.sweep.threads);
}

double adaptive_governor::effective_budget(const network& net,
                                           const scenario_phase& ph) const
{
    const auto it = budget_override_.find(net.name() + "/" + ph.name);
    return it != budget_override_.end()
               ? std::min(it->second, ph.accuracy_budget)
               : ph.accuracy_budget;
}

replan_event adaptive_governor::replan_with(const network& net,
                                            replan_reason reason,
                                            std::uint64_t frame,
                                            double accuracy_budget,
                                            double latency_budget_ms)
{
    const auto t0 = std::chrono::steady_clock::now();
    const network_state& st = prepare(net);
    replan_event ev;
    ev.reason = reason;
    ev.plan_version = ++version_;
    ev.frame = frame;
    ev.accuracy_budget = accuracy_budget;
    ev.latency_budget_ms = latency_budget_ms;
    ev.plan = planner_.plan_from_frontiers(st.basis, st.frontiers,
                                           accuracy_budget,
                                           latency_budget_ms);
    ev.planning_ms = elapsed_ms_since(t0);
    return ev;
}

replan_event adaptive_governor::replan(const network& net,
                                       const scenario_phase& ph,
                                       replan_reason reason,
                                       std::uint64_t frame)
{
    return replan_with(net, reason, frame, effective_budget(net, ph),
                       1000.0 / ph.target_fps);
}

replan_event adaptive_governor::replan_valve(const network& net,
                                             const scenario_phase& ph,
                                             replan_reason reason,
                                             std::uint64_t frame,
                                             int level, double budget_step,
                                             double latency_budget_ms)
{
    if (level < 0 || budget_step < 0.0 || latency_budget_ms <= 0.0) {
        throw std::invalid_argument(
            "adaptive_governor::replan_valve: bad level/step/latency");
    }
    // The shed allowance rides on top of whatever the drift path already
    // tightened the phase budget to -- the two controls compose: drift
    // says "spend less accuracy overall", the valve says "spend this much
    // more *right now* to stay feasible under the live deadline".
    const double budget = std::min(
        1.0, effective_budget(net, ph) + level * budget_step);
    replan_event ev =
        replan_with(net, reason, frame, budget, latency_budget_ms);
    ev.valve_level = level;
    return ev;
}

replan_event adaptive_governor::escalate(const network& net,
                                         const scenario_phase& ph,
                                         std::uint64_t frame)
{
    const auto t0 = std::chrono::steady_clock::now();
    network_state& st = prepare_mutable(net);
    const std::string key = net.name() + "/" + ph.name;
    const double cur = effective_budget(net, ph);
    bool rebuilt = false;
    bool stale = false;
    if (cur >= cfg_.budget_resolution) {
        // Stage one: spend less accuracy. Below one DP resolution step a
        // budget is indistinguishable from zero, so floor it.
        const double next = cur / 2.0;
        budget_override_[key] =
            next >= cfg_.budget_resolution ? next : 0.0;
    } else {
        // Stage two: the requirements themselves underestimate the live
        // stream -- raise every layer by one bit and re-price the cached
        // frontiers. Bounded: bits cap at the frontier width, and once
        // every requirement is saturated there is nothing left to buy, so
        // skip the (expensive) rebuild instead of re-measuring a no-op
        // and flag the plan stale: repeated escalation under permanent
        // drift converges here -- zero budget, saturated requirements --
        // and must neither loop the rebuild nor underflow the budget.
        const int width = cfg_.frontier.width;
        bool changed = false;
        for (layer_quant_requirement& r : st.reqs) {
            changed |= r.min_weight_bits < width || r.min_input_bits < width;
            r.min_weight_bits = std::min(width, r.min_weight_bits + 1);
            r.min_input_bits = std::min(width, r.min_input_bits + 1);
        }
        if (changed) {
            rebuild_frontiers(st);
            st.reference_accuracy = requirements_accuracy(
                net, st.reqs, st.data, cfg_.sweep.threads);
            st.fallback = boot_planner_.plan_with_requirements(
                net, st.reqs, st.sparsity);
            st.basis = planner_.basis(net, st.reqs, st.sparsity);
            rebuilt = true;
        } else {
            stale = true;
        }
    }
    replan_event ev = replan(net, ph, replan_reason::drift, frame);
    ev.rebuilt_frontiers = rebuilt;
    ev.plan_stale = stale;
    ev.planning_ms = elapsed_ms_since(t0);
    return ev;
}

} // namespace dvafs
