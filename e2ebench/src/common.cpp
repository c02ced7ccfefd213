#include "bench.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <numeric>
#include <utility>

#include <sys/resource.h>

namespace e2e {

namespace fs = std::filesystem;

double ms_since(clock_type::time_point t0)
{
    return std::chrono::duration<double, std::milli>(clock_type::now() - t0)
        .count();
}

void outcome::fail(const std::string& why)
{
    ++failed_;
    if (reasons_.size() < 20) {
        reasons_.push_back(why);
    }
}

// -- sample statistics --------------------------------------------------------

double median(std::vector<double> v)
{
    return percentile(std::move(v), 0.5);
}

double percentile(std::vector<double> v, double p)
{
    if (v.empty()) {
        return 0.0;
    }
    std::sort(v.begin(), v.end());
    const double pos = p * static_cast<double>(v.size() - 1);
    const auto lo = static_cast<std::size_t>(std::floor(pos));
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double mean(const std::vector<double>& v)
{
    return v.empty() ? 0.0
                     : std::accumulate(v.begin(), v.end(), 0.0)
                           / static_cast<double>(v.size());
}

double peak_rss_mb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // ru_maxrss is KiB
}

void add_latency_metrics(result& r, const std::vector<double>& op_ms,
                         const std::string& op_name)
{
    const double total_ms = std::accumulate(op_ms.begin(), op_ms.end(), 0.0);
    const double ops = static_cast<double>(op_ms.size());
    r.set("host.ops_per_s", total_ms > 0.0 ? ops * 1000.0 / total_ms : 0.0,
          "1/s");
    r.set("host.op_p50_ms", percentile(op_ms, 0.50), "ms");
    r.set("host.op_p99_ms", percentile(op_ms, 0.99), "ms");
    std::string quantiles;
    for (const double p : {0.0, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0}) {
        quantiles += " " + std::to_string(percentile(op_ms, p));
    }
    r.notes.push_back("timed part: " + std::to_string(op_ms.size()) + " "
                      + op_name + " samples; ms at min/p25/p50/p75/p90/p99/"
                      + "max:" + quantiles);
}

// -- span tracer --------------------------------------------------------------

tracer::scope::scope(tracer& t, int name) : t_(t)
{
    index_ = static_cast<int>(t_.spans_.size());
    t_.spans_.push_back({name, t_.now_us(), 0.0, t_.open_});
    t_.open_ = index_;
}

tracer::scope::~scope()
{
    span& s = t_.spans_[static_cast<std::size_t>(index_)];
    s.t1_us = t_.now_us();
    t_.open_ = s.parent;
}

double tracer::now_us() const
{
    return std::chrono::duration<double, std::micro>(clock_type::now()
                                                     - epoch_)
        .count();
}

int tracer::id(const std::string& name)
{
    const auto it = ids_.find(name);
    if (it != ids_.end()) {
        return it->second;
    }
    names_.push_back(name);
    return ids_[name] = static_cast<int>(names_.size() - 1);
}

std::map<std::string, tracer::totals> tracer::by_name() const
{
    std::vector<double> child_us(spans_.size(), 0.0);
    for (const span& s : spans_) {
        if (s.parent >= 0) {
            child_us[static_cast<std::size_t>(s.parent)] += s.t1_us - s.t0_us;
        }
    }
    std::map<std::string, totals> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const span& s = spans_[i];
        totals& t = out[names_[static_cast<std::size_t>(s.name)]];
        ++t.count;
        t.total_ms += (s.t1_us - s.t0_us) / 1000.0;
        t.self_ms += (s.t1_us - s.t0_us - child_us[i]) / 1000.0;
    }
    return out;
}

double tracer::covered_ms(const std::string& root) const
{
    const auto it = ids_.find(root);
    if (it == ids_.end()) {
        return 0.0;
    }
    double us = 0.0;
    for (const span& s : spans_) {
        if (s.parent >= 0
            && spans_[static_cast<std::size_t>(s.parent)].name == it->second
            && spans_[static_cast<std::size_t>(s.parent)].parent < 0) {
            us += s.t1_us - s.t0_us;
        }
    }
    return us / 1000.0;
}

double tracer::root_ms(const std::string& root) const
{
    const auto it = ids_.find(root);
    double us = 0.0;
    for (const span& s : spans_) {
        if (it != ids_.end() && s.parent < 0 && s.name == it->second) {
            us += s.t1_us - s.t0_us;
        }
    }
    return us / 1000.0;
}

bool tracer::write_chrome(const std::string& path) const
{
    std::ofstream os(path);
    os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const span& s = spans_[i];
        os << (i ? ",\n" : "\n") << "{\"name\":\""
           << names_[static_cast<std::size_t>(s.name)]
           << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":" << s.t0_us
           << ",\"dur\":" << (s.t1_us - s.t0_us) << ",\"args\":{\"id\":" << i
           << ",\"parent\":" << s.parent << "}}";
    }
    os << "\n]}\n";
    return static_cast<bool>(os);
}

void add_span_mean(result& r, const tracer& t, const std::string& span_name,
                   const std::string& metric_name)
{
    const auto all = t.by_name();
    const auto it = all.find(span_name);
    r.set(metric_name,
          it == all.end() ? 0.0
                          : it->second.total_ms
                                / static_cast<double>(it->second.count),
          "ms");
}

// -- networks, caches ---------------------------------------------------------

std::vector<network> make_zoo_networks()
{
    std::vector<network> nets;
    nets.push_back(make_lenet5({.seed = 2017}));
    nets.push_back(make_alexnet_scaled({.seed = 2017}));
    nets.push_back(make_vgg16_scaled({.seed = 2017}));
    return nets;
}

std::string slug(const network& net)
{
    // Alphanumerics lower-cased; a '-' becomes '_' before a letter and
    // is dropped before a digit.
    const std::string& n = net.name();
    std::string s;
    for (std::size_t i = 0; i < n.size(); ++i) {
        const auto c = static_cast<unsigned char>(n[i]);
        if (std::isalnum(c)) {
            s += static_cast<char>(std::tolower(c));
        } else if (i + 1 < n.size()
                   && std::isalpha(static_cast<unsigned char>(n[i + 1]))) {
            s += '_';
        }
    }
    return s;
}

governor_config bench_governor_config(unsigned threads)
{
    governor_config g;
    g.sweep.images = 12;
    g.sweep.max_bits = 10;
    g.sweep.threads = threads;
    g.frontier.threads = threads;
    return g;
}

void warm_process_caches(const governor_config& cfg,
                         const envision_model& model)
{
    frontier_cache::global().get(cfg.frontier, tech_28nm_fdsoi(),
                                 model.calibration());
}

scoped_cache_dir::scoped_cache_dir(const std::string& dir) : dir_(dir)
{
    fs::remove_all(dir_);
    fs::create_directories(dir_);
    ::setenv("DVAFS_CACHE_DIR", dir_.c_str(), 1);
}

scoped_cache_dir::~scoped_cache_dir()
{
    ::unsetenv("DVAFS_CACHE_DIR");
    std::error_code ec;
    fs::remove_all(dir_, ec);
}

disk_fault disk_recorder::on_disk_op(disk_op o, const std::string& kind,
                                     const std::string& key)
{
    const std::lock_guard<std::mutex> lock(mu_);
    ops_.push_back({o, kind, key});
    return disk_fault::none;
}

std::vector<disk_recorder::op> disk_recorder::take()
{
    const std::lock_guard<std::mutex> lock(mu_);
    return std::exchange(ops_, {});
}

namespace {

bool same_point(const layer_frontier_point& a, const layer_frontier_point& b)
{
    return a.mode_point == b.mode_point && a.spec.mode == b.spec.mode
           && a.spec.keep_bits == b.spec.keep_bits && a.spec.vdd == b.spec.vdd
           && a.spec.f_mhz == b.spec.f_mhz
           && a.activity_divisor == b.activity_divisor
           && a.mode.mode == b.mode.mode
           && a.mode.weight_bits == b.mode.weight_bits
           && a.mode.input_bits == b.mode.input_bits
           && a.mode.f_mhz == b.mode.f_mhz && a.mode.vdd == b.mode.vdd
           && a.mode.weight_sparsity == b.mode.weight_sparsity
           && a.mode.input_sparsity == b.mode.input_sparsity
           && a.energy_mj == b.energy_mj && a.time_ms == b.time_ms
           && a.accuracy_loss == b.accuracy_loss;
}

} // namespace

bool same_plan(const network_plan& a, const network_plan& b)
{
    if (a.layers.size() != b.layers.size()
        || a.total_energy_mj != b.total_energy_mj
        || a.total_time_ms != b.total_time_ms
        || a.deadline_met != b.deadline_met
        || a.planned_accuracy_loss != b.planned_accuracy_loss) {
        return false;
    }
    for (std::size_t i = 0; i < a.layers.size(); ++i) {
        const layer_plan& x = a.layers[i];
        const layer_plan& y = b.layers[i];
        if (x.weight_bits != y.weight_bits || x.input_bits != y.input_bits
            || x.point.mode != y.point.mode
            || x.point.keep_bits != y.point.keep_bits
            || x.point.vdd != y.point.vdd || x.point.f_mhz != y.point.f_mhz
            || x.energy_mj != y.energy_mj || x.time_ms != y.time_ms) {
            return false;
        }
    }
    return true;
}

bool same_state(const adaptive_governor::network_state& a,
                const adaptive_governor::network_state& b)
{
    if (a.reference_accuracy != b.reference_accuracy
        || a.reqs.size() != b.reqs.size()
        || a.sparsity.size() != b.sparsity.size()
        || a.frontiers.size() != b.frontiers.size()
        || !same_plan(a.fallback, b.fallback)) {
        return false;
    }
    for (std::size_t i = 0; i < a.reqs.size(); ++i) {
        if (a.reqs[i].layer_name != b.reqs[i].layer_name
            || a.reqs[i].layer_index != b.reqs[i].layer_index
            || a.reqs[i].min_weight_bits != b.reqs[i].min_weight_bits
            || a.reqs[i].min_input_bits != b.reqs[i].min_input_bits) {
            return false;
        }
    }
    for (std::size_t i = 0; i < a.sparsity.size(); ++i) {
        if (a.sparsity[i].layer_name != b.sparsity[i].layer_name
            || a.sparsity[i].weight_sparsity != b.sparsity[i].weight_sparsity
            || a.sparsity[i].input_sparsity != b.sparsity[i].input_sparsity) {
            return false;
        }
    }
    for (std::size_t i = 0; i < a.frontiers.size(); ++i) {
        const layer_frontier& x = a.frontiers[i];
        const layer_frontier& y = b.frontiers[i];
        if (x.layer_name != y.layer_name || x.layer_index != y.layer_index
            || x.required_bits != y.required_bits
            || x.points.size() != y.points.size()) {
            return false;
        }
        for (std::size_t p = 0; p < x.points.size(); ++p) {
            if (!same_point(x.points[p], y.points[p])) {
                return false;
            }
        }
    }
    return true;
}

// -- admission replay ---------------------------------------------------------

planner_config search_planner_config(const governor_config& cfg)
{
    planner_config pc;
    pc.policy = plan_policy::frontier_search;
    pc.accuracy_budget = 1.0;
    pc.budget_resolution = cfg.budget_resolution;
    pc.time_pareto = true;
    pc.frontier = cfg.frontier;
    return pc;
}

planner_config boot_planner_config(const governor_config& cfg)
{
    planner_config pc;
    pc.policy = plan_policy::heuristic_measured;
    pc.frontier = cfg.frontier;
    return pc;
}

adaptive_governor::network_state
replay_admission(tracer& t, const network& net, const governor_config& cfg,
                 const envision_model& model)
{
    const std::string s = slug(net);
    const auto root = t("runtime.prepare." + s);
    adaptive_governor::network_state st;
    st.net = &net;
    st.depth = net.depth();
    st.total_macs = net.total_macs();
    {
        const auto sp = t("cnn." + s + ".teacher_dataset");
        st.data = make_teacher_dataset(net, cfg.sweep);
    }
    const batch_evaluator eval(net, st.data, cfg.sweep.threads);
    std::vector<layer_quant_requirement> swept;
    {
        const auto sp = t("cnn." + s + ".sweep");
        swept = eval.sweep(cfg.sweep);
    }
    {
        const auto sp = t("cnn." + s + ".refine");
        st.reqs = eval.refine(std::move(swept), cfg.sweep);
    }
    {
        const auto sp = t("cnn." + s + ".sparsity");
        st.sparsity = eval.sparsity();
    }
    {
        const auto sp = t("cnn." + s + ".ref_accuracy");
        st.reference_accuracy = requirements_accuracy(
            net, st.reqs, st.data, cfg.sweep.threads);
    }
    {
        const auto sp = t("core." + s + ".layer_frontiers");
        const precision_planner planner(model, search_planner_config(cfg));
        st.frontiers =
            planner.layer_frontiers(net, st.reqs, st.sparsity, &st.data);
    }
    {
        const auto sp = t("core." + s + ".boot_plan");
        const precision_planner boot(model, boot_planner_config(cfg));
        st.fallback = boot.plan_with_requirements(net, st.reqs, st.sparsity);
    }
    return st;
}

void attribution_probes(tracer& t, const adaptive_governor& gov,
                        const std::vector<decision>& decisions,
                        const governor_config& cfg,
                        const envision_model& model)
{
    const auto root = t("attribution");
    {
        const auto sp = t("core.frontier_get");
        frontier_cache::global().get(cfg.frontier, tech_28nm_fdsoi(),
                                     model.calibration());
    }
    {
        // Cold gate-level measurement: a private cache with no disk store.
        const char* dir = std::getenv("DVAFS_CACHE_DIR");
        const std::string saved = dir ? dir : "";
        ::unsetenv("DVAFS_CACHE_DIR");
        frontier_cache cold;
        {
            const auto sp = t("sim.frontier_measure");
            cold.get(cfg.frontier, tech_28nm_fdsoi(), model.calibration());
        }
        if (!saved.empty()) {
            ::setenv("DVAFS_CACHE_DIR", saved.c_str(), 1);
        }
    }
    const precision_planner planner(model, search_planner_config(cfg));
    adaptive_governor probe_gov = gov; // prepare() on a copy never mutates gov
    const int dp = t.id("core.dp");
    const int pff = t.id("core.plan_from_frontiers");
    const std::size_t stride = std::max<std::size_t>(1, decisions.size() / 2000);
    for (std::size_t i = 0; i < decisions.size(); i += stride) {
        const decision& d = decisions[i];
        const auto& st = probe_gov.prepare(*d.net);
        {
            const auto sp = t(dp);
            select_frontier_points_budgeted(st.frontiers, d.accuracy_budget,
                                            d.latency_budget_ms,
                                            cfg.budget_resolution);
        }
        {
            const auto sp = t(pff);
            planner.plan_from_frontiers(*d.net, st.reqs, st.sparsity,
                                        st.frontiers, d.accuracy_budget,
                                        d.latency_budget_ms);
        }
    }
}

void add_common_trace_metrics(result& r, const tracer& t)
{
    const std::vector<std::string> all_nets = {"lenet5", "alexnet_s",
                                               "vgg16_s"};
    for (const std::string& s : all_nets) {
        add_span_mean(r, t, "runtime.prepare." + s, "runtime.prepare_ms." + s);
        for (const char* stage : {"teacher_dataset", "sweep", "refine",
                                  "sparsity", "ref_accuracy"}) {
            add_span_mean(r, t, "cnn." + s + "." + stage,
                          "cnn." + s + "." + stage + "_ms");
        }
        for (const char* stage : {"layer_frontiers", "boot_plan"}) {
            add_span_mean(r, t, "core." + s + "." + stage,
                          "core." + s + "." + stage + "_ms");
        }
    }
    for (const char* name :
         {"core.frontier_get", "sim.frontier_measure", "core.dp",
          "core.plan_from_frontiers", "analysis.verify_plan",
          "runtime.replan", "runtime.replan_valve", "runtime.escalate",
          "util.disk.load"}) {
        add_span_mean(r, t, name, std::string(name) + "_ms");
    }
    const frontier_cache::cache_stats fc = frontier_cache::global().stats();
    const double fc_gets = static_cast<double>(fc.hits + fc.disk_hits
                                               + fc.extended + fc.measured);
    r.set("core.frontier_cache.hit_ratio",
          fc_gets > 0.0 ? static_cast<double>(fc.hits) / fc_gets : 0.0,
          "ratio");
    const compiled_netlist_cache::cache_stats cc =
        compiled_netlist_cache::global().stats();
    const double cc_gets =
        static_cast<double>(cc.hits + cc.disk_hits + cc.compiles);
    r.set("circuit.netlist_cache.hit_ratio",
          cc_gets > 0.0 ? static_cast<double>(cc.hits) / cc_gets : 0.0,
          "ratio");
}

void add_coverage_metrics(result& r, const tracer& t, const std::string& root,
                          double untraced_ms)
{
    const double covered = t.covered_ms(root);
    const double replay = t.root_ms(root);
    r.set("trace.coverage", untraced_ms > 0.0 ? covered / untraced_ms : 0.0,
          "ratio");
    r.set("trace.overhead_frac",
          untraced_ms > 0.0 ? (replay - untraced_ms) / untraced_ms : 0.0,
          "ratio");
    r.notes.push_back("trace: replay " + std::to_string(replay)
                      + " ms, spans cover " + std::to_string(covered)
                      + " ms, untraced " + std::to_string(untraced_ms)
                      + " ms");
}

} // namespace e2e
