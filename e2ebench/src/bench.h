// Shared pieces of the end-to-end benchmark: options, outcome bookkeeping,
// sample statistics, the span tracer and the admission replay that every
// workload's traced run starts with.
//
// The timed (untraced) runs call the library's public entry points only;
// the traced runs replay the recorded inputs through the lower-level public
// calls those entry points are made of, with a span around each call.
// Nothing inside src/ is instrumented.

#pragma once

#include "analysis/plan_verifier.h"
#include "core/dvafs.h"

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace e2e {

using namespace dvafs;
using clock_type = std::chrono::steady_clock;

double ms_since(clock_type::time_point t0);

struct options {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    unsigned threads = 1;    // stream, sweep and frontier workers
    bool tiny = false;       // smallest sizes (the benchmark's own test)
    bool corrupt = false;    // tamper one output before the checks (test)
    std::string out_dir;     // trace files and private cache dirs
};

// Operations attempted and failed, with the first few failure reasons.
class outcome {
public:
    void attempt(std::uint64_t n = 1) { attempted_ += n; }
    void fail(const std::string& why);
    // Counts one attempted operation; a false `ok` counts it failed.
    bool check(bool ok, const std::string& why)
    {
        attempt();
        if (!ok) {
            fail(why);
        }
        return ok;
    }
    std::uint64_t attempted() const noexcept { return attempted_; }
    std::uint64_t failed() const noexcept { return failed_; }
    const std::vector<std::string>& reasons() const noexcept
    {
        return reasons_;
    }

private:
    std::uint64_t attempted_ = 0;
    std::uint64_t failed_ = 0;
    std::vector<std::string> reasons_;
};

struct metric {
    double value = 0.0;
    std::string unit;
};

struct result {
    std::map<std::string, metric> metrics;
    outcome ops;
    std::vector<std::string> notes; // printed lines (sample counts etc.)

    void set(const std::string& name, double value, const std::string& unit)
    {
        metrics[name] = {value, unit};
    }
};

// -- sample statistics --------------------------------------------------------

double median(std::vector<double> v);
// Linear interpolation between closest ranks, p in [0, 1].
double percentile(std::vector<double> v, double p);
double mean(const std::vector<double>& v);
double peak_rss_mb();

// Records the host timing metrics of a timed part from its per-operation
// latencies: operations per second of summed sample time, p50 and p99
// (the sample count and more quantiles go to a note).
void add_latency_metrics(result& r, const std::vector<double>& op_ms,
                         const std::string& op_name);

// -- span tracer --------------------------------------------------------------

// In-memory spans (name, start, end, parent) from the benchmark's own
// thread. Self time is a span's duration minus its direct children's.
class tracer {
public:
    struct span {
        int name = 0;   // interned name id
        double t0_us = 0.0;
        double t1_us = 0.0;
        int parent = -1;
    };

    class scope {
    public:
        scope(tracer& t, int name);
        ~scope();
        scope(const scope&) = delete;
        scope& operator=(const scope&) = delete;

    private:
        tracer& t_;
        int index_;
    };

    tracer() : epoch_(clock_type::now()) {}

    int id(const std::string& name);
    scope operator()(int name) { return scope(*this, name); }
    scope operator()(const std::string& name) { return scope(*this, id(name)); }

    struct totals {
        std::uint64_t count = 0;
        double total_ms = 0.0;
        double self_ms = 0.0;
    };
    std::map<std::string, totals> by_name() const;
    // Summed duration of the children of root spans named `root`.
    double covered_ms(const std::string& root) const;
    double root_ms(const std::string& root) const;

    bool write_chrome(const std::string& path) const;

private:
    double now_us() const;

    clock_type::time_point epoch_;
    std::vector<std::string> names_;
    std::map<std::string, int> ids_;
    std::vector<span> spans_;
    int open_ = -1;
};

// Mean inclusive time per call of `span_name` as `metric_name` (0 when the
// span never ran in this workload).
void add_span_mean(result& r, const tracer& t, const std::string& span_name,
                   const std::string& metric_name);

// -- networks, caches ---------------------------------------------------------

// The two planner configurations adaptive_governor builds its planners
// from: the frontier DP over time-aware frontiers priced at any budget,
// and the heuristic boot planner on measured divisors.
planner_config search_planner_config(const governor_config& cfg);
planner_config boot_planner_config(const governor_config& cfg);

// LeNet-5, AlexNet-S and VGG16-S with the zoo's default seed, freshly
// built (so no layer weight cache is warm).
std::vector<network> make_zoo_networks();

// Metric-safe network name: "LeNet-5" -> "lenet5", "VGG16-S" -> "vgg16_s".
std::string slug(const network& net);

// Measures the process-wide gate-level mode frontier once, before any
// timing: admissions in a long-running process find it cached, and the
// traced runs measure it separately (sim.frontier_measure_ms).
void warm_process_caches(const governor_config& cfg,
                         const envision_model& model);

// Governor configuration of every workload: the streaming benches' teacher
// sweep (12 images, at most 10 bits) with all worker counts pinned to
// `threads`.
governor_config bench_governor_config(unsigned threads);

// An empty private DVAFS_CACHE_DIR under the output directory for the
// object's lifetime; restores "unset" and removes the directory after.
class scoped_cache_dir {
public:
    explicit scoped_cache_dir(const std::string& dir);
    ~scoped_cache_dir();
    scoped_cache_dir(const scoped_cache_dir&) = delete;
    scoped_cache_dir& operator=(const scoped_cache_dir&) = delete;
    const std::string& dir() const noexcept { return dir_; }

private:
    std::string dir_;
};

// Records the (op, kind, key) of every disk-store attempt; injects nothing.
// The keys let the traced run replay the same loads and stores through the
// public disk_store API, and let the tamper test find a stored entry.
class disk_recorder final : public disk_fault_hook {
public:
    struct op {
        disk_op kind_op;
        std::string kind;
        std::string key;
    };
    disk_fault on_disk_op(disk_op o, const std::string& kind,
                          const std::string& key) override;
    std::vector<op> take();

private:
    std::mutex mu_;
    std::vector<op> ops_;
};

// Field-by-field bit identity of two admitted planning states (reqs,
// sparsity, frontiers, reference accuracy, boot plan totals).
bool same_state(const adaptive_governor::network_state& a,
                const adaptive_governor::network_state& b);
// Bit identity of two plans' per-layer choices and roll-ups.
bool same_plan(const network_plan& a, const network_plan& b);

// Replays adaptive_governor::prepare's admission stages for `net` through
// their public calls, one span per stage; the root of the spans is
// `runtime.prepare.<slug>`.
adaptive_governor::network_state
replay_admission(tracer& t, const network& net, const governor_config& cfg,
                 const envision_model& model);

// Timing-attribution probes run after a replay (kept out of coverage):
// the frontier cache lookup, a cold gate-level frontier measurement on a
// private cache, and the DP alone vs the whole frontier plan for a sample
// of decisions.
struct decision {
    const network* net = nullptr;
    double accuracy_budget = 0.0;
    double latency_budget_ms = 0.0;
};
void attribution_probes(tracer& t, const adaptive_governor& gov,
                        const std::vector<decision>& decisions,
                        const governor_config& cfg,
                        const envision_model& model);

// Per-layer metrics every traced run reports from its tracer and the
// process-wide cache counters.
void add_common_trace_metrics(result& r, const tracer& t);
// trace.coverage / trace.overhead_frac from the replay root and the
// untraced wall time of the same work.
void add_coverage_metrics(result& r, const tracer& t, const std::string& root,
                          double untraced_ms);

// -- workloads ----------------------------------------------------------------

result run_serve(const options& opt);
result run_admit(const options& opt);
result run_replan(const options& opt);

} // namespace e2e
