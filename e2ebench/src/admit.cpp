// `admit`: the "plan a new network" path. Set-up is a cold
// adaptive_governor::prepare of LeNet-5, AlexNet-S and VGG16-S against an
// empty private DVAFS_CACHE_DIR, which stores every teacher sweep; the
// timed part re-admits the three networks in fresh governors that read
// what the cold pass stored. So util/disk_store is used both ways, and
// there is no frame loop. The networks and their teacher sets are fixed,
// so every seed admits the same work; the seed orders the networks of each
// warm pass. The cold order is fixed because it sets the peak heap.

#include "bench.h"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <optional>

namespace e2e {

namespace {

struct admit_sizes {
    int setup_reps = 3;
    int min_passes = 3;
};

// A seeded admission order of `n` networks.
std::vector<std::size_t> shuffled(std::size_t n, pcg32& rng)
{
    std::vector<std::size_t> order(n);
    for (std::size_t i = 0; i < n; ++i) {
        order[i] = i;
    }
    for (std::size_t i = n; i > 1; --i) {
        std::swap(order[i - 1], order[rng.next_u32() % i]);
    }
    return order;
}

// Flips one payload byte of a stored entry: the store's checksum must
// catch it, so the warm admission misses and the checks fail.
void tamper(const std::string& path)
{
    std::ifstream in(path, std::ios::binary);
    std::vector<char> bytes((std::istreambuf_iterator<char>(in)),
                            std::istreambuf_iterator<char>());
    in.close();
    if (bytes.empty()) {
        return;
    }
    bytes[bytes.size() / 2] ^= 0x5a;
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

} // namespace

result run_admit(const options& opt)
{
    result r;
    admit_sizes z;
    if (opt.tiny) {
        z = {.setup_reps = 1, .min_passes = 1};
    }
    if (opt.trace) {
        z.min_passes = 1;
    }
    const governor_config gcfg = bench_governor_config(opt.threads);
    pcg32 rng(opt.seed);
    const envision_model model;
    warm_process_caches(gcfg, model);
    disk_recorder recorder;
    const scoped_disk_fault_hook hook(&recorder);

    // Set-up: cold admissions of freshly built networks, each into its own
    // empty cache dir; the last one's networks, dir and states serve the
    // warm passes.
    std::vector<double> cold_s;
    std::vector<network> nets;
    std::unique_ptr<scoped_cache_dir> cold_dir;
    std::optional<adaptive_governor> cold;
    std::vector<std::string> teacher_keys; // per network
    const disk_store_stats before_cold = disk_store::stats();
    for (int rep = 0; rep < z.setup_reps; ++rep) {
        cold.reset();
        cold_dir.reset();
        cold_dir = std::make_unique<scoped_cache_dir>(
            opt.out_dir + "/cache/admit-" + std::to_string(rep));
        nets = make_zoo_networks();
        cold.emplace(model, gcfg);
        recorder.take();
        const auto t0 = clock_type::now();
        for (const network& net : nets) {
            cold->prepare(net);
        }
        cold_s.push_back(ms_since(t0) / 1000.0);
        teacher_keys.clear();
        for (const disk_recorder::op& o : recorder.take()) {
            if (o.kind_op == disk_op::store && o.kind == "teacher") {
                teacher_keys.push_back(o.key);
            }
        }
        const std::size_t stored = teacher_keys.size();
        r.ops.check(stored == nets.size(),
                    "admit: the cold pass did not store one teacher entry "
                    "per network");
    }
    r.set("setup_s", median(cold_s), "s");
    const disk_store store(cold_dir->dir());
    if (opt.corrupt) {
        tamper(store.path_for("teacher", teacher_keys.back()));
    }

    // Timed part: warm re-admissions in fresh governors.
    std::vector<double> warm_ms;
    std::vector<std::vector<std::size_t>> warm_orders;
    std::uint64_t warm_loads = 0;
    std::uint64_t warm_hits = 0;
    const auto start = clock_type::now();
    while (static_cast<int>(warm_ms.size()) < z.min_passes
           || ms_since(start) < opt.seconds * 1000.0) {
        warm_orders.push_back(shuffled(nets.size(), rng));
        const disk_store_stats s0 = disk_store::stats();
        adaptive_governor warm(model, gcfg);
        const auto t0 = clock_type::now();
        for (const std::size_t i : warm_orders.back()) {
            warm.prepare(nets[i]);
        }
        warm_ms.push_back(ms_since(t0));
        const disk_store_stats s1 = disk_store::stats();
        warm_loads += s1.loads - s0.loads;
        warm_hits += s1.hits - s0.hits;
        r.ops.check(s1.loads - s0.loads == nets.size()
                        && s1.hits - s0.hits == nets.size()
                        && s1.quarantined == s0.quarantined,
                    "admit: a warm admission was not served from the store");
        for (const network& net : nets) {
            r.ops.check(same_state(warm.prepare(net), cold->prepare(net)),
                        "admit: warm state of " + net.name()
                            + " differs from the cold one");
        }
    }
    add_latency_metrics(r, warm_ms, "warm three-network admission");

    // Modeled quantities of what was admitted: each network's first plan
    // at a zero budget and 30 fps, and its joint reference accuracy.
    {
        adaptive_governor scratch = *cold;
        scenario_phase ph;
        ph.name = "admit";
        ph.target_fps = 30.0;
        std::vector<double> uj;
        std::vector<double> acc;
        for (const network& net : nets) {
            const replan_event ev =
                scratch.replan(net, ph, replan_reason::startup, 0);
            r.ops.check(ev.plan.deadline_met
                            && verify_plan(net, ev.plan,
                                           &scratch.prepare(net).frontiers)
                                   .ok(),
                        "admit: first plan of " + net.name() + " failed");
            uj.push_back(ev.plan.total_energy_mj * 1e3);
            acc.push_back(scratch.prepare(net).reference_accuracy);
        }
        r.set("model.uj_per_frame", mean(uj), "uJ");
        r.set("model.accuracy", mean(acc), "ratio");
    }
    const disk_store_stats untraced = disk_store::stats();

    if (!opt.trace) {
        return r;
    }
    // Traced run: the cold admission stage by stage (storing the same
    // payloads into a fresh dir), then the first warm passes as their three
    // public steps: teacher dataset, store load, boot plan.
    const std::size_t replayed = std::min<std::size_t>(warm_orders.size(), 20);
    std::vector<std::vector<std::uint8_t>> payloads;
    for (const std::string& key : teacher_keys) {
        payloads.push_back(store.load("teacher", key).value_or(
            std::vector<std::uint8_t>{}));
    }
    tracer t;
    int mismatches = 0;
    {
        const scoped_cache_dir replay_dir(opt.out_dir + "/cache/admit-replay");
        const disk_store replay_store(replay_dir.dir());
        const std::vector<network> fresh = make_zoo_networks();
        const auto root = t("replay");
        for (std::size_t i = 0; i < fresh.size(); ++i) {
            const auto st = replay_admission(t, fresh[i], gcfg, model);
            mismatches += !same_state(st, cold->prepare(nets[i]));
            const auto sp = t("util.disk.store");
            replay_store.store("teacher", teacher_keys[i], payloads[i]);
        }
        const precision_planner boot(model, boot_planner_config(gcfg));
        const int id_warm = t.id("runtime.prepare_warm");
        const int id_load = t.id("util.disk.load");
        std::vector<int> id_data;
        std::vector<int> id_boot;
        for (const network& net : nets) {
            id_data.push_back(t.id("cnn." + slug(net) + ".teacher_dataset"));
            id_boot.push_back(t.id("core." + slug(net) + ".boot_plan"));
        }
        for (std::size_t pass = 0; pass < replayed; ++pass) {
            for (const std::size_t i : warm_orders[pass]) {
                const auto& st = cold->prepare(nets[i]);
                const auto sp = t(id_warm);
                {
                    const auto s2 = t(id_data[i]);
                    make_teacher_dataset(nets[i], gcfg.sweep);
                }
                {
                    const auto s2 = t(id_load);
                    mismatches += !store.load("teacher", teacher_keys[i]);
                }
                {
                    const auto s2 = t(id_boot[i]);
                    mismatches += !same_plan(
                        boot.plan_with_requirements(nets[i], st.reqs,
                                                    st.sparsity),
                        st.fallback);
                }
            }
        }
    }
    double warm_total = 0.0;
    for (std::size_t pass = 0; pass < replayed; ++pass) {
        warm_total += warm_ms[pass];
    }
    add_coverage_metrics(r, t, "replay", median(cold_s) * 1000.0 + warm_total);
    attribution_probes(t, *cold, {}, gcfg, model);

    add_common_trace_metrics(r, t);
    add_span_mean(r, t, "runtime.prepare_warm", "runtime.prepare_warm_ms");
    r.set("util.disk.hit_ratio",
          warm_loads > 0 ? static_cast<double>(warm_hits)
                               / static_cast<double>(warm_loads)
                         : 0.0,
          "ratio");
    r.set("util.disk.stores",
          static_cast<double>(untraced.stores - before_cold.stores), "count");
    r.set("util.disk.retries",
          static_cast<double>(untraced.retries - before_cold.retries),
          "count");
    r.set("trace.replay_mismatches", mismatches, "count");
    t.write_chrome(opt.out_dir + "/trace-admit-" + std::to_string(opt.seed)
                   + ".json");
    return r;
}

} // namespace e2e
