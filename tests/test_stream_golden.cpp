// The streaming runtime's decision digest: pins what the *system* decides,
// end to end, so a refactor that must not change behaviour can prove it
// did not. Three runs at tiny size:
//   * a fault-scripted two-network cascade (LeNet-5 detector with drift
//     bursts, deadline storms and a service overrun; AlexNet-S recognizer)
//     through stream_engine::run, once with the default re-plan latency
//     and once with activation on issue and smaller batches;
//   * a seeded replan / replan_valve grid on the admitted governor;
//   * one escalation ladder that runs until the governor reports
//     plan_stale.
// Only discrete outputs are hashed -- per frame the plan version, the
// predicted and teacher classes and the deadline flag; per re-plan the
// reason, version, valve level, budgets and per-layer (mode, bits, point);
// the stream_stats counters; each admitted network_state's requirements
// and frontier point ids -- so the digest is the same at any thread count
// and under every forced ISA.
//
// The log is cut into named sections. kDigest pins the whole log; the
// per-section table behind it turns a mismatch into a readable report of
// the sections that changed, printed with their current contents. A change
// that moves a decision on purpose refreshes both and says why in
// CHANGES.md.

#include "core/dvafs.h"

#include "util/disk_store.h"
#include "util/rng.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <limits>
#include <string>
#include <utility>
#include <vector>

namespace dvafs {
namespace {

class decision_log {
public:
    void begin(std::string name) { sections_.push_back({std::move(name), {}}); }

    template <typename... Args>
    void line(const char* fmt, Args... args)
    {
        char buf[256];
        std::snprintf(buf, sizeof(buf), fmt, args...);
        sections_.back().second += buf;
        sections_.back().second += '\n';
    }

    const std::vector<std::pair<std::string, std::string>>& sections() const
    {
        return sections_;
    }

private:
    std::vector<std::pair<std::string, std::string>> sections_;
};

void log_plan(decision_log& log, const network_plan& plan)
{
    for (const layer_plan& lp : plan.layers) {
        log.line("  %s %s w%d i%d %s", lp.layer_name.c_str(),
                 to_string(lp.mode.mode), lp.weight_bits, lp.input_bits,
                 lp.point.label().c_str());
    }
}

void log_event(decision_log& log, const replan_event& ev)
{
    log.line("%s f%" PRIu64 " v%d L%d acc%.6g lat%.6g stale%d rebuilt%d "
             "win%.6g/%.6g",
             to_string(ev.reason), ev.frame, ev.plan_version, ev.valve_level,
             ev.accuracy_budget, ev.latency_budget_ms,
             static_cast<int>(ev.plan_stale),
             static_cast<int>(ev.rebuilt_frontiers),
             ev.window_accuracy_before, ev.window_accuracy_after);
    log_plan(log, ev.plan);
}

void log_state(decision_log& log, const std::string& name,
               const adaptive_governor::network_state& st)
{
    log.begin(name);
    for (const layer_quant_requirement& r : st.reqs) {
        log.line("req %s w%d i%d", r.layer_name.c_str(), r.min_weight_bits,
                 r.min_input_bits);
    }
    for (const layer_frontier& lf : st.frontiers) {
        std::string ids;
        for (const layer_frontier_point& p : lf.points) {
            ids += ' ' + std::to_string(p.mode_point) + ':'
                   + p.spec.label();
        }
        log.line("frontier %s r%d%s", lf.layer_name.c_str(),
                 lf.required_bits, ids.c_str());
    }
}

void log_stream(decision_log& log, const std::string& name,
                const scenario& sc, const stream_result& res)
{
    std::size_t f = 0;
    for (std::size_t p = 0; p < sc.phases.size(); ++p) {
        log.begin(name + ".frames." + sc.phases[p].name);
        for (const std::size_t end = f + sc.phases[p].frames; f < end; ++f) {
            const frame_result& fr = res.frames[f];
            log.line("f%" PRIu64 " v%d p%d t%d d%d", fr.frame,
                     fr.plan_version, fr.predicted, fr.teacher,
                     static_cast<int>(fr.deadline_met));
        }
    }
    for (std::size_t i = 0; i < res.replans.size(); ++i) {
        log.begin(name + ".replan." + std::to_string(i));
        log_event(log, res.replans[i]);
    }
    const stream_stats& s = res.stats;
    log.begin(name + ".stats");
    log.line("served %" PRIu64 " dropped %" PRIu64 " replans %d "
             "escalations %d stale %d shed %d recover %d verify_failures %d "
             "misses %d max_level %d faulted %" PRIu64 " recovery %" PRIu64,
             s.frames_served, s.frames_dropped, s.replans, s.escalations,
             s.stale_escalations, s.shed_events, s.recover_events,
             s.verify_failures, s.deadline_misses, s.max_valve_level,
             s.faulted_frames, s.recovery_frames);
}

governor_config tiny_governor(unsigned threads)
{
    governor_config g;
    g.sweep.images = 8;
    g.sweep.max_bits = 8;
    g.sweep.threads = threads;
    g.frontier.threads = threads;
    return g;
}

// Detector phases run noisy at 30 fps with a 10% budget; recognizer phases
// run clean at 10 fps with none. Two rounds, so the stream switches
// networks three times and re-enters the detector on its boot plan.
scenario cascade_scenario()
{
    scenario sc;
    sc.name = "cascade";
    sc.stream_seed = 2017;
    sc.networks.push_back(make_lenet5({.seed = 2017}));
    sc.networks.push_back(make_alexnet_scaled({.seed = 2017}));
    for (int r = 0; r < 2; ++r) {
        scenario_phase detect;
        detect.name = "detect." + std::to_string(r);
        detect.network = 0;
        detect.frames = 48;
        detect.target_fps = 30.0;
        detect.accuracy_budget = 0.10;
        detect.input_noise = 0.15;
        sc.phases.push_back(detect);
        scenario_phase recognize;
        recognize.name = "recognize." + std::to_string(r);
        recognize.network = 1;
        recognize.frames = 4;
        recognize.target_fps = 10.0;
        recognize.accuracy_budget = 0.0;
        sc.phases.push_back(recognize);
    }
    return sc;
}

double frontier_min_time_ms(const std::vector<layer_frontier>& frontiers)
{
    double total = 0.0;
    for (const layer_frontier& lf : frontiers) {
        double best = std::numeric_limits<double>::infinity();
        for (const layer_frontier_point& p : lf.points) {
            best = std::min(best, p.time_ms);
        }
        total += best;
    }
    return total;
}

// Per detector phase: a drift burst over 10-40%; a deadline storm over
// 45-70% whose effective period lies halfway between the fastest frontier
// selection and the nominal plan; then, over 70-95%, a period still short
// of nominal but long enough for the valve to recover under it; and a
// 1.5x service overrun over 85-90%.
fault_script cascade_faults(const scenario& sc, double storm_scale,
                            double calm_scale)
{
    fault_script script;
    for (std::size_t p = 0; p < sc.phases.size(); ++p) {
        if (sc.phases[p].network != 0) {
            continue;
        }
        const fault_window w = phase_window(sc, p);
        const auto at = [&](double frac) {
            return static_cast<std::uint64_t>(frac
                                              * static_cast<double>(w.count));
        };
        script.drift.push_back({{w.first + at(0.10), at(0.30)}, 0.6});
        script.rate.push_back({{w.first + at(0.45), at(0.25)}, storm_scale});
        script.rate.push_back({{w.first + at(0.70), at(0.25)}, calm_scale});
        script.service.push_back({{w.first + at(0.85), at(0.05)}, 1.5});
    }
    return script;
}

struct cascade_variant {
    const char* name;
    int replan_latency_frames;
    int max_in_flight;
    int probe_interval;
    int probe_window;
    double budget_step;
};

void run_cascades(decision_log& log, const envision_model& model,
                  const scenario& sc, const adaptive_governor& admitted,
                  unsigned threads)
{
    adaptive_governor scratch = admitted;
    const network& det = sc.networks[0];
    const double nominal =
        scratch.replan(det, sc.phases[0], replan_reason::startup, 0)
            .plan.total_time_ms;
    const double fastest = frontier_min_time_ms(scratch.prepare(det).frontiers);
    ASSERT_LT(fastest, nominal) << "the storm cannot be answered";
    const double period = 1000.0 / sc.phases[0].target_fps;
    const fault_injector faults(
        cascade_faults(sc, 0.5 * (fastest + nominal) / period,
                       1.5 * nominal / period));

    const cascade_variant variants[] = {
        {"cascade", 2, 4, 8, 6, 0.25},
        {"cascade.eager", 0, 3, 7, 5, 0.02},
    };
    for (const cascade_variant& v : variants) {
        stream_config scfg;
        scfg.threads = threads;
        scfg.replan_latency_frames = v.replan_latency_frames;
        scfg.max_in_flight = v.max_in_flight;
        scfg.probe_interval = v.probe_interval;
        scfg.probe_window = v.probe_window;
        scfg.valve.shed_after = 3;
        scfg.valve.recover_after = 6;
        scfg.valve.budget_step = v.budget_step;
        stream_engine engine(model, admitted.config(), scfg);
        const stream_result res = engine.run(sc, &faults);
        ASSERT_EQ(res.frames.size(), sc.total_frames());
        // The digest only pins paths the run actually takes.
        EXPECT_GT(res.stats.shed_events, 0) << v.name;
        EXPECT_GT(res.stats.recover_events, 0) << v.name;
        EXPECT_GT(res.stats.escalations, 0) << v.name;
        log_stream(log, v.name, sc, res);
    }
}

// The e2ebench `replan` grid at tiny size: phase-change re-plans over an
// accuracy budget x frame-rate grid and valve re-plans at shed levels 1-4
// under shrunken latency budgets, drawn from one seed.
void run_grid(decision_log& log, adaptive_governor& gov,
              const std::vector<const network*>& nets)
{
    const double budgets[] = {0.0, 0.01, 0.02, 0.05, 0.10};
    const double stretch[] = {0.0, 0.25, 0.5, 1.0, 2.0};
    const double shrink[] = {0.5, 0.75, 0.9};
    pcg32 rng(27);
    for (int i = 0; i < 48; ++i) {
        const network& net = *nets[rng.next_u32() % nets.size()];
        const auto& fr = gov.prepare(net).frontiers;
        const double floor_ms = 1.1 * frontier_min_time_ms(fr);
        const double b = budgets[rng.next_u32() % std::size(budgets)];
        const double s = stretch[rng.next_u32() % std::size(stretch)];
        scenario_phase ph;
        ph.name = "grid";
        ph.accuracy_budget = b;
        ph.target_fps = 1000.0 / (floor_ms * (1.0 + s));
        const bool valve = (rng.next_u32() & 1U) != 0;
        const std::uint64_t frame = static_cast<std::uint64_t>(i);
        log.begin("grid." + std::to_string(i));
        if (valve) {
            const int level = 1 + static_cast<int>(rng.next_u32() % 4);
            const double latency =
                std::max(floor_ms, 1000.0 / ph.target_fps
                                       * shrink[rng.next_u32()
                                                % std::size(shrink)]);
            log_event(log, gov.replan_valve(net, ph, replan_reason::shed,
                                            frame, level, 0.02, latency));
        } else {
            log_event(log, gov.replan(net, ph, replan_reason::phase_change,
                                      frame));
        }
    }
}

// Escalation under permanent drift until the governor has no lever left.
void run_ladder(decision_log& log, adaptive_governor& gov, const network& net)
{
    scenario_phase ph;
    ph.name = "ladder";
    ph.accuracy_budget = 0.02;
    ph.target_fps = 1.0;
    for (std::uint64_t i = 0; i < 32; ++i) {
        const replan_event ev = gov.escalate(net, ph, i);
        log.begin("ladder." + std::to_string(i));
        log_event(log, ev);
        if (ev.plan_stale) {
            break;
        }
    }
    ASSERT_TRUE(gov.prepared(net));
    log_state(log, "ladder.state", gov.prepare(net));
}

decision_log run_all(unsigned threads)
{
    decision_log log;
    const envision_model model;
    const scenario sc = cascade_scenario();
    adaptive_governor gov(model, tiny_governor(threads));
    for (const network& net : sc.networks) {
        log_state(log, "admitted." + net.name(), gov.prepare(net));
    }
    run_cascades(log, model, sc, gov, threads);
    run_grid(log, gov, {&sc.networks[0], &sc.networks[1]});
    run_ladder(log, gov, sc.networks[0]);
    return log;
}

struct section_digest {
    const char* name;
    std::uint64_t hash;
};

// Folds the section names and hashes, in order, into one value.
std::uint64_t fold(const std::vector<section_digest>& table)
{
    std::string all;
    for (const section_digest& s : table) {
        all += s.name;
        all += '=' + std::to_string(s.hash) + '\n';
    }
    return fnv1a_hash(all);
}

constexpr std::uint64_t kDigest = 0xacc184b5f3f1dd54ULL;

const std::vector<section_digest>& golden_sections()
{
    static const std::vector<section_digest> table = {
        {"admitted.LeNet-5", 0xb9c0d9fa79ae4d1fULL},
        {"admitted.AlexNet-S", 0x45b1cc5b51c75391ULL},
        {"cascade.frames.detect.0", 0xea4a891ae139faf9ULL},
        {"cascade.frames.recognize.0", 0x0e03f6bff345ac4fULL},
        {"cascade.frames.detect.1", 0x07398626f36e3eaeULL},
        {"cascade.frames.recognize.1", 0x02e41ed98cc5d680ULL},
        {"cascade.replan.0", 0x249bc498dc3d7412ULL},
        {"cascade.replan.1", 0xeda3e71b0c6d4061ULL},
        {"cascade.replan.2", 0x605191b85033bbd7ULL},
        {"cascade.replan.3", 0xdaedd72f299e3132ULL},
        {"cascade.replan.4", 0x88c9f8215341550cULL},
        {"cascade.replan.5", 0x883c82a87d7ee4bdULL},
        {"cascade.replan.6", 0x525d36069722f9aaULL},
        {"cascade.replan.7", 0x9e100f5c9afdf305ULL},
        {"cascade.replan.8", 0xf91c905992610943ULL},
        {"cascade.replan.9", 0xb200d94532dc2fe9ULL},
        {"cascade.replan.10", 0x2602e269ff612852ULL},
        {"cascade.replan.11", 0xf0dab54da8ef48bdULL},
        {"cascade.stats", 0x82b90d23dfc59612ULL},
        {"cascade.eager.frames.detect.0", 0x765548c56077ae1eULL},
        {"cascade.eager.frames.recognize.0", 0xb7fafaad292d9bbfULL},
        {"cascade.eager.frames.detect.1", 0xb878d8ad831b957cULL},
        {"cascade.eager.frames.recognize.1", 0x99f147994db59a32ULL},
        {"cascade.eager.replan.0", 0x249bc498dc3d7412ULL},
        {"cascade.eager.replan.1", 0x8518c5b370f72e8aULL},
        {"cascade.eager.replan.2", 0x587ab60c9937d2d8ULL},
        {"cascade.eager.replan.3", 0xdaedd72f299e3132ULL},
        {"cascade.eager.replan.4", 0x88c9f8215341550cULL},
        {"cascade.eager.replan.5", 0x883c82a87d7ee4bdULL},
        {"cascade.eager.replan.6", 0x0a97cc3c8dadb08cULL},
        {"cascade.eager.replan.7", 0x8882033e1aa28fe5ULL},
        {"cascade.eager.replan.8", 0x841e43d2251adf5cULL},
        {"cascade.eager.replan.9", 0xb2dcb66bfc93058aULL},
        {"cascade.eager.replan.10", 0x2602e269ff612852ULL},
        {"cascade.eager.replan.11", 0xf0dab54da8ef48bdULL},
        {"cascade.eager.stats", 0xba9c9b54936e49abULL},
        {"grid.0", 0x759147d13ea28c2aULL},
        {"grid.1", 0x3dd77c9c128e11aeULL},
        {"grid.2", 0x86312dfcd6d3f086ULL},
        {"grid.3", 0x5500e9a16cc7d99aULL},
        {"grid.4", 0xd3d598169e47601aULL},
        {"grid.5", 0x26a00d73105abf61ULL},
        {"grid.6", 0x9b9fc20cab9868c0ULL},
        {"grid.7", 0x5fbc641d7200c4b9ULL},
        {"grid.8", 0xb23e016e0f611402ULL},
        {"grid.9", 0x352465132665573cULL},
        {"grid.10", 0xe04caf76f412fecfULL},
        {"grid.11", 0xc9e58b0440fb05b5ULL},
        {"grid.12", 0xffecce67d1b9288fULL},
        {"grid.13", 0x4ca2d77e3911ae3aULL},
        {"grid.14", 0x46693b35f3d0aa6eULL},
        {"grid.15", 0xce972316f8ca1496ULL},
        {"grid.16", 0xa49fe0eb145bcd02ULL},
        {"grid.17", 0x7d0fe79683a47a6aULL},
        {"grid.18", 0x95f4d733ab665ffeULL},
        {"grid.19", 0x41fe0be77dfa1d37ULL},
        {"grid.20", 0xeb1cf631a05c2470ULL},
        {"grid.21", 0xa9e9e6e311f73783ULL},
        {"grid.22", 0x2038892f45989c4eULL},
        {"grid.23", 0x22fc634d04193c38ULL},
        {"grid.24", 0xd1d01f761df56c43ULL},
        {"grid.25", 0x5ca4f84cb0560ad2ULL},
        {"grid.26", 0x152634565d1ff751ULL},
        {"grid.27", 0x1c461b0182f1a00aULL},
        {"grid.28", 0x67d397615eaf6e6aULL},
        {"grid.29", 0xb87826ac1bbf9c19ULL},
        {"grid.30", 0x15e6ee16ff598fa7ULL},
        {"grid.31", 0x8ebcea900aeb4a8fULL},
        {"grid.32", 0xd2c87a640c5a6980ULL},
        {"grid.33", 0x9897b099969500ceULL},
        {"grid.34", 0xb2a372938cdaf87fULL},
        {"grid.35", 0x498d7a9a568cacb6ULL},
        {"grid.36", 0xea798cbab7e81acaULL},
        {"grid.37", 0xdf9fd4f82516d577ULL},
        {"grid.38", 0xc893ce28c78dc6b7ULL},
        {"grid.39", 0x45010c9964ef8052ULL},
        {"grid.40", 0x22b8edf4b37a4d56ULL},
        {"grid.41", 0xd78d5ed175137385ULL},
        {"grid.42", 0xcf8908ddde39531eULL},
        {"grid.43", 0x29cc8ac82f6cdbc3ULL},
        {"grid.44", 0x707b08a3a84084f2ULL},
        {"grid.45", 0x7c8ff50fd73c1a9aULL},
        {"grid.46", 0xac772c1fd4efac70ULL},
        {"grid.47", 0x5916d2217ed57b5aULL},
        {"ladder.0", 0x7645f34960fea4a7ULL},
        {"ladder.1", 0x7f747da40d622054ULL},
        {"ladder.2", 0x39980fa40a6ebda6ULL},
        {"ladder.3", 0xcfc0dd5d4e538447ULL},
        {"ladder.4", 0x763495782e0cc8e6ULL},
        {"ladder.5", 0x144ea127db871d15ULL},
        {"ladder.6", 0x5bea354a9f75fc4cULL},
        {"ladder.7", 0x8f4e5529c278c95eULL},
        {"ladder.8", 0x2cfaa063033992d4ULL},
        {"ladder.9", 0xa27fb6923b578e4aULL},
        {"ladder.10", 0x80388ab15417cd69ULL},
        {"ladder.11", 0x38a11095654ebfb8ULL},
        {"ladder.12", 0x115c5644a91f37caULL},
        {"ladder.13", 0x0a9ae90b60782418ULL},
        {"ladder.14", 0xe4829537da63b816ULL},
        {"ladder.15", 0xa7ea966d3a670f30ULL},
        {"ladder.16", 0x93e23d5e107f62ccULL},
        {"ladder.state", 0x93c0c01d9ea5a1beULL},
    };
    return table;
}

void check_digest(unsigned threads)
{
    const decision_log log = run_all(threads);
    std::vector<section_digest> got;
    for (const auto& [name, text] : log.sections()) {
        got.push_back({name.c_str(), fnv1a_hash(text)});
    }
    const std::uint64_t digest = fold(got);
    if (digest == kDigest) {
        return;
    }
    // The readable diff: every section whose hash moved, appeared or
    // vanished, with its current contents.
    const std::vector<section_digest>& want = golden_sections();
    std::string report;
    for (std::size_t i = 0; i < log.sections().size(); ++i) {
        const auto& [name, text] = log.sections()[i];
        const auto it = std::find_if(
            want.begin(), want.end(),
            [&](const section_digest& s) { return name == s.name; });
        if (it == want.end()) {
            report += "+ section " + name + " (new):\n" + text;
        } else if (it->hash != got[i].hash) {
            report += "~ section " + name + " (changed):\n" + text;
        }
    }
    for (const section_digest& s : want) {
        if (std::none_of(got.begin(), got.end(), [&](const section_digest& g) {
                return std::string(g.name) == s.name;
            })) {
            report += std::string("- section ") + s.name + " (gone)\n";
        }
    }
    std::string table;
    char buf[160];
    for (const section_digest& s : got) {
        std::snprintf(buf, sizeof(buf), "        {\"%s\", 0x%016" PRIx64
                      "ULL},\n", s.name, s.hash);
        table += buf;
    }
    std::snprintf(buf, sizeof(buf), "0x%016" PRIx64 "ULL", digest);
    ADD_FAILURE() << "decision digest " << buf << " differs from the pinned "
                  << "one; sections that moved:\n"
                  << report << "\ncurrent section table:\n"
                  << table;
}

TEST(stream_golden, golden_table_folds_to_the_pinned_digest)
{
    EXPECT_EQ(fold(golden_sections()), kDigest);
}

TEST(stream_golden, decisions_match_the_pinned_digest_at_1_thread)
{
    check_digest(1);
}

TEST(stream_golden, decisions_match_the_pinned_digest_at_3_threads)
{
    check_digest(3);
}

} // namespace
} // namespace dvafs
