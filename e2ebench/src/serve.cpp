// `serve`: the paper's Sec. V cascade on the streaming runtime. A LeNet-5
// always-on detector (10% accuracy budget, 30 fps, noisy stream) alternates
// with a VGG16-S recognizer (0% budget, 10 fps) for several rounds, about
// ten detector frames per recognizer frame. Every detector phase carries a
// drift burst and a deadline storm sized the way bench_runtime_soak sizes
// it, so the overload valve must shed and then restore the plan.
//
// Set-up is admission of both networks; the timed part is streaming: the
// same seeded scenario runs on fresh copies of the admitted engine until
// the time is up, and every pass must reproduce the first bit for bit.

#include "bench.h"

#include <algorithm>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>

namespace e2e {

namespace {

struct serve_sizes {
    int rounds = 4;
    int detector_frames = 120;
    int recognizer_frames = 12;
    int setup_reps = 3;
    int min_passes = 3;
};

stream_config serve_stream_config(unsigned threads)
{
    // The soak's valve settings: answer a storm within a few frames and
    // grant a large accuracy allowance per shed level.
    stream_config s;
    s.threads = threads;
    s.valve.shed_after = 3;
    s.valve.recover_after = 6;
    s.valve.budget_step = 0.25;
    return s;
}

scenario make_serve_scenario(const serve_sizes& z, std::uint64_t seed)
{
    scenario sc;
    sc.name = "serve";
    sc.stream_seed = seed;
    sc.networks.push_back(make_lenet5({.seed = 2017}));
    sc.networks.push_back(make_vgg16_scaled({.seed = 2017}));
    for (int r = 0; r < z.rounds; ++r) {
        scenario_phase detect;
        detect.name = "detect." + std::to_string(r);
        detect.network = 0;
        detect.frames = z.detector_frames;
        detect.target_fps = 30.0;
        detect.accuracy_budget = 0.10;
        detect.input_noise = 0.15;
        sc.phases.push_back(detect);
        scenario_phase recognize;
        recognize.name = "recognize." + std::to_string(r);
        recognize.network = 1;
        recognize.frames = z.recognizer_frames;
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
        double best = lf.points.front().time_ms;
        for (const layer_frontier_point& p : lf.points) {
            best = std::min(best, p.time_ms);
        }
        total += best;
    }
    return total;
}

// Drift burst at 10-25% and a deadline storm at 40-65% of every detector
// phase. The storm's effective period lies halfway between the fastest
// frontier selection and the nominal plan: the nominal plan overruns it
// and some frontier selection still fits (bench_runtime_soak's sizing).
fault_script make_faults(const scenario& sc, double storm_period_scale)
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
        script.drift.push_back({{w.first + at(0.10), at(0.15)}, 0.25});
        script.rate.push_back(
            {{w.first + at(0.40), at(0.25)}, storm_period_scale});
    }
    return script;
}

bool same_run(const stream_result& a, const stream_result& b)
{
    if (a.frames.size() != b.frames.size()
        || a.replans.size() != b.replans.size()) {
        return false;
    }
    for (std::size_t i = 0; i < a.frames.size(); ++i) {
        const frame_result& x = a.frames[i];
        const frame_result& y = b.frames[i];
        if (x.plan_version != y.plan_version || x.predicted != y.predicted
            || x.teacher != y.teacher || x.time_ms != y.time_ms
            || x.energy_mj != y.energy_mj
            || x.deadline_met != y.deadline_met) {
            return false;
        }
    }
    for (std::size_t i = 0; i < a.replans.size(); ++i) {
        if (a.replans[i].reason != b.replans[i].reason
            || a.replans[i].frame != b.replans[i].frame
            || !same_plan(a.replans[i].plan, b.replans[i].plan)) {
            return false;
        }
    }
    return true;
}

struct phase_span {
    std::uint64_t first = 0;
    std::uint64_t end = 0;
};

std::vector<phase_span> phase_spans(const scenario& sc)
{
    std::vector<phase_span> out;
    std::uint64_t g = 0;
    for (const scenario_phase& ph : sc.phases) {
        out.push_back({g, g + static_cast<std::uint64_t>(ph.frames)});
        g = out.back().end;
    }
    return out;
}

std::size_t phase_of(const std::vector<phase_span>& spans, std::uint64_t g)
{
    for (std::size_t p = 0; p < spans.size(); ++p) {
        if (g >= spans[p].first && g < spans[p].end) {
            return p;
        }
    }
    throw std::out_of_range("serve: frame outside the scenario");
}

// The output checks: every frame served, no deadline miss outside the
// scripted storms, and in every detector phase at least one shed and a
// full recovery that restores the plan the valve shed from.
void check_stream(const scenario& sc, const fault_injector& faults,
                  const stream_result& res, outcome& ops)
{
    ops.check(res.stats.frames_served == sc.total_frames()
                  && res.stats.frames_dropped == 0
                  && res.frames.size() == sc.total_frames(),
              "serve: frames dropped");
    for (const frame_result& fr : res.frames) {
        const bool scripted = faults.period_scale(fr.frame) != 1.0
                              || faults.service_scale(fr.frame) != 1.0;
        ops.check(fr.deadline_met || scripted,
                  "serve: deadline miss outside a storm at frame "
                      + std::to_string(fr.frame));
    }
    ops.check(res.stats.verify_failures == 0, "serve: a plan failed verify");
    const std::vector<phase_span> spans = phase_spans(sc);
    for (std::size_t p = 0; p < sc.phases.size(); ++p) {
        if (sc.phases[p].network != 0) {
            continue;
        }
        int sheds = 0;
        bool restored = false;
        const network_plan* nominal = nullptr;
        for (const replan_event& ev : res.replans) {
            if (phase_of(spans, ev.frame) != p) {
                continue;
            }
            ops.attempt();
            if (ev.reason == replan_reason::shed) {
                ++sheds;
            } else if (ev.reason == replan_reason::recover) {
                if (ev.valve_level == 0) {
                    restored = nominal != nullptr
                               && same_plan(ev.plan, *nominal);
                }
            } else {
                nominal = &ev.plan;
            }
        }
        ops.check(sheds > 0 && restored,
                  "serve: detector phase " + std::to_string(p)
                      + " did not shed and restore its plan");
    }
}

// -- traced replay ------------------------------------------------------------

struct net_spans {
    int forward_plan = 0;
    int forward_teacher = 0;
    std::vector<int> layers;
};

// Replays one streamed pass through the public calls stream_engine::run is
// made of: governor decisions (in log order, on a copy of the admitted
// governor), the re-plan gate, frame generation, the batches of the frame
// log (forwards decomposed layer by layer) and the drift probes.
void replay_stream(tracer& t, const scenario& sc, const fault_injector& faults,
                   const stream_config& scfg, adaptive_governor gov,
                   const stream_result& log, outcome& ops, int& mismatches,
                   std::vector<decision>& decisions)
{
    const auto root = t("replay");
    std::vector<net_spans> ids;
    for (const network& net : sc.networks) {
        net_spans n;
        const std::string s = "cnn." + slug(net);
        n.forward_plan = t.id(s + ".forward_plan");
        n.forward_teacher = t.id(s + ".forward_teacher");
        for (std::size_t l = 0; l < net.depth(); ++l) {
            n.layers.push_back(t.id(s + "." + net.at(l).name() + ".plan"));
        }
        ids.push_back(std::move(n));
    }
    const int id_gen = t.id("runtime.frame_gen");
    const int id_batch = t.id("runtime.run_batch");
    const int id_verify = t.id("analysis.verify_plan");
    const int id_probe = t.id("runtime.drift_probe");
    const std::vector<phase_span> spans = phase_spans(sc);

    std::map<int, network_plan> plans; // version -> plan
    std::size_t next_event = 0;
    energy_ledger ledger;
    const auto replay_events = [&](std::uint64_t upto) {
        while (next_event < log.replans.size()
               && log.replans[next_event].frame <= upto) {
            const replan_event& ev = log.replans[next_event++];
            const std::size_t p = phase_of(spans, ev.frame);
            const scenario_phase& ph = sc.phases[p];
            const network& net = sc.networks[ph.network];
            replan_event got;
            if (ev.reason == replan_reason::shed
                || ev.reason == replan_reason::recover) {
                const auto sp = t("runtime.replan_valve");
                got = gov.replan_valve(net, ph, ev.reason, ev.frame,
                                       ev.valve_level,
                                       scfg.valve.budget_step,
                                       ev.latency_budget_ms);
            } else if (ev.reason == replan_reason::drift) {
                const auto sp = t("runtime.escalate");
                got = gov.escalate(net, ph, ev.frame);
            } else {
                const auto sp = t("runtime.replan");
                got = gov.replan(net, ph, ev.reason, ev.frame);
            }
            {
                const auto sp = t(id_verify);
                ops.check(verify_plan(net, got.plan,
                                      &gov.prepare(net).frontiers)
                              .ok(),
                          "serve: replayed plan failed verify");
            }
            mismatches += !same_plan(got.plan, ev.plan);
            decisions.push_back({&net, got.accuracy_budget,
                                 got.latency_budget_ms});
            plans[ev.plan_version] = ev.plan;
            if (ev.reason == replan_reason::drift) {
                // The engine prices the escalation on the last probe window
                // of frames the outgoing plan served.
                const auto sp = t(id_probe);
                const std::size_t w =
                    static_cast<std::size_t>(scfg.probe_window);
                std::vector<tensor> frames;
                std::vector<int> labels;
                const std::size_t last = static_cast<std::size_t>(ev.frame);
                for (std::size_t f = last - w; f < last; ++f) {
                    scenario_phase wph = ph;
                    wph.input_noise += faults.noise_delta(f);
                    frames.push_back(
                        make_stream_frame(net, wph, sc.stream_seed, f));
                    labels.push_back(log.frames[f].teacher);
                }
                const int active = log.frames[last - 1].plan_version;
                const network_plan& base =
                    active == 0 ? gov.prepare(net).fallback : plans[active];
                const window_probe probe(net, std::move(frames),
                                         std::move(labels),
                                         plan_overlay(net, base),
                                         scfg.threads);
                mismatches += probe.accuracy() != ev.window_accuracy_before;
                mismatches += probe.accuracy(plan_overlay(net, got.plan))
                              != ev.window_accuracy_after;
            }
        }
    };

    for (std::size_t p = 0; p < sc.phases.size(); ++p) {
        const scenario_phase& ph = sc.phases[p];
        const network& net = sc.networks[ph.network];
        const net_spans& n = ids[ph.network];
        const double period_ms = 1000.0 / ph.target_fps;
        std::uint64_t g = spans[p].first;
        const std::uint64_t end = spans[p].end;
        std::uint64_t next_probe =
            g + static_cast<std::uint64_t>(scfg.probe_interval);
        while (g < end) {
            replay_events(g);
            // The engine's batch cuts: max_in_flight, plan activations
            // (a version change in the frame log), probe boundaries and
            // fault-window edges.
            std::uint64_t batch_end = std::min(
                {end, g + static_cast<std::uint64_t>(scfg.max_in_flight),
                 faults.next_change(g)});
            if (next_probe > g) {
                batch_end = std::min(batch_end, next_probe);
            }
            const int version = log.frames[g].plan_version;
            for (std::uint64_t f = g + 1; f < batch_end; ++f) {
                if (log.frames[f].plan_version != version) {
                    batch_end = f;
                    break;
                }
            }
            const network_plan plan = version == 0 ? gov.prepare(net).fallback
                                                   : plans[version];
            scenario_phase eff = ph;
            eff.input_noise += faults.noise_delta(g);
            std::vector<tensor> frames;
            for (std::uint64_t f = g; f < batch_end; ++f) {
                const auto sp = t(id_gen);
                frames.push_back(make_stream_frame(net, eff, sc.stream_seed, f));
            }
            {
                const auto sp = t(id_batch);
                const std::vector<layer_quant> overlay =
                    plan_overlay(net, plan);
                const std::vector<layer_quant> float_overlay(net.depth());
                for (std::size_t i = 0; i < frames.size(); ++i) {
                    int predicted = 0;
                    {
                        const auto fp = t(n.forward_plan);
                        tensor x = frames[i];
                        for (std::size_t l = 0; l < net.depth(); ++l) {
                            const auto lp = t(n.layers[l]);
                            x = net.at(l).forward(x, overlay[l]);
                        }
                        predicted = argmax(x);
                    }
                    int teacher = 0;
                    {
                        const auto tp = t(n.forward_teacher);
                        teacher = argmax(net.forward(frames[i], float_overlay));
                    }
                    const frame_result& fr = log.frames[g + i];
                    mismatches += fr.predicted != predicted
                                  || fr.teacher != teacher;
                    const double time_ms =
                        plan.total_time_ms * faults.service_scale(g);
                    const bool met =
                        time_ms <= period_ms * faults.period_scale(g);
                    mismatches += fr.time_ms != time_ms
                                  || fr.energy_mj != plan.total_energy_mj
                                  || fr.deadline_met != met;
                    for (const layer_plan& lp : plan.layers) {
                        for (const power_domain d :
                             {power_domain::mem, power_domain::nas,
                              power_domain::as}) {
                            ledger.add_pj(d, domain_mw(lp.report, d)
                                                 * lp.time_ms * 1e6);
                        }
                    }
                }
            }
            g = batch_end;
            if (g == next_probe && g < end) {
                next_probe += static_cast<std::uint64_t>(scfg.probe_interval);
            }
        }
    }
    replay_events(sc.total_frames());
    mismatches += ledger.total_pj() != log.ledger.total_pj();
}

} // namespace

result run_serve(const options& opt)
{
    result r;
    serve_sizes z;
    if (opt.tiny) {
        z = {.rounds = 1, .detector_frames = 48, .recognizer_frames = 4,
             .setup_reps = 1, .min_passes = 1};
    }
    if (opt.trace) {
        z.min_passes = 1;
    }
    const governor_config gcfg = bench_governor_config(opt.threads);
    const stream_config scfg = serve_stream_config(opt.threads);
    const envision_model model;
    warm_process_caches(gcfg, model);

    // Set-up: admission of both networks, freshly built, in a fresh engine
    // (no disk cache). The last set-up's scenario and engine stream.
    std::vector<double> setup_s;
    std::unique_ptr<scenario> scp;
    std::optional<stream_engine> admitted;
    for (int rep = 0; rep < z.setup_reps; ++rep) {
        admitted.reset();
        scp = std::make_unique<scenario>(make_serve_scenario(z, opt.seed));
        admitted.emplace(model, gcfg, scfg);
        const auto t0 = clock_type::now();
        for (const network& net : scp->networks) {
            admitted->governor().prepare(net);
        }
        setup_s.push_back(ms_since(t0) / 1000.0);
    }
    const scenario& sc = *scp;
    r.set("setup_s", median(setup_s), "s");

    // The storm period, from a scratch copy so the admitted governor's
    // version counter is untouched.
    double storm_scale = 1.0;
    {
        adaptive_governor scratch = admitted->governor();
        const network& det = sc.networks[0];
        const double fastest =
            frontier_min_time_ms(scratch.prepare(det).frontiers);
        const double nominal =
            scratch.replan(det, sc.phases[0], replan_reason::startup, 0)
                .plan.total_time_ms;
        const double period = 1000.0 / sc.phases[0].target_fps;
        storm_scale = 0.5 * (fastest + nominal) / period;
        r.ops.check(fastest < nominal,
                    "serve: no frontier point is faster than the nominal "
                    "detector plan; the storm cannot be answered");
    }
    const fault_injector faults(make_faults(sc, storm_scale));

    // Timed part: streaming passes on copies of the admitted engine (the
    // original outlives every copy; copies share its envision model).
    std::vector<double> frame_ms;
    std::vector<double> pass_ms;
    stream_result first;
    const auto start = clock_type::now();
    while (static_cast<int>(pass_ms.size()) < z.min_passes
           || ms_since(start) < opt.seconds * 1000.0) {
        stream_engine engine = *admitted;
        try {
            const auto t0 = clock_type::now();
            stream_result res = engine.run(sc, &faults);
            pass_ms.push_back(ms_since(t0));
            frame_ms.push_back(pass_ms.back()
                               / static_cast<double>(res.frames.size()));
            if (pass_ms.size() == 1) {
                first = std::move(res);
            } else {
                r.ops.check(same_run(first, res),
                            "serve: a pass diverged from the first");
            }
        } catch (const std::exception& e) {
            r.ops.fail(std::string("serve: stream threw: ") + e.what());
            break;
        }
    }
    if (first.frames.empty()) {
        return r;
    }
    if (opt.corrupt) {
        for (replan_event& ev : first.replans) {
            if (ev.reason == replan_reason::recover && ev.valve_level == 0) {
                ev.plan.total_energy_mj *= 1.0 + 1e-9;
                break;
            }
        }
    }
    check_stream(sc, faults, first, r.ops);

    add_latency_metrics(r, frame_ms, "per-frame (pass wall / frames)");
    r.set("model.uj_per_frame",
          first.total_energy_mj * 1e3
              / static_cast<double>(first.frames.size()),
          "uJ");
    r.set("model.accuracy", first.stream_accuracy, "ratio");
    r.notes.push_back(
        "stream: " + std::to_string(first.frames.size()) + " frames, "
        + std::to_string(first.stats.replans) + " re-plans, "
        + std::to_string(first.stats.shed_events) + " sheds, "
        + std::to_string(first.stats.recover_events) + " recovers, "
        + std::to_string(first.stats.escalations) + " escalations, "
        + std::to_string(first.stats.deadline_misses)
        + " storm deadline misses");

    if (!opt.trace) {
        return r;
    }
    // Traced run: replay admission and the first pass.
    tracer t;
    int mismatches = 0;
    std::vector<decision> decisions;
    {
        const scenario fresh = make_serve_scenario(z, opt.seed);
        const auto root = t("replay");
        for (std::size_t i = 0; i < fresh.networks.size(); ++i) {
            const auto st =
                replay_admission(t, fresh.networks[i], gcfg, model);
            mismatches += !same_state(
                st, admitted->governor().prepare(sc.networks[i]));
        }
    }
    replay_stream(t, sc, faults, scfg, admitted->governor(), first, r.ops,
                  mismatches, decisions);
    add_coverage_metrics(r, t, "replay",
                         median(setup_s) * 1000.0 + median(pass_ms));
    attribution_probes(t, admitted->governor(), decisions, gcfg, model);

    add_common_trace_metrics(r, t);
    add_span_mean(r, t, "runtime.run_batch", "runtime.run_batch_ms");
    add_span_mean(r, t, "runtime.frame_gen", "runtime.frame_gen_ms");
    add_span_mean(r, t, "runtime.drift_probe", "runtime.drift_probe_ms");
    const auto totals = t.by_name();
    const auto self_of = [&](const std::string& name) {
        const auto it = totals.find(name);
        return it == totals.end()
                   ? 0.0
                   : it->second.self_ms
                         / static_cast<double>(it->second.count);
    };
    r.set("runtime.run_batch_self_ms", self_of("runtime.run_batch"), "ms");
    const stream_stats& st = first.stats;
    r.set("runtime.frames", static_cast<double>(st.frames_served), "count");
    r.set("runtime.batches",
          static_cast<double>(totals.count("runtime.run_batch")
                                  ? totals.at("runtime.run_batch").count
                                  : 0),
          "count");
    r.set("runtime.replans", st.replans, "count");
    r.set("runtime.shed", st.shed_events, "count");
    r.set("runtime.recover", st.recover_events, "count");
    r.set("runtime.escalations", st.escalations, "count");
    for (const network& net : sc.networks) {
        const std::string s = "cnn." + slug(net);
        add_span_mean(r, t, s + ".forward_plan", s + ".forward_plan_ms");
        add_span_mean(r, t, s + ".forward_teacher", s + ".forward_teacher_ms");
        double layers_ms = 0.0;
        for (std::size_t l = 0; l < net.depth(); ++l) {
            const std::string name = s + "." + net.at(l).name() + ".plan";
            add_span_mean(r, t, name, name + "_ms");
            if (totals.count(name)) {
                layers_ms += totals.at(name).total_ms;
            }
        }
        const double whole = totals.count(s + ".forward_plan")
                                 ? totals.at(s + ".forward_plan").total_ms
                                 : 0.0;
        r.set("trace.layer_share." + slug(net),
              whole > 0.0 ? layers_ms / whole : 0.0, "ratio");
    }
    r.set("trace.replay_mismatches", mismatches, "count");
    t.write_chrome(opt.out_dir + "/trace-serve-" + std::to_string(opt.seed)
                   + ".json");
    return r;
}

} // namespace e2e
