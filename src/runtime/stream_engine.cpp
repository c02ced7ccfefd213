#include "runtime/stream_engine.h"

#include "analysis/plan_verifier.h"
#include "runtime/wallclock.h"

#include <algorithm>
#include <chrono>
#include <string>

namespace dvafs {

double overload_valve::pressure(double frame_ms, double frame_mj,
                                double eff_period_ms) const noexcept
{
    const double latency = frame_ms / eff_period_ms;
    return cfg_.energy_budget_mj > 0.0
               ? std::max(latency, frame_mj / cfg_.energy_budget_mj)
               : latency;
}

void overload_valve::observe(double pressure, std::uint64_t first,
                             std::uint64_t end)
{
    for (std::uint64_t f = first; f < end; ++f) {
        const bool over = pressure > 1.0;
        const bool calm = !over && pressure <= cfg_.recover_below;
        // The dead band (neither) resets both streaks.
        over_streak_ = over ? over_streak_ + 1 : 0;
        under_streak_ = calm ? under_streak_ + 1 : 0;
        last_over_ = over ? f : last_over_;
    }
}

std::optional<valve_decision>
overload_valve::decide(const network_plan& active, double eff_period_ms,
                       double period_ms)
{
    if (over_streak_ >= cfg_.shed_after && level_ < cfg_.max_level) {
        level_time_stack_.push_back(active.total_time_ms);
        level_energy_stack_.push_back(active.total_energy_mj);
        over_streak_ = under_streak_ = 0;
        return valve_decision{replan_reason::shed, ++level_, eff_period_ms};
    }
    // Restore one level only once the stacked pre-shed plan would fit
    // comfortably, so the re-plan cannot re-trip the valve immediately.
    if (under_streak_ >= cfg_.recover_after && level_ > 0
        && level_time_stack_.back() <= cfg_.recover_below * eff_period_ms
        && (cfg_.energy_budget_mj <= 0.0
            || level_energy_stack_.back()
                   <= cfg_.recover_below * cfg_.energy_budget_mj)) {
        level_time_stack_.pop_back();
        level_energy_stack_.pop_back();
        over_streak_ = under_streak_ = 0;
        --level_;
        return valve_decision{replan_reason::recover, level_,
                              level_ == 0 ? period_ms : eff_period_ms};
    }
    return std::nullopt;
}

drift_probe::drift_probe(const stream_config& cfg, std::uint64_t first,
                         std::uint64_t end)
    : cfg_(cfg), end_(end),
      // Without probes the only schedule point is the phase end, never due.
      next_(cfg.probe_interval > 0 && cfg.probe_window > 0
                ? first + static_cast<std::uint64_t>(cfg.probe_interval)
                : end)
{
}

bool drift_probe::due(std::uint64_t g)
{
    if (g != next_ || g >= end_) {
        return false;
    }
    next_ += static_cast<std::uint64_t>(cfg_.probe_interval);
    return true;
}

std::optional<double> drift_probe::score(const std::vector<frame_result>& log,
                                         std::size_t first, int version) const
{
    const auto window = static_cast<std::size_t>(cfg_.probe_window);
    std::size_t n = 0;
    std::size_t hits = 0;
    for (std::size_t i = log.size();
         i-- > first && n < window && log[i].plan_version == version; ++n) {
        hits += log[i].predicted == log[i].teacher;
    }
    if (n < window) {
        return std::nullopt;
    }
    return static_cast<double>(hits) / static_cast<double>(n);
}

bool drift_probe::should_escalate(double accuracy, double floor,
                                  bool pending) const noexcept
{
    return !pending && !stale_ && escalations_ < cfg_.max_escalations_per_phase
           && !(accuracy >= floor - cfg_.drift_margin);
}

void drift_probe::escalated(bool stale) noexcept
{
    ++escalations_;
    stale_ = stale_ || stale;
}

namespace {

// Sums over the frame log from `first` on: the phase and stream roll-ups.
struct frame_summary {
    double n = 0.0;
    double time_ms = 0.0;
    double energy_mj = 0.0;
    std::size_t hits = 0;
    std::size_t deadline_hits = 0;
};

frame_summary summarize(const std::vector<frame_result>& frames,
                        std::size_t first)
{
    frame_summary s;
    s.n = static_cast<double>(frames.size() - first);
    for (std::size_t i = first; i < frames.size(); ++i) {
        s.time_ms += frames[i].time_ms;
        s.energy_mj += frames[i].energy_mj;
        s.hits += frames[i].predicted == frames[i].teacher;
        s.deadline_hits += frames[i].deadline_met;
    }
    return s;
}

std::vector<tensor> phase_frames(const network& net, const scenario_phase& ph,
                                 const scenario& sc,
                                 const fault_injector* faults,
                                 std::uint64_t first, std::uint64_t end)
{
    std::vector<tensor> frames;
    frames.reserve(static_cast<std::size_t>(end - first));
    scenario_phase eff = ph;
    for (std::uint64_t f = first; f < end; ++f) {
        eff.input_noise =
            ph.input_noise + (faults ? faults->noise_delta(f) : 0.0);
        frames.push_back(make_stream_frame(net, eff, sc.stream_seed, f));
    }
    return frames;
}

// The re-plan gate: a governor plan must pass plan_verifier against its
// network's cached frontiers before the stream accepts it (the heuristic
// boot fallback is exempt -- its points are deliberately not members).
void gate_plan(adaptive_governor& gov, const network& net,
               const replan_event& ev)
{
    lint_report rep = verify_plan(
        net, ev.plan, &gov.prepare(net).frontiers,
        std::string(to_string(ev.reason)) + " plan v"
            + std::to_string(ev.plan_version) + " for '" + net.name() + "'");
    if (!rep.ok()) {
        throw verification_error(std::move(rep));
    }
}

// Prices an escalation on the live window -- the newest probe_window frames
// of the log, all served by the outgoing plan: the probe's batch_evaluator
// is based at the outgoing plan's binding, so the candidate prepares and
// recomputes only the layers it changed.
void price_on_window(replan_event& dev, const network& net,
                     const scenario_phase& ph, const scenario& sc,
                     const fault_injector* faults,
                     const std::vector<frame_result>& log,
                     const bound_network& outgoing, const stream_config& cfg)
{
    const auto window = static_cast<std::size_t>(cfg.probe_window);
    std::vector<int> labels;
    for (std::size_t i = log.size() - window; i < log.size(); ++i) {
        labels.push_back(log[i].teacher);
    }
    const window_probe probe(
        outgoing,
        phase_frames(net, ph, sc, faults, log[log.size() - window].frame,
                     log.back().frame + 1),
        std::move(labels), cfg.threads);
    dev.window_accuracy_before = probe.accuracy();
    dev.window_accuracy_after = probe.accuracy(plan_overlay(net, dev.plan));
}

phase_stats phase_rollup(const scenario_phase& ph,
                         const std::vector<frame_result>& frames,
                         std::size_t first, int replans,
                         const network_plan& active)
{
    const frame_summary s = summarize(frames, first);
    phase_stats ps;
    ps.name = ph.name;
    ps.frames = frames.size() - first;
    ps.replans = replans;
    ps.mean_frame_ms = s.time_ms / s.n;
    ps.energy_per_frame_mj = s.energy_mj / s.n;
    ps.stream_accuracy = static_cast<double>(s.hits) / s.n;
    ps.deadline_hit_rate = static_cast<double>(s.deadline_hits) / s.n;
    ps.sustained_fps = std::min(ph.target_fps, 1000.0 / ps.mean_frame_ms);
    ps.deadline_met = active.total_time_ms <= 1000.0 / ph.target_fps;
    return ps;
}

void stream_rollup(stream_result& res, const scenario& sc)
{
    const frame_summary s = summarize(res.frames, 0);
    res.stats.frames_served = res.frames.size();
    // Every admitted frame is served by construction; the counter exists so
    // tests assert the no-drop contract explicitly.
    res.stats.frames_dropped = sc.total_frames() - res.frames.size();
    res.stats.deadline_misses =
        static_cast<int>(res.frames.size() - s.deadline_hits);
    res.mean_frame_ms = s.time_ms / s.n;
    res.total_energy_mj = s.energy_mj;
    res.stream_accuracy = static_cast<double>(s.hits) / s.n;
    for (const phase_stats& ps : res.phases) {
        res.sustained_fps +=
            ps.sustained_fps * static_cast<double>(ps.frames) / s.n;
    }
}

} // namespace

stream_result stream_engine::run(const scenario& sc,
                                 const fault_injector* faults)
{
    sc.validate();
    stream_result res;

    // Admission: the slow per-network planning state (teacher sweep,
    // frontiers, boot plan) is built before the first frame arrives, so
    // in-stream re-plans only ever pay the DP.
    const auto t0 = std::chrono::steady_clock::now();
    for (const network& net : sc.networks) {
        governor_.prepare(net);
    }
    res.prepare_ms = elapsed_ms_since(t0);

    // The float teachers, bound once per network for the whole run.
    std::vector<bound_network> teachers;
    for (const network& net : sc.networks) {
        teachers.emplace_back(net, std::vector<layer_quant>(net.depth()));
    }

    std::uint64_t g = 0; // global frame index
    const network* prev_net = nullptr;
    network_plan active;
    int active_version = 0;
    std::optional<bound_network> served; // `active`, bound at activation
    std::optional<replan_event> pending; // the re-plan in flight
    std::uint64_t activate_at = 0;
    int phase_replans = 0;
    const auto in_flight =
        static_cast<std::uint64_t>(std::max(1, cfg_.max_in_flight));
    const auto latency =
        static_cast<std::uint64_t>(std::max(0, cfg_.replan_latency_frames));

    // The one issue path: gate the plan, then activate it
    // replan_latency_frames later (on issue at the stream's first frame).
    const auto issue = [&](const network& net, replan_event ev) {
        gate_plan(governor_, net, ev);
        res.planning_ms += ev.planning_ms;
        pending = ev;
        activate_at = g == 0 ? g : g + latency;
        ++phase_replans;
        res.replans.push_back(std::move(ev));
    };

    // Activates and binds `plan`, rebinding from the outgoing plan's
    // binding on the same network, else from the teacher.
    const auto activate = [&](const bound_network& teacher,
                              const network_plan& plan, int version) {
        active = plan;
        active_version = version;
        served = bound_network(
            served && &served->net() == &teacher.net() ? *served : teacher,
            plan_overlay(teacher.net(), plan));
    };

    for (std::size_t pi = 0; pi < sc.phases.size(); ++pi) {
        const scenario_phase& ph = sc.phases[pi];
        const network& net = sc.networks[ph.network];
        const bound_network& teacher = teachers[ph.network];
        const double period_ms = 1000.0 / ph.target_fps;
        const std::size_t phase_first = res.frames.size();
        const std::uint64_t phase_end =
            g + static_cast<std::uint64_t>(ph.frames);
        overload_valve valve(cfg_.valve);
        drift_probe probe(cfg_, g, phase_end);

        // Phase boundary: until the re-plan activates, the stream keeps
        // running on the previous plan (same network) or the incoming
        // network's heuristic boot plan (network switch) -- never stalls.
        phase_replans = 0;
        ++res.stats.replans;
        issue(net, governor_.replan(net, ph,
                                    g == 0 ? replan_reason::startup
                                           : replan_reason::phase_change,
                                    g));
        if (&net != prev_net && activate_at > g) {
            activate(teacher, governor_.prepare(net).fallback, 0);
        }

        while (g < phase_end) {
            if (pending && g >= activate_at) {
                activate(teacher, pending->plan, pending->plan_version);
                pending.reset();
            }
            // Admit up to max_in_flight frames, but never across a plan
            // activation, a probe point or a fault-window edge (all
            // frame-indexed, so batching cannot change any outcome, and
            // the fault state is constant across the batch).
            const std::uint64_t batch_end = std::min(
                {probe.cut(std::min(phase_end, g + in_flight)),
                 pending ? activate_at : phase_end,
                 faults ? faults->next_change(g) : phase_end});
            const double eff_period =
                period_ms * (faults ? faults->period_scale(g) : 1.0);
            const double sscale = faults ? faults->service_scale(g) : 1.0;
            scheduler_.run_batch(
                *served, teacher, active,
                phase_frames(net, ph, sc, faults, g, batch_end), g, pi,
                active_version, eff_period, sscale, res.frames, res.ledger);
            if (faults && faults->active(g)) {
                res.stats.faulted_frames += batch_end - g;
            }
            valve.observe(valve.pressure(active.total_time_ms * sscale,
                                         active.total_energy_mj, eff_period),
                          g, batch_end);
            g = batch_end;

            // At most one valve decision per batch, none while a re-plan is
            // in flight (its activation resolves the pressure first).
            const auto d = !pending && g < phase_end
                               ? valve.decide(active, eff_period, period_ms)
                               : std::nullopt;
            if (d) {
                const bool shed = d->reason == replan_reason::shed;
                ++(shed ? res.stats.shed_events : res.stats.recover_events);
                res.stats.max_valve_level =
                    std::max(res.stats.max_valve_level, valve.level());
                if (!shed && d->level == 0) {
                    res.stats.recovery_frames = g - valve.last_over_frame();
                }
                issue(net, governor_.replan_valve(
                               net, ph, d->reason, g, d->level,
                               cfg_.valve.budget_step, d->latency_budget_ms));
            }

            const auto accuracy =
                probe.due(g) ? probe.score(res.frames, phase_first,
                                           active_version)
                             : std::nullopt;
            // Floor: the governor's current reference (stage two updates
            // it) minus the loss the DP knowingly spent, so the probe never
            // fights the valve over deliberately shed accuracy.
            if (!accuracy
                || !probe.should_escalate(
                    *accuracy,
                    governor_.prepare(net).reference_accuracy
                        - active.planned_accuracy_loss,
                    pending.has_value())) {
                continue;
            }
            replan_event dev = governor_.escalate(net, ph, g);
            // A stale escalation (budget floored, requirements saturated)
            // keeps the converged plan and ends escalation for the phase.
            probe.escalated(dev.plan_stale);
            res.stats.stale_escalations += dev.plan_stale;
            ++res.stats.escalations;
            price_on_window(dev, net, ph, sc, faults, res.frames, *served,
                            cfg_);
            issue(net, std::move(dev));
        }

        res.phases.push_back(phase_rollup(ph, res.frames, phase_first,
                                          phase_replans, active));
        prev_net = &net;
    }
    stream_rollup(res, sc);
    return res;
}

} // namespace dvafs
