#include "sim/engine.h"

#include "circuit/compiled_sim.h"
#include "fixedpoint/bitops.h"
#include "util/parallel.h"
#include "util/rng.h"

#include <algorithm>
#include <stdexcept>
#include <utility>
#include <vector>

namespace dvafs {

namespace {

// The activity measurement loop over the compiled executor. The operand
// stream is drawn per vector in stream order, so the statistics do not
// depend on how the stream is split into schedule passes.
struct point_activity {
    std::uint64_t vectors = 0;
    std::uint64_t toggles = 0;
    double switched_cap_ff = 0.0;
};

point_activity measure_activity(const dvafs_multiplier& mult,
                                const tech_model& tech,
                                point_measure_state& st,
                                const sim_engine_config& cfg)
{
    const operating_point_spec& spec = st.spec;
    const int w = mult.width();
    const int lane_w = mult.lane_width(spec.mode);
    // Structural DAS gating applies in 1xW; in subword modes precision is a
    // data contract (per-lane truncated operands), as in the paper's SIMD
    // processor. This mirrors energy/kparams measure semantics exactly.
    const bool is_1x = spec.mode == sw_mode::w1x16;
    const int das_keep = is_1x ? spec.keep_bits : w;
    const bool truncate_data = !is_1x && spec.keep_bits < lane_w;

    if (st.done > cfg.vectors) {
        throw std::invalid_argument(
            "sim_engine: measurement state is ahead of the target vector "
            "count");
    }

    // Mode-specialized schedule: the point's *structural* ties -- mode
    // selects, DAS precision selects and (in 1xW) the DAS-gated operand
    // LSBs -- are folded and their fan-out cones pruned at compile time
    // (shared process-wide via the content-keyed cache). Per-lane
    // truncation in subword modes is deliberately NOT tied: it is a data
    // contract, and the mode-clean warm-up vector below drives full-
    // precision operands, exactly as the scalar extraction does. The
    // stream honours the structural ties by construction
    // (pack_input_words gates them), which apply() verifies.
    //
    // The executor comes from the warm pool; a reused instance carries
    // stale values, which the warm-up apply (fresh start) or
    // load_activity (resume) fully re-establishes -- pool reuse is
    // bit-invisible to the measurement.
    auto lease = compiled_sim_pool::global().acquire(
        compiled_netlist_cache::global().get(
            mult.net(), mult.tied_inputs(spec.mode, das_keep)));
    compiled_sim& sim = *lease;
    constexpr int lanes = compiled_sim::lane_capacity;
    pcg32 rng(cfg.seed);
    const std::uint64_t mask = low_mask(w);
    std::vector<std::uint64_t> words;
    std::vector<std::uint64_t> a(lanes, 0);
    std::vector<std::uint64_t> b(lanes, 0);

    if (st.done == 0) {
        // Warm-up vector: establishes a mode-clean baseline state, then
        // the counted stream starts -- the same contract as the scalar
        // extraction. Draws are sequenced (a before b) so the stream is
        // compiler-portable.
        a[0] = rng.next_u64() & mask;
        b[0] = rng.next_u64() & mask;
        mult.pack_input_words(spec.mode, das_keep, a.data(), b.data(), 1,
                              words);
        sim.apply(words, 1);
        sim.reset_stats();
    } else {
        // Resume: the saved rng position already accounts for the warm-up
        // draw, and the activity state replays the statistics carry.
        // Statistics are independent of how the stream is chunked into
        // schedule passes (the lane-shift toggle contract), so resuming
        // mid-stream at an arbitrary chunk boundary is bit-identical to
        // the uninterrupted run.
        rng.restore(st.rng);
        sim.load_activity(st.sim);
    }

    for (std::uint64_t done = st.done; done < cfg.vectors;) {
        const int count = static_cast<int>(
            std::min<std::uint64_t>(lanes, cfg.vectors - done));
        for (int lane = 0; lane < count; ++lane) {
            std::uint64_t av = rng.next_u64() & mask;
            std::uint64_t bv = rng.next_u64() & mask;
            if (truncate_data) {
                av = subword_truncate(static_cast<std::uint16_t>(av),
                                      spec.mode, spec.keep_bits);
                bv = subword_truncate(static_cast<std::uint16_t>(bv),
                                      spec.mode, spec.keep_bits);
            }
            a[static_cast<std::size_t>(lane)] = av;
            b[static_cast<std::size_t>(lane)] = bv;
        }
        mult.pack_input_words(spec.mode, das_keep, a.data(), b.data(), count,
                              words);
        sim.apply(words, count);
        done += static_cast<std::uint64_t>(count);
    }

    st.done = cfg.vectors;
    st.rng = rng.snapshot();
    st.sim = sim.save_activity();

    point_activity act;
    act.vectors = sim.transitions();
    act.toggles = sim.total_toggles();
    act.switched_cap_ff = sim.switched_capacitance_ff(tech);
    return act;
}

} // namespace

sim_point_result sim_engine::measure(const dvafs_multiplier& mult,
                                     const tech_model& tech,
                                     const operating_point_spec& spec) const
{
    point_measure_state st;
    st.spec = spec;
    return measure_to(mult, tech, st);
}

sim_point_result sim_engine::measure_to(const dvafs_multiplier& mult,
                                        const tech_model& tech,
                                        point_measure_state& st) const
{
    const operating_point_spec& spec = st.spec;
    const int lane_w = mult.lane_width(spec.mode);
    if (spec.keep_bits < 1 || spec.keep_bits > lane_w) {
        throw std::invalid_argument("sim_engine: keep_bits out of range");
    }

    const point_activity act = measure_activity(mult, tech, st, cfg_);

    sim_point_result r;
    r.spec = spec;
    r.vectors = act.vectors;
    r.toggles = act.toggles;
    r.mean_cap_ff =
        act.vectors ? act.switched_cap_ff / static_cast<double>(act.vectors)
                    : 0.0;
    r.lanes = lane_count(spec.mode);
    r.f_mhz = spec.f_mhz > 0.0
                  ? spec.f_mhz
                  : cfg_.throughput_mops / static_cast<double>(r.lanes);
    // The STA pass depends only on the spec, never on the stream, so a
    // resumed measurement reuses the cached result.
    if (!st.timed) {
        st.crit_path_ps = mult.mode_critical_path_ps(
            tech, tech.vdd_nom, spec.mode, spec.keep_bits);
        st.timed = true;
    }
    r.crit_path_ps = st.crit_path_ps;
    if (spec.vdd > 0.0) {
        r.vdd = spec.vdd;
    } else {
        // DVAFS rule: scale the supply into the slack left by the active
        // cone at this point's clock period.
        const double period_ps = 1e6 / r.f_mhz;
        r.vdd = r.crit_path_ps > 0.0
                    ? tech.solve_voltage(period_ps / r.crit_path_ps)
                    : tech.vdd_nom;
    }
    return r;
}

sweep_report sim_engine::run(
    const dvafs_multiplier& mult, const tech_model& tech,
    const std::vector<operating_point_spec>& specs) const
{
    return run_batch(mult, tech, {specs}).front();
}

std::vector<sweep_report> sim_engine::run_batch(
    const dvafs_multiplier& mult, const tech_model& tech,
    const std::vector<std::vector<operating_point_spec>>& groups) const
{
    std::vector<sweep_report> reps(groups.size());
    // Flat work list over all groups; slots are preallocated so workers
    // write results by (group, index) without synchronization.
    std::vector<std::pair<std::size_t, std::size_t>> work;
    for (std::size_t g = 0; g < groups.size(); ++g) {
        reps[g].points.resize(groups[g].size());
        for (std::size_t i = 0; i < groups[g].size(); ++i) {
            work.emplace_back(g, i);
        }
    }
    parallel_for(work.size(), cfg_.threads, [&](std::size_t w) {
        const auto [g, i] = work[w];
        reps[g].points[i] = measure(mult, tech, groups[g][i]);
    });
    return reps;
}

netlist_cache& netlist_cache::global()
{
    static netlist_cache cache;
    return cache;
}

std::shared_ptr<const dvafs_multiplier> netlist_cache::dvafs(int width)
{
    const std::lock_guard<std::mutex> lock(mu_);
    auto& slot = dvafs_[width];
    if (!slot) {
        slot = std::make_shared<const dvafs_multiplier>(width);
    }
    return slot;
}

} // namespace dvafs
