#include "core/pareto.h"

#include "util/disk_store.h"
#include "util/parallel.h"
#include "util/serial.h"

#include <algorithm>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <utility>

namespace dvafs {

std::vector<std::size_t>
pareto_front(const std::vector<std::vector<double>>& criteria)
{
    const std::size_t n = criteria.size();
    std::vector<std::size_t> front;
    for (std::size_t i = 0; i < n; ++i) {
        bool dominated = false;
        for (std::size_t j = 0; j < n && !dominated; ++j) {
            if (j == i) {
                continue;
            }
            bool le_all = true;
            bool lt_any = false;
            for (std::size_t k = 0; k < criteria[i].size(); ++k) {
                if (criteria[j][k] > criteria[i][k]) {
                    le_all = false;
                    break;
                }
                lt_any |= criteria[j][k] < criteria[i][k];
            }
            // Exact duplicates: only the lowest index survives.
            dominated = le_all && (lt_any || j < i);
        }
        if (!dominated) {
            front.push_back(i);
        }
    }
    return front;
}

// -- frontier_config ----------------------------------------------------------

std::string frontier_config::base_key(const tech_model& tech,
                                      const envision_calibration& cal) const
{
    // `threads` is deliberately absent: measurements are bit-identical for
    // any worker count (the sim_engine contract, asserted in test_pareto),
    // so planners differing only in thread count share one entry. Doubles
    // print as hexfloat: lossless round-trip, so two grids differing below
    // the old 12-digit precision cannot collide onto one key (and one
    // on-disk cache file).
    std::ostringstream os;
    os << std::hexfloat;
    os << "w" << width << "|s" << seed << "|f";
    for (const double f : f_grid_mhz) {
        os << ":" << f;
    }
    os << "|v";
    for (const double v : vdd_grid) {
        os << ":" << v;
    }
    os << "|" << tech.name << ":" << tech.vdd_nom << ":" << tech.vth << ":"
       << tech.alpha << ":" << tech.vmin << ":" << tech.unit_delay_ps << ":"
       << tech.unit_cap_ff;
    os << "|cal:" << cal.f_nom_mhz << ":" << cal.v_nom;
    return os.str();
}

std::string frontier_config::key(const tech_model& tech,
                                 const envision_calibration& cal) const
{
    // The vector count stays out of base_key so that prefix states are
    // shared across counts; everything else identifies the measurement.
    return base_key(tech, cal) + "|n" + std::to_string(vectors);
}

// -- mode frontier ------------------------------------------------------------

namespace {

// Supply/timing resolution of one measured configuration at frequency f:
// returns the operating voltage, or 0 when the point is infeasible. A
// requested supply of 0 derives the smallest feasible voltage.
double resolve_vdd(const tech_model& tech, const envision_calibration& cal,
                   double crit_path_ps, double f_mhz, double requested_v)
{
    const double period_ps = 1e6 / f_mhz;
    // Chip floor: the measured VF curve (SRAM/periphery margins).
    const double v_curve = cal.voltage_for_frequency(f_mhz);
    double vdd;
    if (requested_v <= 0.0) {
        // Active-cone requirement: scale the supply into the timing slack.
        const double v_cone =
            crit_path_ps > 0.0 && period_ps > crit_path_ps
                ? tech.solve_voltage(period_ps / crit_path_ps)
                : tech.vdd_nom;
        vdd = std::max(v_curve, v_cone);
    } else {
        vdd = requested_v;
    }
    if (vdd > tech.vdd_nom + 1e-9 || vdd + 1e-9 < v_curve) {
        return 0.0;
    }
    // The active cone must meet timing at this supply.
    if (crit_path_ps * tech.delay_scale(vdd) > period_ps * (1.0 + 1e-9)) {
        return 0.0;
    }
    return vdd;
}

} // namespace

namespace {

// The measured (mode, keep_bits) configurations, one group per subword
// family -- the canonical point order every frontier measurement (and
// every persisted measurement state) uses.
std::vector<std::vector<operating_point_spec>>
frontier_spec_groups(const frontier_config& cfg)
{
    const int q = cfg.width / 4;
    std::vector<std::vector<operating_point_spec>> groups;
    for (const sw_mode m : all_sw_modes) {
        std::vector<operating_point_spec> g;
        const int lane = cfg.width / lane_count(m);
        for (int keep = q; keep <= lane; keep += q) {
            g.push_back({m, keep, 0.0, 0.0});
        }
        groups.push_back(std::move(g));
    }
    return groups;
}

} // namespace

mode_frontier measure_mode_frontier(const frontier_config& cfg,
                                    const tech_model& tech,
                                    const envision_calibration& cal)
{
    frontier_measurement st;
    return measure_mode_frontier_with_state(cfg, tech, cal, st);
}

mode_frontier
measure_mode_frontier_with_state(const frontier_config& cfg,
                                 const tech_model& tech,
                                 const envision_calibration& cal,
                                 frontier_measurement& st)
{
    if (cfg.width < 8 || cfg.width % 4 != 0) {
        throw std::invalid_argument("measure_mode_frontier: bad width");
    }
    if (cfg.f_grid_mhz.empty()) {
        throw std::invalid_argument("measure_mode_frontier: empty f grid");
    }

    const std::shared_ptr<const dvafs_multiplier> mult =
        netlist_cache::global().dvafs(cfg.width);
    sim_engine_config ec;
    ec.threads = cfg.threads;
    ec.vectors = cfg.vectors;
    ec.seed = cfg.seed;
    const sim_engine engine(ec);

    // One gate-level measurement per (mode, keep_bits); the (V, f) axes are
    // expanded analytically below, so the sweep cost is independent of the
    // grid resolution. One group per subword family, flattened and farmed
    // over a single shared pool.
    const std::vector<std::vector<operating_point_spec>> groups =
        frontier_spec_groups(cfg);
    std::vector<operating_point_spec> flat;
    for (const auto& g : groups) {
        flat.insert(flat.end(), g.begin(), g.end());
    }

    if (st.vectors == 0 && st.points.empty()) {
        st.points.reserve(flat.size());
        for (const operating_point_spec& spec : flat) {
            point_measure_state ps;
            ps.spec = spec;
            st.points.push_back(ps);
        }
    } else {
        // A resumed state must be the same point list, at a uniform count
        // no larger than the target; anything else is a stale or foreign
        // state the caller should discard.
        bool ok = st.vectors <= cfg.vectors
                  && st.points.size() == flat.size();
        for (std::size_t i = 0; ok && i < flat.size(); ++i) {
            ok = st.points[i].spec == flat[i]
                 && st.points[i].done == st.vectors;
        }
        if (!ok) {
            throw std::invalid_argument(
                "measure_mode_frontier: measurement state does not match "
                "the configuration");
        }
    }

    // Each point resumes its own suspended stream; measure_to validates
    // the executor-state shape and the chunking contract makes extension
    // bit-identical to a fresh full-length run.
    std::vector<sim_point_result> results(flat.size());
    parallel_for(flat.size(), cfg.threads, [&](std::size_t i) {
        results[i] = engine.measure_to(*mult, tech, st.points[i]);
    });
    st.vectors = cfg.vectors;

    // Reference: 1xW at full precision (the last point of the 1xW group).
    const sim_point_result& ref = results[groups[0].size() - 1];
    if (ref.mean_cap_ff <= 0.0) {
        throw std::runtime_error(
            "measure_mode_frontier: zero reference activity");
    }

    mode_frontier mf;
    mf.config = cfg;

    // Frequency ladder descending, so among energy-identical points the
    // faster one wins the stable Pareto tie-break.
    std::vector<double> fs = cfg.f_grid_mhz;
    std::sort(fs.begin(), fs.end(), std::greater<double>());
    // Always expand the nominal clock: the 1xW full-precision point there
    // is the planner's baseline reference (activity divisor 1).
    if (std::find(fs.begin(), fs.end(), cal.f_nom_mhz) == fs.end()) {
        fs.insert(fs.begin(), cal.f_nom_mhz);
    }

    std::size_t flat_at = 0;
    for (std::size_t g = 0; g < groups.size(); ++g) {
        for (std::size_t i = 0; i < groups[g].size(); ++i) {
            const sim_point_result& base = results[flat_at++];
            for (const double f : fs) {
                for (const double v : cfg.vdd_grid) {
                    const double vdd = resolve_vdd(tech, cal,
                                                   base.crit_path_ps, f, v);
                    if (vdd <= 0.0) {
                        continue;
                    }
                    frontier_point fp;
                    fp.spec = groups[g][i];
                    fp.spec.vdd = vdd;
                    fp.spec.f_mhz = f;
                    fp.vdd = vdd;
                    fp.f_mhz = f;
                    fp.lanes = lane_count(fp.spec.mode);
                    fp.precision_bits = fp.spec.keep_bits;
                    fp.mean_cap_ff = base.mean_cap_ff;
                    fp.crit_path_ps = base.crit_path_ps;
                    fp.activity_divisor =
                        base.mean_cap_ff > 0.0
                            ? ref.mean_cap_ff / base.mean_cap_ff
                            : 1.0;
                    const bool dup =
                        std::any_of(mf.points.begin(), mf.points.end(),
                                    [&](const frontier_point& p) {
                                        return p.spec == fp.spec;
                                    });
                    if (!dup) {
                        mf.points.push_back(fp);
                    }
                }
            }
        }
    }
    if (mf.points.empty()) {
        throw std::runtime_error(
            "measure_mode_frontier: no feasible operating point");
    }

    // Nominal reference point: 1xW @ full precision @ f_nom.
    mf.nominal = mf.points.size();
    for (std::size_t i = 0; i < mf.points.size(); ++i) {
        const frontier_point& p = mf.points[i];
        if (p.spec.mode == sw_mode::w1x16
            && p.precision_bits == cfg.width && p.f_mhz == cal.f_nom_mhz) {
            mf.nominal = i;
            break;
        }
    }
    if (mf.nominal == mf.points.size()) {
        throw std::runtime_error(
            "measure_mode_frontier: nominal point infeasible");
    }

    // Componentwise dominance, sound for every layer objective: energy of
    // any layer is monotone in (vdd, cap) and anti-monotone in (lanes,
    // precision, f) -- f through runtime only.
    std::vector<std::vector<double>> criteria;
    criteria.reserve(mf.points.size());
    for (const frontier_point& p : mf.points) {
        criteria.push_back({p.vdd, p.mean_cap_ff,
                            -static_cast<double>(p.lanes),
                            -static_cast<double>(p.precision_bits),
                            -p.f_mhz});
    }
    mf.pareto = pareto_front(criteria);
    return mf;
}

// -- frontier (de)serialization -----------------------------------------------

namespace {

constexpr std::uint32_t frontier_blob_version = 1;
constexpr std::uint32_t frontier_state_blob_version = 1;

constexpr auto walk_frontier = [](auto& ar, auto& mf) {
    // Config echo: the embedded disk-store key already identifies the
    // measurement, but tech/cal travel only by name there -- echoing the
    // numeric config makes a mismatched blob detectable on its own.
    ar.u32(mf.config.width);
    ar.u64(mf.config.vectors);
    ar.u64(mf.config.seed);
    ar.vec_f64(mf.config.f_grid_mhz);
    ar.vec_f64(mf.config.vdd_grid);
    ar.seq(mf.points, [](auto& a, auto& p) {
        walk_spec(a, p.spec);
        a.f64(p.vdd);
        a.f64(p.f_mhz);
        a.i64(p.lanes);
        a.i64(p.precision_bits);
        a.f64(p.mean_cap_ff);
        a.f64(p.crit_path_ps);
        a.f64(p.activity_divisor);
    });
    ar.seq(mf.pareto, u64_field);
    ar.u64(mf.nominal);
};

constexpr auto walk_frontier_state = [](auto& ar, auto& st) {
    ar.u64(st.vectors);
    ar.seq(st.points, [](auto& a, auto& p) {
        walk_spec(a, p.spec);
        a.u64(p.done);
        a.u64(p.rng.state);
        a.u64(p.rng.inc);
        a.flag(p.timed);
        a.f64(p.crit_path_ps);
        a.flag(p.sim.initialized);
        a.u64(p.sim.transitions);
        a.bytes_u8(p.sim.last);
        a.vec_u64(p.sim.toggles);
    });
};

} // namespace

std::vector<std::uint8_t> serialize_frontier(const mode_frontier& mf)
{
    return encode_blob(frontier_blob_version, mf, walk_frontier);
}

std::optional<mode_frontier>
deserialize_frontier(const std::vector<std::uint8_t>& blob,
                     const frontier_config& cfg)
{
    mode_frontier mf;
    if (!decode_blob(blob, frontier_blob_version, mf, walk_frontier)
        || mf.config.width != cfg.width || mf.config.vectors != cfg.vectors
        || mf.config.seed != cfg.seed
        || mf.config.f_grid_mhz != cfg.f_grid_mhz
        || mf.config.vdd_grid != cfg.vdd_grid || mf.points.empty()
        || mf.nominal >= mf.points.size()) {
        return std::nullopt;
    }
    for (const std::size_t idx : mf.pareto) {
        if (idx >= mf.points.size()) {
            return std::nullopt;
        }
    }
    mf.config = cfg;
    return mf;
}

std::vector<std::uint8_t>
serialize_frontier_state(const frontier_measurement& st)
{
    return encode_blob(frontier_state_blob_version, st, walk_frontier_state);
}

std::optional<frontier_measurement>
deserialize_frontier_state(const std::vector<std::uint8_t>& blob)
{
    frontier_measurement st;
    if (!decode_blob(blob, frontier_state_blob_version, st,
                     walk_frontier_state)) {
        return std::nullopt;
    }
    // Deeper shape checks (net counts) happen against the live schedule in
    // load_activity; here only the stream invariant.
    for (const point_measure_state& p : st.points) {
        if (p.done != st.vectors) {
            return std::nullopt;
        }
    }
    return st;
}

// -- frontier cache -----------------------------------------------------------

frontier_cache& frontier_cache::global()
{
    static frontier_cache cache;
    return cache;
}

std::shared_ptr<frontier_cache::flight>
frontier_cache::flight_for(const std::string& base_key)
{
    const std::lock_guard<std::mutex> lock(mu_);
    auto& slot = inflight_[base_key];
    if (!slot) {
        slot = std::make_shared<flight>();
    }
    return slot;
}

void frontier_cache::publish(const std::string& full_key,
                             const std::string& base_key,
                             std::shared_ptr<const mode_frontier> frontier,
                             frontier_measurement state)
{
    const std::lock_guard<std::mutex> lock(mu_);
    entries_[full_key] = std::move(frontier);
    // Keep the longest prefix: a shorter concurrent measurement must not
    // shrink the resumable state another caller could extend.
    auto& slot = states_[base_key];
    if (state.vectors >= slot.vectors) {
        slot = std::move(state);
    }
}

frontier_cache::cache_stats frontier_cache::stats() const noexcept
{
    cache_stats s;
    s.hits = hits_.load(std::memory_order_relaxed);
    s.disk_hits = disk_hits_.load(std::memory_order_relaxed);
    s.extended = extended_.load(std::memory_order_relaxed);
    s.measured = measured_.load(std::memory_order_relaxed);
    return s;
}

std::shared_ptr<const mode_frontier>
frontier_cache::get(const frontier_config& cfg, const tech_model& tech,
                    const envision_calibration& cal)
{
    const std::string full_key = cfg.key(tech, cal);
    const std::string base = cfg.base_key(tech, cal);
    {
        const std::lock_guard<std::mutex> lock(mu_);
        const auto it = entries_.find(full_key);
        if (it != entries_.end()) {
            hits_.fetch_add(1, std::memory_order_relaxed);
            return it->second;
        }
    }

    // Single-flight per base key: the first caller measures (seconds of
    // gate-level work) while concurrent first callers block on the latch
    // and then find the published entry -- the work happens exactly once
    // (regression in tests/test_pareto.cpp). Serializing the whole miss
    // path also makes the prefix-state handoff race-free: an extension
    // always starts from the longest published state.
    const std::shared_ptr<flight> latch = flight_for(base);
    const std::lock_guard<std::mutex> flight_lock(latch->m);
    {
        const std::lock_guard<std::mutex> lock(mu_);
        const auto it = entries_.find(full_key);
        if (it != entries_.end()) {
            hits_.fetch_add(1, std::memory_order_relaxed);
            return it->second;
        }
    }

    const disk_store store = disk_store::from_env();

    // Layer 1: the finished frontier on disk.
    if (store.enabled()) {
        if (const auto blob = store.load("frontier", full_key)) {
            if (auto mf = deserialize_frontier(*blob, cfg)) {
                auto shared = std::make_shared<const mode_frontier>(
                    std::move(*mf));
                disk_hits_.fetch_add(1, std::memory_order_relaxed);
                const std::lock_guard<std::mutex> lock(mu_);
                entries_[full_key] = shared;
                return shared;
            }
        }
    }

    // Layer 2: a resumable prefix of the same stream -- the in-memory
    // state from a smaller-vector-count get(), else the persisted one.
    frontier_measurement st;
    {
        const std::lock_guard<std::mutex> lock(mu_);
        const auto it = states_.find(base);
        if (it != states_.end() && it->second.vectors > 0
            && it->second.vectors <= cfg.vectors) {
            st = it->second;
        }
    }
    if (st.vectors == 0 && store.enabled()) {
        if (const auto blob = store.load("frontier_state", base)) {
            if (auto loaded = deserialize_frontier_state(*blob)) {
                if (loaded->vectors > 0 && loaded->vectors <= cfg.vectors) {
                    st = std::move(*loaded);
                }
            }
        }
    }

    // Layer 3: measure -- extending the prefix when one fit, from scratch
    // otherwise. A stale or corrupt state (wrong point list, executor
    // shape mismatch) throws; discard it and fall back to a full
    // measurement rather than failing the caller.
    const bool resuming = st.vectors > 0;
    std::shared_ptr<const mode_frontier> shared;
    try {
        shared = std::make_shared<const mode_frontier>(
            measure_mode_frontier_with_state(cfg, tech, cal, st));
        (resuming ? extended_ : measured_)
            .fetch_add(1, std::memory_order_relaxed);
    } catch (const std::invalid_argument&) {
        if (!resuming) {
            throw;
        }
        st = frontier_measurement{};
        shared = std::make_shared<const mode_frontier>(
            measure_mode_frontier_with_state(cfg, tech, cal, st));
        measured_.fetch_add(1, std::memory_order_relaxed);
    }

    publish(full_key, base, shared, st);
    if (store.enabled()) {
        store.store("frontier", full_key, serialize_frontier(*shared));
        store.store("frontier_state", base, serialize_frontier_state(st));
    }
    return shared;
}

// -- layer frontier -----------------------------------------------------------

bool layer_frontier::contains(const operating_point_spec& spec) const
    noexcept
{
    return std::any_of(points.begin(), points.end(),
                       [&](const layer_frontier_point& p) {
                           return p.spec == spec;
                       });
}

} // namespace dvafs
