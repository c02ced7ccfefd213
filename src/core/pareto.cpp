#include "core/pareto.h"

#include "util/disk_store.h"
#include "util/parallel.h"
#include "util/serial.h"

#include <algorithm>
#include <cmath>
#include <limits>
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

bool mode_frontier::on_frontier(std::size_t point_index) const noexcept
{
    return std::find(pareto.begin(), pareto.end(), point_index)
           != pareto.end();
}

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
constexpr std::uint8_t max_sw_mode = static_cast<std::uint8_t>(sw_mode::w4x4);

void put_spec(byte_writer& w, const operating_point_spec& s)
{
    w.u8(static_cast<std::uint8_t>(s.mode));
    w.i64(s.keep_bits);
    w.f64(s.vdd);
    w.f64(s.f_mhz);
}

operating_point_spec get_spec(byte_reader& r)
{
    const std::uint8_t m = r.u8();
    if (m > max_sw_mode) {
        throw serial_error("bad sw_mode");
    }
    operating_point_spec s;
    s.mode = static_cast<sw_mode>(m);
    s.keep_bits = static_cast<int>(r.i64());
    s.vdd = r.f64();
    s.f_mhz = r.f64();
    return s;
}

std::vector<std::uint8_t> serialize_frontier(const mode_frontier& mf)
{
    byte_writer w;
    w.u32(frontier_blob_version);
    // Config echo: the embedded disk-store key already identifies the
    // measurement, but tech/cal travel only by name there -- echoing the
    // numeric config makes a mismatched blob detectable on its own.
    w.u32(static_cast<std::uint32_t>(mf.config.width));
    w.u64(mf.config.vectors);
    w.u64(mf.config.seed);
    w.vec_f64(mf.config.f_grid_mhz);
    w.vec_f64(mf.config.vdd_grid);
    w.u64(mf.points.size());
    for (const frontier_point& p : mf.points) {
        put_spec(w, p.spec);
        w.f64(p.vdd);
        w.f64(p.f_mhz);
        w.i64(p.lanes);
        w.i64(p.precision_bits);
        w.f64(p.mean_cap_ff);
        w.f64(p.crit_path_ps);
        w.f64(p.activity_divisor);
    }
    std::vector<std::uint64_t> pareto(mf.pareto.size());
    for (std::size_t i = 0; i < mf.pareto.size(); ++i) {
        pareto[i] = mf.pareto[i];
    }
    w.vec_u64(pareto);
    w.u64(mf.nominal);
    return w.take();
}

std::optional<mode_frontier>
deserialize_frontier(const std::vector<std::uint8_t>& blob,
                     const frontier_config& cfg)
{
    try {
        byte_reader r(blob);
        if (r.u32() != frontier_blob_version) {
            return std::nullopt;
        }
        if (r.u32() != static_cast<std::uint32_t>(cfg.width)
            || r.u64() != cfg.vectors || r.u64() != cfg.seed
            || r.vec_f64() != cfg.f_grid_mhz
            || r.vec_f64() != cfg.vdd_grid) {
            return std::nullopt;
        }
        mode_frontier mf;
        mf.config = cfg;
        const std::uint64_t n = r.u64();
        // Bounded by the bytes left (57 per point), so a corrupt count
        // throws on overrun instead of allocating.
        if (n > r.remaining() / 57) {
            return std::nullopt;
        }
        mf.points.resize(static_cast<std::size_t>(n));
        for (frontier_point& p : mf.points) {
            p.spec = get_spec(r);
            p.vdd = r.f64();
            p.f_mhz = r.f64();
            p.lanes = static_cast<int>(r.i64());
            p.precision_bits = static_cast<int>(r.i64());
            p.mean_cap_ff = r.f64();
            p.crit_path_ps = r.f64();
            p.activity_divisor = r.f64();
        }
        for (const std::uint64_t idx : r.vec_u64()) {
            if (idx >= mf.points.size()) {
                return std::nullopt;
            }
            mf.pareto.push_back(static_cast<std::size_t>(idx));
        }
        mf.nominal = static_cast<std::size_t>(r.u64());
        if (mf.nominal >= mf.points.size() || !r.done()
            || mf.points.empty()) {
            return std::nullopt;
        }
        return mf;
    } catch (const serial_error&) {
        return std::nullopt;
    }
}

std::vector<std::uint8_t>
serialize_frontier_state(const frontier_measurement& st)
{
    byte_writer w;
    w.u32(frontier_state_blob_version);
    w.u64(st.vectors);
    w.u64(st.points.size());
    for (const point_measure_state& p : st.points) {
        put_spec(w, p.spec);
        w.u64(p.done);
        w.u64(p.rng.state);
        w.u64(p.rng.inc);
        w.u8(p.timed ? 1 : 0);
        w.f64(p.crit_path_ps);
        w.u8(p.sim.initialized ? 1 : 0);
        w.u64(p.sim.transitions);
        w.bytes_u8(p.sim.last);
        w.vec_u64(p.sim.toggles);
    }
    return w.take();
}

std::optional<frontier_measurement>
deserialize_frontier_state(const std::vector<std::uint8_t>& blob)
{
    try {
        byte_reader r(blob);
        if (r.u32() != frontier_state_blob_version) {
            return std::nullopt;
        }
        frontier_measurement st;
        st.vectors = r.u64();
        const std::uint64_t n = r.u64();
        if (n > r.remaining() / 60) {
            return std::nullopt;
        }
        st.points.resize(static_cast<std::size_t>(n));
        for (point_measure_state& p : st.points) {
            p.spec = get_spec(r);
            p.done = r.u64();
            p.rng.state = r.u64();
            p.rng.inc = r.u64();
            p.timed = r.u8() != 0;
            p.crit_path_ps = r.f64();
            p.sim.initialized = r.u8() != 0;
            p.sim.transitions = r.u64();
            p.sim.last = r.bytes_u8();
            p.sim.toggles = r.vec_u64();
            // Deeper shape checks (net counts) happen against the live
            // schedule in load_activity; here only the stream invariant.
            if (p.done != st.vectors) {
                return std::nullopt;
            }
        }
        if (!r.done()) {
            return std::nullopt;
        }
        return st;
    } catch (const serial_error&) {
        return std::nullopt;
    }
}

} // namespace

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

std::shared_ptr<const mode_frontier>
frontier_cache::refresh(const frontier_config& cfg, const tech_model& tech,
                        const envision_calibration& cal)
{
    const std::string full_key = cfg.key(tech, cal);
    const std::string base = cfg.base_key(tech, cal);
    // Serialize with any in-flight get() on the same configuration;
    // publication replaces whatever entry (and prefix state) the key held.
    const std::shared_ptr<flight> latch = flight_for(base);
    const std::lock_guard<std::mutex> flight_lock(latch->m);

    frontier_measurement st;
    auto measured = std::make_shared<const mode_frontier>(
        measure_mode_frontier_with_state(cfg, tech, cal, st));
    measured_.fetch_add(1, std::memory_order_relaxed);
    {
        const std::lock_guard<std::mutex> lock(mu_);
        entries_[full_key] = measured;
        states_[base] = st;
    }
    const disk_store store = disk_store::from_env();
    if (store.enabled()) {
        store.store("frontier", full_key, serialize_frontier(*measured));
        store.store("frontier_state", base, serialize_frontier_state(st));
    }
    return measured;
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

// -- budgeted selection -------------------------------------------------------

std::vector<std::size_t>
select_frontier_points(const std::vector<layer_frontier>& frontiers,
                       double budget, double resolution)
{
    if (budget < 0.0 || resolution <= 0.0) {
        throw std::invalid_argument(
            "select_frontier_points: bad budget/resolution");
    }
    for (const layer_frontier& f : frontiers) {
        if (f.points.empty()) {
            throw std::invalid_argument(
                "select_frontier_points: empty layer frontier for "
                + f.layer_name);
        }
    }

    // Knapsack-style DP over the discretized loss budget. Losses round up
    // (conservative: the discretized plan never exceeds the real budget by
    // more than it claims), energies stay exact.
    const int max_units = 100000;
    if (budget / resolution > max_units) {
        throw std::invalid_argument(
            "select_frontier_points: budget/resolution too fine (raise "
            "budget_resolution)");
    }
    const int b_total =
        static_cast<int>(std::floor(budget / resolution + 1e-9));
    // Clamped at zero: a (hand-built) negative loss is "free", never a
    // negative index into the DP table.
    const auto units = [&](double loss) {
        return std::max(
            0, static_cast<int>(std::ceil(loss / resolution - 1e-9)));
    };

    const double inf = std::numeric_limits<double>::infinity();
    const std::size_t n = frontiers.size();
    // dp[b]: minimal energy over processed layers with <= b loss units.
    std::vector<double> dp(static_cast<std::size_t>(b_total) + 1, 0.0);
    // choice[layer][b]: selected point index at that state.
    std::vector<std::vector<int>> choice(
        n, std::vector<int>(static_cast<std::size_t>(b_total) + 1, -1));

    for (std::size_t li = 0; li < n; ++li) {
        std::vector<double> ndp(dp.size(), inf);
        for (int b = 0; b <= b_total; ++b) {
            for (std::size_t pi = 0; pi < frontiers[li].points.size();
                 ++pi) {
                const layer_frontier_point& p = frontiers[li].points[pi];
                const int u = units(p.accuracy_loss);
                if (u > b || dp[static_cast<std::size_t>(b - u)] == inf) {
                    continue;
                }
                const double e =
                    dp[static_cast<std::size_t>(b - u)] + p.energy_mj;
                if (e < ndp[static_cast<std::size_t>(b)]) {
                    ndp[static_cast<std::size_t>(b)] = e;
                    choice[li][static_cast<std::size_t>(b)] =
                        static_cast<int>(pi);
                }
            }
        }
        dp = std::move(ndp);
    }
    if (dp[static_cast<std::size_t>(b_total)] == inf) {
        throw std::invalid_argument(
            "select_frontier_points: no selection meets the budget");
    }

    // Reconstruct backwards from the full budget.
    std::vector<std::size_t> picked(n, 0);
    int b = b_total;
    for (std::size_t li = n; li-- > 0;) {
        const int pi = choice[li][static_cast<std::size_t>(b)];
        picked[li] = static_cast<std::size_t>(pi);
        b -= units(frontiers[li].points[picked[li]].accuracy_loss);
    }
    return picked;
}

frontier_selection select_frontier_points_budgeted(
    const std::vector<layer_frontier>& frontiers, double accuracy_budget,
    double latency_budget_ms, double resolution, double time_resolution_ms)
{
    const auto summarize = [&](std::vector<std::size_t> indices,
                               bool feasible) {
        frontier_selection sel;
        sel.indices = std::move(indices);
        sel.feasible = feasible;
        for (std::size_t li = 0; li < frontiers.size(); ++li) {
            const layer_frontier_point& p =
                frontiers[li].points[sel.indices[li]];
            sel.accuracy_loss += p.accuracy_loss;
            sel.time_ms += p.time_ms;
            sel.energy_mj += p.energy_mj;
        }
        return sel;
    };

    if (accuracy_budget < 0.0 || resolution <= 0.0
        || time_resolution_ms < 0.0 || !std::isfinite(accuracy_budget)
        || !std::isfinite(latency_budget_ms)) {
        // Non-finite budgets would turn the discretization into NaN
        // arithmetic (e.g. a phase with target_fps = 0 yields an infinite
        // deadline); fail loudly instead.
        throw std::invalid_argument(
            "select_frontier_points_budgeted: bad budget/resolution");
    }
    for (const layer_frontier& f : frontiers) {
        if (f.points.empty()) {
            throw std::invalid_argument(
                "select_frontier_points_budgeted: empty layer frontier "
                "for "
                + f.layer_name);
        }
    }

    const auto fastest_fallback = [&]() {
        // Per-layer minimum-time selection (ties by energy, then index)
        // -- the governor's "always have a plan" guarantee on any
        // infeasibility. The caller sees feasible = false.
        std::vector<std::size_t> fastest(frontiers.size(), 0);
        for (std::size_t li = 0; li < frontiers.size(); ++li) {
            for (std::size_t pi = 1; pi < frontiers[li].points.size();
                 ++pi) {
                const layer_frontier_point& p = frontiers[li].points[pi];
                const layer_frontier_point& best =
                    frontiers[li].points[fastest[li]];
                if (p.time_ms < best.time_ms
                    || (p.time_ms == best.time_ms
                        && p.energy_mj < best.energy_mj)) {
                    fastest[li] = pi;
                }
            }
        }
        return summarize(std::move(fastest), false);
    };

    // Unit costs clamp at zero: a (hand-built) negative loss or time is
    // "free", never a negative index into the DP tables.
    const auto loss_units = [&](double loss) {
        return std::max(
            0, static_cast<int>(std::ceil(loss / resolution - 1e-9)));
    };
    const int max_units = 100000;
    if (accuracy_budget / resolution > max_units) {
        throw std::invalid_argument(
            "select_frontier_points_budgeted: budget/resolution too fine");
    }
    const int b_total =
        static_cast<int>(std::floor(accuracy_budget / resolution + 1e-9));

    // Uniform infeasibility semantics for both latency spellings (<= 0 =
    // unconstrained, and any positive deadline): an unmeetable *accuracy*
    // budget returns the fallback instead of the 1-D DP's throw.
    std::int64_t min_loss_units = 0;
    for (const layer_frontier& f : frontiers) {
        int best = loss_units(f.points[0].accuracy_loss);
        for (const layer_frontier_point& p : f.points) {
            best = std::min(best, loss_units(p.accuracy_loss));
        }
        min_loss_units += best;
    }
    if (min_loss_units > b_total) {
        return fastest_fallback();
    }

    if (latency_budget_ms <= 0.0) {
        return summarize(
            select_frontier_points(frontiers, accuracy_budget, resolution),
            true);
    }
    const double tres = time_resolution_ms > 0.0 ? time_resolution_ms
                                                 : latency_budget_ms / 256.0;

    // 2-D knapsack DP over (loss units, time units). Both costs round up
    // (conservative: the discretized plan never exceeds either real
    // budget), energies stay exact. State space is layers x ~40 loss bins
    // x ~257 time bins -- a whole re-plan against cached frontiers takes
    // ~0.5 ms at the median and ~3.5 ms at p99 (e2ebench `replan`),
    // which is what makes it cheap enough to run per phase.
    if (latency_budget_ms / tres > max_units) {
        throw std::invalid_argument(
            "select_frontier_points_budgeted: budget/resolution too fine");
    }
    const int t_total =
        static_cast<int>(std::floor(latency_budget_ms / tres + 1e-9));
    // The per-axis caps do not bound the *product*; cap the state count
    // too, or a fine 2-D grid turns the dp/choice tables into a multi-GB
    // allocation instead of an error.
    const std::int64_t max_states = 1000000;
    if ((static_cast<std::int64_t>(b_total) + 1)
            * (static_cast<std::int64_t>(t_total) + 1)
        > max_states) {
        throw std::invalid_argument(
            "select_frontier_points_budgeted: budget/resolution grid too "
            "large (coarsen a resolution)");
    }
    const auto time_units = [&](double ms) {
        return std::max(0,
                        static_cast<int>(std::ceil(ms / tres - 1e-9)));
    };

    const double inf = std::numeric_limits<double>::infinity();
    const std::size_t n = frontiers.size();
    const std::size_t cols = static_cast<std::size_t>(t_total) + 1;
    const std::size_t states = (static_cast<std::size_t>(b_total) + 1)
                               * cols;
    const auto state = [&](int b, int t) {
        return static_cast<std::size_t>(b) * cols
               + static_cast<std::size_t>(t);
    };
    // dp[state]: minimal energy over processed layers within (b, t) units.
    std::vector<double> dp(states, 0.0);
    std::vector<std::vector<int>> choice(n, std::vector<int>(states, -1));

    for (std::size_t li = 0; li < n; ++li) {
        // Per-point unit costs are state-independent: hoist them out of
        // the (b, t) loops (this DP is the online re-plan hot path).
        const std::size_t npts = frontiers[li].points.size();
        std::vector<int> lu(npts);
        std::vector<int> tu(npts);
        for (std::size_t pi = 0; pi < npts; ++pi) {
            lu[pi] = loss_units(frontiers[li].points[pi].accuracy_loss);
            tu[pi] = time_units(frontiers[li].points[pi].time_ms);
        }
        std::vector<double> ndp(states, inf);
        for (int b = 0; b <= b_total; ++b) {
            for (int t = 0; t <= t_total; ++t) {
                for (std::size_t pi = 0; pi < npts; ++pi) {
                    if (lu[pi] > b || tu[pi] > t
                        || dp[state(b - lu[pi], t - tu[pi])] == inf) {
                        continue;
                    }
                    const double e = dp[state(b - lu[pi], t - tu[pi])]
                                     + frontiers[li].points[pi].energy_mj;
                    if (e < ndp[state(b, t)]) {
                        ndp[state(b, t)] = e;
                        choice[li][state(b, t)] = static_cast<int>(pi);
                    }
                }
            }
        }
        dp = std::move(ndp);
    }

    if (dp[state(b_total, t_total)] == inf) {
        // No selection meets both budgets.
        return fastest_fallback();
    }

    // Reconstruct backwards from the full budgets.
    std::vector<std::size_t> picked(n, 0);
    int b = b_total;
    int t = t_total;
    for (std::size_t li = n; li-- > 0;) {
        const int pi = choice[li][state(b, t)];
        picked[li] = static_cast<std::size_t>(pi);
        b -= loss_units(frontiers[li].points[picked[li]].accuracy_loss);
        t -= time_units(frontiers[li].points[picked[li]].time_ms);
    }
    return summarize(std::move(picked), true);
}

} // namespace dvafs
