// Measured Pareto-frontier search over DVAFS operating points.
//
// The paper's deployment flow (Sec. V, Table III) assigns every CNN layer an
// operating point (subword mode x voltage x frequency). PR 1's three-mode
// heuristic hardcodes that choice; this module instead *measures* the
// energy-accuracy space with the gate-level sweep engine and searches it:
//
//  1. mode_frontier -- each (mode, keep_bits) configuration of the DVAFS
//     multiplier is measured once through sim_engine (switched capacitance,
//     active-cone critical path), then expanded over the chip's frequency
//     ladder and supply grid. Infeasible points (supply below the VF curve
//     or the active cone missing timing) are discarded, dominated points
//     are pruned, and the result is cached per configuration key
//     (frontier_cache, mirroring netlist_cache).
//  2. layer_frontier -- mode-frontier points are mapped onto one layer's
//     workload: energy from the Envision decomposition with the *measured*
//     activity divisor, accuracy loss from quant_analysis probing on the
//     teacher dataset. Dominated points are pruned again per layer.
//  3. precision_planner (core/planner.h) selects one point per layer by
//     dynamic programming over the layer frontiers under a network
//     accuracy budget and an optional frame-latency budget, with one
//     selector (select_frontier_points_budgeted, core/select.h) for both
//     the offline flow (no latency budget) and the streaming runtime's
//     online re-plans (src/runtime/).
//
// Docs: docs/architecture.md (data flow), docs/glossary.md (terms).

#pragma once

#include "circuit/tech.h"
#include "envision/envision.h"
#include "sim/engine.h"

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

namespace dvafs {

// -- generic Pareto extraction ------------------------------------------------

// Indices of the non-dominated rows of a criteria matrix (all criteria
// minimized). Row i is dominated when some row j is <= in every column and
// < in at least one. Deterministic: indices are returned in ascending
// order; exact duplicates keep the lowest index only.
std::vector<std::size_t>
pareto_front(const std::vector<std::vector<double>>& criteria);

// -- measured mode frontier ---------------------------------------------------

// One measured hardware operating point, expanded to explicit (V, f).
struct frontier_point {
    operating_point_spec spec;      // mode, keep_bits, resolved V and f
    double vdd = 0.0;               // supply [V]
    double f_mhz = 0.0;             // clock [MHz]
    int lanes = 1;                  // words per cycle
    int precision_bits = 16;        // usable per-operand bits (= keep_bits)
    double mean_cap_ff = 0.0;       // measured switched cap per transition
    double crit_path_ps = 0.0;      // active-cone critical path at Vnom
    double activity_divisor = 1.0;  // cap(1x16 @ full) / cap(this point)
};

struct frontier_config {
    int width = 16;                 // multiplier width (netlist_cache key)
    std::uint64_t vectors = 600;    // input transitions per measured config
    std::uint64_t seed = 42;        // operand stream seed
    unsigned threads = 0;           // sweep workers; 0 = hardware default
    // Chip frequency ladder (Table III) and candidate supplies. A supply of
    // 0 means "derived": the larger of the chip VF-curve voltage and the
    // active-cone timing requirement at that frequency.
    std::vector<double> f_grid_mhz = {50.0, 100.0, 200.0};
    std::vector<double> vdd_grid = {0.0};
    // Cache key for frontier_cache (tech/calibration are keyed by name and
    // anchor values). Doubles are serialized as hexfloat so that distinct
    // grids always yield distinct keys -- the key is also the identity of
    // the on-disk cache entry, where a collision would silently serve the
    // wrong frontier (regression in tests/test_pareto.cpp).
    std::string key(const tech_model& tech,
                    const envision_calibration& cal) const;

    // The key minus the vector count: configurations differing only in
    // `vectors` measure prefixes of one seed-deterministic operand stream,
    // so they share one resumable measurement state (prefix extension).
    std::string base_key(const tech_model& tech,
                         const envision_calibration& cal) const;
};

// The measured (mode x voltage x frequency) space of one multiplier.
struct mode_frontier {
    frontier_config config;
    std::vector<frontier_point> points;  // feasible points, stable order
    std::vector<std::size_t> pareto;     // indices of non-dominated points

    // Index of the nominal reference point (1xW @ full precision @ f_nom);
    // its activity divisor is 1 by construction.
    std::size_t nominal = 0;
};

// Measures the frontier: one gate-level sweep per (mode, keep_bits) family
// -- farmed through sim_engine::run_batch over a single thread pool -- then
// analytic expansion over the (V, f) grid. Deterministic for any thread
// count (the engine contract).
mode_frontier measure_mode_frontier(const frontier_config& cfg,
                                    const tech_model& tech,
                                    const envision_calibration& cal);

// The resumable half of a frontier measurement: one suspended per-point
// stream (sim/engine.h) per (mode, keep_bits) configuration, flat in group
// order, all at the same vector count. Because the operand stream of an
// N-vector measurement is a prefix of every longer measurement, growing
// frontier_config::vectors extends this state instead of re-measuring from
// zero -- bit-identical to a from-scratch run (tests/test_pareto.cpp).
struct frontier_measurement {
    std::uint64_t vectors = 0;  // counted vectors each point has reached
    std::vector<point_measure_state> points;
};

// measure_mode_frontier, resuming from (and updating) `st`. An empty state
// starts fresh; a state at a smaller vector count is extended to
// cfg.vectors. Throws std::invalid_argument when the state does not match
// the configuration's point list or is ahead of cfg.vectors -- the caller
// should reset the state and re-measure (frontier_cache does).
mode_frontier
measure_mode_frontier_with_state(const frontier_config& cfg,
                                 const tech_model& tech,
                                 const envision_calibration& cal,
                                 frontier_measurement& st);

// Keyed cache of measured frontiers, sharing one immutable result per
// configuration across planners, threads and benches (the netlist_cache
// pattern; entries live for the whole process).
//
// Three layers back a miss, in order: the on-disk store (DVAFS_CACHE_DIR,
// util/disk_store.h) under the full key; a resumable measurement state --
// in memory or on disk under the base key -- holding a shorter prefix of
// the same operand stream, which is extended instead of re-measured; and a
// fresh gate-level sweep. First-time measurement is single-flight per base
// key: concurrent first callers block on one in-flight measurement rather
// than duplicating seconds of gate-level work (regression in
// tests/test_pareto.cpp).
class frontier_cache {
public:
    // The process-wide instance. The public constructor exists so tests
    // can exercise miss/extension paths on a cold cache.
    frontier_cache() = default;

    static frontier_cache& global();

    std::shared_ptr<const mode_frontier>
    get(const frontier_config& cfg, const tech_model& tech,
        const envision_calibration& cal);

    struct cache_stats {
        std::uint64_t hits = 0;       // served from the in-memory map
        std::uint64_t disk_hits = 0;  // deserialized from DVAFS_CACHE_DIR
        std::uint64_t extended = 0;   // prefix-extended from a saved state
        std::uint64_t measured = 0;   // measured from scratch
    };
    cache_stats stats() const noexcept;

private:
    // Per-base-key single-flight latch; lives as long as the cache.
    struct flight {
        std::mutex m;
    };

    std::shared_ptr<flight> flight_for(const std::string& base_key);
    void publish(const std::string& full_key, const std::string& base_key,
                 std::shared_ptr<const mode_frontier> frontier,
                 frontier_measurement state);

    std::mutex mu_;
    std::map<std::string, std::shared_ptr<const mode_frontier>> entries_;
    std::map<std::string, std::shared_ptr<flight>> inflight_;
    // Longest measured prefix per base key, for extension.
    std::map<std::string, frontier_measurement> states_;
    std::atomic<std::uint64_t> hits_{0};
    std::atomic<std::uint64_t> disk_hits_{0};
    std::atomic<std::uint64_t> extended_{0};
    std::atomic<std::uint64_t> measured_{0};
};

// -- frontier persistence -----------------------------------------------------

// Codecs of the "frontier" and "frontier_state" blobs frontier_cache keeps
// in the disk store. The decoders return nullopt on a malformed blob or a
// failed semantic check -- another config echoed (frontier), an empty
// point list or an out-of-range index (frontier), a point not at the
// state's vector count (state) -- so a corrupt entry costs a re-measure.
std::vector<std::uint8_t> serialize_frontier(const mode_frontier& mf);
std::optional<mode_frontier>
deserialize_frontier(const std::vector<std::uint8_t>& blob,
                     const frontier_config& cfg);
std::vector<std::uint8_t>
serialize_frontier_state(const frontier_measurement& st);
std::optional<frontier_measurement>
deserialize_frontier_state(const std::vector<std::uint8_t>& blob);

// The wire form of an operating_point_spec inside the frontier, state and
// teacher blobs (a util/serial.h walk).
inline constexpr auto walk_spec = [](auto& ar, auto& s) {
    ar.enum8(s.mode, sw_mode::w4x4);
    ar.i64(s.keep_bits);
    ar.f64(s.vdd);
    ar.f64(s.f_mhz);
};

// -- per-layer frontier -------------------------------------------------------

// One mode-frontier point mapped onto a layer workload.
struct layer_frontier_point {
    std::size_t mode_point = 0;   // index into mode_frontier.points
    operating_point_spec spec;    // the measured point's identity
    double activity_divisor = 1.0;
    envision_mode mode;           // resolved per-layer operating mode
    double energy_mj = 0.0;       // layer energy at this point (per frame)
    double time_ms = 0.0;         // layer runtime (per frame)
    double accuracy_loss = 0.0;   // measured network-accuracy drop
};

struct layer_frontier {
    std::string layer_name;
    std::size_t layer_index = 0;  // index into the network's layers
    int required_bits = 16;       // the quant sweep's max(weight, input)
    // Non-dominated (energy, accuracy-loss) points, energy ascending.
    std::vector<layer_frontier_point> points;

    bool contains(const operating_point_spec& spec) const noexcept;
};

} // namespace dvafs
