// Multithreaded operating-point sweep engine.
//
// Each sweep point is an independent measurement: a compiled 512-lane
// executor (circuit/compiled_sim.h) over the *shared*
// mode-specialized schedule of the multiplier netlist, driven with an
// identical seeded operand stream (the same stream for every point, as
// the k-parameter extraction requires), plus an active-cone timing pass.
// The schedule bakes the point's tied inputs (mode selects, DAS selects,
// gated operand LSBs) in at compile time, so reduced-precision points
// simulate only their active cone; results stay bit-identical to the
// scalar oracle (logic_sim) on the same stream.
// Points are farmed across a std::thread pool; results are written by
// point index, so the output is bit-identical for any thread count --
// determinism is asserted in tests/test_sim_engine.cpp.
//
// Building a W-bit DVAFS netlist is the expensive part of standing up a
// measurement (~10k gate constructions), so netlist_cache shares one
// immutable structure per key across all engines, threads and benches;
// compiled_netlist_cache does the same for the per-mode schedules.

#pragma once

#include "circuit/compiled_sim.h"
#include "circuit/tech.h"
#include "mult/dvafs_mult.h"
#include "sim/result.h"
#include "sim/sweep.h"
#include "util/rng.h"

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <vector>

namespace dvafs {

struct sim_engine_config {
    unsigned threads = 0;            // worker threads; 0 = hardware default
    std::uint64_t vectors = 2000;    // input transitions per point
    std::uint64_t seed = 42;         // operand stream seed (shared by points)
    double throughput_mops = 500.0;  // constant-throughput rule for f
};

// A suspended per-point measurement: everything needed to extend the
// measurement to more vectors later -- in this process or another one (the
// struct is what the frontier cache persists to disk). The operand stream
// is seed-deterministic and drawn strictly in vector order, and the
// executor's statistics carry is chunking-independent, so resuming
// from (done, rng, sim) and running to N vectors is bit-identical to a
// fresh N-vector measurement (asserted in tests/test_pareto.cpp).
struct point_measure_state {
    operating_point_spec spec;
    std::uint64_t done = 0;        // counted vectors measured so far
    pcg32_state rng;               // stream position after `done` vectors
    sim_activity_state sim;        // executor statistics carry
    double crit_path_ps = 0.0;     // cached active-cone STA result
    bool timed = false;            // crit_path_ps is valid
};

class sim_engine {
public:
    explicit sim_engine(sim_engine_config cfg = {}) : cfg_(cfg) {}

    // Measures every spec against `mult`'s netlist. The multiplier is only
    // read (netlist, input layout, timing); its own simulators and mode
    // state are untouched, so one instance may serve concurrent runs.
    sweep_report run(const dvafs_multiplier& mult, const tech_model& tech,
                     const std::vector<operating_point_spec>& specs) const;

    // One point: the unit of work the pool farms out. Exposed for tests
    // and for callers that only need a single configuration. Implemented
    // as measure_to over a fresh state, so the two entry points cannot
    // drift apart.
    sim_point_result measure(const dvafs_multiplier& mult,
                             const tech_model& tech,
                             const operating_point_spec& spec) const;

    // Resumable measurement: brings `st` from st.done to cfg.vectors
    // counted vectors (fresh start when st.done == 0) and returns the
    // point result at cfg.vectors. The state left in `st` can be fed back
    // under a larger cfg.vectors to extend the measurement; results are
    // bit-identical to an uninterrupted run (see point_measure_state).
    // Throws std::invalid_argument when st.done > cfg.vectors or the
    // saved executor state does not fit the point's schedule (a caller
    // holding a stale or corrupt state should reset it and re-measure).
    sim_point_result measure_to(const dvafs_multiplier& mult,
                                const tech_model& tech,
                                point_measure_state& st) const;

    // Batched multi-group run: one sweep_report per group, all points of
    // all groups farmed over a single shared thread pool. Equivalent to
    // calling run() once per group (results are bit-identical, for any
    // thread count), but multi-layer callers -- the Pareto planner sweeps
    // one group per subword family -- pay the pool spin-up only once.
    std::vector<sweep_report>
    run_batch(const dvafs_multiplier& mult, const tech_model& tech,
              const std::vector<std::vector<operating_point_spec>>& groups)
        const;

    const sim_engine_config& config() const noexcept { return cfg_; }

private:
    sim_engine_config cfg_;
};

// Keyed cache of built gate-level structures. Entries are immutable once
// published and shared by reference; the key is the structure family plus
// width (currently only the DVAFS multiplier family is cached).
class netlist_cache {
public:
    static netlist_cache& global();

    // The W-bit DVAFS multiplier, built once per width per process.
    // Entries live for the whole process (there is deliberately no eviction:
    // callers hold bare references into the cache).
    std::shared_ptr<const dvafs_multiplier> dvafs(int width);

private:
    netlist_cache() = default;

    std::mutex mu_;
    std::map<int, std::shared_ptr<const dvafs_multiplier>> dvafs_;
};

} // namespace dvafs
