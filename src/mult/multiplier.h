// Common interface of structural (gate-level) multipliers.
//
// A structural multiplier owns its netlist and a logic simulator. Calling
// simulate() drives a new input vector, so consecutive calls accumulate
// switching activity -- the raw material for every energy number in the
// paper's Figs. 2-3.

#pragma once

#include "circuit/cells.h"
#include "circuit/compiled_sim.h"
#include "circuit/logic_sim.h"
#include "circuit/netlist.h"
#include "circuit/tech.h"
#include "circuit/timing.h"

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace dvafs {

class structural_multiplier {
public:
    virtual ~structural_multiplier() = default;

    structural_multiplier(const structural_multiplier&) = delete;
    structural_multiplier& operator=(const structural_multiplier&) = delete;

    int width() const noexcept { return width_; }
    bool is_signed() const noexcept { return signed_; }
    const std::string& name() const noexcept { return name_; }
    const netlist& net() const noexcept { return nl_; }

    // Computes a*b through the gate-level netlist. Operands must fit the
    // multiplier's width (signed or unsigned per is_signed()).
    std::int64_t simulate(std::int64_t a, std::int64_t b);

    // Batched variant: evaluates n operand pairs through the compiled
    // 512-lane simulator (one schedule pass per 512 vectors) and, when
    // `out` is non-null, stores the n products. Switching statistics
    // accumulate exactly as n consecutive simulate() calls would; the
    // scalar and batched engines keep separate last-vector state, so do
    // not interleave the two paths within one measurement (reset_stats()
    // between them).
    //
    // Large batches fan out over set_batch_threads() workers in contiguous
    // 512-vector chunk ranges. Each extra worker leases a warm executor
    // from the process-wide pool and re-establishes the toggle carry by
    // replaying its range's predecessor vector uncounted, so outputs,
    // toggle counts and switched capacitance are bit-identical for every
    // thread count (asserted in tests/test_sim_engine.cpp).
    void simulate_batch(const std::int64_t* a, const std::int64_t* b,
                        std::size_t n, std::int64_t* out = nullptr);

    // Worker threads for simulate_batch: 0 = hardware default, 1 = serial.
    void set_batch_threads(unsigned threads) noexcept
    {
        batch_threads_ = threads;
    }

    // Pure-arithmetic result this design is *supposed* to produce (for the
    // exact designs this is the true product; approximate designs override).
    virtual std::int64_t functional(std::int64_t a, std::int64_t b) const;

    // -- switching-activity statistics --------------------------------------
    // Counters sum over the scalar and compiled batch engines, so either
    // path (or both, sequentially) contributes to the same energy
    // accounting.
    void reset_stats()
    {
        sim_->reset_stats();
        wide_->reset_stats();
    }
    std::uint64_t total_toggles() const
    {
        return sim_->total_toggles() + wide_->total_toggles();
    }
    std::uint64_t transitions() const
    {
        return sim_->transitions() + wide_->transitions();
    }
    double switched_capacitance_ff(const tech_model& t) const
    {
        return sim_->switched_capacitance_ff(t)
               + wide_->switched_capacitance_ff(t);
    }
    // Mean switched capacitance per applied input transition [fF].
    double mean_switched_cap_ff(const tech_model& t) const;

    // -- timing --------------------------------------------------------------
    // Critical path at vdd through the full netlist.
    double critical_path_ps(const tech_model& t, double vdd) const;

    std::size_t gate_count() const noexcept { return nl_.logic_gate_count(); }

protected:
    structural_multiplier(std::string name, int width, bool is_signed)
        : name_(std::move(name)), width_(width), signed_(is_signed)
    {
    }

    // Called by subclasses once construction of nl_ is complete.
    void finalize();

    // Assembles the full primary-input vector for operands a, b into `v`
    // (resized and cleared here, so batch drivers reuse one buffer across
    // lanes instead of allocating per vector). Subclasses with extra
    // control inputs (modes, precision selects) override it. Const so that
    // batch drivers and thread-shared sweep workers can build stimuli
    // without mutating the multiplier.
    virtual void input_vector_into(std::int64_t a, std::int64_t b,
                                   std::vector<bool>& v) const;

    // Allocating convenience wrapper over input_vector_into.
    std::vector<bool> input_vector(std::int64_t a, std::int64_t b) const
    {
        std::vector<bool> v;
        input_vector_into(a, b, v);
        return v;
    }

    // Drives one input vector through the scalar simulator.
    void drive(std::int64_t a, std::int64_t b)
    {
        sim_->apply(input_vector(a, b));
    }

    netlist nl_;
    bus a_bus_;
    bus b_bus_;
    bus out_bus_;
    std::unique_ptr<logic_sim> sim_;
    // Batch engine: the compiled 512-lane simulator over this multiplier's
    // own generic schedule (no ties -- the runtime mode/precision inputs
    // stay live so set_mode() works between batches). batch_sched_ keeps
    // the shared schedule handle so extra simulate_batch workers can lease
    // pool executors over the very same compiled structure.
    std::shared_ptr<const compiled_schedule> batch_sched_;
    std::unique_ptr<compiled_sim> wide_;

private:
    std::string name_;
    int width_;
    bool signed_;
    unsigned batch_threads_ = 0;
};

} // namespace dvafs
