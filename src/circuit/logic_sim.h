// Levelized two-valued logic simulator with switching-activity accounting.
//
// Because gates are stored in topological order, one linear pass evaluates
// the whole netlist. Between consecutive input vectors, every gate whose
// output changes increments a toggle counter; weighted by the per-gate-kind
// switched capacitance from the technology model this yields the dynamic
// energy estimate  E = sum_g toggles(g) * C(g) * V^2  used throughout the
// paper's analysis.

#pragma once

#include "circuit/netlist.h"

#include <cstdint>
#include <vector>

namespace dvafs {

struct tech_model; // circuit/tech.h

class logic_sim {
public:
    explicit logic_sim(const netlist& nl);

    // Sets all primary inputs (order = netlist::inputs()) and evaluates.
    // The first call establishes the baseline; subsequent calls accumulate
    // toggle counts.
    void apply(const std::vector<bool>& input_values);

    // Applies inputs packed into a word per bus (helper for tests).
    void apply_packed(std::uint64_t bits);

    bool value(net_id id) const { return values_.at(id) != 0; }

    // Reads a multi-bit bus given its nets, LSB first. Throws
    // std::invalid_argument for buses wider than 64 nets (which cannot be
    // packed into the return word).
    std::uint64_t read_bus(const std::vector<net_id>& nets) const;

    // -- activity statistics ------------------------------------------------
    std::uint64_t toggles(net_id id) const { return toggles_.at(id); }
    std::uint64_t total_toggles() const noexcept;
    // Toggles weighted by per-gate switched capacitance [fF].
    double switched_capacitance_ff(const tech_model& tech) const;
    // Number of input vectors applied since the last reset (first vector
    // initializes state and is not counted as a transition).
    std::uint64_t transitions() const noexcept { return transitions_; }

    void reset_stats();

private:
    void evaluate();

    const netlist& nl_;
    std::vector<std::uint8_t> values_;
    std::vector<std::uint8_t> prev_;
    std::vector<std::uint64_t> toggles_;
    std::uint64_t transitions_ = 0;
    bool initialized_ = false;
};

// Three-valued constant propagation (values from circuit/gate_kinds.h:
// ternary_0 / ternary_1 / ternary_x): one entry per net, the net's fixed
// value given that the listed inputs are tied to constants, or ternary_x
// when it can still vary. `tied` holds pairs (input net, value); all other
// inputs are unknown. This is the oracle behind find_static_gates, the
// timing analyzer's active cone and the compiled simulator's cone pruning.
std::vector<std::uint8_t>
propagate_constants(const netlist& nl,
                    const std::vector<std::pair<net_id, bool>>& tied);

// Constant propagation: returns a mask (one entry per gate) that is true for
// gates whose output is fixed given that the listed inputs are tied to
// constants. Gates marked static cannot toggle; the timing analyzer excludes
// them from the active cone. `tied` holds pairs (input net, value); all other
// inputs are unknown.
std::vector<bool>
find_static_gates(const netlist& nl,
                  const std::vector<std::pair<net_id, bool>>& tied);

} // namespace dvafs
