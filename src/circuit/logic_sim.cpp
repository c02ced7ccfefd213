#include "circuit/logic_sim.h"

#include "circuit/gate_kinds.h"
#include "circuit/tech.h"

#include <algorithm>
#include <stdexcept>

namespace dvafs {

// The interpreter and the constant propagation below evaluate gates
// through the one shared truth table in circuit/gate_kinds.h (the compiled
// simulator's kernels use the same table over 64-lane words), so a gate
// kind is defined in exactly one place.

logic_sim::logic_sim(const netlist& nl)
    : nl_(nl),
      values_(nl.size(), 0),
      prev_(nl.size(), 0),
      toggles_(nl.size(), 0)
{
}

void logic_sim::apply(const std::vector<bool>& input_values)
{
    const auto& ins = nl_.inputs();
    if (input_values.size() != ins.size()) {
        throw std::invalid_argument("logic_sim: input vector size mismatch");
    }
    for (std::size_t i = 0; i < ins.size(); ++i) {
        values_[ins[i]] = input_values[i] ? 1 : 0;
    }
    evaluate();
}

void logic_sim::apply_packed(std::uint64_t bits)
{
    const auto& ins = nl_.inputs();
    if (ins.size() > 64) {
        throw std::invalid_argument("logic_sim: too many inputs to pack");
    }
    std::vector<bool> v(ins.size());
    for (std::size_t i = 0; i < ins.size(); ++i) {
        v[i] = ((bits >> i) & 1ULL) != 0;
    }
    apply(v);
}

void logic_sim::evaluate()
{
    const auto& gates = nl_.gates();
    for (std::size_t i = 0; i < gates.size(); ++i) {
        const gate& g = gates[i];
        if (g.kind == gate_kind::input) {
            continue; // already set
        }
        if (g.kind == gate_kind::constant) {
            values_[i] = g.aux;
            continue;
        }
        const int arity = gate_kind_arity(g.kind);
        const std::uint8_t a = values_[g.in0];
        const std::uint8_t b = arity >= 2 ? values_[g.in1] : std::uint8_t{0};
        const std::uint8_t c = arity >= 3 ? values_[g.in2] : std::uint8_t{0};
        values_[i] = eval_gate_kind<std::uint8_t>(g.kind, a, b, c,
                                                  std::uint8_t{1});
    }
    if (initialized_) {
        ++transitions_;
        for (std::size_t i = 0; i < values_.size(); ++i) {
            toggles_[i] += static_cast<std::uint64_t>(
                values_[i] != prev_[i]);
        }
    }
    prev_ = values_;
    initialized_ = true;
}

std::uint64_t logic_sim::read_bus(const std::vector<net_id>& nets) const
{
    if (nets.size() > 64) {
        throw std::invalid_argument(
            "logic_sim: bus wider than 64 nets cannot be packed");
    }
    std::uint64_t out = 0;
    for (std::size_t i = 0; i < nets.size(); ++i) {
        out |= static_cast<std::uint64_t>(values_.at(nets[i])) << i;
    }
    return out;
}

std::uint64_t logic_sim::total_toggles() const noexcept
{
    std::uint64_t total = 0;
    for (const std::uint64_t t : toggles_) {
        total += t;
    }
    return total;
}

double logic_sim::switched_capacitance_ff(const tech_model& tech) const
{
    double total = 0.0;
    const auto& gates = nl_.gates();
    for (std::size_t i = 0; i < gates.size(); ++i) {
        if (toggles_[i] == 0) {
            continue;
        }
        total += static_cast<double>(toggles_[i])
                 * tech.gate_cap_ff(gates[i].kind);
    }
    return total;
}

void logic_sim::reset_stats()
{
    std::fill(toggles_.begin(), toggles_.end(), 0);
    transitions_ = 0;
}

std::vector<std::uint8_t>
propagate_constants(const netlist& nl,
                    const std::vector<std::pair<net_id, bool>>& tied)
{
    std::vector<std::uint8_t> val(nl.size(), ternary_x);
    for (const auto& [id, value] : tied) {
        val.at(id) = value ? ternary_1 : ternary_0;
    }

    const auto& gates = nl.gates();
    for (std::size_t i = 0; i < gates.size(); ++i) {
        const gate& g = gates[i];
        if (g.kind == gate_kind::input) {
            continue; // stays as tied or X
        }
        if (g.kind == gate_kind::constant) {
            val[i] = g.aux ? ternary_1 : ternary_0;
            continue;
        }
        const int arity = gate_kind_arity(g.kind);
        const std::uint8_t a = val[g.in0];
        const std::uint8_t b = arity >= 2 ? val[g.in1] : ternary_x;
        const std::uint8_t c = arity >= 3 ? val[g.in2] : ternary_x;
        val[i] = eval_gate_kind_x(g.kind, a, b, c);
    }
    return val;
}

std::vector<bool>
find_static_gates(const netlist& nl,
                  const std::vector<std::pair<net_id, bool>>& tied)
{
    const std::vector<std::uint8_t> val = propagate_constants(nl, tied);
    std::vector<bool> is_static(val.size(), false);
    for (std::size_t i = 0; i < val.size(); ++i) {
        is_static[i] = (val[i] != ternary_x);
    }
    return is_static;
}

} // namespace dvafs
