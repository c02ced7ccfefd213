// The single source of truth for gate semantics.
//
// Every engine that evaluates gates -- the scalar reference simulator, the
// compiled 512-lane kernels and the three-valued constant propagation
// behind cone pruning and the timing analyzer -- used to carry its own
// per-kind switch table; a new gate kind meant editing them all in
// lock-step. This header collapses them into one description:
//
//  * gate_kind_arity(k)  -- fanin count (netlist::fanin_count delegates).
//  * eval_gate_kind(...) -- the bitwise truth table, generic over any word
//    type with &, |, ^ operators. Passing `ones` (the all-ones word: 1 for
//    0/1 scalars, ~0 for uint64_t lanes) expresses inversion as xor, so
//    one body serves every lane width.
//  * eval_gate_kind_x(...) -- three-valued {0, 1, X} evaluation *derived*
//    from the binary table by enumerating the unknown inputs (at most 8
//    assignments for 3-input gates): if every completion agrees the gate
//    is constant, otherwise X. Deriving it keeps the constant propagation
//    incapable of disagreeing with the simulators.
//
// `input` and `constant` are not evaluated here: inputs are set externally
// and constants carry their value in gate::aux; callers handle both before
// dispatching.

#pragma once

#include "circuit/netlist.h"

#include <cstdint>

namespace dvafs {

constexpr int gate_kind_arity(gate_kind k) noexcept
{
    switch (k) {
    case gate_kind::input:
    case gate_kind::constant:
        return 0;
    case gate_kind::buf:
    case gate_kind::not_g:
        return 1;
    case gate_kind::and_g:
    case gate_kind::or_g:
    case gate_kind::xor_g:
    case gate_kind::nand_g:
    case gate_kind::nor_g:
    case gate_kind::xnor_g:
        return 2;
    case gate_kind::and3_g:
    case gate_kind::or3_g:
    case gate_kind::mux_g:
    case gate_kind::maj_g:
        return 3;
    }
    return 0;
}

// Bitwise evaluation of one combinational gate kind. Word must support
// & | ^ (uint64_t, 0/1-valued uint8_t and the vec backends' word wrapper
// all do); `ones` is the all-ones word of that type. Every function below
// is lane-independent, so the same body is correct for 1 or 64 lanes.
// Callers must not pass gate_kind::input or gate_kind::constant.
template <class Word>
constexpr Word eval_gate_kind(gate_kind k, const Word& a, const Word& b,
                              const Word& c, const Word& ones)
{
    switch (k) {
    case gate_kind::buf:
        return a;
    case gate_kind::not_g:
        return a ^ ones;
    case gate_kind::and_g:
        return a & b;
    case gate_kind::or_g:
        return a | b;
    case gate_kind::xor_g:
        return a ^ b;
    case gate_kind::nand_g:
        return (a & b) ^ ones;
    case gate_kind::nor_g:
        return (a | b) ^ ones;
    case gate_kind::xnor_g:
        return (a ^ b) ^ ones;
    case gate_kind::and3_g:
        return a & b & c;
    case gate_kind::or3_g:
        return a | b | c;
    case gate_kind::mux_g:
        return (c & b) | ((c ^ ones) & a);
    case gate_kind::maj_g:
        return (a & b) | (b & c) | (a & c);
    default:
        return a; // input/constant: unreachable by contract
    }
}

// Three-valued logic values used by constant propagation.
inline constexpr std::uint8_t ternary_0 = 0;
inline constexpr std::uint8_t ternary_1 = 1;
inline constexpr std::uint8_t ternary_x = 2;

// Three-valued evaluation derived from the binary truth table: unknown
// inputs are enumerated over {0, 1}; the result is constant iff every
// completion produces the same value. This is the complete per-gate
// propagation (it subsumes hand-written dominance rules such as
// "and with a 0 input is 0" or "mux with equal data inputs ignores the
// select"). Fanins beyond the gate's arity are ignored.
constexpr std::uint8_t eval_gate_kind_x(gate_kind k, std::uint8_t a,
                                        std::uint8_t b, std::uint8_t c)
{
    const int arity = gate_kind_arity(k);
    const std::uint8_t in[3] = {a, b, c};
    int unknown[3] = {};
    int n_unknown = 0;
    for (int i = 0; i < arity; ++i) {
        if (in[i] == ternary_x) {
            unknown[n_unknown++] = i;
        }
    }
    std::uint8_t result = ternary_x;
    for (int assign = 0; assign < (1 << n_unknown); ++assign) {
        std::uint8_t v[3] = {a, b, c};
        for (int u = 0; u < n_unknown; ++u) {
            v[unknown[u]] = static_cast<std::uint8_t>((assign >> u) & 1);
        }
        const std::uint8_t r = eval_gate_kind<std::uint8_t>(
            k, v[0], v[1], v[2], std::uint8_t{1});
        if (assign == 0) {
            result = r;
        } else if (r != result) {
            return ternary_x;
        }
    }
    return result;
}

} // namespace dvafs
