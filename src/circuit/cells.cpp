#include "circuit/cells.h"

#include <algorithm>
#include <numeric>
#include <stdexcept>

namespace dvafs {

adder_bit build_half_adder(netlist& nl, net_id a, net_id b)
{
    adder_bit r;
    r.sum = nl.xor_g(a, b);
    r.carry = nl.and_g(a, b);
    return r;
}

adder_bit build_full_adder(netlist& nl, net_id a, net_id b, net_id cin)
{
    adder_bit r;
    r.sum = nl.xor_g(nl.xor_g(a, b), cin);
    r.carry = nl.maj_g(a, b, cin);
    return r;
}

bus build_ripple_adder(netlist& nl, const bus& a, const bus& b, net_id cin,
                       bool drop_carry)
{
    const std::size_t width = std::max(a.size(), b.size());
    const net_id zero = nl.add_const(false);
    bus out;
    out.reserve(width + 1);
    net_id carry = (cin == no_net) ? zero : cin;
    for (std::size_t i = 0; i < width; ++i) {
        const net_id ai = i < a.size() ? a[i] : zero;
        const net_id bi = i < b.size() ? b[i] : zero;
        const adder_bit fa = build_full_adder(nl, ai, bi, carry);
        out.push_back(fa.sum);
        carry = fa.carry;
    }
    if (!drop_carry) {
        out.push_back(carry);
    }
    return out;
}

bus build_kogge_stone_adder(netlist& nl, const bus& a, const bus& b,
                            bool drop_carry)
{
    if (a.size() != b.size()) {
        throw std::invalid_argument("kogge_stone: width mismatch");
    }
    const std::size_t n = a.size();
    if (n == 0) {
        return {};
    }

    // Generate / propagate per bit.
    bus g(n);
    bus p(n);
    for (std::size_t i = 0; i < n; ++i) {
        g[i] = nl.and_g(a[i], b[i]);
        p[i] = nl.xor_g(a[i], b[i]);
    }

    // Prefix combine: (g, p) o (g', p') = (g | p & g', p & p').
    bus gg = g;
    bus pp = p;
    for (std::size_t dist = 1; dist < n; dist <<= 1) {
        bus g2 = gg;
        bus p2 = pp;
        for (std::size_t i = dist; i < n; ++i) {
            g2[i] = nl.or_g(gg[i], nl.and_g(pp[i], gg[i - dist]));
            p2[i] = nl.and_g(pp[i], pp[i - dist]);
        }
        gg = std::move(g2);
        pp = std::move(p2);
    }

    // Carries: c[0] = 0, c[i] = gg[i-1]; sum[i] = p[i] ^ c[i].
    const net_id zero = nl.add_const(false);
    bus out;
    out.reserve(n + 1);
    net_id carry_in = zero;
    for (std::size_t i = 0; i < n; ++i) {
        out.push_back(nl.xor_g(p[i], carry_in));
        carry_in = gg[i];
    }
    if (!drop_carry) {
        out.push_back(carry_in);
    }
    return out;
}

compressed_rows
build_wallace_compressor(netlist& nl, std::vector<std::vector<net_id>> columns,
                         const std::vector<net_id>& carry_kill)
{
    compressed_rows result;
    const net_id zero = nl.add_const(false);

    // Drop constant-zero entries up front; they correspond to hardwired
    // absent partial products and cost nothing in hardware.
    for (auto& col : columns) {
        std::erase(col, zero);
    }

    bool work_left = true;
    while (work_left) {
        work_left = false;
        std::vector<std::vector<net_id>> next(columns.size() + 1);
        for (std::size_t c = 0; c < columns.size(); ++c) {
            auto& col = columns[c];
            std::size_t i = 0;
            const auto push_carry = [&](net_id carry) {
                // A carry from column c lands in column c+1; a kill net on
                // column c+1 gates it off in subword modes.
                if (c + 1 < carry_kill.size()
                    && carry_kill[c + 1] != no_net) {
                    carry = nl.and_g(carry, carry_kill[c + 1]);
                }
                next[c + 1].push_back(carry);
            };
            while (col.size() - i >= 3) {
                const adder_bit fa = build_full_adder(nl, col[i], col[i + 1],
                                                      col[i + 2]);
                ++result.full_adders;
                next[c].push_back(fa.sum);
                push_carry(fa.carry);
                i += 3;
            }
            if (col.size() - i == 2 && col.size() > 2) {
                // Column still too tall overall: use a half adder.
                const adder_bit ha = build_half_adder(nl, col[i], col[i + 1]);
                ++result.half_adders;
                next[c].push_back(ha.sum);
                push_carry(ha.carry);
                i += 2;
            }
            for (; i < col.size(); ++i) {
                next[c].push_back(col[i]);
            }
        }
        // Trim trailing empty columns, then check whether anything is taller
        // than two entries.
        while (!next.empty() && next.back().empty()) {
            next.pop_back();
        }
        for (const auto& col : next) {
            if (col.size() > 2) {
                work_left = true;
                break;
            }
        }
        columns = std::move(next);
    }

    result.row0.assign(columns.size(), zero);
    result.row1.assign(columns.size(), zero);
    for (std::size_t c = 0; c < columns.size(); ++c) {
        if (!columns[c].empty()) {
            result.row0[c] = columns[c][0];
        }
        if (columns[c].size() > 1) {
            result.row1[c] = columns[c][1];
        }
    }
    return result;
}

bus build_carry_select_adder(netlist& nl, const bus& a, const bus& b,
                             int block_bits,
                             const std::vector<std::pair<int, net_id>>& kills,
                             bool drop_carry)
{
    if (a.size() != b.size()) {
        throw std::invalid_argument("carry_select: width mismatch");
    }
    const int n = static_cast<int>(a.size());
    const net_id zero = nl.add_const(false);
    const net_id one = nl.add_const(true);

    const auto keep_at = [&](int pos) -> net_id {
        for (const auto& [p, keep] : kills) {
            if (p == pos) {
                return keep;
            }
        }
        return no_net;
    };

    bus out;
    out.reserve(a.size() + 1);
    net_id carry = zero;
    for (int base = 0; base < n; base += block_bits) {
        const int len = std::min(block_bits, n - base);
        if (const net_id keep = keep_at(base); keep != no_net) {
            carry = nl.and_g(carry, keep);
        }
        const bus ab(a.begin() + base, a.begin() + base + len);
        const bus bb(b.begin() + base, b.begin() + base + len);
        if (base == 0) {
            // First block: carry-in is known zero, one adder suffices.
            bus s = build_kogge_stone_adder(nl, ab, bb);
            carry = s.back();
            s.pop_back();
            out.insert(out.end(), s.begin(), s.end());
            continue;
        }
        // Speculative sums for carry-in 0 and 1, then select.
        bus s0 = build_kogge_stone_adder(nl, ab, bb);
        // carry-in 1: add (bb + 1) via an extra bus of value 1.
        bus one_bus(static_cast<std::size_t>(len), zero);
        one_bus[0] = one;
        bus bb1 = build_ripple_adder(nl, bb, one_bus, no_net,
                                     /*drop_carry=*/false);
        const net_id b_ovf = bb1.back();
        bb1.pop_back();
        bus s1 = build_kogge_stone_adder(nl, ab, bb1);
        const net_id c0 = s0.back();
        const net_id c1 = nl.or_g(s1.back(), b_ovf);
        s0.pop_back();
        s1.pop_back();
        for (std::size_t i = 0; i < s0.size(); ++i) {
            out.push_back(nl.mux_g(s0[i], s1[i], carry));
        }
        carry = nl.mux_g(c0, c1, carry);
    }
    if (!drop_carry) {
        out.push_back(carry);
    }
    return out;
}

bus build_wallace_sum(netlist& nl, std::vector<std::vector<net_id>> columns,
                      int result_width,
                      const std::vector<std::pair<int, net_id>>& kills)
{
    std::vector<net_id> kill_nets;
    if (!kills.empty()) {
        kill_nets.assign(static_cast<std::size_t>(result_width) + 1, no_net);
        for (const auto& [pos, net] : kills) {
            kill_nets.at(static_cast<std::size_t>(pos)) = net;
        }
    }
    columns.resize(static_cast<std::size_t>(result_width));
    compressed_rows rows =
        build_wallace_compressor(nl, std::move(columns), kill_nets);

    rows.row0.resize(static_cast<std::size_t>(result_width),
                     nl.add_const(false));
    rows.row1.resize(static_cast<std::size_t>(result_width),
                     nl.add_const(false));
    bus sum;
    if (kills.empty()) {
        sum = build_kogge_stone_adder(nl, rows.row0, rows.row1,
                                      /*drop_carry=*/true);
    } else {
        // Block size must divide every kill position so each cut lands on a
        // block boundary of the carry-select adder.
        int block_bits = 0;
        for (const auto& [pos, net] : kills) {
            block_bits = block_bits == 0 ? pos : std::gcd(block_bits, pos);
        }
        if (block_bits <= 0) {
            block_bits = 8;
        }
        sum = build_carry_select_adder(nl, rows.row0, rows.row1, block_bits,
                                       kills, /*drop_carry=*/true);
    }
    sum.resize(static_cast<std::size_t>(result_width), nl.add_const(false));
    return sum;
}

} // namespace dvafs
