#include "mult/dvafs_mult.h"

#include "fixedpoint/bitops.h"
#include "mult/booth.h"
#include "vec/vec.h"

#include <algorithm>
#include <array>
#include <map>
#include <stdexcept>
#include <string>

namespace dvafs {

namespace {

// Operand-bit lane bounds [ls, le) of the lane containing bit position
// `bit` in mode m, for operand width w.
struct lane_geom {
    int ls;
    int le;
};

lane_geom geom(sw_mode m, int bit, int w)
{
    const int lw = w / lane_count(m);
    const int lane = bit / lw;
    return {lane * lw, lane * lw + lw};
}

} // namespace

dvafs_multiplier::dvafs_multiplier(int width)
    : structural_multiplier("dvafs" + std::to_string(width), width,
                            /*is_signed=*/true)
{
    if (width < 8 || width % 4 != 0 || width > 16) {
        throw std::invalid_argument(
            "dvafs_multiplier: width must be 8, 12 or 16");
    }
    const int w = width;
    const int q = w / 4; // quarter-word: DAS granularity and 4x lane width
    const int out_w = 2 * w;
    das_keep_ = w;

    for (int i = 0; i < w; ++i) {
        a_bus_.push_back(nl_.add_input("a" + std::to_string(i)));
    }
    for (int i = 0; i < w; ++i) {
        b_bus_.push_back(nl_.add_input("b" + std::to_string(i)));
    }
    mode_bus_.push_back(nl_.add_input("mode0"));
    mode_bus_.push_back(nl_.add_input("mode1"));
    das_bus_.push_back(nl_.add_input("das0"));
    das_bus_.push_back(nl_.add_input("das1"));

    const net_id zero = nl_.add_const(false);
    const net_id one_c = nl_.add_const(true);

    // One-hot mode nets from the two select bits.
    const net_id s0 = mode_bus_[0];
    const net_id s1 = mode_bus_[1];
    std::array<net_id, 3> mode_net{};
    mode_net[0] = nl_.nor_g(s0, s1);            // 1xW
    mode_net[1] = nl_.and_g(s0, nl_.not_g(s1)); // 2x(W/2)
    mode_net[2] = nl_.and_g(nl_.not_g(s0), s1); // 4x(W/4)

    // One-hot DAS level nets: level L means t = L*q truncated bits.
    const net_id d0 = das_bus_[0];
    const net_id d1 = das_bus_[1];
    std::array<net_id, 4> das_net{};
    das_net[0] = nl_.nor_g(d0, d1);
    das_net[1] = nl_.and_g(d0, nl_.not_g(d1));
    das_net[2] = nl_.and_g(nl_.not_g(d0), d1);
    das_net[3] = nl_.and_g(d0, d1);

    // Quarter-enable nets: quarter k of the operands carries live data iff
    // the DAS level is at most k (quarter 3 is always live).
    std::array<net_id, 4> quarter_en{};
    quarter_en[0] = das_net[0];
    quarter_en[1] = nl_.or_g(das_net[0], das_net[1]);
    quarter_en[2] = nl_.or3_g(das_net[0], das_net[1], das_net[2]);
    quarter_en[3] = one_c;

    // Memoized net for "any of these modes". The all-three set is treated
    // as constant true: with a valid one-hot mode exactly one net is high
    // (invalid select 11 is undefined behaviour, documented in the header).
    std::map<unsigned, net_id> modeset_cache;
    const auto modeset = [&](unsigned mask) -> net_id {
        if (mask == 0U) {
            return zero;
        }
        if (mask == 7U) {
            return one_c;
        }
        if (const auto it = modeset_cache.find(mask);
            it != modeset_cache.end()) {
            return it->second;
        }
        net_id acc = no_net;
        for (unsigned m = 0; m < 3; ++m) {
            if (mask & (1U << m)) {
                acc = (acc == no_net) ? mode_net[m]
                                      : nl_.or_g(acc, mode_net[m]);
            }
        }
        modeset_cache.emplace(mask, acc);
        return acc;
    };
    // Memoized combined enable: mode set AND quarter enable.
    std::map<std::pair<unsigned, int>, net_id> en_cache;
    const auto enable = [&](unsigned mask, int quarter) -> net_id {
        quarter = std::min(quarter, 3);
        if (quarter == 3) {
            return modeset(mask);
        }
        const auto key = std::make_pair(mask, quarter);
        if (const auto it = en_cache.find(key); it != en_cache.end()) {
            return it->second;
        }
        const net_id net = nl_.and_g(modeset(mask), quarter_en[quarter]);
        en_cache.emplace(key, net);
        return net;
    };
    // and(m1x, das level L), shared across rows for neg relocation.
    std::array<net_id, 4> neg_sel{};
    for (int lvl = 0; lvl < 4; ++lvl) {
        neg_sel[static_cast<std::size_t>(lvl)] =
            nl_.and_g(mode_net[0], das_net[static_cast<std::size_t>(lvl)]);
    }

    const int groups = w / 2;
    std::vector<std::vector<net_id>> columns(
        static_cast<std::size_t>(out_w));
    const auto place = [&](int col, net_id net) {
        if (net != zero && col < out_w) {
            columns[static_cast<std::size_t>(col)].push_back(net);
        }
    };

    for (int g = 0; g < groups; ++g) {
        // --- Booth encoder with lane-aware overlap bit --------------------
        const net_id hi = b_bus_[static_cast<std::size_t>(2 * g + 1)];
        const net_id mid = b_bus_[static_cast<std::size_t>(2 * g)];
        net_id lo = zero;
        if (g > 0) {
            unsigned lo_mask = 0;
            for (unsigned m = 0; m < 3; ++m) {
                const lane_geom lg =
                    geom(static_cast<sw_mode>(m), 2 * g, w);
                if (2 * g - 1 >= lg.ls) {
                    lo_mask |= (1U << m);
                }
            }
            lo = nl_.and_g(b_bus_[static_cast<std::size_t>(2 * g - 1)],
                           modeset(lo_mask));
        }
        const booth_controls ctl = build_booth_encoder(nl_, hi, mid, lo);
        const net_id one_or_two = nl_.or_g(ctl.one, ctl.two);

        // --- two's-complement neg correction --------------------------------
        // Subword modes: +neg at the row's lane LSB, column 2g + ls.
        {
            std::map<int, unsigned> col_modes; // column -> mode mask
            for (unsigned m = 1; m < 3; ++m) {
                const lane_geom lg =
                    geom(static_cast<sw_mode>(m), 2 * g, w);
                col_modes[2 * g + lg.ls] |= (1U << m);
            }
            for (const auto& [col, mask] : col_modes) {
                place(col, nl_.and_g(ctl.neg, modeset(mask)));
            }
        }
        // 1xW mode: at DAS level L (t = L*q truncated bits) the +neg bit
        // moves to column 2g + t, compensating the force-gated all-`neg`
        // bits of the truncated region (exact when the operand LSBs are 0).
        for (int lvl = 0; lvl < 4; ++lvl) {
            const int t = lvl * q;
            if (t > 2 * g + 1) {
                continue; // row is static at this level (b LSBs are zero)
            }
            place(2 * g + t,
                  nl_.and_g(ctl.neg,
                            neg_sel[static_cast<std::size_t>(lvl)]));
        }

        // --- partial-product bits ------------------------------------------
        for (int j = 0; j <= w; ++j) {
            unsigned raw_mask = 0;
            unsigned ext_mask = 0;
            unsigned two_ok_mask = 0;
            for (unsigned m = 0; m < 3; ++m) {
                const lane_geom lg =
                    geom(static_cast<sw_mode>(m), 2 * g, w);
                if (j >= lg.ls && j < lg.le) {
                    raw_mask |= (1U << m);
                    if (j - 1 >= lg.ls) {
                        two_ok_mask |= (1U << m);
                    }
                } else if (j == lg.le) {
                    ext_mask |= (1U << m);
                }
            }
            const int col = 2 * g + j;
            if (raw_mask != 0) {
                // Operand isolation: every input of the PP bit is gated by
                // the enable, so a disabled bit's whole cone is static.
                const net_id en = enable(raw_mask, j / q);
                const net_id aj =
                    nl_.and_g(a_bus_[static_cast<std::size_t>(j)], en);
                net_id two_in = zero;
                if (j > 0) {
                    const net_id en2 = (two_ok_mask == raw_mask)
                                           ? en
                                           : enable(two_ok_mask, j / q);
                    two_in = nl_.and_g(
                        a_bus_[static_cast<std::size_t>(j - 1)], en2);
                }
                const net_id sel = nl_.or_g(nl_.and_g(ctl.one, aj),
                                            nl_.and_g(ctl.two, two_in));
                const net_id pp =
                    nl_.xor_g(sel, nl_.and_g(ctl.neg, en));
                place(col, pp);
            }
            if (ext_mask != 0) {
                // j == le for these modes; the sign bit a[le-1] == a[j-1]
                // is shared by every mode in the set. The inverted MSB must
                // be gated by the mode set (it reads 1 when inactive).
                const net_id en = modeset(ext_mask);
                const net_id sign =
                    a_bus_[static_cast<std::size_t>(j - 1)];
                const net_id ppx = nl_.xor_g(nl_.and_g(one_or_two, sign),
                                             ctl.neg);
                place(col, nl_.and_g(nl_.not_g(ppx), en));
            }
        }
    }

    // --- per-mode sign-extension compensation constants ---------------------
    std::array<std::uint64_t, 3> k_pattern{};
    for (unsigned m = 0; m < 3; ++m) {
        std::map<int, std::int64_t> lane_acc; // lane start bit -> constant
        for (int g = 0; g < groups; ++g) {
            const lane_geom lg = geom(static_cast<sw_mode>(m), 2 * g, w);
            lane_acc[lg.ls] -= 1LL << (2 * g + lg.le - 2 * lg.ls);
        }
        for (const auto& [ls, acc] : lane_acc) {
            const int fw = 2 * (w / lane_count(static_cast<sw_mode>(m)));
            const std::uint64_t bits = to_bits(acc, fw);
            k_pattern[m] |= bits << (2 * ls);
        }
    }
    for (int c = 0; c < out_w; ++c) {
        unsigned mask = 0;
        for (unsigned m = 0; m < 3; ++m) {
            if (bit_of(k_pattern[m], c)) {
                mask |= (1U << m);
            }
        }
        if (mask != 0) {
            place(c, modeset(mask));
        }
    }

    // --- carry cuts at product-field boundaries ------------------------------
    // A carry entering column c is allowed only in modes where c is not a
    // lane-field start: every 2q columns in 4x mode, column W in 2x mode.
    std::vector<std::pair<int, net_id>> kills;
    for (int c = 2 * q; c < out_w; c += 2 * q) {
        unsigned keep_mask = 0x7;
        keep_mask &= ~(1U << 2); // cut in 4x mode
        if (c % w == 0) {
            keep_mask &= ~(1U << 1); // cut in 2x mode
        }
        kills.emplace_back(c, modeset(keep_mask));
    }

    out_bus_ = build_wallace_sum(nl_, std::move(columns), out_w, kills);
    for (int i = 0; i < out_w; ++i) {
        nl_.mark_output("p" + std::to_string(i),
                        out_bus_[static_cast<std::size_t>(i)]);
    }
    finalize();
}

void dvafs_multiplier::set_mode(sw_mode m)
{
    if (m != sw_mode::w1x16 && das_keep_ != width()) {
        throw std::logic_error(
            "dvafs_multiplier: DAS precision requires 1xW mode");
    }
    mode_ = m;
}

void dvafs_multiplier::set_das_precision(int keep_bits)
{
    const int q = width() / 4;
    if (keep_bits < q || keep_bits > width() || keep_bits % q != 0) {
        throw std::invalid_argument(
            "dvafs_multiplier: DAS precision must be a quarter multiple");
    }
    if (mode_ != sw_mode::w1x16 && keep_bits != width()) {
        throw std::logic_error(
            "dvafs_multiplier: DAS precision requires 1xW mode");
    }
    das_keep_ = keep_bits;
}

std::vector<bool> dvafs_multiplier::input_vector_for(sw_mode m,
                                                     int das_keep_bits,
                                                     std::uint64_t a,
                                                     std::uint64_t b) const
{
    const int w = width();
    const int t = w - das_keep_bits;
    std::vector<bool> v(nl_.inputs().size(), false);
    // Hardware contract: the truncated LSBs arrive gated to zero.
    const std::uint64_t ab = (a & low_mask(w)) & ~low_mask(t);
    const std::uint64_t bb = (b & low_mask(w)) & ~low_mask(t);
    for (int i = 0; i < w; ++i) {
        v[static_cast<std::size_t>(i)] = bit_of(ab, i) != 0;
        v[static_cast<std::size_t>(w + i)] = bit_of(bb, i) != 0;
    }
    // Mode select: 00 = 1xW, 01 = 2x, 10 = 4x (s0 then s1).
    v[static_cast<std::size_t>(2 * w)] = (m == sw_mode::w2x8);
    v[static_cast<std::size_t>(2 * w + 1)] = (m == sw_mode::w4x4);
    const int lvl = t / (w / 4);
    v[static_cast<std::size_t>(2 * w + 2)] = (lvl & 1) != 0;
    v[static_cast<std::size_t>(2 * w + 3)] = (lvl & 2) != 0;
    return v;
}

void dvafs_multiplier::input_vector_into(std::int64_t a, std::int64_t b,
                                         std::vector<bool>& v) const
{
    const int w = width();
    v = input_vector_for(mode_, das_keep_, to_bits(a, w), to_bits(b, w));
}

void dvafs_multiplier::pack_input_words(
    sw_mode m, int das_keep_bits, const std::uint64_t* a,
    const std::uint64_t* b, int count,
    std::vector<std::uint64_t>& words) const
{
    if (count < 1 || count > compiled_sim::lane_capacity) {
        throw std::invalid_argument(
            "dvafs_multiplier: pack_input_words count out of range");
    }
    const int w = width();
    const int t = w - das_keep_bits;
    const std::uint64_t keep = low_mask(w) & ~low_mask(t);
    constexpr std::size_t bl = compiled_sim::lane_words;
    words.assign(nl_.inputs().size() * bl, 0);
    // Bit-transpose packing: per 64-lane block, row `lane` holds the gated
    // operand pair (a | b << w, at most 32 bits for w = 16); one 64x64
    // transpose turns the rows into per-input lane words -- ~15 ops per
    // vector instead of a test-and-set per operand bit. Rows past `count`
    // stay zero, so the unused lanes pack as zero exactly as before. The
    // transpose goes through the dispatched host-SIMD backend (src/vec/);
    // every backend matches the bitops.h reference network bit for bit.
    const vec::kernel_table& kt = vec::active();
    std::uint64_t rows[64];
    for (int base = 0; base < count; base += 64) {
        const int n = std::min(64, count - base);
        for (int lane = 0; lane < n; ++lane) {
            rows[lane] = (a[base + lane] & keep)
                         | ((b[base + lane] & keep) << w);
        }
        std::fill(rows + n, rows + 64, 0);
        kt.transpose64(rows);
        const std::size_t block = static_cast<std::size_t>(base) >> 6;
        for (int i = 0; i < 2 * w; ++i) {
            words[static_cast<std::size_t>(i) * bl + block] = rows[i];
        }
    }
    // Select inputs are constant across the batch; lanes beyond `count`
    // are ignored by the simulator, so a full broadcast is safe.
    const int lvl = t / (w / 4);
    const auto broadcast = [&](int input, bool value) {
        for (std::size_t k = 0; k < bl; ++k) {
            words[static_cast<std::size_t>(input) * bl + k] =
                value ? ~0ULL : 0ULL;
        }
    };
    broadcast(2 * w, m == sw_mode::w2x8);
    broadcast(2 * w + 1, m == sw_mode::w4x4);
    broadcast(2 * w + 2, (lvl & 1) != 0);
    broadcast(2 * w + 3, (lvl & 2) != 0);
}

std::uint64_t dvafs_multiplier::simulate_packed(std::uint64_t a,
                                                std::uint64_t b)
{
    const int w = width();
    const std::int64_t sa = sign_extend(a, w);
    const std::int64_t sb = sign_extend(b, w);
    drive(sa, sb);
    return sim_->read_bus(out_bus_);
}

void dvafs_multiplier::simulate_packed_batch(const std::uint64_t* a,
                                             const std::uint64_t* b,
                                             std::size_t n,
                                             std::uint64_t* out)
{
    constexpr int lanes = compiled_sim::lane_capacity;
    std::vector<std::uint64_t> words;
    for (std::size_t done = 0; done < n;) {
        const int count = static_cast<int>(
            std::min<std::size_t>(lanes, n - done));
        pack_input_words(mode_, das_keep_, a + done, b + done, count, words);
        wide_->apply(words, count);
        if (out != nullptr) {
            for (int lane = 0; lane < count; ++lane) {
                out[done + lane] = wide_->read_bus(out_bus_, lane);
            }
        }
        done += static_cast<std::size_t>(count);
    }
}

std::uint64_t dvafs_multiplier::functional_packed(std::uint64_t a,
                                                  std::uint64_t b) const
{
    const int w = width();
    const int t = w - das_keep_;
    a &= ~low_mask(t);
    b &= ~low_mask(t);
    const int n = lane_count(mode_);
    const int lb = w / n;
    std::uint64_t out = 0;
    for (int i = 0; i < n; ++i) {
        const std::int64_t av = sign_extend(a >> (lb * i), lb);
        const std::int64_t bv = sign_extend(b >> (lb * i), lb);
        out |= to_bits(av * bv, 2 * lb) << (2 * lb * i);
    }
    return out;
}

std::int64_t dvafs_multiplier::functional(std::int64_t a,
                                          std::int64_t b) const
{
    const int w = width();
    return sign_extend(functional_packed(to_bits(a, w), to_bits(b, w)),
                       2 * w);
}

std::vector<std::pair<net_id, bool>>
dvafs_multiplier::tied_inputs(sw_mode m, int das_keep_bits) const
{
    const int w = width();
    const int q = w / 4;
    std::vector<std::pair<net_id, bool>> tied;
    tied.emplace_back(mode_bus_[0], m == sw_mode::w2x8);
    tied.emplace_back(mode_bus_[1], m == sw_mode::w4x4);

    const int lb = w / lane_count(m);
    if (das_keep_bits <= 0 || das_keep_bits > lb) {
        das_keep_bits = lb;
    }
    int lvl = 0;
    if (m == sw_mode::w1x16 && das_keep_bits < w) {
        // Structural precision gating (quarter granularity, rounding the
        // request down to the next quarter boundary).
        lvl = (w - das_keep_bits) / q;
    }
    tied.emplace_back(das_bus_[0], (lvl & 1) != 0);
    tied.emplace_back(das_bus_[1], (lvl & 2) != 0);

    if (das_keep_bits < lb) {
        const int drop = lb - das_keep_bits;
        for (int lane = 0; lane < lane_count(m); ++lane) {
            for (int i = 0; i < drop; ++i) {
                const auto idx = static_cast<std::size_t>(lane * lb + i);
                tied.emplace_back(a_bus_[idx], false);
                tied.emplace_back(b_bus_[idx], false);
            }
        }
    }
    return tied;
}

double dvafs_multiplier::mode_critical_path_ps(const tech_model& t,
                                               double vdd, sw_mode m,
                                               int das_keep_bits) const
{
    const timing_analyzer sta(nl_, t);
    return sta.analyze_mode(vdd, tied_inputs(m, das_keep_bits))
        .critical_path_ps;
}

std::size_t dvafs_multiplier::active_gate_count(sw_mode m,
                                                int das_keep_bits) const
{
    const std::vector<bool> is_static =
        find_static_gates(nl_, tied_inputs(m, das_keep_bits));
    std::size_t active = 0;
    for (std::size_t i = 0; i < nl_.size(); ++i) {
        const gate_kind k = nl_.at(static_cast<net_id>(i)).kind;
        if (k == gate_kind::input || k == gate_kind::constant
            || k == gate_kind::buf) {
            continue;
        }
        if (!is_static[i]) {
            ++active;
        }
    }
    return active;
}

} // namespace dvafs
