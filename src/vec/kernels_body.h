// Generic kernel drivers, written once against the op vocabulary and
// compiled once per backend TU.
//
// A backend TU includes (in order, at global scope then inside its
// namespace):
//
//     #include "vec/backend_prelude.h"
//     namespace dvafs::vec::<backend> {
//     #include "vec/ops_<isa>.h"     // zero or more overlays, best first
//     #include "vec/ops_scalar.h"    // fallback completes the vocabulary
//     #include "vec/kernels_body.h"  // this file
//     }
//
// with DVAFS_VEC_BACKEND_STRING / DVAFS_VEC_BACKEND_LEVEL defined to the
// backend's name literal and isa enumerator. Everything here lives in the
// backend's namespace and references the vocabulary unqualified, so each
// backend gets its own fully-specialized copy under its own compile
// flags. No shared templates are instantiated with shared types (see
// backend_prelude.h for why); in particular gemm blocking avoids
// std::min and eval_gate_kind is instantiated with the local `bword`.

// -- gate-run executor --------------------------------------------------------

// Local one-word wrapper so eval_gate_kind's instantiation is unique to
// this backend (dvafs::eval_gate_kind<dvafs::vec::<backend>::bword>).
struct bword {
    std::uint64_t v;
};
inline constexpr bword operator&(bword a, bword b) noexcept
{
    return {a.v & b.v};
}
inline constexpr bword operator|(bword a, bword b) noexcept
{
    return {a.v | b.v};
}
inline constexpr bword operator^(bword a, bword b) noexcept
{
    return {a.v ^ b.v};
}

// One kind-homogeneous run at compile-time kind K: the truth table folds
// to straight-line bitwise ops, the gate_words loop vectorizes under this
// TU's flags, and the fused toggle popcount comes from the overlay.
template <::dvafs::gate_kind K>
void run_kind(const gate_run_args& g)
{
    constexpr int W = gate_words;
    std::uint64_t* const v = g.values;
    const std::uint32_t* const i0 = g.in0;
    const std::uint32_t* const i1 = g.in1;
    const std::uint32_t* const i2 = g.in2;
    constexpr bword ones{~0ULL};
    for (std::uint32_t i = g.begin; i < g.end; ++i) {
        const std::uint64_t* const a =
            v + static_cast<std::size_t>(i0[i]) * W;
        const std::uint64_t* const b =
            v + static_cast<std::size_t>(i1[i]) * W;
        const std::uint64_t* const c =
            v + static_cast<std::size_t>(i2[i]) * W;
        std::uint64_t* const out = v + static_cast<std::size_t>(i) * W;
        std::uint64_t r[W];
        for (int q = 0; q < W; ++q) {
            r[q] = ::dvafs::eval_gate_kind<bword>(K, bword{a[q]},
                                                  bword{b[q]}, bword{c[q]},
                                                  ones)
                       .v;
        }
        for (int q = 0; q < W; ++q) {
            out[q] = r[q];
        }
        g.toggles[i] += shift_transitions(r, g.toggle_mask, W, g.last[i]);
        g.last[i] = static_cast<std::uint8_t>(
            (r[g.last_word] >> g.last_bit) & 1ULL);
    }
}

inline void exec_gates(const gate_run_args& g)
{
    using ::dvafs::gate_kind;
    switch (static_cast<gate_kind>(g.kind)) {
    case gate_kind::buf: run_kind<gate_kind::buf>(g); break;
    case gate_kind::not_g: run_kind<gate_kind::not_g>(g); break;
    case gate_kind::and_g: run_kind<gate_kind::and_g>(g); break;
    case gate_kind::or_g: run_kind<gate_kind::or_g>(g); break;
    case gate_kind::xor_g: run_kind<gate_kind::xor_g>(g); break;
    case gate_kind::nand_g: run_kind<gate_kind::nand_g>(g); break;
    case gate_kind::nor_g: run_kind<gate_kind::nor_g>(g); break;
    case gate_kind::xnor_g: run_kind<gate_kind::xnor_g>(g); break;
    case gate_kind::and3_g: run_kind<gate_kind::and3_g>(g); break;
    case gate_kind::or3_g: run_kind<gate_kind::or3_g>(g); break;
    case gate_kind::mux_g: run_kind<gate_kind::mux_g>(g); break;
    case gate_kind::maj_g: run_kind<gate_kind::maj_g>(g); break;
    case gate_kind::input:
    case gate_kind::constant:
        break; // unreachable: compiled_sim rejects these before dispatch
    }
}

// -- GEMM blocking drivers ----------------------------------------------------

// Float edge tile (mb <= 4, nb <= 8, runtime trips). Identical arithmetic
// across backends: per-element double mul/add with k ascending -- lane
// order never changes per-element op sequences, so autovectorization
// under any flags keeps it bit-identical.
inline void f32_edge(const float* a, const float* b, const float* bias,
                     float* c, std::size_t k, std::size_t n, std::size_t m0,
                     std::size_t n0, std::size_t mb, std::size_t nb)
{
    double acc[4][8];
    for (std::size_t i = 0; i < mb; ++i) {
        const double init =
            bias != nullptr ? static_cast<double>(bias[m0 + i]) : 0.0;
        for (std::size_t j = 0; j < nb; ++j) {
            acc[i][j] = init;
        }
    }
    for (std::size_t r = 0; r < k; ++r) {
        const float* brow = b + r * n + n0;
        for (std::size_t i = 0; i < mb; ++i) {
            const double av = static_cast<double>(a[(m0 + i) * k + r]);
            for (std::size_t j = 0; j < nb; ++j) {
                acc[i][j] += av * static_cast<double>(brow[j]);
            }
        }
    }
    for (std::size_t i = 0; i < mb; ++i) {
        float* crow = c + (m0 + i) * n + n0;
        for (std::size_t j = 0; j < nb; ++j) {
            crow[j] = static_cast<float>(acc[i][j]);
        }
    }
}

inline void gemm_f32_impl(const float* a, const float* b,
                          const float* bias, float* c, std::size_t m,
                          std::size_t k, std::size_t n)
{
    for (std::size_t m0 = 0; m0 < m; m0 += 4) {
        const std::size_t mb = m - m0 < 4 ? m - m0 : 4;
        std::size_t n0 = 0;
        if (mb == 4) {
            for (; n0 + 8 <= n; n0 += 8) {
                f32_tile(a, b, bias, c, k, n, m0, n0);
            }
        }
        for (; n0 < n; n0 += 8) {
            const std::size_t nb = n - n0 < 8 ? n - n0 : 8;
            f32_edge(a, b, bias, c, k, n, m0, n0, mb, nb);
        }
    }
}

// Int8 edge tile (exact int32; any order matches).
inline void s8_edge(const std::int8_t* a, const std::int8_t* b,
                    const std::int32_t* bias, std::int32_t* c,
                    std::size_t k, std::size_t n, std::size_t m0,
                    std::size_t n0, std::size_t mb, std::size_t nb)
{
    std::int32_t acc[4][16];
    for (std::size_t i = 0; i < mb; ++i) {
        const std::int32_t init = bias != nullptr ? bias[m0 + i] : 0;
        for (std::size_t j = 0; j < nb; ++j) {
            acc[i][j] = init;
        }
    }
    for (std::size_t r = 0; r < k; ++r) {
        const std::int8_t* brow = b + r * n + n0;
        for (std::size_t i = 0; i < mb; ++i) {
            const std::int32_t av =
                static_cast<std::int32_t>(a[(m0 + i) * k + r]);
            for (std::size_t j = 0; j < nb; ++j) {
                acc[i][j] += av * static_cast<std::int32_t>(brow[j]);
            }
        }
    }
    for (std::size_t i = 0; i < mb; ++i) {
        std::int32_t* crow = c + (m0 + i) * n + n0;
        for (std::size_t j = 0; j < nb; ++j) {
            crow[j] = acc[i][j];
        }
    }
}

inline void gemm_s8_impl(const std::int8_t* a, const std::int8_t* b,
                         const std::int32_t* bias, std::int32_t* c,
                         std::size_t m, std::size_t k, std::size_t n)
{
    if (n == 1) {
        // The fc shape: every output is a contiguous-by-contiguous dot,
        // where the k-vectorized widening MAC kernels shine.
        for (std::size_t i = 0; i < m; ++i) {
            c[i] = (bias != nullptr ? bias[i] : 0) + s8_dot(a + i * k, b, k);
        }
        return;
    }
    for (std::size_t m0 = 0; m0 < m; m0 += 4) {
        const std::size_t mb = m - m0 < 4 ? m - m0 : 4;
        std::size_t n0 = 0;
        if (mb == 4) {
            for (; n0 + 16 <= n; n0 += 16) {
                s8_ctile(a, b, bias, c, k, n, m0, n0);
            }
        }
        for (; n0 < n; n0 += 16) {
            const std::size_t nb = n - n0 < 16 ? n - n0 : 16;
            s8_edge(a, b, bias, c, k, n, m0, n0, mb, nb);
        }
    }
}

// Int16 blocked path (exact int64 accumulation). Only the n == 1 dot has
// a dedicated overlay op; the column path is the generic tile, which this
// TU's flags may autovectorize -- still exact, still bit-identical.
inline void s16_tile(const std::int16_t* a, const std::int16_t* b,
                     const std::int64_t* bias, std::int64_t* c,
                     std::size_t k, std::size_t n, std::size_t m0,
                     std::size_t n0, std::size_t mb, std::size_t nb)
{
    std::int64_t acc[4][8];
    for (std::size_t i = 0; i < mb; ++i) {
        const std::int64_t init = bias != nullptr ? bias[m0 + i] : 0;
        for (std::size_t j = 0; j < nb; ++j) {
            acc[i][j] = init;
        }
    }
    for (std::size_t r = 0; r < k; ++r) {
        const std::int16_t* brow = b + r * n + n0;
        for (std::size_t i = 0; i < mb; ++i) {
            const std::int64_t av =
                static_cast<std::int64_t>(a[(m0 + i) * k + r]);
            for (std::size_t j = 0; j < nb; ++j) {
                acc[i][j] += av * static_cast<std::int64_t>(brow[j]);
            }
        }
    }
    for (std::size_t i = 0; i < mb; ++i) {
        std::int64_t* crow = c + (m0 + i) * n + n0;
        for (std::size_t j = 0; j < nb; ++j) {
            crow[j] = acc[i][j];
        }
    }
}

inline void gemm_s16_impl(const std::int16_t* a, const std::int16_t* b,
                          const std::int64_t* bias, std::int64_t* c,
                          std::size_t m, std::size_t k, std::size_t n)
{
    if (n == 1) {
        for (std::size_t i = 0; i < m; ++i) {
            c[i] =
                (bias != nullptr ? bias[i] : 0) + s16_dot(a + i * k, b, k);
        }
        return;
    }
    for (std::size_t m0 = 0; m0 < m; m0 += 4) {
        const std::size_t mb = m - m0 < 4 ? m - m0 : 4;
        for (std::size_t n0 = 0; n0 < n; n0 += 8) {
            const std::size_t nb = n - n0 < 8 ? n - n0 : 8;
            s16_tile(a, b, bias, c, k, n, m0, n0, mb, nb);
        }
    }
}

// -- the backend's table ------------------------------------------------------

inline constexpr kernel_table k_table = {
    DVAFS_VEC_BACKEND_STRING,
    static_cast<int>(DVAFS_VEC_BACKEND_LEVEL),
    &masked_popcount,
    &shift_transitions,
    &transpose64,
    &exec_gates,
    &gemm_f32_impl,
    &gemm_s8_impl,
    &gemm_s16_impl,
};

const kernel_table* table() noexcept
{
    return &k_table;
}
