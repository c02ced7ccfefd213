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
// std::min, the float GEMM's packing scratch is a local new[] buffer
// rather than a std::vector, and eval_gate_kind is instantiated with the
// local `bword`.

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

// Float GEMM. Every output starts from its bias (or 0.0) and adds
// double(a) * double(b) with k ascending, one rounding per step (the
// scalar overlay's multiply and add, the vector overlays' FMA) -- the
// cnn/gemm.h contract -- so only the assignment of outputs to tiles and
// lanes differs between backends, and no backend changes a bit.
// n == 1 (every fc layer) is a matrix-vector product vectorized across
// rows (f32_gemv). Otherwise A is packed into 8-row panels of doubles in
// per-thread scratch -- the bias row first, then k groups of eight (rows
// past m are zero and never stored) -- and an 8 x 24 register tile walks
// the 24-column n-tiles in the outer loop, so one n-tile of B stays in
// cache while the packed panels stream past it.
//
// The panels are packed as many at a time as fit 15360 doubles (120 KiB;
// at least one): stream workers are short-lived threads that each pack
// anew, and a buffer below the allocator's default 128 KiB mmap
// threshold neither maps and unmaps pages per thread nor raises that
// threshold for every later allocation. The zoo's wide-m layers all have
// small n, so re-reading B once per batch of panels is cheap.
inline constexpr std::size_t f32_pack_doubles = 15360;

// Per-thread packing buffer. A plain new[] rather than std::vector: a
// backend TU must not instantiate shared templates (backend_prelude.h).
struct f64_scratch {
    double* data = nullptr;
    std::size_t size = 0;
    f64_scratch() = default;
    f64_scratch(const f64_scratch&) = delete;
    f64_scratch& operator=(const f64_scratch&) = delete;
    ~f64_scratch() { delete[] data; }
};

inline double* packed_panels(std::size_t doubles)
{
    thread_local f64_scratch s;
    if (doubles > s.size) {
        double* const fresh = new double[doubles];
        delete[] s.data;
        s.data = fresh;
        s.size = doubles;
    }
    return s.data;
}

// Packs rows [m0, m0 + 8) of A (and their bias) into one panel.
inline void pack_panel(const float* a, const float* bias, std::size_t m,
                       std::size_t k, std::size_t m0, double* dst)
{
    const std::size_t mb = m - m0 < 8 ? m - m0 : 8;
    for (std::size_t i = 0; i < 8; ++i) {
        dst[i] = i < mb && bias != nullptr ? static_cast<double>(bias[m0 + i])
                                           : 0.0;
    }
    for (std::size_t r = 0; r < k; ++r) {
        double* const col = dst + 8 + 8 * r;
        for (std::size_t i = 0; i < 8; ++i) {
            col[i] = i < mb ? static_cast<double>(a[(m0 + i) * k + r]) : 0.0;
        }
    }
}

inline void gemm_f32_impl(const float* a, const float* b,
                          const float* bias, float* c, std::size_t m,
                          std::size_t k, std::size_t n)
{
    // f32_gemv's overlays address rows by 32-bit gather offsets (up to
    // 31 * k); rows too long for that take the panel path, which gives
    // the same bits.
    if (n == 1 && k < (std::size_t{1} << 26)) {
        f32_gemv(a, b, bias, c, m, k);
        return;
    }
    const std::size_t panels = (m + 7) / 8;
    const std::size_t stride = 8 * (k + 1);
    std::size_t batch = f32_pack_doubles / stride;
    batch = batch < 1 ? 1 : (batch > panels ? panels : batch);
    double* const packed = packed_panels(batch * stride);
    for (std::size_t p0 = 0; p0 < panels; p0 += batch) {
        const std::size_t pn = panels - p0 < batch ? panels - p0 : batch;
        for (std::size_t p = 0; p < pn; ++p) {
            pack_panel(a, bias, m, k, 8 * (p0 + p), packed + p * stride);
        }
        for (std::size_t n0 = 0; n0 < n; n0 += 24) {
            const std::size_t nb = n - n0 < 24 ? n - n0 : 24;
            for (std::size_t p = 0; p < pn; ++p) {
                const std::size_t m0 = 8 * (p0 + p);
                const std::size_t mb = m - m0 < 8 ? m - m0 : 8;
                f32_tile(packed + p * stride, b + n0, c + m0 * n + n0, k,
                         n, mb, nb);
            }
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
    &quantize_f32,
};

const kernel_table* table() noexcept
{
    return &k_table;
}
