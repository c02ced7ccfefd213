// The kernels, written once and compiled once per backend TU.
//
// A backend TU includes, at global scope and then inside its namespace:
//
//     #include "vec/backend_prelude.h"
//     namespace dvafs::vec::<backend> {
//     #include "vec/ops_<isa>.h"     // zero or more overlays, best first
//     #include "vec/kernels_body.h"  // this file
//     }
//
// with DVAFS_VEC_BACKEND_STRING / DVAFS_VEC_BACKEND_LEVEL defined to the
// backend's name literal and isa enumerator. When an overlay supplies a
// vocabulary (DVAFS_VEC_HAVE_VOCABULARY: vd, W, tile_rows, lane masks,
// widening loads, narrowing stores, fma, ... -- see ops_avx512.h), the
// five vector bodies below are compiled against it; ops_scalar.h then
// completes whatever is still undefined with its plain loops, the
// reference every backend matches bit for bit. The drivers after it
// (gate-run executor, GEMM blocking) use the result unqualified.
//
// Everything here lives in the backend's namespace, so each backend gets
// its own fully-specialized copy under its own compile flags. No shared
// templates are instantiated with shared types (see backend_prelude.h
// for why); in particular the blocking avoids std::min, the float GEMM's
// packing scratch is a local new[] buffer rather than a std::vector, and
// eval_gate_kind is instantiated with the local `bword`.
// scripts/check_vec_symbols.py checks the rule on the x86 objects.

// -- vector bodies ------------------------------------------------------------

#ifdef DVAFS_VEC_HAVE_VOCABULARY
#define DVAFS_VEC_HAVE_SHIFT_TRANSITIONS 1
#define DVAFS_VEC_HAVE_F32_TILE 1
#define DVAFS_VEC_HAVE_F32_GEMV 1
#define DVAFS_VEC_HAVE_QUANTIZE 1
#define DVAFS_VEC_HAVE_S8_DOT 1

// The toggle kernel, W words per step: shift_in builds each word's left
// neighbour (the carry in front of word 0), whose bit 63 enters the
// word's bit 0. Tail words go scalar with the carry chained through.
inline std::uint64_t shift_transitions(const std::uint64_t* cur,
                                       const std::uint64_t* mask, int n,
                                       std::uint64_t carry_in)
{
    vi acc{};
    std::uint64_t carry = carry_in;
    int k = 0;
    for (; k + W <= n; k += W) {
        const vi w = load_u64(cur + k);
        const vi prev = shift_in(w, carry << 63);
        carry = cur[k + W - 1] >> 63;
        const vi shifted = or_u64(shl_u64(w, 1), shr_u64(prev, 63));
        acc = add_u64(acc, popcount_u64(and_u64(xor_u64(w, shifted),
                                                load_u64(mask + k))));
    }
    std::uint64_t total = reduce_u64(acc);
    for (; k < n; ++k) {
        const std::uint64_t shifted = (cur[k] << 1) | carry;
        carry = cur[k] >> 63;
        total += static_cast<std::uint64_t>(
            __builtin_popcountll((cur[k] ^ shifted) & mask[k]));
    }
    return total;
}

// A tile_rows x G*W block of the 8 x 24 tile (G <= 3): tile_rows x G
// accumulators of W doubles. B's row r starts at b + boff[r] (b + r * n
// when boff is null, see gemm_f32_impl). Per k step, G widening loads of
// the B row, then per row one broadcast and one FMA per accumulator --
// bit for bit the scalar tile's multiply and add, since a float product
// is exact in double (cnn/gemm.h). Only the last group of a column tail
// (Tail) masks its load and store, which keeps full blocks free of masks.
// Rows past `rows` are computed on the panel's zero padding and dropped.
template <int G, bool Tail>
DVAFS_VEC_FMA inline void f32_block(const double* panel, std::size_t row0,
                                    const float* b, const std::size_t* boff,
                                    float* c, std::size_t k, std::size_t n,
                                    std::size_t rows, std::size_t cols)
{
    const lmask tail = lane_mask(cols - W * (G - 1));
    vd acc[tile_rows][G];
    #pragma GCC unroll 8
    for (int i = 0; i < tile_rows; ++i) {
        const vd init = splat(panel[row0 + i]);
        #pragma GCC unroll 8
        for (int g = 0; g < G; ++g) {
            acc[i][g] = init;
        }
    }
    const double* ap = panel + 8 + row0;
    for (std::size_t r = 0; r < k; ++r, ap += 8) {
        const float* brow = b + (boff != nullptr ? boff[r] : r * n);
        vd bv[G];
        #pragma GCC unroll 8
        for (int g = 0; g < G; ++g) {
            bv[g] = Tail && g == G - 1 ? load_f32(brow + W * g, tail)
                                       : load_f32(brow + W * g);
        }
        #pragma GCC unroll 8
        for (int i = 0; i < tile_rows; ++i) {
            const vd av = splat(ap[i]);
            #pragma GCC unroll 8
            for (int g = 0; g < G; ++g) {
                acc[i][g] = fma(av, bv[g], acc[i][g]);
            }
        }
    }
    #pragma GCC unroll 8
    for (int i = 0; i < tile_rows; ++i) {
        if (static_cast<std::size_t>(i) < rows) {
            float* const crow = c + static_cast<std::size_t>(i) * n;
            #pragma GCC unroll 8
            for (int g = 0; g < G; ++g) {
                if (Tail && g == G - 1) {
                    store_f32(crow + W * g, acc[i][g], tail);
                } else {
                    store_f32(crow + W * g, acc[i][g]);
                }
            }
        }
    }
}

// The 8 x 24 tile as blocks of tile_rows x 3W.
DVAFS_VEC_FMA inline void f32_tile(const double* panel, const float* b,
                                   const std::size_t* boff, float* c,
                                   std::size_t k, std::size_t n,
                                   std::size_t mb, std::size_t nb)
{
    constexpr std::size_t span = 3 * W;
    for (std::size_t row0 = 0; row0 < mb; row0 += tile_rows) {
        const std::size_t rows = mb - row0 < tile_rows ? mb - row0 : tile_rows;
        for (std::size_t col0 = 0; col0 < nb; col0 += span) {
            const std::size_t cols = nb - col0 < span ? nb - col0 : span;
            const float* const bb = b + col0;
            float* const cb = c + row0 * n + col0;
            if (cols == span) {
                f32_block<3, false>(panel, row0, bb, boff, cb, k, n, rows,
                                    cols);
            } else if (cols > 2 * W) {
                f32_block<3, true>(panel, row0, bb, boff, cb, k, n, rows,
                                    cols);
            } else if (cols > W) {
                f32_block<2, true>(panel, row0, bb, boff, cb, k, n, rows,
                                    cols);
            } else {
                f32_block<1, true>(panel, row0, bb, boff, cb, k, n, rows,
                                    cols);
            }
        }
    }
}

// Q groups of eight rows (Q <= 4) from row m0, 8 / W accumulators each:
// per k step each group's gather pulls column r of its eight row-major
// weight rows and one broadcast b[r] feeds an FMA per accumulator -- per
// row the scalar kernel's sum. All groups share one index vector (row
// offsets 0, k, ..., 7k) and one mask; the group base moves in a general
// register. Only a Tail pass (Q == 1, the last m % 8 rows) masks.
template <int Q, bool Tail>
DVAFS_VEC_FMA inline void f32_gemv_rows(const float* a, const float* b,
                                        const float* bias, float* c,
                                        std::size_t k, std::size_t m0,
                                        std::size_t rows, gidx idx)
{
    constexpr int H = 8 / W;
    const gmask gm = gather_mask(Tail ? rows : 8);
    vd acc[Q][H];
    #pragma GCC unroll 8
    for (int q = 0; q < Q; ++q) {
        #pragma GCC unroll 8
        for (int h = 0; h < H; ++h) {
            const std::size_t lo = W * static_cast<std::size_t>(h);
            const std::size_t row = m0 + 8 * static_cast<std::size_t>(q) + lo;
            acc[q][h] = bias == nullptr || (Tail && rows <= lo)
                            ? vd{}
                        : Tail ? load_f32(bias + row, lane_mask(rows - lo))
                               : load_f32(bias + row);
        }
    }
    const float* const base = a + m0 * k;
    for (std::size_t r = 0; r < k; ++r) {
        const vd bv = splat(static_cast<double>(b[r]));
        #pragma GCC unroll 8
        for (int q = 0; q < Q; ++q) {
            vd av[H];
            gather8(av, base + static_cast<std::size_t>(q) * 8 * k + r, idx,
                    gm);
            #pragma GCC unroll 8
            for (int h = 0; h < H; ++h) {
                acc[q][h] = fma(av[h], bv, acc[q][h]);
            }
        }
    }
    #pragma GCC unroll 8
    for (int q = 0; q < Q; ++q) {
        #pragma GCC unroll 8
        for (int h = 0; h < H; ++h) {
            const std::size_t lo = W * static_cast<std::size_t>(h);
            const std::size_t row = m0 + 8 * static_cast<std::size_t>(q) + lo;
            if (!Tail) {
                store_f32(c + row, acc[q][h]);
            } else if (rows > lo) {
                store_f32(c + row, acc[q][h], lane_mask(rows - lo));
            }
        }
    }
}

// n == 1: 32 rows in flight, then the remaining full groups of eight in
// one pass and the last m % 8 rows in a pass of their own. Gather
// indices are 32-bit lane offsets (up to 7 * k < 2^31 under the driver's
// k bound).
DVAFS_VEC_FMA inline void f32_gemv(const float* a, const float* b,
                                   const float* bias, float* c,
                                   std::size_t m, std::size_t k)
{
    const gidx idx = gather_index(k);
    std::size_t m0 = 0;
    for (; m - m0 >= 32; m0 += 32) {
        f32_gemv_rows<4, false>(a, b, bias, c, k, m0, 32, idx);
    }
    switch ((m - m0) / 8) {
    case 3: f32_gemv_rows<3, false>(a, b, bias, c, k, m0, 24, idx); break;
    case 2: f32_gemv_rows<2, false>(a, b, bias, c, k, m0, 16, idx); break;
    case 1: f32_gemv_rows<1, false>(a, b, bias, c, k, m0, 8, idx); break;
    default: break;
    }
    m0 += (m - m0) / 8 * 8;
    if (m0 < m) {
        f32_gemv_rows<1, true>(a, b, bias, c, k, m0, m - m0, idx);
    }
}

// W elements per step: divide, floor(q + 0.5) / ceil(q - 0.5) picked by
// the sign of q, clamp and + 0.0 -- each the exactly rounded double op of
// the scalar kernel. v - v is NaN exactly when v is infinite or NaN, and
// a NaN survives every later add, so one check after the loop reports a
// non-finite x; its lane's output is unspecified.
inline bool quantize_f32(const float* x, std::size_t n, double step,
                         double lo, double hi, float* fake,
                         std::int32_t* codes)
{
    const vd vstep = splat(step);
    const vd half = splat(0.5);
    const vd vlo = splat(lo);
    const vd vhi = splat(hi);
    const vd zero{};
    vd bad{};
    for (std::size_t i = 0; i < n; i += W) {
        const lmask mk = lane_mask(n - i);
        const vd v = load_f32(x + i, mk);
        bad = add(bad, sub(v, v));
        const vd q = div(v, vstep);
        vd r = select_nonneg(q, floor(add(q, half)), ceil(sub(q, half)));
        r = add(min(max(r, vlo), vhi), zero);
        if (fake != nullptr) {
            store_f32(fake + i, mul(r, vstep), mk);
        } else {
            store_i32(codes + i, r, mk);
        }
    }
    return !any_nan(bad);
}

// 4W int8 MAC pairs per step into 2W int32 lanes; per-lane sums stay
// below 2^31 under the k <= 66571 contract.
inline std::int32_t s8_dot(const std::int8_t* x, const std::int8_t* y,
                           std::size_t k)
{
    vi acc{};
    std::size_t r = 0;
    for (; r + 4 * W <= k; r += 4 * W) {
        acc = add_s32(acc, madd_s8(x + r, y + r));
    }
    std::int32_t total = reduce_s32(acc);
    for (; r < k; ++r) {
        total += static_cast<std::int32_t>(x[r])
                 * static_cast<std::int32_t>(y[r]);
    }
    return total;
}
#endif // DVAFS_VEC_HAVE_VOCABULARY

#include "vec/ops_scalar.h" // NOLINT(bugprone-suspicious-include)

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
// TU's flags, and the fused toggle popcount is shift_transitions.
template <::dvafs::gate_kind K>
void run_kind(const gate_run_args& g)
{
    constexpr int words = gate_words;
    std::uint64_t* const v = g.values;
    const std::uint32_t* const i0 = g.in0;
    const std::uint32_t* const i1 = g.in1;
    const std::uint32_t* const i2 = g.in2;
    constexpr bword ones{~0ULL};
    for (std::uint32_t i = g.begin; i < g.end; ++i) {
        const std::uint64_t* const a =
            v + static_cast<std::size_t>(i0[i]) * words;
        const std::uint64_t* const b =
            v + static_cast<std::size_t>(i1[i]) * words;
        const std::uint64_t* const c =
            v + static_cast<std::size_t>(i2[i]) * words;
        std::uint64_t* const out = v + static_cast<std::size_t>(i) * words;
        std::uint64_t r[words];
        for (int q = 0; q < words; ++q) {
            r[q] = ::dvafs::eval_gate_kind<bword>(K, bword{a[q]},
                                                  bword{b[q]}, bword{c[q]},
                                                  ones)
                       .v;
        }
        for (int q = 0; q < words; ++q) {
            out[q] = r[q];
        }
        g.toggles[i] += shift_transitions(r, g.toggle_mask, words, g.last[i]);
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
// scalar reference's multiply and add, the vector body's FMA) -- the
// cnn/gemm.h contract -- so only the assignment of outputs to tiles and
// lanes differs between backends, and no backend changes a bit.
// B's row r starts at b + boff[r], or at b + r * n when boff is null (a
// dense B); conv layers pass shifted views of one padded input plane
// (cnn/gemm.h). A dense n == 1 (every fc layer) is a matrix-vector
// product vectorized across rows (f32_gemv). Otherwise A is packed into
// 8-row panels of doubles in per-thread scratch -- the bias row first,
// then k groups of eight (rows past m are zero and never stored) -- and
// an 8 x 24 register tile walks the 24-column n-tiles in the outer loop,
// so one n-tile of B stays in cache while the packed panels stream past
// it.
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
                          std::size_t k, std::size_t n,
                          const std::size_t* boff)
{
    // The vector f32_gemv reads a dense B and addresses rows by 32-bit
    // gather offsets (up to 7 * k); a row-offset B or rows too long for
    // that take the panel path, which gives the same bits.
    if (n == 1 && boff == nullptr && k < (std::size_t{1} << 26)) {
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
                f32_tile(packed + p * stride, b + n0, boff,
                         c + m0 * n + n0, k, n, mb, nb);
            }
        }
    }
}

// Integer tile of up to 4 x NB with exact Acc accumulation (any order
// matches): the int8 edges, every int8 tile where no overlay defines
// s8_ctile, and every int16 tile, which this TU's flags may
// autovectorize.
template <std::size_t NB, typename T, typename Acc>
inline void int_tile(const T* a, const T* b, const Acc* bias, Acc* c,
                     std::size_t k, std::size_t n, std::size_t m0,
                     std::size_t n0, std::size_t mb, std::size_t nb)
{
    Acc acc[4][NB];
    for (std::size_t i = 0; i < mb; ++i) {
        const Acc init = bias != nullptr ? bias[m0 + i] : 0;
        for (std::size_t j = 0; j < nb; ++j) {
            acc[i][j] = init;
        }
    }
    for (std::size_t r = 0; r < k; ++r) {
        const T* brow = b + r * n + n0;
        for (std::size_t i = 0; i < mb; ++i) {
            const Acc av = static_cast<Acc>(a[(m0 + i) * k + r]);
            for (std::size_t j = 0; j < nb; ++j) {
                acc[i][j] += av * static_cast<Acc>(brow[j]);
            }
        }
    }
    for (std::size_t i = 0; i < mb; ++i) {
        Acc* crow = c + (m0 + i) * n + n0;
        for (std::size_t j = 0; j < nb; ++j) {
            crow[j] = acc[i][j];
        }
    }
}

// Integer GEMM (int8 under the k <= 66571 int32 overflow contract of
// cnn/gemm_int.h, int16 into int64). n == 1, the fc shape, makes every
// output a contiguous-by-contiguous dot, where the k-vectorized widening
// MAC kernels shine; otherwise 4-row strips of full s8_ctile tiles where
// an overlay has them, then int_tile.
template <std::size_t NB, typename T, typename Acc,
          Acc (*Dot)(const T*, const T*, std::size_t)>
inline void gemm_int(const T* a, const T* b, const Acc* bias, Acc* c,
                     std::size_t m, std::size_t k, std::size_t n)
{
    if (n == 1) {
        for (std::size_t i = 0; i < m; ++i) {
            c[i] = (bias != nullptr ? bias[i] : 0) + Dot(a + i * k, b, k);
        }
        return;
    }
    for (std::size_t m0 = 0; m0 < m; m0 += 4) {
        const std::size_t mb = m - m0 < 4 ? m - m0 : 4;
        std::size_t n0 = 0;
#ifdef DVAFS_VEC_HAVE_S8_CTILE
        if constexpr (sizeof(T) == 1) {
            if (mb == 4) {
                for (; n0 + 16 <= n; n0 += 16) {
                    s8_ctile(a, b, bias, c, k, n, m0, n0);
                }
            }
        }
#endif
        for (; n0 < n; n0 += NB) {
            const std::size_t nb = n - n0 < NB ? n - n0 : NB;
            int_tile<NB>(a, b, bias, c, k, n, m0, n0, mb, nb);
        }
    }
}

// -- the backend's table ------------------------------------------------------

inline constexpr kernel_table k_table = {
    DVAFS_VEC_BACKEND_STRING,
    static_cast<int>(DVAFS_VEC_BACKEND_LEVEL),
    &shift_transitions,
    &transpose64,
    &exec_gates,
    &gemm_f32_impl,
    &gemm_int<16, std::int8_t, std::int32_t, &s8_dot>,
    &gemm_int<8, std::int16_t, std::int64_t, &s16_dot>,
    &quantize_f32,
};

const kernel_table* table() noexcept
{
    return &k_table;
}
