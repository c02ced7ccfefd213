// Scalar reference and fallback: every kernel as a plain loop, pure C++.
//
// Included by kernels_body.h *inside a backend namespace*, after the
// vector bodies and any overlay, so it must not #include anything --
// every external name it uses comes from vec/backend_prelude.h. Each
// kernel is guarded by its DVAFS_VEC_HAVE_* macro: whatever a vector body
// or an overlay already defined stays out. These definitions ARE the
// reference the bit-identity contract in vec/vec.h is stated against.
//
// Deliberately uses __builtin_popcountll instead of std::popcount and a
// local copy of the transpose network instead of fixedpoint/bitops.h:
// referencing a cross-TU inline function from a TU compiled with -m<isa>
// flags would emit a weak symbol carrying ISA-specific code that the
// linker may then pick for the whole program (and crash baseline hosts).
// Everything a backend TU instantiates must be local to its namespace.

#ifndef DVAFS_VEC_HAVE_SHIFT_TRANSITIONS
#define DVAFS_VEC_HAVE_SHIFT_TRANSITIONS 1
inline std::uint64_t shift_transitions(const std::uint64_t* cur,
                                       const std::uint64_t* mask, int n,
                                       std::uint64_t carry_in)
{
    std::uint64_t total = 0;
    std::uint64_t carry = carry_in;
    for (int k = 0; k < n; ++k) {
        const std::uint64_t shifted = (cur[k] << 1) | carry;
        carry = cur[k] >> 63;
        total += static_cast<std::uint64_t>(
            __builtin_popcountll((cur[k] ^ shifted) & mask[k]));
    }
    return total;
}
#endif

#ifndef DVAFS_VEC_HAVE_TRANSPOSE64
#define DVAFS_VEC_HAVE_TRANSPOSE64 1
// Masked-exchange transpose network; must stay bit-identical to
// fixedpoint/bitops.h transpose64 (local copy, see header comment).
inline void transpose64(std::uint64_t x[64])
{
    std::uint64_t m = 0x00000000FFFFFFFFULL;
    for (int j = 32; j != 0; j >>= 1, m ^= m << j) {
        for (int k = 0; k < 64; k = (k + j + 1) & ~j) {
            const std::uint64_t t = ((x[k] >> j) ^ x[k + j]) & m;
            x[k] ^= t << j;
            x[k + j] ^= t;
        }
    }
}
#endif

#ifndef DVAFS_VEC_HAVE_F32_TILE
#define DVAFS_VEC_HAVE_F32_TILE 1
// One 8 x nb float tile (nb <= 24) over a packed A panel (kernels_body.h
// gemm_f32_impl): panel[0..8) holds the eight rows' start values (bias or
// 0.0), then k groups of eight doubles, one per row. `b` and `c` point at
// the tile's first column of B and of its first C row; B's row r starts
// boff[r] floats past `b` (r * n when boff is null), C has row stride n.
// Only the first mb rows are stored. Per element: start value,
// then acc += a * b in double with k ascending, separate mul and add --
// the accumulation contract every backend must match bit for bit (the
// build disables FP contraction globally, so this stays two ops; the
// vector body fuses them with an explicit FMA, exact per cnn/gemm.h).
inline void f32_tile(const double* panel, const float* b,
                     const std::size_t* boff, float* c, std::size_t k,
                     std::size_t n, std::size_t mb, std::size_t nb)
{
    double acc[8][24];
    for (std::size_t i = 0; i < mb; ++i) {
        for (std::size_t j = 0; j < nb; ++j) {
            acc[i][j] = panel[i];
        }
    }
    for (std::size_t r = 0; r < k; ++r) {
        const float* brow = b + (boff != nullptr ? boff[r] : r * n);
        const double* arow = panel + 8 + 8 * r;
        for (std::size_t i = 0; i < mb; ++i) {
            const double av = arow[i];
            for (std::size_t j = 0; j < nb; ++j) {
                acc[i][j] += av * static_cast<double>(brow[j]);
            }
        }
    }
    for (std::size_t i = 0; i < mb; ++i) {
        for (std::size_t j = 0; j < nb; ++j) {
            c[i * n + j] = static_cast<float>(acc[i][j]);
        }
    }
}
#endif

#ifndef DVAFS_VEC_HAVE_F32_GEMV
#define DVAFS_VEC_HAVE_F32_GEMV 1
// The n == 1 float GEMM (every fc layer): c[i] = bias[i] + sum_r
// a[i][r] * b[r], each row its own double accumulator with r ascending.
// The k reduction is sequential per output by contract, so the
// parallelism is across rows: eight rows advance together.
inline void f32_gemv(const float* a, const float* b, const float* bias,
                     float* c, std::size_t m, std::size_t k)
{
    for (std::size_t m0 = 0; m0 < m; m0 += 8) {
        const std::size_t mb = m - m0 < 8 ? m - m0 : 8;
        double acc[8];
        for (std::size_t i = 0; i < mb; ++i) {
            acc[i] = bias != nullptr ? static_cast<double>(bias[m0 + i])
                                     : 0.0;
        }
        for (std::size_t r = 0; r < k; ++r) {
            const double bv = static_cast<double>(b[r]);
            for (std::size_t i = 0; i < mb; ++i) {
                acc[i] += static_cast<double>(a[(m0 + i) * k + r]) * bv;
            }
        }
        for (std::size_t i = 0; i < mb; ++i) {
            c[m0 + i] = static_cast<float>(acc[i]);
        }
    }
}
#endif

#ifndef DVAFS_VEC_HAVE_QUANTIZE
#define DVAFS_VEC_HAVE_QUANTIZE 1
// The value -> code map of fixedpoint/quantize.h (quantize_value) over n
// floats, computed in double without the int64 round trip:
//   code = clamp(q >= 0 ? floor(q + 0.5) : ceil(q - 0.5), lo, hi) + 0.0
// with q = x / step. The + 0.0 turns ceil's -0.0 into the +0.0 an
// integer code converts back to. Writes float(code * step) to `fake` or
// the code to `codes` (exactly one is non-null; `fake` may alias x).
// Returns false -- outputs unspecified -- when some x is NaN or +-inf:
// the one non-finite rule every backend shares.
inline bool quantize_f32(const float* x, std::size_t n, double step,
                         double lo, double hi, float* fake,
                         std::int32_t* codes)
{
    for (std::size_t i = 0; i < n; ++i) {
        const double v = static_cast<double>(x[i]);
        if (!(__builtin_fabs(v) < __builtin_inf())) {
            return false;
        }
        const double q = v / step;
        double r =
            q >= 0.0 ? __builtin_floor(q + 0.5) : __builtin_ceil(q - 0.5);
        r = r < lo ? lo : (r > hi ? hi : r);
        r += 0.0;
        if (fake != nullptr) {
            fake[i] = static_cast<float>(r * step);
        } else {
            codes[i] = static_cast<std::int32_t>(r);
        }
    }
    return true;
}
#endif

#ifndef DVAFS_VEC_HAVE_S8_DOT
#define DVAFS_VEC_HAVE_S8_DOT 1
// Contiguous int8 dot product (the n == 1 GEMM column, i.e. every fc
// layer). Exact int32 under the k <= 66571 contract; any summation order
// is bit-identical.
inline std::int32_t s8_dot(const std::int8_t* x, const std::int8_t* y,
                           std::size_t k)
{
    std::int32_t total = 0;
    for (std::size_t r = 0; r < k; ++r) {
        total += static_cast<std::int32_t>(x[r])
                 * static_cast<std::int32_t>(y[r]);
    }
    return total;
}
#endif

#ifndef DVAFS_VEC_HAVE_S16_DOT
#define DVAFS_VEC_HAVE_S16_DOT 1
// Contiguous int16 dot product with exact int64 accumulation.
inline std::int64_t s16_dot(const std::int16_t* x, const std::int16_t* y,
                            std::size_t k)
{
    std::int64_t total = 0;
    for (std::size_t r = 0; r < k; ++r) {
        total += static_cast<std::int64_t>(x[r])
                 * static_cast<std::int64_t>(y[r]);
    }
    return total;
}
#endif
