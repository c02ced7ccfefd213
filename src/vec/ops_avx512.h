// AVX-512 overlay: 512-bit definitions where the wider vectors or the
// vpopcntq instruction pay; everything else falls through to the AVX2
// overlay stacked underneath it (backend_avx512.cpp includes this header,
// then ops_avx2.h, then ops_scalar.h). Requires F+BW+VL+VPOPCNTDQ -- the
// runtime dispatcher checks all four before ever selecting this table.
// No #includes here; intrinsics come from vec/backend_prelude.h.

// Horizontal sums written against the zero-masked extract: GCC 12's
// _mm512_reduce_add_* go through the maskless _mm512_extracti64x4_epi64,
// whose _mm256_undefined_si256() pass-through operand trips
// -Wmaybe-uninitialized (GCC PR105593) under -Werror. The zero-masked
// form compiles to the same single vextracti64x4.
inline std::uint64_t reduce_add_u64(__m512i v)
{
    const __m256i s4 = _mm256_add_epi64(
        _mm512_castsi512_si256(v),
        _mm512_maskz_extracti64x4_epi64(static_cast<__mmask8>(0xff), v, 1));
    const __m128i s2 = _mm_add_epi64(_mm256_castsi256_si128(s4),
                                     _mm256_extracti128_si256(s4, 1));
    return static_cast<std::uint64_t>(_mm_cvtsi128_si64(s2))
           + static_cast<std::uint64_t>(_mm_extract_epi64(s2, 1));
}

inline std::int32_t reduce_add_s32(__m512i v)
{
    const __m256i s8 = _mm256_add_epi32(
        _mm512_castsi512_si256(v),
        _mm512_maskz_extracti64x4_epi64(static_cast<__mmask8>(0xff), v, 1));
    const __m128i s4 = _mm_add_epi32(_mm256_castsi256_si128(s8),
                                     _mm256_extracti128_si256(s8, 1));
    const __m128i s2 = _mm_add_epi32(s4, _mm_shuffle_epi32(s4, 0x4E));
    const __m128i s1 = _mm_add_epi32(s2, _mm_shuffle_epi32(s2, 0xB1));
    return _mm_cvtsi128_si32(s1);
}

#ifndef DVAFS_VEC_HAVE_MASKED_POPCOUNT
#define DVAFS_VEC_HAVE_MASKED_POPCOUNT 1
inline std::uint64_t masked_popcount(const std::uint64_t* x,
                                     const std::uint64_t* m, int n)
{
    __m512i acc = _mm512_setzero_si512();
    int k = 0;
    for (; k + 8 <= n; k += 8) {
        const __m512i v = _mm512_and_si512(
            _mm512_loadu_si512(x + k), _mm512_loadu_si512(m + k));
        acc = _mm512_add_epi64(acc, _mm512_popcnt_epi64(v));
    }
    std::uint64_t total = reduce_add_u64(acc);
    if (k + 4 <= n) { // 256-bit leg (VL): the compiled sim's W=4 width
        const __m256i v = _mm256_and_si256(
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(x + k)),
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(m + k)));
        const __m256i p = _mm256_popcnt_epi64(v);
        const __m128i s = _mm_add_epi64(_mm256_castsi256_si128(p),
                                        _mm256_extracti128_si256(p, 1));
        total += static_cast<std::uint64_t>(_mm_cvtsi128_si64(s))
                 + static_cast<std::uint64_t>(_mm_extract_epi64(s, 1));
        k += 4;
    }
    for (; k < n; ++k) {
        total += static_cast<std::uint64_t>(
            __builtin_popcountll(x[k] & m[k]));
    }
    return total;
}
#endif

#ifndef DVAFS_VEC_HAVE_SHIFT_TRANSITIONS
#define DVAFS_VEC_HAVE_SHIFT_TRANSITIONS 1
// The W=8 toggle kernel in one 512-bit pass: valignq builds the
// left-neighbour vector [carry<<63, w0..w6], vpopcntq counts. The W=4
// width takes a 256-bit VL leg; odd tails go scalar with the carry chained
// through.
inline std::uint64_t shift_transitions(const std::uint64_t* cur,
                                       const std::uint64_t* mask, int n,
                                       std::uint64_t carry_in)
{
    __m512i acc = _mm512_setzero_si512();
    std::uint64_t carry = carry_in;
    int k = 0;
    for (; k + 8 <= n; k += 8) {
        const __m512i w = _mm512_loadu_si512(cur + k);
        const __m512i mk = _mm512_loadu_si512(mask + k);
        const __m512i cv =
            _mm512_set1_epi64(static_cast<long long>(carry << 63));
        const __m512i prev = _mm512_alignr_epi64(w, cv, 7);
        carry = cur[k + 7] >> 63;
        const __m512i shifted = _mm512_or_si512(
            _mm512_slli_epi64(w, 1), _mm512_srli_epi64(prev, 63));
        const __m512i x =
            _mm512_and_si512(_mm512_xor_si512(w, shifted), mk);
        acc = _mm512_add_epi64(acc, _mm512_popcnt_epi64(x));
    }
    std::uint64_t total = reduce_add_u64(acc);
    if (k + 4 <= n) {
        const __m256i w = _mm256_loadu_si256(
            reinterpret_cast<const __m256i*>(cur + k));
        const __m256i mk = _mm256_loadu_si256(
            reinterpret_cast<const __m256i*>(mask + k));
        const __m256i cv =
            _mm256_set1_epi64x(static_cast<long long>(carry << 63));
        const __m256i prev = _mm256_alignr_epi64(w, cv, 3);
        carry = cur[k + 3] >> 63;
        const __m256i shifted = _mm256_or_si256(
            _mm256_slli_epi64(w, 1), _mm256_srli_epi64(prev, 63));
        const __m256i x =
            _mm256_and_si256(_mm256_xor_si256(w, shifted), mk);
        const __m256i p = _mm256_popcnt_epi64(x);
        const __m128i s = _mm_add_epi64(_mm256_castsi256_si128(p),
                                        _mm256_extracti128_si256(p, 1));
        total += static_cast<std::uint64_t>(_mm_cvtsi128_si64(s))
                 + static_cast<std::uint64_t>(_mm_extract_epi64(s, 1));
        k += 4;
    }
    for (; k < n; ++k) {
        const std::uint64_t shifted = (cur[k] << 1) | carry;
        carry = cur[k] >> 63;
        total += static_cast<std::uint64_t>(
            __builtin_popcountll((cur[k] ^ shifted) & mask[k]));
    }
    return total;
}
#endif

#ifndef DVAFS_VEC_HAVE_F32_TILE
#define DVAFS_VEC_HAVE_F32_TILE 1
// The 8 x 24 tile as 8 rows x G zmm accumulators of eight doubles (24 of
// the 32 registers at G = 3): per k step, G masked vcvtps2pd loads of the
// B row, then per row one broadcast and one vfmadd231pd per accumulator.
// The product of two floats is exact in double, so the fused op rounds to
// the scalar tile's separate multiply and add bit for bit (cnn/gemm.h).
// Column tails mask the loads and the stores; rows past mb are computed
// on the panel's zero padding and dropped.
template <int G>
inline void f32_tile_cols(const double* panel, const float* b, float* c,
                          std::size_t k, std::size_t n, std::size_t mb,
                          std::size_t nb)
{
    __mmask8 mask[G];
    #pragma GCC unroll 8
    for (int g = 0; g < G; ++g) {
        const std::size_t w = nb - 8 * static_cast<std::size_t>(g);
        mask[g] = w >= 8 ? static_cast<__mmask8>(0xff)
                         : static_cast<__mmask8>((1U << w) - 1U);
    }
    __m512d acc[8][G];
    #pragma GCC unroll 8
    for (int i = 0; i < 8; ++i) {
        const __m512d init = _mm512_set1_pd(panel[i]);
        #pragma GCC unroll 8
        for (int g = 0; g < G; ++g) {
            acc[i][g] = init;
        }
    }
    const double* ap = panel + 8;
    for (std::size_t r = 0; r < k; ++r, ap += 8) {
        const float* brow = b + r * n;
        __m512d bv[G];
        #pragma GCC unroll 8
        for (int g = 0; g < G; ++g) {
            bv[g] = _mm512_cvtps_pd(
                _mm256_maskz_loadu_ps(mask[g], brow + 8 * g));
        }
        #pragma GCC unroll 8
        for (int i = 0; i < 8; ++i) {
            const __m512d av = _mm512_set1_pd(ap[i]);
            #pragma GCC unroll 8
            for (int g = 0; g < G; ++g) {
                acc[i][g] = _mm512_fmadd_pd(av, bv[g], acc[i][g]);
            }
        }
    }
    #pragma GCC unroll 8
    for (int i = 0; i < 8; ++i) {
        if (static_cast<std::size_t>(i) < mb) {
            #pragma GCC unroll 8
            for (int g = 0; g < G; ++g) {
                _mm256_mask_storeu_ps(c + static_cast<std::size_t>(i) * n
                                          + 8 * g,
                                      mask[g], _mm512_cvtpd_ps(acc[i][g]));
            }
        }
    }
}

inline void f32_tile(const double* panel, const float* b, float* c,
                     std::size_t k, std::size_t n, std::size_t mb,
                     std::size_t nb)
{
    if (nb > 16) {
        f32_tile_cols<3>(panel, b, c, k, n, mb, nb);
    } else if (nb > 8) {
        f32_tile_cols<2>(panel, b, c, k, n, mb, nb);
    } else {
        f32_tile_cols<1>(panel, b, c, k, n, mb, nb);
    }
}
#endif

#ifndef DVAFS_VEC_HAVE_F32_GEMV
#define DVAFS_VEC_HAVE_F32_GEMV 1
// n == 1: eight rows per zmm, four zmm (32 rows) in flight. Per k step a
// masked 8-lane gather pulls column r of eight row-major weight rows,
// vcvtps2pd widens it, and one broadcast b[r] feeds a vfmadd231pd -- per
// row the scalar kernel's sum, rounded once per step exactly as its
// separate multiply and add round (cnn/gemm.h). Gather indices are 32-bit
// lane offsets (row * k, up to 31 * k < 2^31 under the driver's k bound).
inline void f32_gemv(const float* a, const float* b, const float* bias,
                     float* c, std::size_t m, std::size_t k)
{
    const int ki = static_cast<int>(k);
    const __m256i lanes = _mm256_mullo_epi32(
        _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7), _mm256_set1_epi32(ki));
    __m256i idx[4];
    #pragma GCC unroll 8
    for (int q = 0; q < 4; ++q) {
        idx[q] = _mm256_add_epi32(lanes, _mm256_set1_epi32(8 * q * ki));
    }
    for (std::size_t m0 = 0; m0 < m; m0 += 32) {
        const std::size_t rows = m - m0 < 32 ? m - m0 : 32;
        __mmask8 mask[4];
        __m512d acc[4];
        #pragma GCC unroll 8
        for (int q = 0; q < 4; ++q) {
            const std::size_t lo = 8 * static_cast<std::size_t>(q);
            const std::size_t w = rows > lo ? rows - lo : 0;
            mask[q] = w >= 8 ? static_cast<__mmask8>(0xff)
                             : static_cast<__mmask8>((1U << w) - 1U);
            // An empty group's zero mask reads nothing; its address
            // stays at bias + m0, inside the array.
            acc[q] = bias != nullptr
                         ? _mm512_cvtps_pd(_mm256_maskz_loadu_ps(
                               mask[q], bias + m0 + (w > 0 ? lo : 0)))
                         : _mm512_setzero_pd();
        }
        const float* base = a + m0 * k;
        for (std::size_t r = 0; r < k; ++r) {
            const __m512d bv = _mm512_set1_pd(static_cast<double>(b[r]));
            #pragma GCC unroll 8
            for (int q = 0; q < 4; ++q) {
                const __m512d av =
                    _mm512_cvtps_pd(_mm256_mmask_i32gather_ps(
                        _mm256_setzero_ps(), mask[q], idx[q], base + r, 4));
                acc[q] = _mm512_fmadd_pd(av, bv, acc[q]);
            }
        }
        #pragma GCC unroll 8
        for (int q = 0; q < 4; ++q) {
            if (mask[q] != 0) {
                _mm256_mask_storeu_ps(c + m0 + 8 * static_cast<std::size_t>(q),
                                      mask[q], _mm512_cvtpd_ps(acc[q]));
            }
        }
    }
}
#endif

#ifndef DVAFS_VEC_HAVE_QUANTIZE
#define DVAFS_VEC_HAVE_QUANTIZE 1
// Eight elements per step: vdivpd, vrndscalepd toward -inf / +inf picked
// by the sign of the quotient, vmaxpd/vminpd clamp and + 0.0 -- each the
// exactly rounded double op of the scalar kernel. A non-finite x is
// caught with |x| !< inf (unordered-true, so NaN counts) and reported
// after the loop; its lane's output is unspecified.
inline bool quantize_f32(const float* x, std::size_t n, double step,
                         double lo, double hi, float* fake,
                         std::int32_t* codes)
{
    const __m512d vstep = _mm512_set1_pd(step);
    const __m512d half = _mm512_set1_pd(0.5);
    const __m512d vlo = _mm512_set1_pd(lo);
    const __m512d vhi = _mm512_set1_pd(hi);
    const __m512d zero = _mm512_setzero_pd();
    const __m256 inf = _mm256_set1_ps(__builtin_inff());
    const __m256 abs_mask =
        _mm256_castsi256_ps(_mm256_set1_epi32(0x7fffffff));
    __mmask8 bad = 0;
    for (std::size_t i = 0; i < n; i += 8) {
        const std::size_t w = n - i;
        const __mmask8 mk = w >= 8 ? static_cast<__mmask8>(0xff)
                                   : static_cast<__mmask8>((1U << w) - 1U);
        const __m256 xf = _mm256_maskz_loadu_ps(mk, x + i);
        bad |= _mm256_mask_cmp_ps_mask(mk, _mm256_and_ps(xf, abs_mask), inf,
                                       _CMP_NLT_UQ);
        const __m512d q = _mm512_div_pd(_mm512_cvtps_pd(xf), vstep);
        const __m512d up = _mm512_roundscale_pd(
            _mm512_add_pd(q, half), _MM_FROUND_TO_NEG_INF | _MM_FROUND_NO_EXC);
        const __m512d down = _mm512_roundscale_pd(
            _mm512_sub_pd(q, half), _MM_FROUND_TO_POS_INF | _MM_FROUND_NO_EXC);
        __m512d r = _mm512_mask_blend_pd(
            _mm512_cmp_pd_mask(q, zero, _CMP_GE_OQ), down, up);
        r = _mm512_add_pd(_mm512_min_pd(_mm512_max_pd(r, vlo), vhi), zero);
        if (fake != nullptr) {
            _mm256_mask_storeu_ps(fake + i, mk,
                                  _mm512_cvtpd_ps(_mm512_mul_pd(r, vstep)));
        } else {
            _mm256_mask_storeu_epi32(codes + i, mk, _mm512_cvttpd_epi32(r));
        }
    }
    return bad == 0;
}
#endif

#ifndef DVAFS_VEC_HAVE_S8_DOT
#define DVAFS_VEC_HAVE_S8_DOT 1
// 32 int8 MAC pairs per step: widen to int16 in a zmm, vpmaddwd (exact;
// the 0x8000 corner is unreachable from int8), accumulate in 16 int32
// lanes. Per-lane sums stay below 2^31 under the k <= 66571 contract.
inline std::int32_t s8_dot(const std::int8_t* x, const std::int8_t* y,
                           std::size_t k)
{
    __m512i acc = _mm512_setzero_si512();
    std::size_t r = 0;
    for (; r + 32 <= k; r += 32) {
        const __m512i xv = _mm512_cvtepi8_epi16(_mm256_loadu_si256(
            reinterpret_cast<const __m256i*>(x + r)));
        const __m512i yv = _mm512_cvtepi8_epi16(_mm256_loadu_si256(
            reinterpret_cast<const __m256i*>(y + r)));
        acc = _mm512_add_epi32(acc, _mm512_madd_epi16(xv, yv));
    }
    std::int32_t total = reduce_add_s32(acc);
    for (; r < k; ++r) {
        total += static_cast<std::int32_t>(x[r])
                 * static_cast<std::int32_t>(y[r]);
    }
    return total;
}
#endif
