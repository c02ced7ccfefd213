// AVX2 overlay: 256-bit definitions for the vocabulary ops that profit.
//
// Included inside a backend namespace (backend_avx2.cpp, and again under
// backend_avx512.cpp's namespace for the ops AVX-512 does not re-overlay);
// no #includes here -- intrinsics come from vec/backend_prelude.h. Every
// op is bit-identical to the ops_scalar.h fallback: bitwise kernels by
// construction, the float kernels by replicating the exact per-element
// double op sequence, the integer kernels because exact integer
// accumulation is order-free.

#ifndef DVAFS_VEC_HAVE_MASKED_POPCOUNT
#define DVAFS_VEC_HAVE_MASKED_POPCOUNT 1
// Harley-Seal-free nibble-LUT popcount: pshufb on both nibbles, psadbw
// against zero to sum bytes per qword.
inline std::uint64_t masked_popcount(const std::uint64_t* x,
                                     const std::uint64_t* m, int n)
{
    const __m256i lut = _mm256_setr_epi8(0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2,
                                         3, 2, 3, 3, 4, 0, 1, 1, 2, 1, 2,
                                         2, 3, 1, 2, 2, 3, 2, 3, 3, 4);
    const __m256i low4 = _mm256_set1_epi8(0x0f);
    __m256i acc = _mm256_setzero_si256();
    int k = 0;
    for (; k + 4 <= n; k += 4) {
        const __m256i v = _mm256_and_si256(
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(x + k)),
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(m + k)));
        const __m256i lo =
            _mm256_shuffle_epi8(lut, _mm256_and_si256(v, low4));
        const __m256i hi = _mm256_shuffle_epi8(
            lut, _mm256_and_si256(_mm256_srli_epi16(v, 4), low4));
        acc = _mm256_add_epi64(
            acc, _mm256_sad_epu8(_mm256_add_epi8(lo, hi),
                                 _mm256_setzero_si256()));
    }
    const __m128i s = _mm_add_epi64(_mm256_castsi256_si128(acc),
                                    _mm256_extracti128_si256(acc, 1));
    std::uint64_t total =
        static_cast<std::uint64_t>(_mm_cvtsi128_si64(s))
        + static_cast<std::uint64_t>(_mm_extract_epi64(s, 1));
    for (; k < n; ++k) {
        total += static_cast<std::uint64_t>(
            __builtin_popcountll(x[k] & m[k]));
    }
    return total;
}
#endif

#ifndef DVAFS_VEC_HAVE_SHIFT_TRANSITIONS
#define DVAFS_VEC_HAVE_SHIFT_TRANSITIONS 1
// Fused toggle kernel: the lane shift is a qword rotation with the carry
// blended into lane 0, the popcount the same nibble-LUT + psadbw.
inline std::uint64_t shift_transitions(const std::uint64_t* cur,
                                       const std::uint64_t* mask, int n,
                                       std::uint64_t carry_in)
{
    const __m256i lut = _mm256_setr_epi8(0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2,
                                         3, 2, 3, 3, 4, 0, 1, 1, 2, 1, 2,
                                         2, 3, 1, 2, 2, 3, 2, 3, 3, 4);
    const __m256i low4 = _mm256_set1_epi8(0x0f);
    __m256i acc = _mm256_setzero_si256();
    std::uint64_t carry = carry_in;
    int k = 0;
    for (; k + 4 <= n; k += 4) {
        const __m256i w = _mm256_loadu_si256(
            reinterpret_cast<const __m256i*>(cur + k));
        const __m256i mk = _mm256_loadu_si256(
            reinterpret_cast<const __m256i*>(mask + k));
        // prev = [carry<<63, w0, w1, w2]: each qword's left neighbour, so
        // (prev >> 63) is the bit shifted into each qword's bit 0.
        const __m256i rot = _mm256_permute4x64_epi64(w, 0x90);
        const __m256i prev = _mm256_blend_epi32(
            rot, _mm256_set1_epi64x(static_cast<long long>(carry << 63)),
            0x03);
        carry = cur[k + 3] >> 63;
        const __m256i shifted = _mm256_or_si256(
            _mm256_slli_epi64(w, 1), _mm256_srli_epi64(prev, 63));
        const __m256i x =
            _mm256_and_si256(_mm256_xor_si256(w, shifted), mk);
        const __m256i lo =
            _mm256_shuffle_epi8(lut, _mm256_and_si256(x, low4));
        const __m256i hi = _mm256_shuffle_epi8(
            lut, _mm256_and_si256(_mm256_srli_epi16(x, 4), low4));
        acc = _mm256_add_epi64(
            acc, _mm256_sad_epu8(_mm256_add_epi8(lo, hi),
                                 _mm256_setzero_si256()));
    }
    const __m128i s = _mm_add_epi64(_mm256_castsi256_si128(acc),
                                    _mm256_extracti128_si256(acc, 1));
    std::uint64_t total =
        static_cast<std::uint64_t>(_mm_cvtsi128_si64(s))
        + static_cast<std::uint64_t>(_mm_extract_epi64(s, 1));
    for (; k < n; ++k) {
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
// One masked-exchange round at stride J >= 4: partner rows are J apart and
// the row indices with bit J clear come in runs of J, so four exchanges
// happen per vector op. Bitwise-identical to the scalar network round.
template <int J>
inline void transpose64_round(std::uint64_t* x, std::uint64_t m)
{
    static_assert(J >= 4 && (J & (J - 1)) == 0);
    const __m256i mm = _mm256_set1_epi64x(static_cast<long long>(m));
    for (int base = 0; base < 64; base += 2 * J) {
        for (int k = base; k < base + J; k += 4) {
            __m256i lo = _mm256_loadu_si256(
                reinterpret_cast<const __m256i*>(x + k));
            __m256i hi = _mm256_loadu_si256(
                reinterpret_cast<const __m256i*>(x + k + J));
            const __m256i t = _mm256_and_si256(
                _mm256_xor_si256(_mm256_srli_epi64(lo, J), hi), mm);
            lo = _mm256_xor_si256(lo, _mm256_slli_epi64(t, J));
            hi = _mm256_xor_si256(hi, t);
            _mm256_storeu_si256(reinterpret_cast<__m256i*>(x + k), lo);
            _mm256_storeu_si256(reinterpret_cast<__m256i*>(x + k + J), hi);
        }
    }
}

inline void transpose64(std::uint64_t x[64])
{
    transpose64_round<32>(x, 0x00000000FFFFFFFFULL);
    transpose64_round<16>(x, 0x0000FFFF0000FFFFULL);
    transpose64_round<8>(x, 0x00FF00FF00FF00FFULL);
    transpose64_round<4>(x, 0x0F0F0F0F0F0F0F0FULL);
    // Strides 2 and 1 exchange within a 4-row vector; scalar rounds.
    std::uint64_t m = 0x3333333333333333ULL;
    for (int j = 2; j != 0; j >>= 1, m ^= m << j) {
        for (int k = 0; k < 64; k = (k + j + 1) & ~j) {
            const std::uint64_t t = ((x[k] >> j) ^ x[k + j]) & m;
            x[k] ^= t << j;
            x[k + j] ^= t;
        }
    }
}
#endif

// The float kernels below fuse each multiply-add into one FMA, which is
// exact here (cnn/gemm.h). FMA is a separate CPUID feature from AVX2 and
// the AVX2 TU is built with -mavx2 -mpopcnt only, so those kernels enable
// it per function; the dispatcher selects this backend only on CPUs that
// report both (dispatch.cpp).
#if defined(__GNUC__) || defined(__clang__)
#define DVAFS_VEC_FMA __attribute__((target("fma")))
#else
#define DVAFS_VEC_FMA
#endif

// Lane mask for a 4-float vmaskmovps: lanes [0, min(w, 4)) set, the rest
// clear (masked loads and stores neither read nor write clear lanes).
inline __m128i f32_lane_mask(std::size_t w)
{
    const int wi = w >= 4 ? 4 : static_cast<int>(w);
    return _mm_cmpgt_epi32(_mm_set1_epi32(wi), _mm_setr_epi32(0, 1, 2, 3));
}

#ifndef DVAFS_VEC_HAVE_F32_TILE
#define DVAFS_VEC_HAVE_F32_TILE 1
// A 4 x 4G block of the 8 x 24 tile (G <= 3): 4 rows x G accumulators of
// four doubles -- 12 of the 16 ymm registers at G = 3. Per k step, G
// loads widened by vcvtps2pd, then per row one broadcast and one
// vfmadd231pd per accumulator, bit for bit the scalar tile's multiply and
// add. Only the last group of a column tail (Tail) masks its load and
// store, which keeps the full blocks free of mask registers.
template <int G, bool Tail>
DVAFS_VEC_FMA
inline void f32_block(const double* panel, std::size_t row0,
                      const float* b, float* c, std::size_t k,
                      std::size_t n, std::size_t rows, std::size_t cols)
{
    const __m128i mask = f32_lane_mask(cols - 4 * (G - 1));
    __m256d acc[4][G];
    #pragma GCC unroll 8
    for (int i = 0; i < 4; ++i) {
        const __m256d init = _mm256_set1_pd(panel[row0 + i]);
        #pragma GCC unroll 8
        for (int g = 0; g < G; ++g) {
            acc[i][g] = init;
        }
    }
    const double* ap = panel + 8 + row0;
    for (std::size_t r = 0; r < k; ++r, ap += 8) {
        const float* brow = b + r * n;
        __m256d bv[G];
        #pragma GCC unroll 8
        for (int g = 0; g < G; ++g) {
            bv[g] = _mm256_cvtps_pd(
                Tail && g == G - 1 ? _mm_maskload_ps(brow + 4 * g, mask)
                                   : _mm_loadu_ps(brow + 4 * g));
        }
        #pragma GCC unroll 8
        for (int i = 0; i < 4; ++i) {
            const __m256d av = _mm256_broadcast_sd(ap + i);
            #pragma GCC unroll 8
            for (int g = 0; g < G; ++g) {
                acc[i][g] = _mm256_fmadd_pd(av, bv[g], acc[i][g]);
            }
        }
    }
    #pragma GCC unroll 8
    for (int i = 0; i < 4; ++i) {
        if (static_cast<std::size_t>(i) < rows) {
            float* const crow = c + static_cast<std::size_t>(i) * n;
            #pragma GCC unroll 8
            for (int g = 0; g < G; ++g) {
                const __m128 out = _mm256_cvtpd_ps(acc[i][g]);
                if (Tail && g == G - 1) {
                    _mm_maskstore_ps(crow + 4 * g, mask, out);
                } else {
                    _mm_storeu_ps(crow + 4 * g, out);
                }
            }
        }
    }
}

// The 8 x 24 tile as up to 2 x 2 blocks of 4 rows x 12 columns.
DVAFS_VEC_FMA
inline void f32_tile(const double* panel, const float* b, float* c,
                     std::size_t k, std::size_t n, std::size_t mb,
                     std::size_t nb)
{
    for (std::size_t row0 = 0; row0 < mb; row0 += 4) {
        const std::size_t rows = mb - row0 < 4 ? mb - row0 : 4;
        for (std::size_t col0 = 0; col0 < nb; col0 += 12) {
            const std::size_t cols = nb - col0 < 12 ? nb - col0 : 12;
            const float* const bb = b + col0;
            float* const cb = c + row0 * n + col0;
            if (cols == 12) {
                f32_block<3, false>(panel, row0, bb, cb, k, n, rows, cols);
            } else if (cols > 8) {
                f32_block<3, true>(panel, row0, bb, cb, k, n, rows, cols);
            } else if (cols > 4) {
                f32_block<2, true>(panel, row0, bb, cb, k, n, rows, cols);
            } else {
                f32_block<1, true>(panel, row0, bb, cb, k, n, rows, cols);
            }
        }
    }
}
#endif

#ifndef DVAFS_VEC_HAVE_F32_GEMV
#define DVAFS_VEC_HAVE_F32_GEMV 1
// Q groups of eight rows (Q <= 4) from row m0: per k step each group's
// 8-lane gather pulls column r of its eight row-major weight rows,
// vcvtps2pd widens both halves, and one broadcast b[r] feeds a
// vfmadd231pd per half -- per row the scalar kernel's sum. All groups
// share one index vector (row offsets 0, k, ..., 7k) and one lane mask;
// the group base moves in a general register, so the k loop holds eight
// accumulators, the index, the mask and b[r] -- 11 of the 16 ymm
// registers. vgatherdps merges into its destination, so each gather
// starts from a zeroed register; with an all-ones mask known at compile
// time GCC drops that zeroing and chains the four gathers through the
// one register they share (half the speed), hence the empty asm that
// hides the mask's value.
template <int Q>
DVAFS_VEC_FMA
inline void f32_gemv_rows(const float* a, const float* b, const float* bias,
                          float* c, std::size_t k, std::size_t m0,
                          __m256i lanes, __m256i mask)
{
#if defined(__GNUC__) || defined(__clang__)
    __asm__("" : "+x"(mask));
#endif
    __m256d lo[Q];
    __m256d hi[Q];
    #pragma GCC unroll 8
    for (int q = 0; q < Q; ++q) {
        const __m256 init =
            bias != nullptr
                ? _mm256_maskload_ps(
                      bias + m0 + 8 * static_cast<std::size_t>(q), mask)
                : _mm256_setzero_ps();
        lo[q] = _mm256_cvtps_pd(_mm256_castps256_ps128(init));
        hi[q] = _mm256_cvtps_pd(_mm256_extractf128_ps(init, 1));
    }
    const float* const base = a + m0 * k;
    const std::size_t group = 8 * k;
    for (std::size_t r = 0; r < k; ++r) {
        const __m256d bv = _mm256_set1_pd(static_cast<double>(b[r]));
        #pragma GCC unroll 8
        for (int q = 0; q < Q; ++q) {
            const __m256 av = _mm256_mask_i32gather_ps(
                _mm256_setzero_ps(),
                base + static_cast<std::size_t>(q) * group + r, lanes,
                _mm256_castsi256_ps(mask), 4);
            lo[q] = _mm256_fmadd_pd(
                _mm256_cvtps_pd(_mm256_castps256_ps128(av)), bv, lo[q]);
            hi[q] = _mm256_fmadd_pd(
                _mm256_cvtps_pd(_mm256_extractf128_ps(av, 1)), bv, hi[q]);
        }
    }
    #pragma GCC unroll 8
    for (int q = 0; q < Q; ++q) {
        _mm256_maskstore_ps(c + m0 + 8 * static_cast<std::size_t>(q), mask,
                            _mm256_set_m128(_mm256_cvtpd_ps(hi[q]),
                                            _mm256_cvtpd_ps(lo[q])));
    }
}

// n == 1: 32 rows (four gathers of eight, eight ymm accumulators of four
// doubles) in flight, then the remaining full groups of eight in one
// pass and the last m % 8 rows in a pass of their own -- the only one
// whose lane mask is not all-ones. Gather indices are 32-bit lane
// offsets (up to 7 * k < 2^31 under the driver's k bound).
DVAFS_VEC_FMA
inline void f32_gemv(const float* a, const float* b, const float* bias,
                     float* c, std::size_t m, std::size_t k)
{
    const __m256i iota = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
    const __m256i lanes =
        _mm256_mullo_epi32(iota, _mm256_set1_epi32(static_cast<int>(k)));
    const __m256i full = _mm256_set1_epi32(-1);
    std::size_t m0 = 0;
    for (; m - m0 >= 32; m0 += 32) {
        f32_gemv_rows<4>(a, b, bias, c, k, m0, lanes, full);
    }
    switch ((m - m0) / 8) {
    case 3: f32_gemv_rows<3>(a, b, bias, c, k, m0, lanes, full); break;
    case 2: f32_gemv_rows<2>(a, b, bias, c, k, m0, lanes, full); break;
    case 1: f32_gemv_rows<1>(a, b, bias, c, k, m0, lanes, full); break;
    default: break;
    }
    m0 += (m - m0) / 8 * 8;
    if (m0 < m) {
        const __m256i tail = _mm256_cmpgt_epi32(
            _mm256_set1_epi32(static_cast<int>(m - m0)), iota);
        f32_gemv_rows<1>(a, b, bias, c, k, m0, lanes, tail);
    }
}
#endif

#ifndef DVAFS_VEC_HAVE_QUANTIZE
#define DVAFS_VEC_HAVE_QUANTIZE 1
// Four elements per step: vdivpd, vroundpd toward -inf / +inf picked by
// the sign of the quotient, vmaxpd/vminpd clamp and + 0.0 -- each the
// exactly rounded double op of the scalar kernel. A non-finite x is
// caught with |x| !< inf (unordered-true, so NaN counts) and reported
// after the loop; its lane's output is unspecified.
inline bool quantize_f32(const float* x, std::size_t n, double step,
                         double lo, double hi, float* fake,
                         std::int32_t* codes)
{
    const __m256d vstep = _mm256_set1_pd(step);
    const __m256d half = _mm256_set1_pd(0.5);
    const __m256d vlo = _mm256_set1_pd(lo);
    const __m256d vhi = _mm256_set1_pd(hi);
    const __m256d zero = _mm256_setzero_pd();
    const __m128 inf = _mm_set1_ps(__builtin_inff());
    const __m128 abs_mask = _mm_castsi128_ps(_mm_set1_epi32(0x7fffffff));
    __m128 bad = _mm_setzero_ps();
    for (std::size_t i = 0; i < n; i += 4) {
        const __m128i mk = f32_lane_mask(n - i);
        const __m128 xf = _mm_maskload_ps(x + i, mk);
        bad = _mm_or_ps(bad, _mm_cmp_ps(_mm_and_ps(xf, abs_mask), inf,
                                        _CMP_NLT_UQ));
        const __m256d q = _mm256_div_pd(_mm256_cvtps_pd(xf), vstep);
        const __m256d up = _mm256_round_pd(
            _mm256_add_pd(q, half), _MM_FROUND_TO_NEG_INF | _MM_FROUND_NO_EXC);
        const __m256d down = _mm256_round_pd(
            _mm256_sub_pd(q, half), _MM_FROUND_TO_POS_INF | _MM_FROUND_NO_EXC);
        __m256d r = _mm256_blendv_pd(down, up,
                                     _mm256_cmp_pd(q, zero, _CMP_GE_OQ));
        r = _mm256_add_pd(_mm256_min_pd(_mm256_max_pd(r, vlo), vhi), zero);
        if (fake != nullptr) {
            _mm_maskstore_ps(fake + i, mk,
                             _mm256_cvtpd_ps(_mm256_mul_pd(r, vstep)));
        } else {
            _mm_maskstore_epi32(codes + i, mk, _mm256_cvttpd_epi32(r));
        }
    }
    return _mm_movemask_ps(bad) == 0;
}
#endif

#ifndef DVAFS_VEC_HAVE_S8_DOT
#define DVAFS_VEC_HAVE_S8_DOT 1
// Widen to int16 and vpmaddwd: 16 MACs per step, exact (int8 products fit
// int16 pairs in int32 with no saturation corner -- the 0x8000*0x8000
// pmaddwd case is unreachable from int8 inputs). Per-lane accumulation
// stays below 2^31 under the k <= 66571 contract.
inline std::int32_t s8_dot(const std::int8_t* x, const std::int8_t* y,
                           std::size_t k)
{
    __m256i acc = _mm256_setzero_si256();
    std::size_t r = 0;
    for (; r + 16 <= k; r += 16) {
        const __m256i xv = _mm256_cvtepi8_epi16(_mm_loadu_si128(
            reinterpret_cast<const __m128i*>(x + r)));
        const __m256i yv = _mm256_cvtepi8_epi16(_mm_loadu_si128(
            reinterpret_cast<const __m128i*>(y + r)));
        acc = _mm256_add_epi32(acc, _mm256_madd_epi16(xv, yv));
    }
    __m128i s = _mm_add_epi32(_mm256_castsi256_si128(acc),
                              _mm256_extracti128_si256(acc, 1));
    s = _mm_add_epi32(s, _mm_shuffle_epi32(s, 0x4E));
    s = _mm_add_epi32(s, _mm_shuffle_epi32(s, 0xB1));
    std::int32_t total = _mm_cvtsi128_si32(s);
    for (; r < k; ++r) {
        total += static_cast<std::int32_t>(x[r])
                 * static_cast<std::int32_t>(y[r]);
    }
    return total;
}
#endif

#ifndef DVAFS_VEC_HAVE_S8_CTILE
#define DVAFS_VEC_HAVE_S8_CTILE 1
// 4x16 int8 tile: two B k-rows are widened to int16 and interleaved once
// (shared by all four A rows), then one vpmaddwd per row computes
// a0*b0[j] + a1*b1[j] for 8 columns at a time. Unpack works per 128-bit
// lane, so the low accumulator holds columns {0-3, 8-11} and the high one
// {4-7, 12-15}; a permute2x128 on store restores column order.
inline void s8_ctile(const std::int8_t* a, const std::int8_t* b,
                     const std::int32_t* bias, std::int32_t* c,
                     std::size_t k, std::size_t n, std::size_t m0,
                     std::size_t n0)
{
    __m256i accl[4];
    __m256i acch[4];
    for (std::size_t i = 0; i < 4; ++i) {
        const __m256i init =
            _mm256_set1_epi32(bias != nullptr ? bias[m0 + i] : 0);
        accl[i] = init;
        acch[i] = init;
    }
    std::size_t r = 0;
    for (; r + 2 <= k; r += 2) {
        const __m256i b0 = _mm256_cvtepi8_epi16(_mm_loadu_si128(
            reinterpret_cast<const __m128i*>(b + r * n + n0)));
        const __m256i b1 = _mm256_cvtepi8_epi16(_mm_loadu_si128(
            reinterpret_cast<const __m128i*>(b + (r + 1) * n + n0)));
        const __m256i pl = _mm256_unpacklo_epi16(b0, b1);
        const __m256i ph = _mm256_unpackhi_epi16(b0, b1);
        for (std::size_t i = 0; i < 4; ++i) {
            const std::int32_t a0 = a[(m0 + i) * k + r];
            const std::int32_t a1 = a[(m0 + i) * k + r + 1];
            const __m256i ap = _mm256_set1_epi32(
                (a1 << 16) | (a0 & 0xFFFF));
            accl[i] = _mm256_add_epi32(accl[i], _mm256_madd_epi16(pl, ap));
            acch[i] = _mm256_add_epi32(acch[i], _mm256_madd_epi16(ph, ap));
        }
    }
    if (r < k) { // odd k: pair the last row with zero
        const __m256i b0 = _mm256_cvtepi8_epi16(_mm_loadu_si128(
            reinterpret_cast<const __m128i*>(b + r * n + n0)));
        const __m256i zero = _mm256_setzero_si256();
        const __m256i pl = _mm256_unpacklo_epi16(b0, zero);
        const __m256i ph = _mm256_unpackhi_epi16(b0, zero);
        for (std::size_t i = 0; i < 4; ++i) {
            const std::int32_t a0 = a[(m0 + i) * k + r];
            const __m256i ap = _mm256_set1_epi32(a0 & 0xFFFF);
            accl[i] = _mm256_add_epi32(accl[i], _mm256_madd_epi16(pl, ap));
            acch[i] = _mm256_add_epi32(acch[i], _mm256_madd_epi16(ph, ap));
        }
    }
    for (std::size_t i = 0; i < 4; ++i) {
        std::int32_t* crow = c + (m0 + i) * n + n0;
        _mm256_storeu_si256(
            reinterpret_cast<__m256i*>(crow),
            _mm256_permute2x128_si256(accl[i], acch[i], 0x20));
        _mm256_storeu_si256(
            reinterpret_cast<__m256i*>(crow + 8),
            _mm256_permute2x128_si256(accl[i], acch[i], 0x31));
    }
}
#endif

#ifndef DVAFS_VEC_HAVE_S16_DOT
#define DVAFS_VEC_HAVE_S16_DOT 1
// Widen int16 -> int32, exact vpmulld products (<= 2^30), then widen to
// int64 for accumulation.
inline std::int64_t s16_dot(const std::int16_t* x, const std::int16_t* y,
                            std::size_t k)
{
    __m256i acc = _mm256_setzero_si256(); // 4 x int64
    std::size_t r = 0;
    for (; r + 8 <= k; r += 8) {
        const __m256i xv = _mm256_cvtepi16_epi32(_mm_loadu_si128(
            reinterpret_cast<const __m128i*>(x + r)));
        const __m256i yv = _mm256_cvtepi16_epi32(_mm_loadu_si128(
            reinterpret_cast<const __m128i*>(y + r)));
        const __m256i p = _mm256_mullo_epi32(xv, yv);
        acc = _mm256_add_epi64(
            acc, _mm256_cvtepi32_epi64(_mm256_castsi256_si128(p)));
        acc = _mm256_add_epi64(
            acc, _mm256_cvtepi32_epi64(_mm256_extracti128_si256(p, 1)));
    }
    const __m128i s = _mm_add_epi64(_mm256_castsi256_si128(acc),
                                    _mm256_extracti128_si256(acc, 1));
    std::int64_t total = _mm_cvtsi128_si64(s)
                         + _mm_extract_epi64(s, 1);
    for (; r < k; ++r) {
        total += static_cast<std::int64_t>(x[r])
                 * static_cast<std::int64_t>(y[r]);
    }
    return total;
}
#endif
