// AVX2 vocabulary: the ymm vector of four doubles and the ops the vector
// kernel bodies in kernels_body.h are written against, then the three
// AVX2-only bodies (transpose64, s8_ctile, s16_dot).
//
// Included inside a backend namespace: backend_avx2.cpp, and
// backend_avx512.cpp after ops_avx512.h, whose vocabulary then stands
// while the AVX2-only bodies recompile under that TU's flags. No
// #includes here -- intrinsics come from vec/backend_prelude.h. Every
// body is bit-identical to its ops_scalar.h reference: the bitwise one by
// construction, the integer ones because exact integer accumulation is
// order-free.

#ifndef DVAFS_VEC_HAVE_VOCABULARY
#define DVAFS_VEC_HAVE_VOCABULARY 1

// FMA is a separate CPUID feature from AVX2 and this TU is built with
// -mavx2 -mpopcnt only, so fma() and the kernels that call it enable it
// per function; dispatch.cpp selects this backend only on CPUs that
// report both.
#if defined(__GNUC__) || defined(__clang__)
#define DVAFS_VEC_FMA __attribute__((target("fma")))
#else
#define DVAFS_VEC_FMA
#endif

using vd = __m256d;    // W doubles
using vi = __m256i;    // W u64 or 2W s32 lanes
using lmask = __m128i; // int32 lanes for a 4-float vmaskmovps
using gidx = __m256i;  // 32-bit offsets of eight rows for a gather
using gmask = __m256i; // int32 lanes of those eight rows
inline constexpr int W = 4;
// f32 tile rows: 4 rows x 3 accumulators + 3 B vectors + the broadcast
// fill the 16 ymm registers.
inline constexpr int tile_rows = 4;

// Lanes [0, min(w, 4)) set, the rest clear (masked loads and stores
// neither read nor write clear lanes).
inline lmask lane_mask(std::size_t w)
{
    const int wi = w >= 4 ? 4 : static_cast<int>(w);
    return _mm_cmpgt_epi32(_mm_set1_epi32(wi), _mm_setr_epi32(0, 1, 2, 3));
}

// Floats widen to doubles on load and narrow (round to nearest) on store.
inline vd load_f32(const float* p) { return _mm256_cvtps_pd(_mm_loadu_ps(p)); }
inline vd load_f32(const float* p, lmask m)
{
    return _mm256_cvtps_pd(_mm_maskload_ps(p, m));
}
inline void store_f32(float* p, vd v) { _mm_storeu_ps(p, _mm256_cvtpd_ps(v)); }
inline void store_f32(float* p, vd v, lmask m)
{
    _mm_maskstore_ps(p, m, _mm256_cvtpd_ps(v));
}
// Truncating double -> int32 store.
inline void store_i32(std::int32_t* p, vd v, lmask m)
{
    _mm_maskstore_epi32(p, m, _mm256_cvttpd_epi32(v));
}

inline vd splat(double x) { return _mm256_set1_pd(x); }
DVAFS_VEC_FMA inline vd fma(vd a, vd b, vd c)
{
    return _mm256_fmadd_pd(a, b, c);
}
inline vd add(vd a, vd b) { return _mm256_add_pd(a, b); }
inline vd sub(vd a, vd b) { return _mm256_sub_pd(a, b); }
inline vd mul(vd a, vd b) { return _mm256_mul_pd(a, b); }
inline vd div(vd a, vd b) { return _mm256_div_pd(a, b); }
inline vd min(vd a, vd b) { return _mm256_min_pd(a, b); }
inline vd max(vd a, vd b) { return _mm256_max_pd(a, b); }
inline vd floor(vd a)
{
    return _mm256_round_pd(a, _MM_FROUND_TO_NEG_INF | _MM_FROUND_NO_EXC);
}
inline vd ceil(vd a)
{
    return _mm256_round_pd(a, _MM_FROUND_TO_POS_INF | _MM_FROUND_NO_EXC);
}
// Per lane: s >= 0 (-0.0 included) ? a : b.
inline vd select_nonneg(vd s, vd a, vd b)
{
    return _mm256_blendv_pd(b, a,
                            _mm256_cmp_pd(s, _mm256_setzero_pd(), _CMP_GE_OQ));
}
inline bool any_nan(vd a)
{
    return _mm256_movemask_pd(_mm256_cmp_pd(a, a, _CMP_UNORD_Q)) != 0;
}

inline gidx gather_index(std::size_t k)
{
    return _mm256_mullo_epi32(_mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7),
                              _mm256_set1_epi32(static_cast<int>(k)));
}
// vgatherdps merges into its destination, so each gather starts from a
// zeroed register; with an all-ones mask known at compile time GCC drops
// that zeroing and chains a k loop's gathers through the one register
// they share (half the speed), hence the empty asm that hides the value.
inline gmask gather_mask(std::size_t rows)
{
    const int ri = rows >= 8 ? 8 : static_cast<int>(rows);
    gmask m = _mm256_cmpgt_epi32(_mm256_set1_epi32(ri),
                                 _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
#if defined(__GNUC__) || defined(__clang__)
    __asm__("" : "+x"(m));
#endif
    return m;
}
// Eight floats base[idx[j]] (lanes past the mask read nothing, give 0),
// widened to two vectors of doubles.
inline void gather8(vd out[2], const float* base, gidx idx, gmask m)
{
    const __m256 v = _mm256_mask_i32gather_ps(
        _mm256_setzero_ps(), base, idx, _mm256_castsi256_ps(m), 4);
    out[0] = _mm256_cvtps_pd(_mm256_castps256_ps128(v));
    out[1] = _mm256_cvtps_pd(_mm256_extractf128_ps(v, 1));
}

inline vi load_u64(const std::uint64_t* p)
{
    return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
}
inline vi and_u64(vi a, vi b) { return _mm256_and_si256(a, b); }
inline vi or_u64(vi a, vi b) { return _mm256_or_si256(a, b); }
inline vi xor_u64(vi a, vi b) { return _mm256_xor_si256(a, b); }
inline vi shl_u64(vi a, int s) { return _mm256_slli_epi64(a, s); }
inline vi shr_u64(vi a, int s) { return _mm256_srli_epi64(a, s); }
// [first, w0, w1, w2]: each lane's left neighbour (a qword rotation with
// `first` blended into lane 0).
inline vi shift_in(vi w, std::uint64_t first)
{
    return _mm256_blend_epi32(
        _mm256_permute4x64_epi64(w, 0x90),
        _mm256_set1_epi64x(static_cast<long long>(first)), 0x03);
}
// Nibble-LUT popcount: pshufb on both nibbles, psadbw against zero sums
// the bytes of each qword.
inline vi popcount_u64(vi a)
{
    const __m256i lut = _mm256_setr_epi8(0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2,
                                         3, 2, 3, 3, 4, 0, 1, 1, 2, 1, 2,
                                         2, 3, 1, 2, 2, 3, 2, 3, 3, 4);
    const __m256i low4 = _mm256_set1_epi8(0x0f);
    const __m256i lo = _mm256_shuffle_epi8(lut, _mm256_and_si256(a, low4));
    const __m256i hi = _mm256_shuffle_epi8(
        lut, _mm256_and_si256(_mm256_srli_epi16(a, 4), low4));
    return _mm256_sad_epu8(_mm256_add_epi8(lo, hi), _mm256_setzero_si256());
}
inline vi add_u64(vi a, vi b) { return _mm256_add_epi64(a, b); }
inline std::uint64_t reduce_u64(vi v)
{
    const __m128i s = _mm_add_epi64(_mm256_castsi256_si128(v),
                                    _mm256_extracti128_si256(v, 1));
    return static_cast<std::uint64_t>(_mm_cvtsi128_si64(s))
           + static_cast<std::uint64_t>(_mm_extract_epi64(s, 1));
}

// 4W int8 pairs: widened to int16, vpmaddwd sums adjacent products into
// 2W int32 lanes (exact: the 0x8000 * 0x8000 corner is unreachable from
// int8).
inline vi madd_s8(const std::int8_t* x, const std::int8_t* y)
{
    return _mm256_madd_epi16(
        _mm256_cvtepi8_epi16(
            _mm_loadu_si128(reinterpret_cast<const __m128i*>(x))),
        _mm256_cvtepi8_epi16(
            _mm_loadu_si128(reinterpret_cast<const __m128i*>(y))));
}
inline vi add_s32(vi a, vi b) { return _mm256_add_epi32(a, b); }
inline std::int32_t reduce_s32(vi v)
{
    __m128i s = _mm_add_epi32(_mm256_castsi256_si128(v),
                              _mm256_extracti128_si256(v, 1));
    s = _mm_add_epi32(s, _mm_shuffle_epi32(s, 0x4E));
    s = _mm_add_epi32(s, _mm_shuffle_epi32(s, 0xB1));
    return _mm_cvtsi128_si32(s);
}

#endif // DVAFS_VEC_HAVE_VOCABULARY

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
