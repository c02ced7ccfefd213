// AVX-512 vocabulary (F+BW+VL+VPOPCNTDQ): the zmm vector of eight doubles
// and the handful of ops the vector kernel bodies in kernels_body.h are
// written against. backend_avx512.cpp includes this header first and then
// ops_avx2.h, whose own vocabulary steps aside for this one while its
// AVX2-only bodies (transpose64, s8_ctile, s16_dot) recompile under this
// TU's flags. No #includes here; intrinsics come from
// vec/backend_prelude.h.

#define DVAFS_VEC_HAVE_VOCABULARY 1
#define DVAFS_VEC_FMA // FMA is part of AVX-512F

using vd = __m512d;     // W doubles
using vi = __m512i;     // W u64 or 2W s32 lanes
using lmask = __mmask8; // the first w of W float lanes
using gidx = __m256i;   // 32-bit offsets of eight rows for a gather
using gmask = __mmask8; // the first w of those eight rows
inline constexpr int W = 8;
// f32 tile rows: 8 rows x 3 accumulators + 3 B vectors fill 27 of the
// 32 zmm registers.
inline constexpr int tile_rows = 8;

inline lmask lane_mask(std::size_t w)
{
    return w >= 8 ? static_cast<lmask>(0xff)
                  : static_cast<lmask>((1U << w) - 1U);
}

// Floats widen to doubles on load and narrow (round to nearest) on store.
inline vd load_f32(const float* p)
{
    return _mm512_cvtps_pd(_mm256_loadu_ps(p));
}
inline vd load_f32(const float* p, lmask m)
{
    return _mm512_cvtps_pd(_mm256_maskz_loadu_ps(m, p));
}
inline void store_f32(float* p, vd v)
{
    _mm256_storeu_ps(p, _mm512_cvtpd_ps(v));
}
inline void store_f32(float* p, vd v, lmask m)
{
    _mm256_mask_storeu_ps(p, m, _mm512_cvtpd_ps(v));
}
// Truncating double -> int32 store.
inline void store_i32(std::int32_t* p, vd v, lmask m)
{
    _mm256_mask_storeu_epi32(p, m, _mm512_cvttpd_epi32(v));
}

inline vd splat(double x) { return _mm512_set1_pd(x); }
inline vd fma(vd a, vd b, vd c) { return _mm512_fmadd_pd(a, b, c); }
inline vd add(vd a, vd b) { return _mm512_add_pd(a, b); }
inline vd sub(vd a, vd b) { return _mm512_sub_pd(a, b); }
inline vd mul(vd a, vd b) { return _mm512_mul_pd(a, b); }
inline vd div(vd a, vd b) { return _mm512_div_pd(a, b); }
inline vd min(vd a, vd b) { return _mm512_min_pd(a, b); }
inline vd max(vd a, vd b) { return _mm512_max_pd(a, b); }
inline vd floor(vd a)
{
    return _mm512_roundscale_pd(a, _MM_FROUND_TO_NEG_INF | _MM_FROUND_NO_EXC);
}
inline vd ceil(vd a)
{
    return _mm512_roundscale_pd(a, _MM_FROUND_TO_POS_INF | _MM_FROUND_NO_EXC);
}
// Per lane: s >= 0 (-0.0 included) ? a : b.
inline vd select_nonneg(vd s, vd a, vd b)
{
    return _mm512_mask_blend_pd(
        _mm512_cmp_pd_mask(s, _mm512_setzero_pd(), _CMP_GE_OQ), b, a);
}
inline bool any_nan(vd a)
{
    return _mm512_cmp_pd_mask(a, a, _CMP_UNORD_Q) != 0;
}

inline gidx gather_index(std::size_t k)
{
    return _mm256_mullo_epi32(_mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7),
                              _mm256_set1_epi32(static_cast<int>(k)));
}
// The empty asm hides the mask's value: with an all-ones mask known at
// compile time GCC drops the zeroing of each gather's merge register and
// chains a k loop's gathers through one register, as for AVX2.
inline gmask gather_mask(std::size_t rows)
{
    gmask m = lane_mask(rows);
#if defined(__GNUC__) || defined(__clang__)
    __asm__("" : "+k"(m));
#endif
    return m;
}
// Eight floats base[idx[j]] (lanes past the mask read nothing, give 0),
// widened to doubles.
inline void gather8(vd out[1], const float* base, gidx idx, gmask m)
{
    out[0] = _mm512_cvtps_pd(
        _mm256_mmask_i32gather_ps(_mm256_setzero_ps(), m, idx, base, 4));
}

inline vi load_u64(const std::uint64_t* p) { return _mm512_loadu_si512(p); }
inline vi and_u64(vi a, vi b) { return _mm512_and_si512(a, b); }
inline vi or_u64(vi a, vi b) { return _mm512_or_si512(a, b); }
inline vi xor_u64(vi a, vi b) { return _mm512_xor_si512(a, b); }
inline vi shl_u64(vi a, unsigned s) { return _mm512_slli_epi64(a, s); }
inline vi shr_u64(vi a, unsigned s) { return _mm512_srli_epi64(a, s); }
// [first, w0, ..., w6]: each lane's left neighbour (valignq).
inline vi shift_in(vi w, std::uint64_t first)
{
    return _mm512_alignr_epi64(
        w, _mm512_set1_epi64(static_cast<long long>(first)), 7);
}
inline vi popcount_u64(vi a) { return _mm512_popcnt_epi64(a); }
inline vi add_u64(vi a, vi b) { return _mm512_add_epi64(a, b); }

// Horizontal sums written against the zero-masked extract: GCC 12's
// _mm512_reduce_add_* go through the maskless _mm512_extracti64x4_epi64,
// whose _mm256_undefined_si256() pass-through operand trips
// -Wmaybe-uninitialized (GCC PR105593) under -Werror. The zero-masked
// form compiles to the same single vextracti64x4.
inline __m256i fold_halves(vi v)
{
    return _mm512_maskz_extracti64x4_epi64(static_cast<__mmask8>(0xff), v,
                                           1);
}
inline std::uint64_t reduce_u64(vi v)
{
    const __m256i s4 =
        _mm256_add_epi64(_mm512_castsi512_si256(v), fold_halves(v));
    const __m128i s2 = _mm_add_epi64(_mm256_castsi256_si128(s4),
                                     _mm256_extracti128_si256(s4, 1));
    return static_cast<std::uint64_t>(_mm_cvtsi128_si64(s2))
           + static_cast<std::uint64_t>(_mm_extract_epi64(s2, 1));
}

// 4W int8 pairs: widened to int16, vpmaddwd sums adjacent products into
// 2W int32 lanes (exact: the 0x8000 * 0x8000 corner is unreachable from
// int8).
inline vi madd_s8(const std::int8_t* x, const std::int8_t* y)
{
    return _mm512_madd_epi16(
        _mm512_cvtepi8_epi16(
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(x))),
        _mm512_cvtepi8_epi16(
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(y))));
}
inline vi add_s32(vi a, vi b) { return _mm512_add_epi32(a, b); }
inline std::int32_t reduce_s32(vi v)
{
    const __m256i s8 =
        _mm256_add_epi32(_mm512_castsi512_si256(v), fold_halves(v));
    const __m128i s4 = _mm_add_epi32(_mm256_castsi256_si128(s8),
                                     _mm256_extracti128_si256(s8, 1));
    const __m128i s2 = _mm_add_epi32(s4, _mm_shuffle_epi32(s4, 0x4E));
    const __m128i s1 = _mm_add_epi32(s2, _mm_shuffle_epi32(s2, 0xB1));
    return _mm_cvtsi128_si32(s1);
}
