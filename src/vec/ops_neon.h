// NEON (aarch64) overlay: direct definitions of the toggle kernel and the
// int8 dot, not a vocabulary -- this is the only code that runs on ARM
// and no aarch64 toolchain builds it in CI. Included inside the neon
// backend namespace; no #includes here -- intrinsics come from
// vec/backend_prelude.h. Every other kernel (transpose64, the float GEMM
// kernels, s16_dot, the quantizer) is the scalar reference, which this
// TU's NEON baseline may autovectorize.

#ifndef DVAFS_VEC_HAVE_SHIFT_TRANSITIONS
#define DVAFS_VEC_HAVE_SHIFT_TRANSITIONS 1
inline std::uint64_t shift_transitions(const std::uint64_t* cur,
                                       const std::uint64_t* mask, int n,
                                       std::uint64_t carry_in)
{
    uint64x2_t acc = vdupq_n_u64(0);
    std::uint64_t carry = carry_in;
    int k = 0;
    for (; k + 2 <= n; k += 2) {
        const uint64x2_t w = vld1q_u64(cur + k);
        const uint64x2_t mk = vld1q_u64(mask + k);
        // prev = [carry<<63, w0]: each qword's left neighbour.
        const uint64x2_t prev =
            vextq_u64(vdupq_n_u64(carry << 63), w, 1);
        carry = cur[k + 1] >> 63;
        const uint64x2_t shifted =
            vorrq_u64(vshlq_n_u64(w, 1), vshrq_n_u64(prev, 63));
        const uint64x2_t x = vandq_u64(veorq_u64(w, shifted), mk);
        acc = vaddq_u64(
            acc, vpaddlq_u32(vpaddlq_u16(
                     vpaddlq_u8(vcntq_u8(vreinterpretq_u8_u64(x))))));
    }
    std::uint64_t total = vgetq_lane_u64(acc, 0) + vgetq_lane_u64(acc, 1);
    for (; k < n; ++k) {
        const std::uint64_t shifted = (cur[k] << 1) | carry;
        carry = cur[k] >> 63;
        total += static_cast<std::uint64_t>(
            __builtin_popcountll((cur[k] ^ shifted) & mask[k]));
    }
    return total;
}
#endif

#ifndef DVAFS_VEC_HAVE_S8_DOT
#define DVAFS_VEC_HAVE_S8_DOT 1
// vmull_s8 widens 8 products to int16, vpadalq_s16 pair-accumulates into
// int32 lanes; exact, and the int32 lanes stay small under k <= 66571.
inline std::int32_t s8_dot(const std::int8_t* x, const std::int8_t* y,
                           std::size_t k)
{
    int32x4_t acc = vdupq_n_s32(0);
    std::size_t r = 0;
    for (; r + 8 <= k; r += 8) {
        const int16x8_t p = vmull_s8(vld1_s8(x + r), vld1_s8(y + r));
        acc = vpadalq_s16(acc, p);
    }
    std::int32_t total = vaddvq_s32(acc);
    for (; r < k; ++r) {
        total += static_cast<std::int32_t>(x[r])
                 * static_cast<std::int32_t>(y[r]);
    }
    return total;
}
#endif
