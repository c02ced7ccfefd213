#include "cnn/gemm_int.h"

#include "vec/vec.h"

#include <cassert>

namespace dvafs {

namespace {

template <typename T, typename Acc>
void gemm_reference_int(const T* a, const T* b, const Acc* bias, Acc* c,
                        std::size_t m, std::size_t k, std::size_t n)
{
    for (std::size_t i = 0; i < m; ++i) {
        for (std::size_t j = 0; j < n; ++j) {
            Acc acc = bias != nullptr ? bias[i] : Acc{0};
            for (std::size_t r = 0; r < k; ++r) {
                acc += static_cast<Acc>(a[i * k + r])
                       * static_cast<Acc>(b[r * n + j]);
            }
            c[i * n + j] = acc;
        }
    }
}

} // namespace

void gemm_s8(const std::int8_t* a, const std::int8_t* b,
             const std::int32_t* bias, std::int32_t* c, std::size_t m,
             std::size_t k, std::size_t n)
{
    // k * 127^2 plus a 31-bit bias must fit int32 (header contract).
    // The vec backends' widening multiply-add kernels rely on the same
    // bound for their per-lane i32 accumulators.
    assert(k <= 66571);
    // Dispatched host-SIMD kernel (src/vec/): n == 1 (fc layers) takes a
    // k-vectorized dot product, wider n a 4x16 interleaved-pmaddwd tile.
    // Integer accumulation is exact, so every backend is bit-identical.
    vec::active().gemm_s8(a, b, bias, c, m, k, n);
}

void gemm_s8_reference(const std::int8_t* a, const std::int8_t* b,
                       const std::int32_t* bias, std::int32_t* c,
                       std::size_t m, std::size_t k, std::size_t n)
{
    assert(k <= 66571);
    gemm_reference_int<std::int8_t, std::int32_t>(a, b, bias, c, m, k, n);
}

void gemm_s16(const std::int16_t* a, const std::int16_t* b,
              const std::int64_t* bias, std::int64_t* c, std::size_t m,
              std::size_t k, std::size_t n)
{
    vec::active().gemm_s16(a, b, bias, c, m, k, n);
}

void gemm_s16_reference(const std::int16_t* a, const std::int16_t* b,
                        const std::int64_t* bias, std::int64_t* c,
                        std::size_t m, std::size_t k, std::size_t n)
{
    gemm_reference_int<std::int16_t, std::int64_t>(a, b, bias, c, m, k, n);
}

} // namespace dvafs
