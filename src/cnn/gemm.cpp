#include "cnn/gemm.h"

#include "vec/vec.h"

#include <algorithm>
#include <cstdint>
#include <cstring>

namespace dvafs {

void gemm_blocked(const float* a, const float* b, const float* bias,
                  float* c, std::size_t m, std::size_t k, std::size_t n,
                  const std::size_t* boff)
{
    // The packed-panel 8 x 24 tile and the n == 1 row-vectorized kernel
    // live in the host-SIMD layer (src/vec/kernels_body.h) so each ISA
    // backend compiles them with real vector flags; every backend is
    // bit-identical to the scalar overlay (k-ascending double
    // accumulation; the vector tiles' FMA is exact, see gemm.h).
    vec::active().gemm_f32(a, b, bias, c, m, k, n, boff);
}

template <typename T>
void im2col(const T* x, const tensor_shape& is, int kernel, int stride,
            int pad, const tensor_shape& out_shape, std::vector<T>& cols)
{
    const std::size_t n = static_cast<std::size_t>(out_shape.h)
                          * static_cast<std::size_t>(out_shape.w);
    const std::size_t rows = static_cast<std::size_t>(is.c)
                             * static_cast<std::size_t>(kernel)
                             * static_cast<std::size_t>(kernel);
    cols.resize(rows * n);

    const std::size_t plane = static_cast<std::size_t>(is.h)
                              * static_cast<std::size_t>(is.w);
    std::size_t r = 0;
    for (int c = 0; c < is.c; ++c) {
        const T* src_plane = x + static_cast<std::size_t>(c) * plane;
        for (int ky = 0; ky < kernel; ++ky) {
            for (int kx = 0; kx < kernel; ++kx, ++r) {
                T* dst = cols.data() + r * n;
                for (int oy = 0; oy < out_shape.h; ++oy) {
                    const int y = oy * stride + ky - pad;
                    if (y < 0 || y >= is.h) {
                        std::memset(dst, 0,
                                    static_cast<std::size_t>(out_shape.w)
                                        * sizeof(T));
                        dst += out_shape.w;
                        continue;
                    }
                    const T* src =
                        src_plane + static_cast<std::size_t>(y)
                                        * static_cast<std::size_t>(is.w);
                    int ox = 0;
                    // Leading taps left of the image.
                    for (; ox < out_shape.w && ox * stride + kx - pad < 0;
                         ++ox) {
                        *dst++ = T{0};
                    }
                    // In-image taps: contiguous when stride == 1. The
                    // last in-bounds ox solves ox*stride + kx - pad <=
                    // is.w - 1; a negative numerator means every tap is
                    // right of the image (C++ division truncates toward
                    // zero, so it must not reach the division).
                    const int last_in = is.w - 1 - kx + pad;
                    const int in_end =
                        last_in < 0 ? 0 : last_in / stride + 1;
                    const int run = std::min(out_shape.w, in_end);
                    if (stride == 1) {
                        const int count = run - ox;
                        if (count > 0) {
                            std::memcpy(dst, src + (ox + kx - pad),
                                        static_cast<std::size_t>(count)
                                            * sizeof(T));
                            dst += count;
                            ox = run;
                        }
                    } else {
                        for (; ox < run; ++ox) {
                            *dst++ = src[ox * stride + kx - pad];
                        }
                    }
                    // Trailing taps right of the image.
                    for (; ox < out_shape.w; ++ox) {
                        *dst++ = T{0};
                    }
                }
            }
        }
    }
}

template void im2col<float>(const float*, const tensor_shape&, int, int,
                            int, const tensor_shape&, std::vector<float>&);
template void im2col<std::int8_t>(const std::int8_t*, const tensor_shape&,
                                  int, int, int, const tensor_shape&,
                                  std::vector<std::int8_t>&);
template void im2col<std::int16_t>(const std::int16_t*,
                                   const tensor_shape&, int, int, int,
                                   const tensor_shape&,
                                   std::vector<std::int16_t>&);

} // namespace dvafs
