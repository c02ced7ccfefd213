// im2col + register-blocked GEMM: the CNN inference hot path.
//
// conv_layer and fc_layer lower their forward passes onto one kernel,
//   C[m][n] = bias[m] + sum_k A[m][k] * B[k][n],
// where A is the (quantized) weight matrix [filters x C*K*K] -- exactly the
// layout conv weights are already stored in -- and B is the im2col packing
// of the input feature map [C*K*K x OH*OW].
//
// Bit-compatibility contract: each output starts from its bias (0.0 when
// bias is null) and adds double(a) * double(b) in ascending k, rounding
// to double once per step, then rounds once to float -- the same order as
// the naive reference loops in layers.cpp. The scalar overlay writes each
// step as a multiply and an add; the vector tiles as one fused
// multiply-add, which gives the same bits:
//   * A float has a 24-bit significand, so a float x float product has at
//     most 48 significant bits and fits the 53 of a double. Its magnitude
//     lies between 2^-298 (two subnormals) and 2^256 (two FLT_MAX), so it
//     neither overflows nor goes subnormal in double: the multiply is
//     exact, RN(a*b) = a*b.
//   * Every accumulator is a float bias plus such products, hence a
//     multiple of 2^-298; a nonzero sum is at least 2^-298 in magnitude,
//     far above double's subnormal range, so no sum goes subnormal either.
//   * Hence fma(a, b, c) = RN(a*b + c) = RN(RN(a*b) + c): one rounding
//     either way. An exactly zero sum takes its sign from the IEEE
//     addition rule in both forms, and inf/NaN operands give inf or NaN
//     alike (a NaN's payload is outside the contract, see below).
// The build keeps -ffp-contract=off everywhere, so the compiler never
// fuses on its own; fusion happens only through explicit FMA intrinsics
// in src/vec/, where the argument above makes it exact.
// Zero-padded taps contribute `acc += w * 0.0`, which leaves the
// accumulator unchanged. The GEMM forward is therefore float-equal to
// reference_forward on every element (signed zeros may differ in sign;
// they compare equal), and every vec backend is bit-identical to the
// scalar one, infinities and signed zeros included; a NaN output is NaN
// everywhere, but which NaN operand an add propagates is up to the
// compiler's operand order, so its sign and payload are not part of the
// contract. tests/test_gemm.cpp pins this across random shapes, strides,
// paddings, tile edges, IEEE corner values and whole zoo networks under
// every available ISA.
//
// The blocking only reorders *independent* outputs, never the k
// reduction: A is packed into 8-row panels of doubles, and an 8 x 24
// register tile walks the 24-column n-tiles of B; the fc case
// (n == 1) is a matrix-vector product vectorized across rows
// (src/vec/kernels_body.h).

#pragma once

#include "cnn/tensor.h"

#include <cstddef>
#include <vector>

namespace dvafs {

// C = bias (+) A * B with A [m x k] row-major, B [k x n] row-major,
// C [m x n] row-major. bias may be null (then C starts from 0). Outputs
// accumulate in double over ascending k (see the contract above).
void gemm_blocked(const float* a, const float* b, const float* bias,
                  float* c, std::size_t m, std::size_t k, std::size_t n);

// Packs conv input patches into `cols`, a [C*K*K x OH*OW] row-major
// matrix: row r = (c, ky, kx) in the conv weight order, column = output
// pixel (oy, ox). `x` is a CHW plane of shape `is` holding float values
// (the f32 path) or integer codes (the i8/i16 path, cnn/gemm_int.h); one
// packing serves both. Out-of-image taps are packed as 0. `cols` is
// resized; callers reuse one scratch vector across calls to avoid
// reallocation. Instantiated for float, int8_t and int16_t.
template <typename T>
void im2col(const T* x, const tensor_shape& is, int kernel, int stride,
            int pad, const tensor_shape& out_shape, std::vector<T>& cols);

} // namespace dvafs
