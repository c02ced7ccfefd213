// im2col + register-blocked GEMM: the CNN inference hot path.
//
// conv_layer and fc_layer lower their forward passes onto one kernel,
//   C[m][n] = bias[m] + sum_k A[m][k] * B[k][n],
// where A is the (quantized) weight matrix [filters x C*K*K] -- exactly the
// layout conv weights are already stored in -- and B is the im2col packing
// of the input feature map [C*K*K x OH*OW].
//
// Bit-compatibility contract: each output accumulates in double, in
// ascending k, starting from the bias -- the same order as the naive
// reference loops in layers.cpp -- and zero-padded taps contribute
// `acc += w * 0.0`, which leaves the accumulator unchanged. The GEMM
// forward is therefore float-equal to reference_forward on every element
// (signed zeros may differ in sign; they compare equal), which
// tests/test_gemm.cpp pins across random shapes, strides and paddings.
// The blocking only reorders *independent* outputs (register tiles over
// the m and n dimensions), never the k reduction.

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
