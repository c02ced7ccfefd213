// Register-blocked GEMM: the CNN inference hot path.
//
// conv_layer and fc_layer lower their forward passes onto one kernel,
//   C[m][n] = bias[m] + sum_k A[m][k] * B[k][n],
// where A is the (quantized) weight matrix [filters x C*K*K] -- exactly the
// layout conv weights are already stored in -- and B holds the conv
// input's patches [C*K*K x pixels], or the input column itself for fc.
//
// B is read through a row-offset table, B(r, j) = b[boff[r] + j]; a dense
// B is the table r * n (boff == nullptr). That lets a stride-1 conv skip
// the im2col matrix. Copy the input once into a zero-padded plane of
// Hp x Wp = (H + 2P) x (W + 2P) per channel (plane = Hp * Wp floats) and
// let the GEMM compute the "wide" grid j = oy * Wp + ox, ox in [0, Wp):
// row r = (c, ky, kx) of the im2col matrix is then the padded plane
// shifted by boff[r] = c * plane + ky * Wp + kx, since
//   padded[c][oy + ky][ox + kx] = plane_base[boff[r] + oy * Wp + ox].
// Columns ox >= OW read across a row edge and are discarded; the first
// OW columns of each wide row are the conv's output row. The wide grid
// stops at the last real pixel, n = (OH - 1) * Wp + OW, so the furthest
// read is
//   (C - 1) * plane + (K - 1) * Wp + (K - 1) + (OH - 1) * Wp + OW - 1
//     = C * plane - 1   (OH + K - 1 = Hp and OW + K - 1 = Wp at stride 1),
// the plane's last float: no slack past it. With P == 0 the plane is the
// CHW input itself, so an unquantized pad-0 conv reads its input tensor
// in place. Padded taps are +0.0f, exactly what im2col writes, and each
// output still adds the same products in ascending k, so this lowering is
// bit-identical to im2col + a dense GEMM (tests/test_gemm.cpp). Stride > 1
// convs and the integer engine (cnn/gemm_int.h) still pack with im2col.
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
// reduction: A and its bias are packed into 8-row panels of doubles
// (pack_panels, once per conv binding: cnn/layers.h prepared_weights),
// and an 8 x 24 register tile walks the 24-column n-tiles of B
// (src/vec/kernels_body.h). The fc case (n == 1) is gemv_f32 on A's
// floats, vectorized across rows.

#pragma once

#include "cnn/tensor.h"

#include <cstddef>
#include <vector>

namespace dvafs {

// A [m x k] row-major and its bias (null: C starts from 0) as the float
// GEMM's panels: per 8 rows the eight start values, then k groups of
// eight doubles (rows past m are zero).
std::vector<double> pack_panels(const float* a, const float* bias,
                                std::size_t m, std::size_t k);

// C = bias (+) A * B with A and bias packed by pack_panels, C [m x n]
// row-major and B's row r at b + boff[r] (row-major [k x n] when boff is
// null). Outputs accumulate in double over ascending k (see the contract
// above).
void gemm_blocked(const double* panels, const float* b, float* c,
                  std::size_t m, std::size_t k, std::size_t n,
                  const std::size_t* boff = nullptr);

// The n == 1 case on a row-major float A and a dense B column:
// c = bias (+) A * b, bit-identical to gemm_blocked on A's panels.
void gemv_f32(const float* a, const float* b, const float* bias, float* c,
              std::size_t m, std::size_t k);

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
