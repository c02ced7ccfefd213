// Integer blocked GEMM: the true fixed-point CNN inference path. Conv
// inputs are integer codes packed by im2col (cnn/gemm.h) at every stride;
// only the float path's stride-1 convs skip that matrix.
//
// The float GEMM (gemm.h) computes with fake-quantized weights in double --
// the planner prices subword integer arithmetic that path never executes.
// These kernels perform the arithmetic the paper's datapath actually runs:
// int8/int16 operand codes, integer multiplies, wide integer accumulation,
// and (in layers.cpp) a per-layer requantization back to the activation
// grid -- one integer multiply plus one saturating rounding right shift
// (fixedpoint/bitops.h requantize).
//
// Contracts:
//  * Accumulation is exact integer arithmetic -- no per-add saturation, no
//    rounding -- so results are bit-identical under any blocking, loop
//    order or thread count (integer addition is associative). gemm_s8
//    accumulates int8 x int8 products in int32: k * 127^2 plus a bias
//    clamped to 31 bits must fit, i.e. k <= 66571 (asserted; the largest
//    zoo reduction is k = 4608). gemm_s16 accumulates in int64 (safe past
//    k = 2^31 products even with a 62-bit bias).
//  * gemm_s8_reference / gemm_s16_reference are the scalar oracles: naive
//    triple loops over the same codes. The blocked kernels must match them
//    bit for bit on every element; tests/test_gemm_int.cpp pins this
//    across random shapes, strides and paddings.
//  * bias rows are pre-scaled integer codes on the accumulator grid
//    (weight_step * input_step); null bias starts the accumulators at 0.

#pragma once

#include <cstddef>
#include <cstdint>

namespace dvafs {

// C = bias (+) A * B with A [m x k] row-major int8 codes, B [k x n]
// row-major int8 codes, C [m x n] row-major int32 accumulators.
// k <= 66571 (the header contract above).
void gemm_s8(const std::int8_t* a, const std::int8_t* b,
             const std::int32_t* bias, std::int32_t* c, std::size_t m,
             std::size_t k, std::size_t n);

// Scalar oracle for gemm_s8 (naive loops, same exact arithmetic).
void gemm_s8_reference(const std::int8_t* a, const std::int8_t* b,
                       const std::int32_t* bias, std::int32_t* c,
                       std::size_t m, std::size_t k, std::size_t n);

// int16-code variant with int64 accumulation.
void gemm_s16(const std::int16_t* a, const std::int16_t* b,
              const std::int64_t* bias, std::int64_t* c, std::size_t m,
              std::size_t k, std::size_t n);

void gemm_s16_reference(const std::int16_t* a, const std::int16_t* b,
                        const std::int64_t* bias, std::int64_t* c,
                        std::size_t m, std::size_t k, std::size_t n);

} // namespace dvafs
