// CNN layers (paper Sec. IV-A): convolution (eq. 4), ReLU, max-pooling and
// fully-connected. Every forward takes its precision per call as a
// layer_quant; nothing about precision is stored in a layer or a network.
//
// conv and fc lower their forward passes onto one GEMM (cnn/gemm.h): a
// stride-1 f32 conv reads B as shifted views of one zero-padded copy of
// its input (no im2col matrix), other convs pack their input with
// im2col, fc is the n = 1 case with no packing. Under
// compute_mode::f32 the weights and the input feature map are
// fake-quantized with symmetric per-tensor scales (the methodology of the
// paper's reference [22]): value -> round(value/step) -> clamp -> value.
// Accumulation stays wide (double stands in for the 32+ bit accumulators
// of the datapath), matching how Envision computes. Under i16/i8 the same
// lowering runs the true integer engine: operand codes at the lane width,
// exact integer accumulation and a per-layer requantization
// (cnn/gemm_int.h). The float reference path is untouched either way --
// it is the differential oracle both engines are tested against.
// A layer keeps no quantized weights: prepare() derives them per key and
// a bound_network (cnn/network.h) holds them for as long as it lives.

#pragma once

#include "cnn/tensor.h"

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace dvafs {

// Arithmetic a layer's forward pass executes. f32 is the float GEMM path
// (fake-quantized weights, double accumulation -- the legacy emulation);
// i16/i8 run the true integer engine (cnn/gemm_int.h): operands quantized
// to integer codes at most 16/8 bits wide, int64/int32 accumulation, and a
// per-layer requantization (integer multiply + saturating rounding right
// shift) back to the activation grid. reference_forward always stays
// float -- the differential oracle for both engines.
enum class compute_mode : std::uint8_t { f32 = 0, i16 = 1, i8 = 2 };

const char* to_string(compute_mode m) noexcept;

// Lane width of a compute mode's operand codes (16 for f32: the Envision
// word the float path emulates).
constexpr int repr_bits(compute_mode m) noexcept
{
    return m == compute_mode::i8 ? 8 : 16;
}

// Per-layer quantization configuration; bits <= 0 means "keep float" under
// f32 compute and "full lane width" under integer compute (the integer
// engine has no float operands to keep).
struct layer_quant {
    int weight_bits = 0;
    int input_bits = 0;
    compute_mode compute = compute_mode::f32;

    bool operator==(const layer_quant&) const = default;
};

// A snapshot of a weighted layer's weights and biases prepared for one
// (weight_bits, compute) key. f32 conv: the fake-quantized weights and the
// biases as GEMM panels (cnn/gemm.h pack_panels; 2x the weights' float
// bytes); f32 fc: the fake-quantized matrix and the biases; i8/i16: the
// weight codes, their step and the biases.
struct prepared_weights {
    std::vector<double> panels;
    std::vector<float> weights;
    std::vector<float> biases;
    std::vector<std::int8_t> codes8;
    std::vector<std::int16_t> codes16;
    double step = 1.0;
};

class layer {
public:
    virtual ~layer() = default;
    virtual const std::string& name() const noexcept = 0;
    virtual tensor_shape out_shape(const tensor_shape& in) const = 0;
    // This layer's weights prepared for q's (weight_bits, compute) key;
    // null for a layer without weights.
    virtual std::shared_ptr<const prepared_weights>
    prepare(const layer_quant& /*q*/) const
    {
        return nullptr;
    }
    // The forward pass on `p`, prepared for q's key; `q` quantizes the
    // input. Lock-free: one prepared state serves any number of threads.
    virtual tensor run(const tensor& in, const layer_quant& q,
                       const prepared_weights* p) const = 0;
    // One-shot prepare(q), then run.
    tensor forward(const tensor& in, const layer_quant& q) const
    {
        return run(in, q, prepare(q).get());
    }
    // The pre-GEMM naive loops, kept as the differential-testing baseline
    // (bit-compatible with forward(); see gemm.h). Also re-quantizes
    // weights per call.
    virtual tensor reference_forward(const tensor& in,
                                     const layer_quant& q) const
    {
        return forward(in, q);
    }
    // Multiply-accumulates per forward pass (0 for relu/pool).
    virtual std::uint64_t macs(const tensor_shape& in) const = 0;
    virtual std::size_t weight_count() const noexcept { return 0; }
    // Mutable access for weight generation; prepared snapshots keep the
    // old values.
    virtual std::vector<float>* weights() noexcept { return nullptr; }
    virtual const std::vector<float>* weights() const noexcept
    {
        return nullptr;
    }
};

// conv and fc: m outputs, each a row of k weights (row-major, the GEMM's
// A operand) and a bias.
class weighted_layer : public layer {
public:
    const std::string& name() const noexcept override { return name_; }
    std::shared_ptr<const prepared_weights>
    prepare(const layer_quant& q) const override;
    std::size_t weight_count() const noexcept override
    {
        return w_.size();
    }
    std::vector<float>* weights() noexcept override { return &w_; }
    const std::vector<float>* weights() const noexcept override
    {
        return &w_;
    }
    std::vector<float>& biases() noexcept { return b_; }

protected:
    // `panels`: the f32 engine runs the panel GEMM (conv), else the gemv
    // on the float matrix (fc).
    weighted_layer(std::string name, std::size_t weights, std::size_t m,
                   bool panels)
        : name_(std::move(name)), w_(weights, 0.0F), b_(m, 0.0F),
          panels_(panels)
    {
    }

    std::string name_;
    std::vector<float> w_;
    std::vector<float> b_;

private:
    bool panels_;
};

// -- convolution (eq. 4) ------------------------------------------------------
class conv_layer final : public weighted_layer {
public:
    // filters F, input channels C, kernel K, stride S, zero padding P;
    // weights stored [F][C][K][K].
    conv_layer(std::string name, int filters, int channels, int kernel,
               int stride, int pad);

    tensor_shape out_shape(const tensor_shape& in) const override;
    tensor run(const tensor& in, const layer_quant& q,
               const prepared_weights* p) const override;
    tensor reference_forward(const tensor& in,
                             const layer_quant& q) const override;
    std::uint64_t macs(const tensor_shape& in) const override;

    int filters() const noexcept { return f_; }
    int channels() const noexcept { return c_; }
    int kernel() const noexcept { return k_; }
    int stride() const noexcept { return s_; }
    int pad() const noexcept { return p_; }

private:
    int f_;
    int c_;
    int k_;
    int s_;
    int p_;
};

// -- ReLU ----------------------------------------------------------------------
class relu_layer final : public layer {
public:
    explicit relu_layer(std::string name) : name_(std::move(name)) {}
    const std::string& name() const noexcept override { return name_; }
    tensor_shape out_shape(const tensor_shape& in) const override
    {
        return in;
    }
    tensor run(const tensor& in, const layer_quant& q,
               const prepared_weights* p) const override;
    std::uint64_t macs(const tensor_shape&) const override { return 0; }

private:
    std::string name_;
};

// -- max pooling ----------------------------------------------------------------
class maxpool_layer final : public layer {
public:
    maxpool_layer(std::string name, int size, int stride);
    const std::string& name() const noexcept override { return name_; }
    tensor_shape out_shape(const tensor_shape& in) const override;
    // run walks raw rows; reference_forward reads every tap through
    // tensor::at. Same taps, same order, same bits.
    tensor run(const tensor& in, const layer_quant& q,
               const prepared_weights* p) const override;
    tensor reference_forward(const tensor& in,
                             const layer_quant& q) const override;
    std::uint64_t macs(const tensor_shape&) const override { return 0; }

private:
    std::string name_;
    int size_;
    int stride_;
};

// -- fully connected -------------------------------------------------------------
class fc_layer final : public weighted_layer {
public:
    // Weights stored [outputs][inputs].
    fc_layer(std::string name, int outputs, int inputs);
    tensor_shape out_shape(const tensor_shape& in) const override;
    tensor run(const tensor& in, const layer_quant& q,
               const prepared_weights* p) const override;
    tensor reference_forward(const tensor& in,
                             const layer_quant& q) const override;
    std::uint64_t macs(const tensor_shape& in) const override;
    int outputs() const noexcept { return out_; }
    int inputs() const noexcept { return in_; }

private:
    int out_;
    int in_;
};

} // namespace dvafs
