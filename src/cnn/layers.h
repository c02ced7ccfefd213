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
// (cnn/gemm_int.h). Each weighted layer keeps one cache of its quantized
// weights for both engines. The float reference path is untouched either
// way -- it is the differential oracle both engines are tested against.

#pragma once

#include "cnn/tensor.h"

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <variant>
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

// Internals of conv_layer and fc_layer, visible here only because the
// layers hold a weight_cache by value.
namespace detail {

// A layer's weights on one quantization grid: integer codes with their
// step for the i8/i16 engines (T = int8_t / int16_t), or the
// fake-quantized float values themselves for the f32 path (T = float;
// the scale is already applied, so `step` stays 1).
template <typename T>
struct weight_grid {
    std::vector<T> values;
    double step = 1.0;
};

// Thread-safe per-layer cache of quantized weights, keyed by (bits,
// representation): the sweep probes each (layer, bits, compute) triple
// against the whole dataset, so the quantization pass runs once per key
// instead of once per forward call. floats() with bits <= 0 returns the
// original vector -- no lock, no copy. Entries live until invalidate(),
// which every mutable weights() access calls; invalidating concurrently
// with a forward pass is a data race on the caller, same as mutating
// weights mid-forward.
class weight_cache {
public:
    // T = float, int8_t or int16_t (see weight_grid).
    template <typename T>
    const weight_grid<T>& get(const std::vector<float>& w, int bits) const;

    // The f32 path's weights at `bits`: `w` itself when bits <= 0.
    const std::vector<float>& floats(const std::vector<float>& w,
                                     int bits) const
    {
        return bits <= 0 ? w : get<float>(w, bits).values;
    }

    void invalidate() const noexcept;

private:
    using entry = std::variant<weight_grid<float>, weight_grid<std::int8_t>,
                               weight_grid<std::int16_t>>;
    mutable std::mutex mu_;
    // Keyed by (bits, the engine the entry serves); unique_ptr entries
    // keep references stable as the map grows.
    mutable std::map<std::pair<int, compute_mode>,
                     std::unique_ptr<const entry>>
        entries_;
};

} // namespace detail

class layer {
public:
    virtual ~layer() = default;
    virtual const std::string& name() const noexcept = 0;
    virtual tensor_shape out_shape(const tensor_shape& in) const = 0;
    // `q` quantizes this layer's weights and its input feature map.
    virtual tensor forward(const tensor& in, const layer_quant& q) const = 0;
    // The pre-GEMM naive loops, kept as the differential-testing baseline
    // (bit-compatible with forward(); see gemm.h). Also re-quantizes
    // weights per call, so benches can time the uncached path.
    virtual tensor reference_forward(const tensor& in,
                                     const layer_quant& q) const
    {
        return forward(in, q);
    }
    // Multiply-accumulates per forward pass (0 for relu/pool).
    virtual std::uint64_t macs(const tensor_shape& in) const = 0;
    virtual std::size_t weight_count() const noexcept { return 0; }
    // Mutable access for weight-generation and quantization sweeps.
    // Implementations drop cached quantized weights before returning.
    virtual std::vector<float>* weights() noexcept { return nullptr; }
    virtual const std::vector<float>* weights() const noexcept
    {
        return nullptr;
    }
};

// -- convolution (eq. 4) ------------------------------------------------------
class conv_layer final : public layer {
public:
    // filters F, input channels C, kernel K, stride S, zero padding P.
    conv_layer(std::string name, int filters, int channels, int kernel,
               int stride, int pad);

    const std::string& name() const noexcept override { return name_; }
    tensor_shape out_shape(const tensor_shape& in) const override;
    tensor forward(const tensor& in, const layer_quant& q) const override;
    tensor reference_forward(const tensor& in,
                             const layer_quant& q) const override;
    std::uint64_t macs(const tensor_shape& in) const override;
    std::size_t weight_count() const noexcept override
    {
        return w_.size();
    }
    std::vector<float>* weights() noexcept override
    {
        cache_.invalidate();
        return &w_;
    }
    const std::vector<float>* weights() const noexcept override
    {
        return &w_;
    }
    std::vector<float>& biases() noexcept { return b_; }

    int filters() const noexcept { return f_; }
    int channels() const noexcept { return c_; }
    int kernel() const noexcept { return k_; }
    int stride() const noexcept { return s_; }
    int pad() const noexcept { return p_; }

private:
    std::string name_;
    int f_;
    int c_;
    int k_;
    int s_;
    int p_;
    std::vector<float> w_; // [F][C][K][K]
    std::vector<float> b_; // [F]
    detail::weight_cache cache_;
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
    tensor forward(const tensor& in, const layer_quant& q) const override;
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
    // forward walks raw rows; reference_forward reads every tap through
    // tensor::at. Same taps, same order, same bits.
    tensor forward(const tensor& in, const layer_quant& q) const override;
    tensor reference_forward(const tensor& in,
                             const layer_quant& q) const override;
    std::uint64_t macs(const tensor_shape&) const override { return 0; }

private:
    std::string name_;
    int size_;
    int stride_;
};

// -- fully connected -------------------------------------------------------------
class fc_layer final : public layer {
public:
    fc_layer(std::string name, int outputs, int inputs);
    const std::string& name() const noexcept override { return name_; }
    tensor_shape out_shape(const tensor_shape& in) const override;
    tensor forward(const tensor& in, const layer_quant& q) const override;
    tensor reference_forward(const tensor& in,
                             const layer_quant& q) const override;
    std::uint64_t macs(const tensor_shape& in) const override;
    std::size_t weight_count() const noexcept override
    {
        return w_.size();
    }
    std::vector<float>* weights() noexcept override
    {
        cache_.invalidate();
        return &w_;
    }
    const std::vector<float>* weights() const noexcept override
    {
        return &w_;
    }
    std::vector<float>& biases() noexcept { return b_; }
    int outputs() const noexcept { return out_; }
    int inputs() const noexcept { return in_; }

private:
    std::string name_;
    int out_;
    int in_;
    std::vector<float> w_; // [out][in]
    std::vector<float> b_;
    detail::weight_cache cache_;
};

} // namespace dvafs
