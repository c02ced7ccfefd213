#include "cnn/layers.h"

#include "cnn/gemm.h"
#include "cnn/gemm_int.h"
#include "fixedpoint/quantize.h"

#include <algorithm>
#include <limits>
#include <stdexcept>

namespace dvafs {

const char* to_string(compute_mode m) noexcept
{
    switch (m) {
    case compute_mode::f32: return "f32";
    case compute_mode::i16: return "i16";
    case compute_mode::i8: return "i8";
    }
    return "?";
}

namespace {

// Returns `t` itself when bits <= 0 (the common unquantized case: no copy,
// no pass); otherwise fills `scratch` with a fake-quantized copy.
const tensor& maybe_quantized(const tensor& t, int bits, tensor& scratch)
{
    if (bits <= 0) {
        return t;
    }
    scratch = t;
    fake_quantize_inplace(scratch.flat(), bits);
    return scratch;
}

// A fake-quantized copy of the weights (a plain copy when bits <= 0).
std::vector<float> quantized_weights(const std::vector<float>& w, int bits)
{
    std::vector<float> out = w;
    if (bits > 0) {
        fake_quantize_inplace(out, bits);
    }
    return out;
}

// Per-thread scratch, one per element type: capacity persists across
// forward calls, so steady-state sweeps stop allocating on the hot path.
// A forward uses at most one buffer of each type.
template <typename T>
std::vector<T>& scratch()
{
    thread_local std::vector<T> buf;
    return buf;
}

// Effective code precision under integer compute: the requested bits
// clamped into (0, lane]; <= 0 ("keep float") means the full lane width --
// the integer engine has no float operands to keep.
int effective_bits(int requested, int lane)
{
    return requested > 0 ? std::min(requested, lane) : lane;
}

// Bias values scaled onto the accumulator grid (weight_step * input_step),
// clamped one bit under the accumulator width -- the headroom the GEMM's
// k bound reserves, so the exact integer accumulation cannot overflow.
template <typename Acc>
std::vector<Acc> bias_codes(const std::vector<float>& b, double acc_step)
{
    const int width = static_cast<int>(8 * sizeof(Acc)) - 1;
    std::vector<Acc> out(b.size());
    for (std::size_t i = 0; i < b.size(); ++i) {
        out[i] = static_cast<Acc>(
            quantize_value(static_cast<double>(b[i]), acc_step, width));
    }
    return out;
}

// Requantizes raw accumulators onto a float output tensor. The output grid
// is chosen per layer from the observed accumulator range (symmetric
// quantization: the largest magnitude maps to the largest code), so the
// only arithmetic between the codes and the output is the integer
// requantize itself -- out[i] = requantize(acc[i]) * out_step.
template <typename Acc>
tensor requantized_output(const std::vector<Acc>& acc,
                          const tensor_shape& os, double acc_step,
                          int out_bits)
{
    tensor out(os);
    Acc max_mag = 0;
    for (const Acc v : acc) {
        max_mag = std::max(max_mag, v < 0 ? static_cast<Acc>(-v) : v);
    }
    if (max_mag == 0) {
        return out; // all-zero accumulators: the zero tensor
    }
    const double qmax = static_cast<double>(signed_max(out_bits));
    const double out_step =
        acc_step * static_cast<double>(max_mag) / qmax;
    const requant_scale rs =
        make_requant_scale(qmax / static_cast<double>(max_mag));
    std::span<float> of = out.flat();
    for (std::size_t i = 0; i < acc.size(); ++i) {
        of[i] = static_cast<float>(
            static_cast<double>(requantize(acc[i], rs, out_bits))
            * out_step);
    }
    return out;
}

// One weighted layer's forward as a GEMM, C[m x n] = bias + W[m x k] *
// B[k x n]. W and the biases come prepared (weighted_layer::prepare); B is
// the input: shifted views of a padded input plane for a stride-1 f32
// conv (plane_forward), packed by im2col for the other convs (`kernel`
// > 0), or the flattened input column itself (fc: n = 1, no packing).
struct lowered_gemm {
    const prepared_weights& p;
    std::size_t m = 0;
    std::size_t k = 0;
    std::size_t n = 0;
    int kernel = 0;
    int stride = 1;
    int pad = 0;

    // The GEMM's B operand for input values (floats or codes) `x` of
    // shape `is`.
    template <typename T>
    const T* lower(const T* x, const tensor_shape& is,
                   const tensor_shape& os) const
    {
        if (kernel == 0) {
            return x;
        }
        std::vector<T>& cols = scratch<T>();
        im2col(x, is, kernel, stride, pad, os, cols);
        return cols.data();
    }
};

// The true fixed-point forward: weights and the input feature map are
// quantized to integer codes (symmetric per-tensor scales, exactly the
// grids the f32 path fake-quantizes to), the integer GEMM accumulates
// exactly, and one requantization maps the accumulators onto the float
// output. The float reference_forward is the oracle: outputs agree within
// the analytic quantization error of the two operand grids plus the
// output grid (pinned by tests/test_gemm_int.cpp). `Codes` names the
// prepared weight codes, `Gemm` the integer GEMM (cnn/gemm_int.h).
template <typename T, typename Acc, std::vector<T> prepared_weights::*Codes,
          auto Gemm>
tensor integer_forward(const lowered_gemm& g, const tensor& in,
                       const layer_quant& q, const tensor_shape& os)
{
    const int lane = repr_bits(q.compute);
    const quant_params qx =
        choose_quant(in.flat(), effective_bits(q.input_bits, lane));
    const std::vector<T> xcodes = quantize_codes<T>(in.flat(), qx);

    const double acc_step = g.p.step * qx.step;
    const std::vector<Acc> bias = bias_codes<Acc>(g.p.biases, acc_step);
    std::vector<Acc> acc(g.m * g.n);
    Gemm((g.p.*Codes).data(), g.lower(xcodes.data(), in.shape(), os),
         bias.data(), acc.data(), g.m, g.k, g.n);
    return requantized_output(acc, os, acc_step, lane);
}

// The f32 forward of a stride-1 conv without an im2col matrix (the
// shifted-plane lowering of cnn/gemm.h). The input is copied once into a
// zero-padded plane, fake-quantized on the way in when input_bits > 0 on
// the grid choose_quant picks over the whole input (as maybe_quantized
// would); an unquantized pad-0 conv reads its input in place. The GEMM
// computes the wide grid of (OH - 1) * Wp + OW columns, and the first OW
// of every Wp are an output row.
tensor plane_forward(const lowered_gemm& g, const tensor& in,
                     const layer_quant& q, const tensor_shape& os)
{
    const tensor_shape is = in.shape();
    const std::size_t pad = static_cast<std::size_t>(g.pad);
    const std::size_t ch = static_cast<std::size_t>(is.c);
    const std::size_t h = static_cast<std::size_t>(is.h);
    const std::size_t w = static_cast<std::size_t>(is.w);
    const std::size_t oh = static_cast<std::size_t>(os.h);
    const std::size_t ow = static_cast<std::size_t>(os.w);
    const std::size_t wp = w + 2 * pad;
    const std::size_t plane = (h + 2 * pad) * wp;
    const std::size_t n = (oh - 1) * wp + ow;
    const bool copy = pad > 0 || q.input_bits > 0;
    const bool compact = wp != ow; // else the wide grid is the output
    const std::size_t plane_floats = copy ? ch * plane : 0;
    std::vector<float>& buf = scratch<float>();
    buf.resize(plane_floats + (compact ? g.m * n : 0));

    const float* x = in.flat().data();
    if (copy) {
        const quant_params qx = q.input_bits > 0
                                    ? choose_quant(in.flat(), q.input_bits)
                                    : quant_params{};
        float* dst = buf.data();
        for (std::size_t c = 0; c < ch; ++c) {
            dst = std::fill_n(dst, pad * wp, 0.0F); // top pad rows
            for (std::size_t y = 0; y < h; ++y) {
                const float* src = x + (c * h + y) * w;
                dst = std::fill_n(dst, pad, 0.0F);
                if (q.input_bits > 0) {
                    fake_quantize({src, w}, qx, dst);
                } else {
                    std::copy(src, src + w, dst);
                }
                dst = std::fill_n(dst + w, pad, 0.0F);
            }
            dst = std::fill_n(dst, pad * wp, 0.0F); // bottom pad rows
        }
        x = buf.data();
    }

    // Row (c, ky, kx) of the im2col matrix, the conv weight order.
    std::vector<std::size_t>& boff = scratch<std::size_t>();
    boff.resize(g.k);
    const std::size_t kk = static_cast<std::size_t>(g.kernel);
    for (std::size_t r = 0; r < g.k; ++r) {
        boff[r] = r / (kk * kk) * plane + r / kk % kk * wp + r % kk;
    }

    tensor out(os);
    float* const of = out.flat().data();
    float* const wide = compact ? buf.data() + plane_floats : of;
    gemm_blocked(g.p.panels.data(), x, wide, g.m, g.k, n, boff.data());
    if (compact) {
        for (std::size_t row = 0; row < g.m * oh; ++row) {
            const float* src = wide + row / oh * n + row % oh * wp;
            std::copy(src, src + ow, of + row * ow);
        }
    }
    return out;
}

// The forward of every weighted layer, on the engine `q.compute` selects.
tensor lowered_forward(const lowered_gemm& g, const tensor& in,
                       const layer_quant& q, const tensor_shape& os)
{
    switch (q.compute) {
    case compute_mode::i8:
        return integer_forward<std::int8_t, std::int32_t,
                               &prepared_weights::codes8, gemm_s8>(g, in, q,
                                                                   os);
    case compute_mode::i16:
        return integer_forward<std::int16_t, std::int64_t,
                               &prepared_weights::codes16, gemm_s16>(g, in,
                                                                     q, os);
    case compute_mode::f32:
        break;
    }
    if (g.kernel > 0 && g.stride == 1) {
        return plane_forward(g, in, q, os);
    }
    tensor xq;
    const tensor& x = maybe_quantized(in, q.input_bits, xq);
    tensor out(os);
    if (g.kernel == 0) {
        gemv_f32(g.p.weights.data(), x.flat().data(), g.p.biases.data(),
                 out.flat().data(), g.m, g.k);
    } else {
        gemm_blocked(g.p.panels.data(),
                     g.lower(x.flat().data(), in.shape(), os),
                     out.flat().data(), g.m, g.k, g.n);
    }
    return out;
}

} // namespace

std::shared_ptr<const prepared_weights>
weighted_layer::prepare(const layer_quant& q) const
{
    auto p = std::make_shared<prepared_weights>();
    if (q.compute != compute_mode::f32) {
        const quant_params qp = choose_quant(
            w_, effective_bits(q.weight_bits, repr_bits(q.compute)));
        if (q.compute == compute_mode::i8) {
            p->codes8 = quantize_codes<std::int8_t>(w_, qp);
        } else {
            p->codes16 = quantize_codes<std::int16_t>(w_, qp);
        }
        p->step = qp.step;
        p->biases = b_;
    } else if (panels_) {
        p->panels = pack_panels(quantized_weights(w_, q.weight_bits).data(),
                                b_.data(), b_.size(), w_.size() / b_.size());
    } else {
        p->weights = quantized_weights(w_, q.weight_bits);
        p->biases = b_;
    }
    return p;
}

conv_layer::conv_layer(std::string name, int filters, int channels,
                       int kernel, int stride, int pad)
    : weighted_layer(std::move(name),
                     static_cast<std::size_t>(filters) * channels * kernel
                         * kernel,
                     static_cast<std::size_t>(filters), true),
      f_(filters), c_(channels), k_(kernel), s_(stride), p_(pad)
{
    if (filters < 1 || channels < 1 || kernel < 1 || stride < 1 || pad < 0) {
        throw std::invalid_argument("conv_layer: bad topology");
    }
}

tensor_shape conv_layer::out_shape(const tensor_shape& in) const
{
    if (in.c != c_) {
        throw std::invalid_argument("conv_layer " + name_
                                    + ": channel mismatch");
    }
    const int oh = (in.h + 2 * p_ - k_) / s_ + 1;
    const int ow = (in.w + 2 * p_ - k_) / s_ + 1;
    if (oh < 1 || ow < 1) {
        throw std::invalid_argument("conv_layer " + name_
                                    + ": input too small");
    }
    return {f_, oh, ow};
}

tensor conv_layer::run(const tensor& in, const layer_quant& q,
                       const prepared_weights* p) const
{
    const tensor_shape os = out_shape(in.shape());
    // Weights are stored [F][C][K][K]: already the M x K row-major GEMM
    // operand with K indexed in (c, ky, kx) order, matching B's rows.
    const lowered_gemm g{.p = *p,
                         .m = static_cast<std::size_t>(f_),
                         .k = static_cast<std::size_t>(c_)
                              * static_cast<std::size_t>(k_)
                              * static_cast<std::size_t>(k_),
                         .n = static_cast<std::size_t>(os.h)
                              * static_cast<std::size_t>(os.w),
                         .kernel = k_,
                         .stride = s_,
                         .pad = p_};
    return lowered_forward(g, in, q, os);
}

tensor conv_layer::reference_forward(const tensor& in,
                                     const layer_quant& q) const
{
    const tensor_shape os = out_shape(in.shape());
    tensor xq;
    const tensor& x = maybe_quantized(in, q.input_bits, xq);
    const std::vector<float> w = quantized_weights(w_, q.weight_bits);

    tensor out(os);
    const int ih = in.shape().h;
    const int iw = in.shape().w;
    const std::size_t ck2 =
        static_cast<std::size_t>(c_) * static_cast<std::size_t>(k_)
        * static_cast<std::size_t>(k_);
    for (int f = 0; f < f_; ++f) {
        const float* wf = w.data() + static_cast<std::size_t>(f) * ck2;
        for (int oy = 0; oy < os.h; ++oy) {
            for (int ox = 0; ox < os.w; ++ox) {
                double acc = b_[static_cast<std::size_t>(f)];
                for (int c = 0; c < c_; ++c) {
                    for (int ky = 0; ky < k_; ++ky) {
                        const int y = oy * s_ + ky - p_;
                        if (y < 0 || y >= ih) {
                            continue;
                        }
                        const float* wrow =
                            wf
                            + (static_cast<std::size_t>(c)
                                   * static_cast<std::size_t>(k_)
                               + static_cast<std::size_t>(ky))
                                  * static_cast<std::size_t>(k_);
                        for (int kx = 0; kx < k_; ++kx) {
                            const int xx = ox * s_ + kx - p_;
                            if (xx < 0 || xx >= iw) {
                                continue;
                            }
                            acc += static_cast<double>(
                                       wrow[static_cast<std::size_t>(kx)])
                                   * x.at(c, y, xx);
                        }
                    }
                }
                out.at(f, oy, ox) = static_cast<float>(acc);
            }
        }
    }
    return out;
}

std::uint64_t conv_layer::macs(const tensor_shape& in) const
{
    const tensor_shape os = out_shape(in);
    return static_cast<std::uint64_t>(os.h) * static_cast<std::uint64_t>(
               os.w)
           * static_cast<std::uint64_t>(f_)
           * static_cast<std::uint64_t>(c_)
           * static_cast<std::uint64_t>(k_)
           * static_cast<std::uint64_t>(k_);
}

tensor relu_layer::run(const tensor& in, const layer_quant& q,
                       const prepared_weights* /*p*/) const
{
    tensor out = in;
    if (q.input_bits > 0) {
        fake_quantize_inplace(out.flat(), q.input_bits);
    }
    for (float& v : out.flat()) {
        v = std::max(v, 0.0F);
    }
    return out;
}

maxpool_layer::maxpool_layer(std::string name, int size, int stride)
    : name_(std::move(name)), size_(size), stride_(stride)
{
    if (size < 1 || stride < 1) {
        throw std::invalid_argument("maxpool_layer: bad parameters");
    }
}

tensor_shape maxpool_layer::out_shape(const tensor_shape& in) const
{
    if (in.h < size_ || in.w < size_) {
        throw std::invalid_argument("maxpool_layer " + name_
                                    + ": input too small");
    }
    return {in.c, (in.h - size_) / stride_ + 1,
            (in.w - size_) / stride_ + 1};
}

// Row-pointer walk: each output row starts at -inf and takes one tap
// (ky, kx) across all its outputs per pass, so the outputs' independent
// max chains interleave. Per output the taps keep the reference order
// (ky, then kx) and the same std::max step, so NaN taps are skipped and
// the first of two equal-comparing zeros wins exactly as there.
tensor maxpool_layer::run(const tensor& in, const layer_quant& q,
                          const prepared_weights* /*p*/) const
{
    tensor xq;
    const tensor& x = maybe_quantized(in, q.input_bits, xq);
    const tensor_shape is = in.shape();
    const tensor_shape os = out_shape(is);
    tensor out(os);
    const std::size_t iw = static_cast<std::size_t>(is.w);
    const std::size_t plane = static_cast<std::size_t>(is.h) * iw;
    const std::size_t ow = static_cast<std::size_t>(os.w);
    const std::size_t size = static_cast<std::size_t>(size_);
    const std::size_t stride = static_cast<std::size_t>(stride_);
    const float* src = x.flat().data();
    float* dst = out.flat().data();
    for (int c = 0; c < os.c; ++c, src += plane) {
        for (int oy = 0; oy < os.h; ++oy, dst += ow) {
            std::fill(dst, dst + ow, -std::numeric_limits<float>::infinity());
            const float* row =
                src + static_cast<std::size_t>(oy) * stride * iw;
            for (std::size_t ky = 0; ky < size; ++ky, row += iw) {
                for (std::size_t kx = 0; kx < size; ++kx) {
                    const float* tap = row + kx;
                    for (std::size_t ox = 0; ox < ow; ++ox) {
                        dst[ox] = std::max(dst[ox], tap[ox * stride]);
                    }
                }
            }
        }
    }
    return out;
}

tensor maxpool_layer::reference_forward(const tensor& in,
                                        const layer_quant& q) const
{
    tensor xq;
    const tensor& x = maybe_quantized(in, q.input_bits, xq);
    const tensor_shape os = out_shape(in.shape());
    tensor out(os);
    for (int c = 0; c < os.c; ++c) {
        for (int oy = 0; oy < os.h; ++oy) {
            for (int ox = 0; ox < os.w; ++ox) {
                float m = -std::numeric_limits<float>::infinity();
                for (int ky = 0; ky < size_; ++ky) {
                    for (int kx = 0; kx < size_; ++kx) {
                        m = std::max(m, x.at(c, oy * stride_ + ky,
                                             ox * stride_ + kx));
                    }
                }
                out.at(c, oy, ox) = m;
            }
        }
    }
    return out;
}

fc_layer::fc_layer(std::string name, int outputs, int inputs)
    : weighted_layer(std::move(name),
                     static_cast<std::size_t>(outputs)
                         * static_cast<std::size_t>(inputs),
                     static_cast<std::size_t>(outputs), false),
      out_(outputs), in_(inputs)
{
    if (outputs < 1 || inputs < 1) {
        throw std::invalid_argument("fc_layer: bad topology");
    }
}

tensor_shape fc_layer::out_shape(const tensor_shape& in) const
{
    if (static_cast<int>(in.elements()) != in_) {
        throw std::invalid_argument("fc_layer " + name_
                                    + ": input size mismatch");
    }
    return {out_, 1, 1};
}

tensor fc_layer::run(const tensor& in, const layer_quant& q,
                     const prepared_weights* p) const
{
    const lowered_gemm g{.p = *p,
                         .m = static_cast<std::size_t>(out_),
                         .k = static_cast<std::size_t>(in_),
                         .n = 1};
    return lowered_forward(g, in, q, out_shape(in.shape()));
}

tensor fc_layer::reference_forward(const tensor& in,
                                   const layer_quant& q) const
{
    tensor xq;
    const tensor& x = maybe_quantized(in, q.input_bits, xq);
    const std::vector<float> w = quantized_weights(w_, q.weight_bits);
    tensor out(out_shape(in.shape()));
    const std::span<const float> xf = x.flat();
    for (int o = 0; o < out_; ++o) {
        double acc = b_[static_cast<std::size_t>(o)];
        const float* wr = w.data()
                          + static_cast<std::size_t>(o)
                                * static_cast<std::size_t>(in_);
        for (int i = 0; i < in_; ++i) {
            acc += static_cast<double>(wr[static_cast<std::size_t>(i)])
                   * xf[static_cast<std::size_t>(i)];
        }
        out.at(o, 0, 0) = static_cast<float>(acc);
    }
    return out;
}

std::uint64_t fc_layer::macs(const tensor_shape&) const
{
    return static_cast<std::uint64_t>(out_)
           * static_cast<std::uint64_t>(in_);
}

} // namespace dvafs
