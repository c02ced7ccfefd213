// Differential suite for the integer im2col + blocked-GEMM inference path
// (cnn/gemm_int.h and the compute_mode::i8/i16 forward in cnn/layers.cpp).
//
// Two oracles, two kinds of equality:
//  * The blocked integer kernels vs the scalar reference loops: exact
//    integer accumulation is associative, so equality is bit-for-bit (==)
//    on every element, for every shape, blocking and ragged edge.
//  * The integer forward vs the float reference_forward: the paths differ
//    by construction (integer codes + one requantization vs fake-quantized
//    double accumulation), so equality is bounded by the analytic
//    quantization error -- half an output code from the requantization,
//    half an accumulator code from the integer bias, plus float-storage
//    rounding of the fake-quantized oracle operands.

#include "cnn/gemm.h"
#include "cnn/gemm_int.h"
#include "cnn/layers.h"
#include "cnn/network.h"
#include "cnn/zoo.h"
#include "fixedpoint/quantize.h"
#include "util/parallel.h"

#include "util/rng.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include <gtest/gtest.h>

namespace dvafs {
namespace {

void fill_gaussian(std::span<float> v, pcg32& rng, double sigma = 0.5)
{
    for (float& x : v) {
        x = static_cast<float>(rng.gaussian(0.0, sigma));
    }
}

template <typename T>
void fill_codes(std::vector<T>& v, pcg32& rng, int bits)
{
    for (T& x : v) {
        x = static_cast<T>(
            sign_extend(rng.next_u64() & low_mask(bits), bits));
    }
}

void expect_float_equal(const tensor& a, const tensor& b,
                        const std::string& what)
{
    ASSERT_EQ(a.shape(), b.shape()) << what;
    for (std::size_t i = 0; i < a.size(); ++i) {
        ASSERT_EQ(a.flat()[i], b.flat()[i]) << what << " element " << i;
    }
}

// Const weight access: the non-const weights() accessor invalidates the
// layer's weight cache, which these oracles must not do.
const std::vector<float>& weight_view(const layer& l)
{
    return *l.weights();
}

double max_abs(const tensor& t)
{
    double m = 0.0;
    for (const float v : t.flat()) {
        m = std::max(m, std::abs(static_cast<double>(v)));
    }
    return m;
}

// Bound on |integer forward - float reference_forward| per element: the
// requantization rounds to half an output code, the integer bias rounds to
// half an accumulator code, and the fake-quantized float oracle stores its
// operands as float (relative 2^-24 per term, amplified by the reduction).
// out_step is recovered from the output itself: the largest-magnitude
// element requantizes to (within one code of) the largest output code.
double oracle_tolerance(const tensor& got, const tensor& want,
                        double acc_step, int out_bits)
{
    const double qmax = static_cast<double>(signed_max(out_bits));
    const double out_step = max_abs(got) / qmax;
    return 0.51 * out_step + 0.5 * acc_step + 2e-5 * max_abs(want) + 1e-7;
}

void expect_within(const tensor& got, const tensor& want, double tol,
                   const std::string& what)
{
    ASSERT_EQ(got.shape(), want.shape()) << what;
    for (std::size_t i = 0; i < got.size(); ++i) {
        ASSERT_NEAR(got.flat()[i], want.flat()[i], tol)
            << what << " element " << i;
    }
}

// Shapes shared by the s8/s16 kernel suites: the float gemm list plus a
// zoo-scale reduction (the largest CNN zoo k is 4608) and ragged edges
// around the 4x8 register tile.
const std::array<std::array<std::size_t, 3>, 8> kGemmShapes = {{
    {1, 1, 1},
    {3, 5, 7},
    {4, 8, 8},
    {5, 9, 17},
    {16, 27, 33},
    {7, 64, 1},
    {9, 13, 31},
    {2, 4608, 3},
}};

TEST(gemm_int, s8_blocked_matches_scalar_reference)
{
    pcg32 rng(101);
    for (const auto [m, k, n] : kGemmShapes) {
        std::vector<std::int8_t> a(m * k);
        std::vector<std::int8_t> b(k * n);
        std::vector<std::int32_t> bias(m);
        fill_codes(a, rng, 8);
        fill_codes(b, rng, 8);
        for (std::int32_t& v : bias) {
            v = static_cast<std::int32_t>(
                sign_extend(rng.next_u64() & low_mask(20), 20));
        }
        std::vector<std::int32_t> got(m * n);
        std::vector<std::int32_t> want(m * n);
        gemm_s8(a.data(), b.data(), bias.data(), got.data(), m, k, n);
        gemm_s8_reference(a.data(), b.data(), bias.data(), want.data(), m,
                          k, n);
        for (std::size_t i = 0; i < got.size(); ++i) {
            ASSERT_EQ(got[i], want[i])
                << m << "x" << k << "x" << n << " element " << i;
        }
        // The scalar reference itself against a wide (int64) triple loop:
        // pins that the int32 accumulator never overflowed on this shape.
        for (std::size_t i = 0; i < m; ++i) {
            for (std::size_t j = 0; j < n; ++j) {
                std::int64_t acc = bias[i];
                for (std::size_t p = 0; p < k; ++p) {
                    acc += static_cast<std::int64_t>(a[i * k + p])
                           * b[p * n + j];
                }
                ASSERT_EQ(acc, want[i * n + j]);
            }
        }
    }
}

TEST(gemm_int, s8_null_bias_starts_at_zero)
{
    pcg32 rng(7);
    std::vector<std::int8_t> a(3 * 5);
    std::vector<std::int8_t> b(5 * 4);
    fill_codes(a, rng, 8);
    fill_codes(b, rng, 8);
    std::vector<std::int32_t> got(3 * 4);
    std::vector<std::int32_t> zero_bias(3, 0);
    std::vector<std::int32_t> want(3 * 4);
    gemm_s8(a.data(), b.data(), nullptr, got.data(), 3, 5, 4);
    gemm_s8_reference(a.data(), b.data(), zero_bias.data(), want.data(), 3,
                      5, 4);
    EXPECT_EQ(got, want);
}

TEST(gemm_int, s16_blocked_matches_scalar_reference)
{
    pcg32 rng(103);
    for (const auto [m, k, n] : kGemmShapes) {
        std::vector<std::int16_t> a(m * k);
        std::vector<std::int16_t> b(k * n);
        std::vector<std::int64_t> bias(m);
        fill_codes(a, rng, 16);
        fill_codes(b, rng, 16);
        for (std::int64_t& v : bias) {
            v = sign_extend(rng.next_u64() & low_mask(40), 40);
        }
        std::vector<std::int64_t> got(m * n);
        std::vector<std::int64_t> want(m * n);
        gemm_s16(a.data(), b.data(), bias.data(), got.data(), m, k, n);
        gemm_s16_reference(a.data(), b.data(), bias.data(), want.data(), m,
                           k, n);
        for (std::size_t i = 0; i < got.size(); ++i) {
            ASSERT_EQ(got[i], want[i])
                << m << "x" << k << "x" << n << " element " << i;
        }
    }
}

TEST(gemm_int, im2col_codes_matches_naive_packing)
{
    pcg32 rng(53);
    struct shape {
        int c, k, s, p, h, w;
    };
    std::vector<shape> shapes;
    for (int trial = 0; trial < 25; ++trial) {
        const int c = 1 + static_cast<int>(rng.next_u64() % 4);
        const int k = 1 + static_cast<int>(rng.next_u64() % 5);
        const int s = 1 + static_cast<int>(rng.next_u64() % 3);
        const int p = static_cast<int>(rng.next_u64() % 3);
        const int h = k + static_cast<int>(rng.next_u64() % 10);
        const int w = k + static_cast<int>(rng.next_u64() % 10);
        shapes.push_back({c, k, s, p, h, w});
    }
    // The kernel-exceeds-input regressions pinned by the float suite.
    shapes.push_back({1, 4, 2, 1, 2, 2});
    shapes.push_back({2, 5, 2, 2, 3, 3});
    shapes.push_back({1, 7, 3, 3, 4, 2});
    shapes.push_back({3, 6, 2, 3, 2, 5});

    for (const shape sh : shapes) {
        const tensor_shape is{sh.c, sh.h, sh.w};
        const int oh = (sh.h + 2 * sh.p - sh.k) / sh.s + 1;
        const int ow = (sh.w + 2 * sh.p - sh.k) / sh.s + 1;
        if (oh < 1 || ow < 1) {
            continue;
        }
        const tensor_shape os{1, oh, ow};
        std::vector<std::int8_t> x(is.elements());
        fill_codes(x, rng, 8);

        std::vector<std::int8_t> cols;
        im2col(x.data(), is, sh.k, sh.s, sh.p, os, cols);

        const std::size_t colsn = static_cast<std::size_t>(oh) * ow;
        std::size_t r = 0;
        for (int c = 0; c < sh.c; ++c) {
            for (int ky = 0; ky < sh.k; ++ky) {
                for (int kx = 0; kx < sh.k; ++kx, ++r) {
                    for (int oy = 0; oy < oh; ++oy) {
                        for (int ox = 0; ox < ow; ++ox) {
                            const int iy = oy * sh.s - sh.p + ky;
                            const int ix = ox * sh.s - sh.p + kx;
                            std::int8_t v = 0;
                            if (iy >= 0 && iy < sh.h && ix >= 0
                                && ix < sh.w) {
                                v = x[(static_cast<std::size_t>(c) * sh.h
                                       + iy)
                                          * sh.w
                                      + ix];
                            }
                            ASSERT_EQ(cols[r * colsn
                                           + static_cast<std::size_t>(oy)
                                                 * ow
                                           + ox],
                                      v)
                                << "c=" << c << " ky=" << ky << " kx=" << kx
                                << " oy=" << oy << " ox=" << ox << " k="
                                << sh.k << " s=" << sh.s << " p=" << sh.p;
                        }
                    }
                }
            }
        }
    }
}

// The conv forward under compute_mode::i8 must be *bit-exactly* the
// documented pipeline: cached weight codes, per-call input codes, integer
// im2col, scalar-oracle GEMM, and requantized_output's grid choice. This
// replays each stage through the public API and compares float-for-float.
TEST(gemm_int_forward, conv_i8_is_exactly_the_documented_pipeline)
{
    pcg32 rng(211);
    conv_layer conv("c", 3, 2, 3, 1, 1);
    fill_gaussian(*conv.weights(), rng);
    fill_gaussian(conv.biases(), rng);
    tensor in({2, 6, 6});
    fill_gaussian(in.flat(), rng);

    const layer_quant q{.weight_bits = 8, .input_bits = 8,
                        .compute = compute_mode::i8};
    const tensor got = conv.forward(in, q);

    const tensor_shape os = conv.out_shape(in.shape());
    const quant_params qw = choose_quant(weight_view(conv), 8);
    const std::vector<std::int8_t> wc =
        quantize_codes<std::int8_t>(weight_view(conv), qw);
    const quant_params qx = choose_quant(in.flat(), 8);
    const std::vector<std::int8_t> xc =
        quantize_codes<std::int8_t>(in.flat(), qx);
    std::vector<std::int8_t> cols;
    im2col(xc.data(), in.shape(), 3, 1, 1, os, cols);

    const std::size_t m = 3;
    const std::size_t k = 2 * 3 * 3;
    const std::size_t n = static_cast<std::size_t>(os.h) * os.w;
    const double acc_step = qw.step * qx.step;
    std::vector<std::int32_t> bias(m);
    for (std::size_t i = 0; i < m; ++i) {
        bias[i] = static_cast<std::int32_t>(clamp_signed(
            round_half_away(static_cast<double>(conv.biases()[i])
                            / acc_step),
            31));
    }
    std::vector<std::int32_t> acc(m * n);
    gemm_s8_reference(wc.data(), cols.data(), bias.data(), acc.data(), m,
                      k, n);

    std::int32_t max_mag = 0;
    for (const std::int32_t v : acc) {
        max_mag = std::max(max_mag, v < 0 ? -v : v);
    }
    ASSERT_GT(max_mag, 0);
    const double qmax = static_cast<double>(signed_max(8));
    const double out_step =
        acc_step * static_cast<double>(max_mag) / qmax;
    const requant_scale rs =
        make_requant_scale(qmax / static_cast<double>(max_mag));
    tensor want(os);
    for (std::size_t i = 0; i < acc.size(); ++i) {
        want.flat()[i] = static_cast<float>(
            static_cast<double>(requantize(acc[i], rs, 8)) * out_step);
    }
    expect_float_equal(got, want, "i8 conv pipeline replay");
}

TEST(gemm_int_forward, conv_tracks_float_oracle_across_random_shapes)
{
    pcg32 rng(2024);
    for (int trial = 0; trial < 15; ++trial) {
        const int c = 1 + static_cast<int>(rng.next_u64() % 4);
        const int f = 1 + static_cast<int>(rng.next_u64() % 6);
        const int k = 1 + static_cast<int>(rng.next_u64() % 5);
        const int s = 1 + static_cast<int>(rng.next_u64() % 3);
        const int p = static_cast<int>(rng.next_u64() % 3);
        const int h = k + static_cast<int>(rng.next_u64() % 10);
        const int w = k + static_cast<int>(rng.next_u64() % 10);

        conv_layer conv("c", f, c, k, s, p);
        fill_gaussian(*conv.weights(), rng);
        fill_gaussian(conv.biases(), rng);
        tensor in({c, h, w});
        fill_gaussian(in.flat(), rng);

        for (const compute_mode cm :
             {compute_mode::i8, compute_mode::i16}) {
            const int bits = repr_bits(cm);
            const layer_quant q{.weight_bits = bits, .input_bits = bits,
                                .compute = cm};
            const tensor got = conv.forward(in, q);
            // reference_forward ignores `compute`: it is the float oracle
            // fake-quantized onto the same operand grids.
            const tensor want = conv.reference_forward(in, q);
            const double acc_step = choose_quant(weight_view(conv),
                                                 bits).step
                                    * choose_quant(in.flat(), bits).step;
            expect_within(got, want,
                          oracle_tolerance(got, want, acc_step, bits),
                          "conv " + std::string(to_string(cm)) + " f="
                              + std::to_string(f) + " c="
                              + std::to_string(c) + " k="
                              + std::to_string(k) + " s="
                              + std::to_string(s) + " p="
                              + std::to_string(p));
        }
    }
}

TEST(gemm_int_forward, fc_tracks_float_oracle_across_random_shapes)
{
    pcg32 rng(78);
    for (int trial = 0; trial < 15; ++trial) {
        const int outputs = 1 + static_cast<int>(rng.next_u64() % 40);
        const int inputs = 1 + static_cast<int>(rng.next_u64() % 80);
        fc_layer fc("f", outputs, inputs);
        fill_gaussian(*fc.weights(), rng);
        fill_gaussian(fc.biases(), rng);
        tensor in({inputs, 1, 1});
        fill_gaussian(in.flat(), rng);

        for (const compute_mode cm :
             {compute_mode::i8, compute_mode::i16}) {
            const int bits = repr_bits(cm);
            const layer_quant q{.weight_bits = bits, .input_bits = bits,
                                .compute = cm};
            const tensor got = fc.forward(in, q);
            const tensor want = fc.reference_forward(in, q);
            const double acc_step = choose_quant(weight_view(fc),
                                                 bits).step
                                    * choose_quant(in.flat(), bits).step;
            expect_within(got, want,
                          oracle_tolerance(got, want, acc_step, bits),
                          "fc " + std::string(to_string(cm)) + " "
                              + std::to_string(outputs) + "x"
                              + std::to_string(inputs));
        }
    }
}

// Requested bits narrower than the lane ride the integer grid; bits <= 0
// (the float path's "unquantized") mean full lane width -- the integer
// engine has no float operands to keep.
TEST(gemm_int_forward, narrow_and_default_bits_use_the_integer_grid)
{
    pcg32 rng(44);
    conv_layer conv("c", 2, 2, 3, 1, 1);
    fill_gaussian(*conv.weights(), rng);
    fill_gaussian(conv.biases(), rng);
    tensor in({2, 5, 5});
    fill_gaussian(in.flat(), rng);

    // bits = 0 under i8 is the full 8-bit lane: identical to bits = 8.
    const tensor full = conv.forward(
        in, {.weight_bits = 0, .input_bits = 0,
             .compute = compute_mode::i8});
    const tensor eight = conv.forward(
        in, {.weight_bits = 8, .input_bits = 8,
             .compute = compute_mode::i8});
    expect_float_equal(full, eight, "i8 default bits == lane bits");

    // A 4-bit request under i8 quantizes onto the 4-bit grid: it must
    // track the float oracle at 4 bits, not at 8.
    const layer_quant q4{.weight_bits = 4, .input_bits = 4,
                         .compute = compute_mode::i8};
    const tensor got4 = conv.forward(in, q4);
    const tensor want4 = conv.reference_forward(in, q4);
    const double acc_step = choose_quant(weight_view(conv), 4).step
                            * choose_quant(in.flat(), 4).step;
    expect_within(got4, want4, oracle_tolerance(got4, want4, acc_step, 8),
                  "i8 at 4-bit grid");
}

TEST(gemm_int_forward, weight_cache_invalidates_on_mutation)
{
    pcg32 rng(5);
    conv_layer conv("c", 2, 1, 3, 1, 1);
    fill_gaussian(*conv.weights(), rng);
    tensor in({1, 6, 6});
    fill_gaussian(in.flat(), rng);
    const layer_quant q{.weight_bits = 8, .input_bits = 8,
                        .compute = compute_mode::i8};

    const tensor first = conv.forward(in, q);
    expect_float_equal(conv.forward(in, q), first, "cached repeat");

    for (float& w : *conv.weights()) {
        w += 1.0F;
    }
    const tensor after = conv.forward(in, q);
    // A fresh layer with the mutated weights is the uncached oracle.
    conv_layer fresh("c", 2, 1, 3, 1, 1);
    *fresh.weights() = weight_view(conv);
    fresh.biases() = conv.biases();
    expect_float_equal(after, fresh.forward(in, q), "post-mutation");
    bool any_diff = false;
    for (std::size_t i = 0; i < first.size(); ++i) {
        any_diff |= first.flat()[i] != after.flat()[i];
    }
    EXPECT_TRUE(any_diff);
}

TEST(gemm_int_forward, network_overlay_selects_the_integer_engine)
{
    const network net = make_lenet5({.seed = 9});
    // End-to-end forwards run and are deterministic; the i16 engine's
    // grids are fine enough that the logits stay close to float.
    pcg32 rng(123);
    tensor in(net.input_shape());
    fill_gaussian(in.flat(), rng, 0.3);
    std::vector<layer_quant> i8_overlay(net.depth());
    std::vector<layer_quant> i16_overlay(net.depth());
    for (const std::size_t li : net.weighted_layers()) {
        i8_overlay[li] = {.weight_bits = 8, .input_bits = 8,
                          .compute = compute_mode::i8};
        i16_overlay[li] = {.weight_bits = 16, .input_bits = 16,
                           .compute = compute_mode::i16};
    }
    const tensor out8 = net.forward(in, i8_overlay);
    expect_float_equal(net.forward(in, i8_overlay), out8,
                       "i8 deterministic repeat");
    const tensor out16 = net.forward(in, i16_overlay);
    const tensor outf = net.forward(in,
                                    std::vector<layer_quant>(net.depth()));
    ASSERT_EQ(out16.shape(), outf.shape());
    const double span = std::max(max_abs(outf), 1e-3);
    for (std::size_t i = 0; i < outf.size(); ++i) {
        EXPECT_NEAR(out16.flat()[i], outf.flat()[i], 0.05 * span)
            << "logit " << i;
    }
    // The network hands each overlay entry to its layer: the i8 forward
    // is exactly the layer-by-layer integer pipeline.
    tensor x = in;
    for (std::size_t i = 0; i < net.depth(); ++i) {
        x = net.at(i).forward(x, i8_overlay[i]);
    }
    expect_float_equal(out8, x, "i8 network == layer-by-layer");
}

// Concurrent forwards of one shared layer fill its weight cache from many
// threads at once (one entry per (bits, engine) key, first use racing).
// Each output must be bit-identical to a serial forward on a freshly built
// layer with the same weights. Run under TSan via the `threaded` label.
TEST(gemm_int_forward, concurrent_forwards_share_one_weight_cache)
{
    pcg32 rng(606);
    conv_layer conv("c", 4, 3, 3, 1, 1);
    fill_gaussian(*conv.weights(), rng);
    fill_gaussian(conv.biases(), rng);
    fc_layer fc("f", 10, 48);
    fill_gaussian(*fc.weights(), rng);
    fill_gaussian(fc.biases(), rng);
    tensor conv_in({3, 7, 7});
    fill_gaussian(conv_in.flat(), rng);
    tensor fc_in({48, 1, 1});
    fill_gaussian(fc_in.flat(), rng);

    std::vector<layer_quant> configs;
    for (const compute_mode cm :
         {compute_mode::f32, compute_mode::i16, compute_mode::i8}) {
        for (const int bits : {0, 3, 6, 8}) {
            configs.push_back(
                {.weight_bits = bits, .input_bits = bits, .compute = cm});
        }
    }
    // Every config several times over, so fills and hits interleave.
    constexpr std::size_t kRepeats = 4;
    const std::size_t jobs = 2 * configs.size() * kRepeats;
    std::vector<tensor> got(jobs);
    const layer& shared_conv = conv;
    const layer& shared_fc = fc;
    parallel_for(jobs, 4, [&](std::size_t j) {
        const layer_quant& q = configs[(j / 2) % configs.size()];
        got[j] = j % 2 == 0 ? shared_conv.forward(conv_in, q)
                            : shared_fc.forward(fc_in, q);
    });

    for (std::size_t j = 0; j < jobs; ++j) {
        const layer_quant& q = configs[(j / 2) % configs.size()];
        const std::string what =
            std::string(j % 2 == 0 ? "conv " : "fc ") + to_string(q.compute)
            + " bits=" + std::to_string(q.weight_bits);
        if (j % 2 == 0) {
            conv_layer fresh("c", 4, 3, 3, 1, 1);
            *fresh.weights() = weight_view(conv);
            fresh.biases() = conv.biases();
            expect_float_equal(got[j], fresh.forward(conv_in, q), what);
        } else {
            fc_layer fresh("f", 10, 48);
            *fresh.weights() = weight_view(fc);
            fresh.biases() = fc.biases();
            expect_float_equal(got[j], fresh.forward(fc_in, q), what);
        }
    }
}

} // namespace
} // namespace dvafs
