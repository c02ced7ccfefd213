// Differential suite for the blocked-GEMM forward path: pins the GEMM
// forward float-equal to reference_forward (the pre-GEMM naive loops)
// across random shapes, strides and paddings, quantized and not, and the
// stride-1 shifted-plane lowering bit-identical to im2col + a dense GEMM.
//
// Equality is exact (==, not near): both paths accumulate in double in
// ascending k per output (the contract in gemm.h). Signed zeros may differ
// in sign across the paths; == treats them as equal, which is the
// documented tolerance.

#include "cnn/gemm.h"
#include "cnn/layers.h"
#include "cnn/network.h"
#include "cnn/zoo.h"
#include "fixedpoint/quantize.h"

#include "util/rng.h"
#include "vec/vec.h"

#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <span>
#include <utility>
#include <vector>

namespace dvafs {
namespace {

void fill_gaussian(std::span<float> v, pcg32& rng, double sigma = 0.5)
{
    for (float& x : v) {
        x = static_cast<float>(rng.gaussian(0.0, sigma));
    }
}

void expect_float_equal(const tensor& a, const tensor& b,
                        const std::string& what)
{
    ASSERT_EQ(a.shape(), b.shape()) << what;
    for (std::size_t i = 0; i < a.size(); ++i) {
        ASSERT_EQ(a.flat()[i], b.flat()[i])
            << what << " element " << i;
    }
}

// Gaussian operands with the IEEE corner values mixed in: signed zeros
// (about 1 in 8), a few infinities and NaNs (about 1 in 300 each way),
// +-FLT_MAX (whose products reach 2^256 and whose sums overflow the float
// output) and subnormals and +-FLT_MIN (products down to 2^-298).
void fill_with_specials(std::span<float> v, pcg32& rng)
{
    const float inf = std::numeric_limits<float>::infinity();
    const float nan = std::numeric_limits<float>::quiet_NaN();
    const float big = std::numeric_limits<float>::max();
    const float tiny = std::numeric_limits<float>::min();
    for (float& x : v) {
        const std::uint32_t r = rng.bounded(1200);
        const float sign = rng.bounded(2) == 0 ? 1.0F : -1.0F;
        x = r < 75    ? 0.0F
            : r < 150 ? -0.0F
            : r < 152 ? inf
            : r < 154 ? -inf
            : r < 156 ? nan
            : r < 159 ? sign * big
            : r < 161 ? sign * tiny
            : r < 166
                ? sign * std::bit_cast<float>(1U + rng.bounded(0x7fffffU))
                : static_cast<float>(rng.gaussian(0.0, 0.5));
    }
}

// Order-sensitive operands: a quarter are +-2^30, the rest Gaussian. The
// +-2^60 products cancel exactly, and while the accumulator holds one of
// them it rounds smaller terms to its ulp, so the float output depends on
// the order and the width of the k reduction. Gaussian data alone would
// almost never show a reordered or narrowed reduction: its double
// rounding errors stay far below a float ulp.
void fill_cancelling(std::span<float> v, pcg32& rng)
{
    for (float& x : v) {
        const std::uint32_t r = rng.bounded(8);
        x = r == 0   ? 0x1p30F
            : r == 1 ? -0x1p30F
                     : static_cast<float>(rng.gaussian(0.0, 0.5));
    }
}

// Bit equality, except that any NaN matches any NaN: which of two NaN
// operands an add propagates depends on the operand order the compiler
// picks, so a NaN's sign and payload are outside the contract.
bool same_bits(float x, float y)
{
    return (std::isnan(x) && std::isnan(y))
           || std::bit_cast<std::uint32_t>(x)
                  == std::bit_cast<std::uint32_t>(y);
}

// The cnn/gemm.h contract written out: start from the bias (or 0.0), add
// double(a) * double(b) with k ascending, round once to float.
std::vector<float> naive_gemm(const std::vector<float>& a,
                              const std::vector<float>& b,
                              const float* bias, std::size_t m,
                              std::size_t k, std::size_t n)
{
    std::vector<float> c(m * n);
    for (std::size_t i = 0; i < m; ++i) {
        for (std::size_t j = 0; j < n; ++j) {
            double acc = bias != nullptr ? static_cast<double>(bias[i]) : 0.0;
            for (std::size_t r = 0; r < k; ++r) {
                acc += static_cast<double>(a[i * k + r])
                       * static_cast<double>(b[r * n + j]);
            }
            c[i * n + j] = static_cast<float>(acc);
        }
    }
    return c;
}

// Every available backend's float GEMM against the naive loop, bit for
// bit (signed zeros and infinities included; NaN for NaN), on Gaussian,
// IEEE-corner and cancelling operands, over the tile edges:
// m around the 8-row panel, n around the 24-column tile and the n == 1
// matrix-vector path (m up to 65 for its 32-row passes), k from the
// bias-only 0 up to a deep 433.
TEST(gemm, matches_naive_triple_loop)
{
    std::vector<std::array<std::size_t, 3>> shapes = {
        {1, 1, 1},  {3, 5, 7},   {4, 8, 8},
        {5, 9, 17}, {16, 27, 33}, {7, 64, 1}};
    for (const std::size_t m : {1, 6, 7, 9, 15, 17}) {
        for (const std::size_t n : {1, 9, 23, 24, 25, 49, 100}) {
            for (const std::size_t k : {0, 1, 27, 433}) {
                shapes.push_back({m, k, n});
            }
        }
    }
    // n == 1 passes of one to four groups of eight rows, plus tails.
    for (const std::size_t m : {24, 31, 32, 33, 65}) {
        for (const std::size_t k : {0, 1, 27, 433}) {
            shapes.push_back({m, k, 1});
        }
    }
    pcg32 rng(11);
    const char* const mode_names[] = {"", " specials", " cancelling"};
    for (const auto [m, k, n] : shapes) {
        for (int mode = 0; mode < 3; ++mode) {
            std::vector<float> a(m * k);
            std::vector<float> b(k * n);
            std::vector<float> bias(m);
            for (const std::span<float> v :
                 {std::span<float>(a), std::span<float>(b),
                  std::span<float>(bias)}) {
                if (mode == 1) {
                    fill_with_specials(v, rng);
                } else if (mode == 2) {
                    fill_cancelling(v, rng);
                } else {
                    fill_gaussian(v, rng);
                }
            }
            const float* const biases[] = {bias.data(), nullptr};
            for (const float* bp : biases) {
                const std::vector<float> want = naive_gemm(a, b, bp, m, k, n);
                const std::vector<double> panels =
                    pack_panels(a.data(), bp, m, k);
                // The panel GEMM, and at n == 1 also the gemv on A's
                // floats.
                for (int form = 0; form < (n == 1 ? 2 : 1); ++form) {
                    for (const vec::isa level : vec::available()) {
                        const vec::kernel_table& t = *vec::table_for(level);
                        // A guard band after C catches a store past a tail.
                        constexpr float guard = 12345.0F;
                        std::vector<float> c(m * n + 32, guard);
                        if (form == 0) {
                            t.gemm_f32(panels.data(), b.data(), c.data(), m,
                                       k, n, nullptr);
                        } else {
                            t.gemv_f32(a.data(), b.data(), bp, c.data(), m,
                                       k);
                        }
                        const char* const what =
                            form == 0 ? " gemm" : " gemv";
                        for (std::size_t e = m * n; e < c.size(); ++e) {
                            ASSERT_EQ(c[e], guard)
                                << vec::isa_name(level) << what << " " << m
                                << "x" << k << "x" << n << " wrote past C";
                        }
                        c.resize(m * n);
                        for (std::size_t e = 0; e < c.size(); ++e) {
                            ASSERT_TRUE(same_bits(c[e], want[e]))
                                << vec::isa_name(level) << what << " " << m
                                << "x" << k << "x" << n << mode_names[mode]
                                << (bp == nullptr ? " no bias" : "")
                                << " @ (" << e / n << "," << e % n
                                << "): " << c[e]
                                << " vs " << want[e];
                        }
                    }
                }
            }
        }
    }
}

// Any finite float, drawn to cover every binade: subnormals, FLT_MIN,
// FLT_MAX and signed zeros at fixed odds, otherwise uniform bit patterns
// with a finite exponent.
float any_finite_float(pcg32& rng)
{
    const std::uint32_t sign = rng.bounded(2) << 31;
    const std::uint32_t r = rng.bounded(16);
    const std::uint32_t bits =
        r == 0   ? 0U
        : r == 1 ? std::bit_cast<std::uint32_t>(
                       std::numeric_limits<float>::max())
        : r == 2 ? std::bit_cast<std::uint32_t>(
                       std::numeric_limits<float>::min())
        : r < 5  ? 1U + rng.bounded(0x7fffffU) // subnormal
                 : rng.bounded(0x7f800000U);   // any finite magnitude
    return std::bit_cast<float>(sign | bits);
}

// The exactness argument in cnn/gemm.h, checked: for float operands the
// product is exact in double, so one fused multiply-add rounds to the
// contract's separate multiply and add bit for bit. Accumulators are the
// values the contract reaches: a float bias plus earlier float products,
// zeros of either sign, and the exact negation of the product (whose zero
// sum takes its sign from the addition rule in both forms).
TEST(gemm, fused_multiply_add_matches_separate_ops_property)
{
    pcg32 rng(2718);
    for (int trial = 0; trial < 200000; ++trial) {
        const float a = any_finite_float(rng);
        const float b = any_finite_float(rng);
        const double p = static_cast<double>(a) * static_cast<double>(b);
        double c = 0.0;
        switch (rng.bounded(4)) {
        case 0:
            c = rng.bounded(2) == 0 ? 0.0 : -0.0;
            break;
        case 1:
            c = -p;
            break;
        default:
            c = static_cast<double>(any_finite_float(rng));
            for (std::uint32_t s = rng.bounded(6); s > 0; --s) {
                c += static_cast<double>(any_finite_float(rng))
                     * static_cast<double>(any_finite_float(rng));
            }
            break;
        }
        const double fused =
            std::fma(static_cast<double>(a), static_cast<double>(b), c);
        const double separate = c + p;
        ASSERT_EQ(std::bit_cast<std::uint64_t>(fused),
                  std::bit_cast<std::uint64_t>(separate))
            << std::hexfloat << "a " << a << " b " << b << " c " << c
            << ": fma " << fused << " vs " << separate;
    }
}

TEST(gemm, null_bias_starts_from_zero)
{
    const std::vector<float> a = {1.0F, 2.0F};
    const std::vector<float> b = {3.0F, 4.0F};
    std::vector<float> c(1);
    gemm_blocked(pack_panels(a.data(), nullptr, 1, 2).data(), b.data(),
                 c.data(), 1, 2, 1);
    EXPECT_EQ(c[0], 11.0F);
    c[0] = 0.0F;
    gemv_f32(a.data(), b.data(), nullptr, c.data(), 1, 2);
    EXPECT_EQ(c[0], 11.0F);
}

TEST(im2col, packs_padding_as_zero)
{
    tensor x({1, 2, 2});
    x.at(0, 0, 0) = 1.0F;
    x.at(0, 0, 1) = 2.0F;
    x.at(0, 1, 0) = 3.0F;
    x.at(0, 1, 1) = 4.0F;
    std::vector<float> cols;
    // 3x3 kernel, stride 1, pad 1 -> 2x2 output, 9 rows.
    im2col(x.flat().data(), x.shape(), 3, 1, 1, {1, 2, 2}, cols);
    ASSERT_EQ(cols.size(), 9U * 4U);
    // Center tap (ky=1, kx=1) row: the image itself.
    const float* center = cols.data() + 4 * 4;
    EXPECT_EQ(center[0], 1.0F);
    EXPECT_EQ(center[1], 2.0F);
    EXPECT_EQ(center[2], 3.0F);
    EXPECT_EQ(center[3], 4.0F);
    // Top-left tap (ky=0, kx=0): only the bottom-right output pixel sees
    // the image (pixel (0,0)); the rest read padding.
    const float* tl = cols.data();
    EXPECT_EQ(tl[0], 0.0F);
    EXPECT_EQ(tl[1], 0.0F);
    EXPECT_EQ(tl[2], 0.0F);
    EXPECT_EQ(tl[3], 1.0F);
}

TEST(gemm_forward, conv_matches_reference_across_random_shapes)
{
    pcg32 rng(2024);
    for (int trial = 0; trial < 40; ++trial) {
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

        for (const layer_quant q :
             {layer_quant{}, layer_quant{.weight_bits = 5, .input_bits = 0},
              layer_quant{.weight_bits = 0, .input_bits = 4},
              layer_quant{.weight_bits = 6, .input_bits = 6}}) {
            const tensor got = conv.forward(in, q);
            const tensor want = conv.reference_forward(in, q);
            expect_float_equal(
                got, want,
                "conv f=" + std::to_string(f) + " c=" + std::to_string(c)
                    + " k=" + std::to_string(k) + " s=" + std::to_string(s)
                    + " p=" + std::to_string(p) + " h="
                    + std::to_string(h) + " w=" + std::to_string(w)
                    + " wb=" + std::to_string(q.weight_bits) + " ib="
                    + std::to_string(q.input_bits));
        }
    }
}

TEST(gemm_forward, conv_matches_reference_when_kernel_exceeds_input)
{
    // Regression: with stride > 1 and kernel > w + pad - 1, the last
    // kernel columns have *no* in-bounds tap for some output columns; the
    // im2col in-bounds bound must clamp at zero rather than let C++'s
    // truncating division round a negative numerator up (which packed an
    // out-of-row pixel instead of padding and broke GEMM == reference).
    pcg32 rng(31);
    struct shape {
        int c, f, k, s, p, h, w;
    };
    for (const shape sh : {shape{1, 1, 4, 2, 1, 2, 2},
                           shape{2, 3, 5, 2, 2, 3, 3},
                           shape{1, 2, 7, 3, 3, 4, 2},
                           shape{3, 2, 6, 2, 3, 2, 5}}) {
        conv_layer conv("c", sh.f, sh.c, sh.k, sh.s, sh.p);
        fill_gaussian(*conv.weights(), rng);
        fill_gaussian(conv.biases(), rng);
        tensor in({sh.c, sh.h, sh.w});
        fill_gaussian(in.flat(), rng);
        expect_float_equal(conv.forward(in, {}),
                           conv.reference_forward(in, {}),
                           "k=" + std::to_string(sh.k) + " s="
                               + std::to_string(sh.s) + " p="
                               + std::to_string(sh.p) + " h="
                               + std::to_string(sh.h) + " w="
                               + std::to_string(sh.w));
    }
}

// Pins the dispatched backend for one scope and restores the previous
// one on exit, so a failing assertion cannot leak a forced ISA.
class isa_scope {
public:
    isa_scope() : restore_(vec::active_isa()) {}
    isa_scope(const isa_scope&) = delete;
    isa_scope& operator=(const isa_scope&) = delete;
    ~isa_scope() { vec::force_isa(restore_); }

private:
    vec::isa restore_;
};

// A stride-1 conv's forward reads B as shifted views of a padded input
// plane (cnn/gemm.h) instead of an im2col matrix. It must give the bits
// of what it replaces -- the input fake-quantized as one tensor, packed
// by im2col, then a dense GEMM -- on every output, signed zeros included
// (biases of either zero sign meet +0.0 padded taps and inputs that
// quantize to zero), under every available ISA: K in {1, 3, 5} with
// every padding 0..K-1, planes from K x K up with H != W, C in {1, 3, 7},
// float, 8-bit and 2-bit inputs, Gaussian and cancelling operands.
TEST(gemm_forward, stride1_conv_matches_im2col_gemm_bitwise_property)
{
    const isa_scope scope;
    pcg32 rng(4096);
    for (const int k : {1, 3, 5}) {
        for (int p = 0; p < k; ++p) {
            for (const int c : {1, 3, 7}) {
                for (const auto& [h, w] : {std::pair{k, k},
                                          std::pair{k, k + 3},
                                          std::pair{k + 6, k + 1}}) {
                    const int f = 1 + static_cast<int>(rng.bounded(10));
                    const bool cancel = rng.bounded(2) == 0;
                    conv_layer conv("c", f, c, k, 1, p);
                    tensor in({c, h, w});
                    for (const std::span<float> v :
                         {std::span<float>(*conv.weights()), in.flat()}) {
                        if (cancel) {
                            fill_cancelling(v, rng);
                        } else {
                            fill_gaussian(v, rng);
                        }
                    }
                    for (float& b : conv.biases()) {
                        const std::uint32_t r = rng.bounded(4);
                        b = r == 0   ? -0.0F
                            : r == 1 ? 0.0F
                                     : static_cast<float>(
                                         rng.gaussian(0.0, 0.5));
                    }
                    const tensor_shape os = conv.out_shape(in.shape());
                    for (const int bits : {0, 8, 2}) {
                        const layer_quant q{.weight_bits = bits,
                                            .input_bits = bits};
                        tensor x = in;
                        std::vector<float> wq = *std::as_const(conv).weights();
                        if (bits > 0) {
                            fake_quantize_inplace(x.flat(), bits);
                            fake_quantize_inplace(wq, bits);
                        }
                        std::vector<float> cols;
                        im2col(x.flat().data(), x.shape(), k, 1, p, os, cols);
                        const std::size_t n = static_cast<std::size_t>(os.h)
                                              * static_cast<std::size_t>(os.w);
                        std::vector<float> want(static_cast<std::size_t>(f)
                                                * n);
                        ASSERT_TRUE(vec::force_isa(vec::isa::scalar));
                        const std::size_t m = static_cast<std::size_t>(f);
                        gemm_blocked(pack_panels(wq.data(),
                                                 conv.biases().data(), m,
                                                 cols.size() / n)
                                         .data(),
                                     cols.data(), want.data(), m,
                                     cols.size() / n, n);
                        for (const vec::isa level : vec::available()) {
                            ASSERT_TRUE(vec::force_isa(level));
                            const tensor got = conv.forward(in, q);
                            ASSERT_EQ(got.shape(), os);
                            for (std::size_t e = 0; e < want.size(); ++e) {
                                ASSERT_EQ(std::bit_cast<std::uint32_t>(
                                              got.flat()[e]),
                                          std::bit_cast<std::uint32_t>(
                                              want[e]))
                                    << vec::isa_name(level) << " k=" << k
                                    << " p=" << p << " c=" << c << " "
                                    << h << "x" << w << " f=" << f
                                    << " bits=" << bits
                                    << (cancel ? " cancelling" : "")
                                    << " element " << e << ": "
                                    << got.flat()[e] << " vs " << want[e];
                            }
                        }
                    }
                }
            }
        }
    }
}

TEST(gemm_forward, fc_matches_reference_across_random_shapes)
{
    pcg32 rng(77);
    for (int trial = 0; trial < 20; ++trial) {
        const int outputs = 1 + static_cast<int>(rng.next_u64() % 40);
        const int inputs = 1 + static_cast<int>(rng.next_u64() % 80);
        fc_layer fc("f", outputs, inputs);
        fill_gaussian(*fc.weights(), rng);
        fill_gaussian(fc.biases(), rng);
        tensor in({inputs, 1, 1});
        fill_gaussian(in.flat(), rng);

        for (const layer_quant q :
             {layer_quant{}, layer_quant{.weight_bits = 4, .input_bits = 7}}) {
            expect_float_equal(fc.forward(in, q),
                               fc.reference_forward(in, q),
                               "fc " + std::to_string(outputs) + "x"
                                   + std::to_string(inputs));
        }
    }
}

// Whole networks, GEMM forward vs the naive reference loops, float-equal
// on every output under every available ISA: the float network and a
// mixed-precision overlay (different weight and input bits per layer,
// some layers left in float).
TEST(gemm_forward, network_forward_matches_reference_end_to_end)
{
    const isa_scope scope;
    for (const network& net :
         {make_lenet5({.seed = 9}), make_alexnet_scaled({.seed = 9}),
          make_vgg16_scaled({.seed = 9})}) {
        const std::vector<layer_quant> overlay(net.depth());
        std::vector<layer_quant> mixed(net.depth());
        const int weight_bits[] = {6, 3, 8, 0, 5};
        const int input_bits[] = {5, 7, 0, 4, 8, 6};
        std::size_t w = 0;
        for (const std::size_t li : net.weighted_layers()) {
            mixed[li] = {.weight_bits = weight_bits[w % 5],
                         .input_bits = input_bits[w % 6]};
            ++w;
        }
        pcg32 rng(123);
        tensor in(net.input_shape());
        fill_gaussian(in.flat(), rng, 0.3);
        const tensor want_float = net.reference_forward(in, overlay);
        const tensor want_mixed = net.reference_forward(in, mixed);
        for (const vec::isa level : vec::available()) {
            ASSERT_TRUE(vec::force_isa(level));
            const std::string tag =
                net.name() + " " + vec::isa_name(level);
            expect_float_equal(net.forward(in, overlay), want_float,
                               "float " + tag);
            expect_float_equal(net.forward(in, mixed), want_mixed,
                               "mixed " + tag);
        }
    }
    // The zoo's Gaussian weights hide a reordered or narrowed k
    // reduction (see fill_cancelling); a conv and an fc network on
    // cancelling weights, biases and inputs show it. Shapes put the conv
    // on full and tail 24-column tiles and the fc on full, partial and
    // tail row groups.
    pcg32 rng(321);
    auto conv = std::make_unique<conv_layer>("c", 16, 6, 3, 1, 1);
    fill_cancelling(*conv->weights(), rng);
    fill_cancelling(conv->biases(), rng);
    auto fc = std::make_unique<fc_layer>("f", 77, 300);
    fill_cancelling(*fc->weights(), rng);
    fill_cancelling(fc->biases(), rng);
    network conv_net("cancel_conv", tensor_shape{6, 10, 10});
    conv_net.add(std::move(conv));
    network fc_net("cancel_fc", tensor_shape{300, 1, 1});
    fc_net.add(std::move(fc));
    for (const network* net : {&conv_net, &fc_net}) {
        tensor in(net->input_shape());
        fill_cancelling(in.flat(), rng);
        const std::vector<layer_quant> overlay(net->depth());
        const tensor want = net->reference_forward(in, overlay);
        for (const vec::isa level : vec::available()) {
            ASSERT_TRUE(vec::force_isa(level));
            expect_float_equal(net->forward(in, overlay), want,
                               net->name() + " " + vec::isa_name(level));
        }
    }
}

} // namespace
} // namespace dvafs
