#include "cnn/layers.h"

#include "util/rng.h"

#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>

namespace dvafs {
namespace {

TEST(conv_layer, identity_kernel)
{
    conv_layer conv("c", 1, 1, 1, 1, 0);
    (*conv.weights())[0] = 1.0F;
    tensor in({1, 3, 3});
    for (std::size_t i = 0; i < in.size(); ++i) {
        in.flat()[i] = static_cast<float>(i);
    }
    const tensor out = conv.forward(in, {});
    ASSERT_EQ(out.shape(), in.shape());
    for (std::size_t i = 0; i < in.size(); ++i) {
        EXPECT_EQ(out.flat()[i], in.flat()[i]);
    }
}

TEST(conv_layer, known_3x3_sum_kernel)
{
    conv_layer conv("c", 1, 1, 3, 1, 0);
    for (float& w : *conv.weights()) {
        w = 1.0F;
    }
    tensor in({1, 3, 3});
    for (std::size_t i = 0; i < 9; ++i) {
        in.flat()[i] = 1.0F;
    }
    const tensor out = conv.forward(in, {});
    ASSERT_EQ(out.shape(), (tensor_shape{1, 1, 1}));
    EXPECT_EQ(out.at(0, 0, 0), 9.0F);
}

TEST(conv_layer, stride_and_padding_shapes)
{
    conv_layer conv("c", 4, 3, 3, 2, 1);
    EXPECT_EQ(conv.out_shape({3, 8, 8}), (tensor_shape{4, 4, 4}));
    conv_layer valid("v", 2, 1, 5, 1, 0);
    EXPECT_EQ(valid.out_shape({1, 28, 28}), (tensor_shape{2, 24, 24}));
    EXPECT_THROW((void)valid.out_shape({2, 28, 28}),
                 std::invalid_argument);
    EXPECT_THROW((void)valid.out_shape({1, 3, 3}), std::invalid_argument);
}

TEST(conv_layer, padding_reads_zeros)
{
    conv_layer conv("c", 1, 1, 3, 1, 1);
    // Kernel = all ones; single-pixel input 5 in the corner.
    for (float& w : *conv.weights()) {
        w = 1.0F;
    }
    tensor in({1, 2, 2});
    in.at(0, 0, 0) = 5.0F;
    const tensor out = conv.forward(in, {});
    ASSERT_EQ(out.shape(), (tensor_shape{1, 2, 2}));
    EXPECT_EQ(out.at(0, 0, 0), 5.0F);
    EXPECT_EQ(out.at(0, 1, 1), 5.0F);
}

TEST(conv_layer, bias_added_per_filter)
{
    conv_layer conv("c", 2, 1, 1, 1, 0);
    (*conv.weights())[0] = 0.0F;
    (*conv.weights())[1] = 0.0F;
    conv.biases()[0] = 1.5F;
    conv.biases()[1] = -2.5F;
    tensor in({1, 1, 1});
    const tensor out = conv.forward(in, {});
    EXPECT_EQ(out.at(0, 0, 0), 1.5F);
    EXPECT_EQ(out.at(1, 0, 0), -2.5F);
}

TEST(conv_layer, macs_formula)
{
    conv_layer conv("c", 8, 3, 3, 1, 1);
    // 16x16 output, 8 filters, 3x3x3 kernel.
    EXPECT_EQ(conv.macs({3, 16, 16}), 16ULL * 16 * 8 * 3 * 3 * 3);
    EXPECT_EQ(conv.weight_count(), 8ULL * 3 * 3 * 3);
}

TEST(conv_layer, weight_quantization_changes_output_slightly)
{
    conv_layer conv("c", 1, 1, 3, 1, 0);
    pcg32 rng(5);
    for (float& w : *conv.weights()) {
        w = static_cast<float>(rng.gaussian(0.0, 1.0));
    }
    tensor in({1, 5, 5});
    for (float& v : in.flat()) {
        v = static_cast<float>(rng.uniform(0.0, 1.0));
    }
    const tensor exact = conv.forward(in, {});
    layer_quant q;
    q.weight_bits = 6;
    const tensor approx = conv.forward(in, q);
    double max_err = 0.0;
    bool any_diff = false;
    for (std::size_t i = 0; i < exact.size(); ++i) {
        const double e = std::fabs(exact.flat()[i] - approx.flat()[i]);
        max_err = std::max(max_err, e);
        any_diff |= (e > 0.0);
    }
    EXPECT_TRUE(any_diff);
    EXPECT_LT(max_err, 0.5); // small perturbation, not garbage
}

TEST(relu_layer, clamps_negatives)
{
    relu_layer r("r");
    tensor in({1, 1, 4});
    in.flat()[0] = -1.0F;
    in.flat()[1] = 2.0F;
    in.flat()[2] = 0.0F;
    in.flat()[3] = -0.5F;
    const tensor out = r.forward(in, {});
    EXPECT_EQ(out.flat()[0], 0.0F);
    EXPECT_EQ(out.flat()[1], 2.0F);
    EXPECT_EQ(out.flat()[2], 0.0F);
    EXPECT_EQ(out.flat()[3], 0.0F);
    EXPECT_EQ(r.macs({1, 1, 4}), 0U);
}

TEST(maxpool_layer, picks_window_max)
{
    maxpool_layer p("p", 2, 2);
    tensor in({1, 2, 4});
    in.at(0, 0, 0) = 1.0F;
    in.at(0, 0, 1) = 4.0F;
    in.at(0, 1, 0) = 2.0F;
    in.at(0, 1, 1) = 3.0F;
    in.at(0, 0, 2) = -5.0F;
    in.at(0, 0, 3) = -1.0F;
    in.at(0, 1, 2) = -2.0F;
    in.at(0, 1, 3) = -9.0F;
    const tensor out = p.forward(in, {});
    ASSERT_EQ(out.shape(), (tensor_shape{1, 1, 2}));
    EXPECT_EQ(out.at(0, 0, 0), 4.0F);
    EXPECT_EQ(out.at(0, 0, 1), -1.0F);
}

// The row-pointer forward against the tensor::at reference loop, bit for
// bit: NaN taps (skipped by std::max), signed zeros (the first of two
// wins, so tap order shows) and -inf (equal to the start value), on
// 2x2/s2, 3x3/s2 and 3x3/s1 windows over ragged inputs; plus a quantized
// input on finite data.
TEST(maxpool_layer, forward_matches_reference_bitwise)
{
    const float inf = std::numeric_limits<float>::infinity();
    const float nan = std::numeric_limits<float>::quiet_NaN();
    pcg32 rng(77);
    const std::array<std::array<int, 2>, 3> windows = {
        {{2, 2}, {3, 2}, {3, 1}}};
    for (const auto [size, stride] : windows) {
        for (const tensor_shape is :
             {tensor_shape{1, 3, 3}, tensor_shape{2, 4, 7},
              tensor_shape{3, 9, 8}, tensor_shape{5, 13, 13}}) {
            const maxpool_layer p("p", size, stride);
            tensor in(is);
            // Mostly zeros and negatives, so many windows peak at a zero
            // of either sign and the tap order decides which one.
            for (float& v : in.flat()) {
                const std::uint32_t r = rng.bounded(16);
                v = r == 0   ? nan
                    : r < 5  ? 0.0F
                    : r < 9  ? -0.0F
                    : r == 9 ? -inf
                             : static_cast<float>(rng.uniform(-1.0, 0.2));
            }
            // A window of nothing but NaN and -inf yields -inf.
            in.at(0, 0, 0) = nan;
            in.at(0, 0, 1) = -inf;
            in.at(0, 1, 0) = nan;
            in.at(0, 1, 1) = nan;
            const tensor got = p.forward(in, {});
            const tensor want = p.reference_forward(in, {});
            ASSERT_EQ(got.shape(), want.shape());
            for (std::size_t i = 0; i < got.size(); ++i) {
                ASSERT_EQ(std::bit_cast<std::uint32_t>(got.flat()[i]),
                          std::bit_cast<std::uint32_t>(want.flat()[i]))
                    << size << "x" << size << "/s" << stride << " element "
                    << i << ": " << got.flat()[i] << " vs "
                    << want.flat()[i];
            }
            for (float& v : in.flat()) {
                if (!std::isfinite(v)) {
                    v = 0.5F;
                }
            }
            const layer_quant q{.weight_bits = 0, .input_bits = 4};
            const tensor gq = p.forward(in, q);
            const tensor wq = p.reference_forward(in, q);
            for (std::size_t i = 0; i < gq.size(); ++i) {
                ASSERT_EQ(std::bit_cast<std::uint32_t>(gq.flat()[i]),
                          std::bit_cast<std::uint32_t>(wq.flat()[i]))
                    << "quantized element " << i;
            }
        }
    }
}

TEST(maxpool_layer, rejects_input_smaller_than_window)
{
    // A 2x2 window does not fit a 1-row input: (1 - 2) / 2 + 1 truncates
    // to a 1-row output whose window reads past the input.
    const maxpool_layer p("p", 2, 2);
    EXPECT_THROW((void)p.out_shape({1, 1, 4}), std::invalid_argument);
    EXPECT_THROW((void)p.out_shape({1, 4, 1}), std::invalid_argument);
    EXPECT_THROW((void)p.forward(tensor({1, 1, 4}), {}),
                 std::invalid_argument);
    // Exactly one window still fits.
    EXPECT_EQ(p.out_shape({3, 2, 2}), (tensor_shape{3, 1, 1}));
}

TEST(fc_layer, matrix_vector_product)
{
    fc_layer fc("f", 2, 3);
    // W = [[1,2,3],[0,-1,1]], b = [0.5, 0].
    (*fc.weights()) = {1, 2, 3, 0, -1, 1};
    fc.biases() = {0.5F, 0.0F};
    tensor in({3, 1, 1});
    in.flat()[0] = 1.0F;
    in.flat()[1] = 2.0F;
    in.flat()[2] = 3.0F;
    const tensor out = fc.forward(in, {});
    EXPECT_FLOAT_EQ(out.at(0, 0, 0), 14.5F);
    EXPECT_FLOAT_EQ(out.at(1, 0, 0), 1.0F);
    EXPECT_EQ(fc.macs({3, 1, 1}), 6U);
}

TEST(fc_layer, accepts_flattened_conv_output)
{
    fc_layer fc("f", 4, 2 * 3 * 3);
    EXPECT_EQ(fc.out_shape({2, 3, 3}), (tensor_shape{4, 1, 1}));
    EXPECT_THROW((void)fc.out_shape({2, 3, 4}), std::invalid_argument);
}

TEST(layers, bad_topologies_throw)
{
    EXPECT_THROW(conv_layer("c", 0, 1, 3, 1, 0), std::invalid_argument);
    EXPECT_THROW(maxpool_layer("p", 0, 2), std::invalid_argument);
    EXPECT_THROW(fc_layer("f", 0, 4), std::invalid_argument);
}

} // namespace
} // namespace dvafs
