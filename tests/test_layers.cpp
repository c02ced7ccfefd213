#include "cnn/layers.h"

#include "util/rng.h"

#include <gtest/gtest.h>

#include <cmath>

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
