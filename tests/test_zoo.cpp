#include "cnn/zoo.h"

#include "cnn/workload.h"

#include <gtest/gtest.h>

namespace dvafs {
namespace {

TEST(zoo, lenet5_topology)
{
    const network net = make_lenet5();
    EXPECT_EQ(net.name(), "LeNet-5");
    EXPECT_EQ(net.input_shape(), (tensor_shape{1, 28, 28}));
    EXPECT_EQ(net.output_shape(), (tensor_shape{10, 1, 1}));
    EXPECT_EQ(net.weighted_layers().size(), 5U); // 2 conv + 3 fc
}

TEST(zoo, lenet5_forward_runs)
{
    const network net = make_lenet5();
    tensor in({1, 28, 28});
    const tensor out = net.forward(in, std::vector<layer_quant>(net.depth()));
    EXPECT_EQ(out.size(), 10U);
}

TEST(zoo, alexnet_full_macs_match_published_scale)
{
    const network net = make_alexnet_full();
    EXPECT_EQ(net.weighted_layers().size(), 8U); // 5 conv + 3 fc
    const double mmacs =
        static_cast<double>(net.total_macs()) * 1e-6;
    // Published AlexNet is ~666-724 MMACs/frame (Table III: 666 over the
    // conv+fc stack with this input size).
    EXPECT_GT(mmacs, 600.0);
    EXPECT_LT(mmacs, 1200.0);
}

TEST(zoo, vgg16_full_macs_match_published_scale)
{
    const network net = make_vgg16_full();
    EXPECT_EQ(net.weighted_layers().size(), 16U); // 13 conv + 3 fc
    const double mmacs =
        static_cast<double>(net.total_macs()) * 1e-6;
    // Published VGG16 is ~15.3 GMACs/frame (paper Table III: 15346).
    EXPECT_GT(mmacs, 14000.0);
    EXPECT_LT(mmacs, 16500.0);
}

TEST(zoo, scaled_variants_preserve_depth)
{
    EXPECT_EQ(make_alexnet_scaled().weighted_layers().size(), 8U);
    EXPECT_EQ(make_vgg16_scaled().weighted_layers().size(), 16U);
}

TEST(zoo, scaled_variants_are_much_cheaper)
{
    EXPECT_LT(make_alexnet_scaled().total_macs(),
              make_alexnet_full().total_macs() / 20);
    EXPECT_LT(make_vgg16_scaled().total_macs(),
              make_vgg16_full().total_macs() / 50);
}

TEST(zoo, scaled_alexnet_forward_runs)
{
    const network net = make_alexnet_scaled();
    tensor in(net.input_shape());
    const tensor out = net.forward(in, std::vector<layer_quant>(net.depth()));
    EXPECT_EQ(out.size(), 100U);
}

TEST(zoo, weights_are_seeded_deterministic)
{
    const network a = make_lenet5({.seed = 5});
    const network b = make_lenet5({.seed = 5});
    const network c = make_lenet5({.seed = 6});
    const auto* wa = a.at(0).weights();
    const auto* wb = b.at(0).weights();
    const auto* wc = c.at(0).weights();
    EXPECT_EQ(*wa, *wb);
    EXPECT_NE(*wa, *wc);
}

TEST(zoo, pruning_hits_requested_sparsity)
{
    const network net = make_lenet5({.seed = 1, .weight_sparsity = 0.3});
    for (const std::size_t li : net.weighted_layers()) {
        const auto* w = net.at(li).weights();
        std::size_t zeros = 0;
        for (const float v : *w) {
            zeros += (v == 0.0F);
        }
        const double sp =
            static_cast<double>(zeros) / static_cast<double>(w->size());
        EXPECT_NEAR(sp, 0.3, 0.05) << net.at(li).name();
    }
}

TEST(zoo, zero_sparsity_leaves_weights_dense)
{
    const network net = make_lenet5({.seed = 1, .weight_sparsity = 0.0});
    const auto* w = net.at(0).weights();
    std::size_t zeros = 0;
    for (const float v : *w) {
        zeros += (v == 0.0F);
    }
    EXPECT_EQ(zeros, 0U);
}

TEST(zoo, workload_extraction_conv_vs_fc)
{
    const auto w = extract_workloads(make_lenet5());
    ASSERT_EQ(w.size(), 5U);
    EXPECT_TRUE(w[0].is_conv);
    EXPECT_TRUE(w[1].is_conv);
    EXPECT_FALSE(w[2].is_conv);
    EXPECT_GT(w[0].macs, 0U);
    EXPECT_EQ(w[2].weight_count, 120ULL * 400);
}

} // namespace
} // namespace dvafs
