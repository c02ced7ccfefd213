#include "cnn/network.h"

#include "util/rng.h"

#include <gtest/gtest.h>

namespace dvafs {
namespace {

network tiny_net()
{
    network net("tiny", {1, 8, 8});
    net.add(std::make_unique<conv_layer>("conv1", 2, 1, 3, 1, 1));
    net.add(std::make_unique<relu_layer>("relu1"));
    net.add(std::make_unique<maxpool_layer>("pool1", 2, 2));
    net.add(std::make_unique<fc_layer>("fc2", 4, 2 * 4 * 4));
    pcg32 rng(1);
    for (std::size_t i = 0; i < net.depth(); ++i) {
        if (auto* w = net.at(i).weights()) {
            for (float& v : *w) {
                v = static_cast<float>(rng.gaussian(0.0, 0.3));
            }
        }
    }
    return net;
}

std::vector<layer_quant> float_overlay(const network& net)
{
    return std::vector<layer_quant>(net.depth());
}

TEST(network, forward_shapes)
{
    const network net = tiny_net();
    EXPECT_EQ(net.depth(), 4U);
    EXPECT_EQ(net.output_shape(), (tensor_shape{4, 1, 1}));
    tensor in({1, 8, 8});
    const tensor out = net.forward(in, float_overlay(net));
    EXPECT_EQ(out.shape(), (tensor_shape{4, 1, 1}));
}

TEST(network, rejects_wrong_input_shape)
{
    const network net = tiny_net();
    tensor bad({1, 4, 4});
    EXPECT_THROW((void)net.forward(bad, float_overlay(net)),
                 std::invalid_argument);
}

TEST(network, weighted_layers_are_conv_and_fc)
{
    const network net = tiny_net();
    const auto idx = net.weighted_layers();
    ASSERT_EQ(idx.size(), 2U);
    EXPECT_EQ(idx[0], 0U);
    EXPECT_EQ(idx[1], 3U);
}

TEST(network, total_macs_sums_layers)
{
    const network net = tiny_net();
    // conv: 8*8 out * 2 filters * 1*3*3 + fc: 4*32.
    EXPECT_EQ(net.total_macs(), 8ULL * 8 * 2 * 9 + 4ULL * 32);
}

TEST(network, activations_capture_every_layer)
{
    const network net = tiny_net();
    tensor in({1, 8, 8});
    std::vector<tensor> acts;
    net.forward(in, float_overlay(net), &acts);
    ASSERT_EQ(acts.size(), net.depth());
    EXPECT_EQ(acts[0].shape(), (tensor_shape{2, 8, 8}));
    EXPECT_EQ(acts[2].shape(), (tensor_shape{2, 4, 4}));
}

TEST(network, quant_settings_apply_only_when_enabled)
{
    const network net = tiny_net();
    pcg32 rng(3);
    tensor in({1, 8, 8});
    for (float& v : in.flat()) {
        v = static_cast<float>(rng.uniform(0.0, 1.0));
    }
    const tensor base = net.forward(in, float_overlay(net));
    // Quantizing a layer is a property of the overlay, not the network:
    // a quantized forward leaves later float forwards untouched.
    std::vector<layer_quant> overlay = float_overlay(net);
    overlay[0].weight_bits = 2;
    const tensor quant = net.forward(in, overlay);
    const tensor still_base = net.forward(in, float_overlay(net));
    for (std::size_t i = 0; i < base.size(); ++i) {
        EXPECT_EQ(base.flat()[i], still_base.flat()[i]);
    }
    bool differs = false;
    for (std::size_t i = 0; i < base.size(); ++i) {
        differs |= (base.flat()[i] != quant.flat()[i]);
    }
    EXPECT_TRUE(differs);
}

TEST(network, rejects_overlay_of_wrong_size)
{
    const network net = tiny_net();
    const tensor in({1, 8, 8});
    EXPECT_THROW((void)net.forward(in, std::vector<layer_quant>(2)),
                 std::invalid_argument);
}

// forward_range runs any [first, last) slice: chained slices reproduce the
// whole forward bit for bit; a reversed or overlong range, or a
// wrong-shaped network input, throws.
TEST(network, bound_forward_range_chains_slices)
{
    const network net = tiny_net();
    const bound_network bound(net, float_overlay(net));
    tensor in({1, 8, 8});
    pcg32 rng(4);
    for (float& v : in.flat()) {
        v = static_cast<float>(rng.gaussian(0.0, 1.0));
    }
    const tensor whole = bound.forward(in);
    const tensor mid = bound.forward_range(0, 2, in);
    const tensor out = bound.forward_range(2, net.depth(), mid);
    ASSERT_EQ(out.shape(), whole.shape());
    for (std::size_t i = 0; i < out.size(); ++i) {
        EXPECT_EQ(out.flat()[i], whole.flat()[i]);
    }
    EXPECT_THROW((void)bound.forward_range(2, 1, mid), std::invalid_argument);
    EXPECT_THROW((void)bound.forward_range(0, net.depth() + 1, in),
                 std::invalid_argument);
    EXPECT_THROW((void)bound.forward_range(0, 2, tensor({1, 4, 4})),
                 std::invalid_argument);
}

// The version stamp: unique per network, renewed by every non-const
// access and on both sides of a move, kept by const reads.
TEST(network, version_stamp_renews_on_writes_and_moves)
{
    network a = tiny_net();
    const network b = tiny_net();
    EXPECT_NE(a.version(), b.version());

    const std::uint64_t v = a.version();
    const network& ca = a;
    (void)ca.at(0);
    (void)ca.forward(tensor({1, 8, 8}), float_overlay(ca));
    EXPECT_EQ(a.version(), v);
    (void)a.at(0);
    EXPECT_NE(a.version(), v);

    const std::uint64_t before = a.version();
    network moved = std::move(a);
    EXPECT_NE(moved.version(), before);
    EXPECT_NE(a.version(), before);
    EXPECT_NE(a.version(), moved.version());
    network target = tiny_net();
    const std::uint64_t target_before = target.version();
    const std::uint64_t source_before = moved.version();
    target = std::move(moved);
    EXPECT_NE(target.version(), target_before);
    EXPECT_NE(target.version(), source_before);
    EXPECT_NE(moved.version(), source_before);
}

} // namespace
} // namespace dvafs
