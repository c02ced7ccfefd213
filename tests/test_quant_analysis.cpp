#include "cnn/quant_analysis.h"

#include <gtest/gtest.h>

namespace dvafs {
namespace {

// Shared LeNet fixture: sweeps are expensive, build once.
class quant_analysis_test : public ::testing::Test {
protected:
    static const network& net()
    {
        static const network n = make_lenet5({.seed = 3});
        return n;
    }
    static std::vector<layer_quant> float_overlay()
    {
        return std::vector<layer_quant>(net().depth());
    }
    static const teacher_dataset& data()
    {
        static const teacher_dataset d =
            make_teacher_dataset(net(), cfg());
        return d;
    }
    static quant_sweep_config cfg()
    {
        quant_sweep_config c;
        c.images = 12;
        c.max_bits = 10;
        return c;
    }
};

TEST_F(quant_analysis_test, teacher_dataset_is_deterministic)
{
    const teacher_dataset d1 = make_teacher_dataset(net(), cfg());
    const teacher_dataset d2 = make_teacher_dataset(net(), cfg());
    ASSERT_EQ(d1.labels.size(), 12U);
    EXPECT_EQ(d1.labels, d2.labels);
}

TEST_F(quant_analysis_test, float_network_has_perfect_relative_accuracy)
{
    EXPECT_DOUBLE_EQ(relative_accuracy(net(), data(), float_overlay()),
                     1.0);
}

TEST_F(quant_analysis_test, high_precision_keeps_accuracy)
{
    std::vector<layer_quant> overlay = float_overlay();
    for (layer_quant& q : overlay) {
        q = {.weight_bits = 12, .input_bits = 12};
    }
    EXPECT_GE(relative_accuracy(net(), data(), overlay), 0.99);
}

TEST_F(quant_analysis_test, one_bit_everywhere_destroys_accuracy)
{
    std::vector<layer_quant> overlay = float_overlay();
    for (const std::size_t li : net().weighted_layers()) {
        overlay[li].weight_bits = 1;
    }
    EXPECT_LT(relative_accuracy(net(), data(), overlay), 0.99);
}

TEST_F(quant_analysis_test, sweep_finds_small_bit_requirements)
{
    const auto reqs = sweep_layer_precision(net(), data(), cfg());
    ASSERT_EQ(reqs.size(), 5U);
    for (const layer_quant_requirement& r : reqs) {
        // Paper Fig. 6: LeNet-5 needs 1-6 bits per layer; synthetic
        // weights may shift this, but it must stay well below 16.
        EXPECT_GE(r.min_weight_bits, 1);
        EXPECT_LE(r.min_weight_bits, 10) << r.layer_name;
        EXPECT_GE(r.min_input_bits, 1);
        EXPECT_LE(r.min_input_bits, 10) << r.layer_name;
    }
    // Sweep must not leave quantization behind.
    EXPECT_DOUBLE_EQ(relative_accuracy(net(), data(), float_overlay()),
                     1.0);
}

TEST_F(quant_analysis_test, joint_requirements_hold_accuracy)
{
    const auto reqs = sweep_layer_precision(net(), data(), cfg());
    const double acc = requirements_accuracy(net(), reqs, data());
    // Per-layer thresholds do not compose exactly (quantization noise from
    // all layers adds up); require the joint config to stay within a few
    // teacher disagreements of the target on this small dataset.
    EXPECT_GE(acc, 0.75);
}

TEST_F(quant_analysis_test, sparsity_measurement_sane)
{
    const auto sp = measure_sparsity(net(), data());
    ASSERT_EQ(sp.size(), 5U);
    for (const layer_sparsity& s : sp) {
        EXPECT_GE(s.weight_sparsity, 0.0);
        EXPECT_LE(s.weight_sparsity, 1.0);
        EXPECT_GE(s.input_sparsity, 0.0);
        EXPECT_LE(s.input_sparsity, 1.0);
    }
    // Weight sparsity should reflect the zoo's pruning default (0.2).
    EXPECT_NEAR(sp[0].weight_sparsity, 0.2, 0.1);
    // Post-ReLU inputs of deeper layers are sparse (paper Table III: up to
    // ~89% input sparsity); at least one layer should exceed 30%.
    bool any_sparse = false;
    for (std::size_t i = 1; i < sp.size(); ++i) {
        any_sparse |= (sp[i].input_sparsity > 0.3);
    }
    EXPECT_TRUE(any_sparse);
}

TEST(quant_analysis, empty_dataset_rejected)
{
    const network net = make_lenet5();
    const teacher_dataset empty;
    EXPECT_THROW((void)relative_accuracy(
                     net, empty, std::vector<layer_quant>(net.depth())),
                 std::invalid_argument);
    EXPECT_THROW((void)measure_sparsity(net, empty),
                 std::invalid_argument);
}

} // namespace
} // namespace dvafs
