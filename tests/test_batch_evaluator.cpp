// Sweep-equivalence suite: the memoized batch_evaluator must return
// *identical* layer_quant_requirements and *identical* accuracy at every
// probed bit-width as the naive full-forward sweep, at 1 and N threads.
// This pins the prefix-memoization invariant (layers before the perturbed
// one are bit-identical across the bit loop, so reusing their cached
// activations changes nothing), the thread-count invariance of the pool
// discipline, and the early-exit pass/fail probe: passes(o, t) is exactly
// accuracy(o) >= t, at every target and with a non-zero miss allowance.

#include "cnn/quant_analysis.h"
#include "util/rng.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>

namespace dvafs {
namespace {

// The pre-PR sweep loop: one serial full forward per probe, no
// memoization. Kept verbatim as the equivalence baseline.
double naive_accuracy(const network& net, const teacher_dataset& data,
                      const std::vector<layer_quant>& overlay)
{
    std::size_t agree = 0;
    for (std::size_t i = 0; i < data.inputs.size(); ++i) {
        agree +=
            argmax(net.forward(data.inputs[i], overlay)) == data.labels[i];
    }
    return static_cast<double>(agree)
           / static_cast<double>(data.inputs.size());
}

std::vector<layer_quant_requirement>
naive_sweep(const network& net, const teacher_dataset& data,
            const quant_sweep_config& cfg)
{
    std::vector<layer_quant> overlay(net.depth());
    std::vector<layer_quant_requirement> out;
    for (const std::size_t li : net.weighted_layers()) {
        layer_quant_requirement req;
        req.layer_index = li;
        req.layer_name = net.at(li).name();
        req.min_weight_bits = cfg.max_bits;
        for (int bits = 1; bits <= cfg.max_bits; ++bits) {
            overlay[li] = layer_quant{.weight_bits = bits, .input_bits = 0};
            if (naive_accuracy(net, data, overlay)
                >= cfg.target_accuracy) {
                req.min_weight_bits = bits;
                break;
            }
        }
        req.min_input_bits = cfg.max_bits;
        for (int bits = 1; bits <= cfg.max_bits; ++bits) {
            overlay[li] = layer_quant{.weight_bits = 0, .input_bits = bits};
            if (naive_accuracy(net, data, overlay)
                >= cfg.target_accuracy) {
                req.min_input_bits = bits;
                break;
            }
        }
        overlay[li] = layer_quant{};
        out.push_back(req);
    }
    return out;
}

// The refinement loop on naive_accuracy: refine()'s equivalence baseline.
std::vector<layer_quant_requirement>
naive_refine(const network& net, const teacher_dataset& data,
             std::vector<layer_quant_requirement> reqs,
             const quant_sweep_config& cfg)
{
    for (int round = 0; round < cfg.max_bits; ++round) {
        if (naive_accuracy(net, data, requirements_overlay(net, reqs))
            >= cfg.target_accuracy) {
            break;
        }
        bool changed = false;
        for (layer_quant_requirement& r : reqs) {
            if (r.min_weight_bits < cfg.max_bits) {
                ++r.min_weight_bits;
                changed = true;
            }
            if (r.min_input_bits < cfg.max_bits) {
                ++r.min_input_bits;
                changed = true;
            }
        }
        if (!changed) {
            break;
        }
    }
    return reqs;
}

void expect_same_requirements(
    const std::vector<layer_quant_requirement>& a,
    const std::vector<layer_quant_requirement>& b)
{
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].layer_name, b[i].layer_name);
        EXPECT_EQ(a[i].layer_index, b[i].layer_index);
        EXPECT_EQ(a[i].min_weight_bits, b[i].min_weight_bits)
            << a[i].layer_name;
        EXPECT_EQ(a[i].min_input_bits, b[i].min_input_bits)
            << a[i].layer_name;
    }
}

class batch_evaluator_test : public ::testing::Test {
protected:
    static const network& net()
    {
        static const network n = make_lenet5({.seed = 3});
        return n;
    }
    static quant_sweep_config cfg()
    {
        quant_sweep_config c;
        c.images = 10;
        c.max_bits = 10;
        return c;
    }
    static const teacher_dataset& data()
    {
        static const teacher_dataset d =
            make_teacher_dataset(net(), cfg());
        return d;
    }
};

// Targets the sweep and refinement tests run at. On 10 images 0.99 allows
// no miss; 0.8 and 0.5 allow 2 and 5, so a probe's early exit has to count
// past the first miss.
constexpr double targets[] = {0.99, 0.8, 0.5};

TEST_F(batch_evaluator_test, sweep_identical_to_naive_at_1_and_n_threads)
{
    const batch_evaluator serial(net(), data(), 1);
    const batch_evaluator threaded(net(), data(), 4);
    for (const double target : targets) {
        SCOPED_TRACE(target);
        quant_sweep_config c = cfg();
        c.target_accuracy = target;
        const auto want = naive_sweep(net(), data(), c);
        expect_same_requirements(serial.sweep(c), want);
        expect_same_requirements(threaded.sweep(c), want);
    }
}

TEST_F(batch_evaluator_test, accuracy_identical_at_every_probed_bit_width)
{
    const batch_evaluator serial(net(), data(), 1);
    const batch_evaluator threaded(net(), data(), 4);
    std::vector<layer_quant> overlay(net().depth());
    for (const std::size_t li : net().weighted_layers()) {
        for (int bits = 1; bits <= cfg().max_bits; ++bits) {
            for (const layer_quant q :
                 {layer_quant{.weight_bits = bits, .input_bits = 0},
                  layer_quant{.weight_bits = 0, .input_bits = bits}}) {
                overlay[li] = q;
                const double want = naive_accuracy(net(), data(), overlay);
                EXPECT_EQ(serial.accuracy(overlay), want)
                    << "layer " << li << " bits " << bits;
                EXPECT_EQ(threaded.accuracy(overlay), want)
                    << "layer " << li << " bits " << bits;
            }
        }
        overlay[li] = layer_quant{};
    }
}

TEST_F(batch_evaluator_test, refine_identical_to_naive_refinement)
{
    // Deliberately too-low starting point so refinement has rounds to run.
    std::vector<layer_quant_requirement> start;
    for (const std::size_t li : net().weighted_layers()) {
        layer_quant_requirement r;
        r.layer_index = li;
        r.layer_name = net().at(li).name();
        r.min_weight_bits = 1;
        r.min_input_bits = 1;
        start.push_back(r);
    }

    const batch_evaluator serial(net(), data(), 1);
    const batch_evaluator threaded(net(), data(), 4);
    for (const double target : targets) {
        SCOPED_TRACE(target);
        quant_sweep_config c = cfg();
        c.target_accuracy = target;
        const auto want = naive_refine(net(), data(), start, c);
        expect_same_requirements(serial.refine(start, c), want);
        expect_same_requirements(threaded.refine(start, c), want);
    }
}

TEST_F(batch_evaluator_test, non_identity_base_reuses_prefix_exactly)
{
    // Base the evaluator at a joint requirement configuration (the
    // planner's downgrade-probe pattern) and check probes differing in one
    // deep layer still match the naive full forward.
    std::vector<layer_quant> base(net().depth());
    for (const std::size_t li : net().weighted_layers()) {
        base[li] = {.weight_bits = 7, .input_bits = 7};
    }
    batch_evaluator eval(net(), data(), 2);
    eval.set_base(base);

    EXPECT_EQ(eval.accuracy(base), naive_accuracy(net(), data(), base));
    const std::vector<std::size_t> weighted = net().weighted_layers();
    for (const std::size_t li : {weighted[2], weighted.back()}) {
        std::vector<layer_quant> probe = base;
        probe[li] = {.weight_bits = 2, .input_bits = 2};
        EXPECT_EQ(eval.accuracy(probe),
                  naive_accuracy(net(), data(), probe))
            << "probe at layer " << li;
    }
}

TEST_F(batch_evaluator_test, sparsity_identical_to_free_function)
{
    const batch_evaluator serial(net(), data(), 1);
    const batch_evaluator threaded(net(), data(), 4);
    const auto a = serial.sparsity();
    const auto b = threaded.sparsity();
    const auto c = measure_sparsity(net(), data());
    ASSERT_EQ(a.size(), b.size());
    ASSERT_EQ(a.size(), c.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].weight_sparsity, b[i].weight_sparsity);
        EXPECT_EQ(a[i].input_sparsity, b[i].input_sparsity);
        EXPECT_EQ(a[i].weight_sparsity, c[i].weight_sparsity);
        EXPECT_EQ(a[i].input_sparsity, c[i].input_sparsity);
    }
}

TEST_F(batch_evaluator_test, rejects_bad_shapes)
{
    const batch_evaluator eval(net(), data());
    EXPECT_THROW((void)eval.accuracy(std::vector<layer_quant>(3)),
                 std::invalid_argument);
    batch_evaluator mut(net(), data());
    EXPECT_THROW(mut.set_base(std::vector<layer_quant>(2)),
                 std::invalid_argument);

    EXPECT_THROW((void)eval.passes(std::vector<layer_quant>(3), 0.5),
                 std::invalid_argument);

    const teacher_dataset empty;
    const batch_evaluator no_data(net(), empty);
    EXPECT_THROW(
        (void)no_data.accuracy(std::vector<layer_quant>(net().depth())),
        std::invalid_argument);
    // Even a target every probe meets does not skip the check.
    EXPECT_THROW(
        (void)no_data.passes(std::vector<layer_quant>(net().depth()), 0.0),
        std::invalid_argument);
}

// Every target whose decision can flip on n images: each k/n, its two
// floating-point neighbours, the infinities, and NaN.
std::vector<double> boundary_targets(std::size_t n)
{
    std::vector<double> out;
    for (std::size_t k = 0; k <= n; ++k) {
        const double t =
            static_cast<double>(k) / static_cast<double>(n);
        out.push_back(t);
        out.push_back(std::nextafter(t, -1.0));
        out.push_back(std::nextafter(t, 2.0));
    }
    out.push_back(-std::numeric_limits<double>::infinity());
    out.push_back(std::numeric_limits<double>::infinity());
    out.push_back(std::numeric_limits<double>::quiet_NaN());
    return out;
}

// A random overlay quantizing one weighted layer (single = true) or every
// weighted layer. The bit ranges are low enough that the fixture's
// accuracies spread over 0.1 .. 1.0.
std::vector<layer_quant> random_overlay(const network& net, pcg32& rng,
                                        bool single)
{
    std::vector<layer_quant> overlay(net.depth());
    const std::vector<std::size_t> weighted = net.weighted_layers();
    const auto draw = [&](int hi) {
        return layer_quant{
            .weight_bits = static_cast<int>(rng.range(2, hi)),
            .input_bits = static_cast<int>(rng.range(2, hi))};
    };
    if (single) {
        overlay[weighted[rng.bounded(
            static_cast<std::uint32_t>(weighted.size()))]] = draw(5);
    } else {
        for (const std::size_t li : weighted) {
            overlay[li] = draw(6);
        }
    }
    return overlay;
}

TEST_F(batch_evaluator_test, passes_property_equals_accuracy_at_target)
{
    std::vector<layer_quant> quantized_base(net().depth());
    for (const std::size_t li : net().weighted_layers()) {
        quantized_base[li] = {.weight_bits = 5, .input_bits = 5};
    }
    const std::vector<double> ts = boundary_targets(data().inputs.size());
    for (const unsigned threads : {1U, 4U}) {
        // Float base, and a quantized base whose probe order differs.
        batch_evaluator float_base(net(), data(), threads);
        batch_evaluator requant_base(net(), data(), threads);
        requant_base.set_base(quantized_base);
        pcg32 rng(99);
        for (int trial = 0; trial < 8; ++trial) {
            const auto overlay = random_overlay(net(), rng, trial % 2 == 0);
            const double acc = naive_accuracy(net(), data(), overlay);
            for (const batch_evaluator* eval :
                 {&float_base, &requant_base}) {
                ASSERT_EQ(eval->accuracy(overlay), acc);
                for (const double t : ts) {
                    EXPECT_EQ(eval->passes(overlay, t), acc >= t)
                        << "threads " << threads << " trial " << trial
                        << " accuracy " << acc << " target " << t;
                }
            }
        }
    }
}

// Sparsity from full float forwards: the baseline of
// zoo_results_match_full_forwards.
std::vector<double> naive_input_sparsity(const network& net,
                                         const teacher_dataset& data)
{
    const std::vector<std::size_t> weighted = net.weighted_layers();
    std::vector<double> out(weighted.size(), 0.0);
    for (const tensor& x : data.inputs) {
        std::vector<tensor> acts;
        net.forward(x, std::vector<layer_quant>(net.depth()), &acts);
        for (std::size_t k = 0; k < weighted.size(); ++k) {
            out[k] += (weighted[k] == 0 ? x : acts[weighted[k] - 1])
                          .sparsity();
        }
    }
    for (double& v : out) {
        v /= static_cast<double>(data.inputs.size());
    }
    return out;
}

// The evaluator caches only each weighted layer's input and the logits.
// On every runtime zoo network its accuracy, passes and sparsity still
// equal full forwards -- for probes first differing at a weighted layer
// and for probes first differing at a ReLU or pool, which resume from the
// nearest cached input before it.
TEST(batch_evaluator_cache, zoo_results_match_full_forwards)
{
    quant_sweep_config c;
    c.images = 4;
    std::vector<network> nets;
    nets.push_back(make_lenet5({.seed = 5}));
    nets.push_back(make_alexnet_scaled({.seed = 5}));
    nets.push_back(make_vgg16_scaled({.seed = 5}));
    for (const network& net : nets) {
        SCOPED_TRACE(net.name());
        const teacher_dataset data = make_teacher_dataset(net, c);
        const batch_evaluator eval(net, data, 2);
        const std::vector<std::size_t> weighted = net.weighted_layers();

        std::vector<std::vector<layer_quant>> probes;
        for (const std::size_t li : weighted) {
            std::vector<layer_quant> o(net.depth());
            o[li] = {.weight_bits = 3, .input_bits = 4};
            probes.push_back(o);
        }
        for (std::size_t li = 0; li < net.depth(); ++li) {
            if (net.at(li).weight_count() > 0) {
                continue;
            }
            std::vector<layer_quant> o(net.depth());
            o[li] = {.weight_bits = 0, .input_bits = 2};
            const auto next = std::upper_bound(weighted.begin(),
                                               weighted.end(), li);
            if (next != weighted.end()) {
                o[*next] = {.weight_bits = 2, .input_bits = 0};
            }
            probes.push_back(o);
        }
        for (const auto& overlay : probes) {
            const double acc = naive_accuracy(net, data, overlay);
            EXPECT_EQ(eval.accuracy(overlay), acc);
            for (const double t : {0.25, 0.5, 0.75, 1.0}) {
                EXPECT_EQ(eval.passes(overlay, t), acc >= t);
            }
        }

        const std::vector<layer_sparsity> got = eval.sparsity();
        const std::vector<double> want = naive_input_sparsity(net, data);
        ASSERT_EQ(got.size(), want.size());
        for (std::size_t k = 0; k < got.size(); ++k) {
            EXPECT_EQ(got[k].input_sparsity, want[k]) << got[k].layer_name;
        }
    }
}

} // namespace
} // namespace dvafs
