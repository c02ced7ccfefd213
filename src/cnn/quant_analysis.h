// Quantization sweeps for the paper's Fig. 6: the minimum per-layer weight
// and input-feature-map precision that retains 99% relative accuracy.
//
// Relative accuracy is measured against the float network itself: a seeded
// synthetic dataset is labelled by the float network (teacher), and a
// quantized configuration scores the fraction of inputs whose argmax
// matches the teacher's. This is exactly the quantization-noise effect the
// paper's metric captures, without the proprietary datasets (DESIGN.md §2).
//
// The hot path is batch_evaluator: the sweep perturbs one layer at a time,
// so for a probe whose overlay matches the evaluator's base configuration
// on layers 0..p-1, the activations entering layer p are bit-identical to
// the base run's -- only the suffix p..depth-1 is recomputed, from a
// per-input activation cache; each probe rebinds the bound base, preparing
// only the weights it changes. Probes also fan out across the dataset on
// util/parallel.h, so results are bit-identical for any thread count.
//
// Sweep and refinement probes are pass/fail, so they run through
// batch_evaluator::passes: inputs are visited hardest first (smallest
// float-teacher top-1 margin, the images a perturbation flips first) and
// a probe stops at the miss that puts it below the target. At the 0.99
// target on a dozen images one miss fails a probe, and most probes in an
// upward bit scan fail, so a failing probe usually stops after one or two
// inputs (one chunk of inputs per worker when threaded); only a passing
// probe runs the whole dataset.

#pragma once

#include "cnn/network.h"
#include "cnn/zoo.h"

#include <cstdint>
#include <string>
#include <vector>

namespace dvafs {

struct quant_sweep_config {
    int images = 24;            // synthetic evaluation inputs
    double target_accuracy = 0.99;
    int max_bits = 12;          // sweep upper bound
    std::uint64_t seed = 7;
    unsigned threads = 0;       // dataset-level workers; 0 = hardware
    // Arithmetic engine the probes execute (cnn/layers.h): f32 sweeps the
    // legacy fake-quantized float path; i16/i8 measure accuracy budgets
    // against the true integer inference the planner prices. The teacher
    // labels always come from the float network either way.
    compute_mode compute = compute_mode::f32;
};

// A labelled synthetic dataset: inputs plus float-teacher argmax labels.
struct teacher_dataset {
    std::vector<tensor> inputs;
    std::vector<int> labels;
};

teacher_dataset make_teacher_dataset(const network& net,
                                     const quant_sweep_config& cfg);

// Result of the per-layer sweep: minimal bits per weighted layer.
struct layer_quant_requirement {
    std::string layer_name;
    std::size_t layer_index = 0;
    int min_weight_bits = 0;
    int min_input_bits = 0;
};

// Per weighted layer: the fraction of zero weights, and the mean fraction
// of zeros (post-ReLU) in the layer's float *input* feature map over the
// dataset -- the zero-guarding statistics behind Table III.
struct layer_sparsity {
    std::string layer_name;
    double weight_sparsity = 0.0;
    double input_sparsity = 0.0;
};

// Memoized, threaded relative-accuracy evaluator. Holds references to the
// network and dataset; both must outlive it and stay unmutated (the
// sim_engine const-read contract -- one immutable network may serve
// concurrent evaluators).
class batch_evaluator {
public:
    // threads = 0 -> hardware default. Results are bit-identical for any
    // thread count: per-input outcomes land in preallocated slots and are
    // reduced in index order.
    batch_evaluator(const network& net, const teacher_dataset& data,
                    unsigned threads = 0);
    // Based at an existing binding, sharing all of its prepared weights.
    batch_evaluator(bound_network base, const teacher_dataset& data,
                    unsigned threads = 0);

    // Replaces the memoization base overlay (default: no quantization,
    // i.e. the float network -- what the Fig. 6 sweep reuses). The
    // per-input activation cache is dropped and lazily rebuilt under the
    // new base on the next probe that can reuse a prefix.
    void set_base(std::vector<layer_quant> base);
    const std::vector<layer_quant>& base() const noexcept
    {
        return base_.overlay();
    }

    // Relative accuracy at `overlay`: per input, the cached base
    // activations cover the longest prefix of layers whose overlay entry
    // equals the base's; only the remaining suffix is recomputed. Exactly
    // equal to a full forward at `overlay` (pinned by
    // tests/test_batch_evaluator.cpp).
    double accuracy(const std::vector<layer_quant>& overlay) const;

    // Exactly accuracy(overlay) >= target, deciding as early as the
    // inputs seen so far allow. Inputs run in probe order (ascending base
    // top-1 margin, ties by index) in chunks of one input per worker;
    // after each chunk the probe fails once the misses exceed the most the
    // target allows, and passes once the remaining inputs could not exceed
    // it. The allowance is computed in accuracy()'s double arithmetic, so
    // boundary and NaN targets decide the same way. Throws as accuracy().
    bool passes(const std::vector<layer_quant>& overlay,
                double target) const;

    // The Fig. 6 per-layer sweep: probe-for-probe identical to the naive
    // sweep, which runs full forwards of the whole dataset per probe.
    // Here each probe is a passes() call on suffix forwards only, so a
    // layer's upward bit scan costs one or two suffix forwards per failed
    // bit-width (1.3-1.9 on average for LeNet-5, AlexNet-S and VGG16-S
    // at 12 images) plus one dataset pass at the bit-width that passes.
    std::vector<layer_quant_requirement>
    sweep(const quant_sweep_config& cfg) const;

    // Joint refinement (see refine_requirements below); its per-round
    // check is a passes() probe.
    std::vector<layer_quant_requirement>
    refine(std::vector<layer_quant_requirement> reqs,
           const quant_sweep_config& cfg) const;

    // Sparsity statistics from the cached *base* activations; requires the
    // default (float) base, which is what Table III measures.
    std::vector<layer_sparsity> sparsity() const;

private:
    void ensure_cache() const;
    void check_overlay(const std::vector<layer_quant>& overlay) const;
    std::size_t suffix_start(const std::vector<layer_quant>& overlay) const;
    // Whether input i's argmax under `overlay` (recomputed from layer p)
    // matches its teacher label.
    bool agrees(std::size_t i, std::size_t p,
                const bound_network& probe) const;
    // passes()' input order, built with the activation cache.
    const std::vector<std::size_t>& probe_order() const;

    const network& net_;
    const teacher_dataset& data_;
    unsigned threads_;
    bound_network base_;
    mutable bool cache_built_ = false;
    mutable std::vector<std::vector<tensor>> acts_; // [input][layer]
    mutable std::vector<std::size_t> order_; // empty until first passes()
};

// Fraction of inputs whose argmax under the quant overlay (one entry per
// layer) equals the teacher label -- the const probing path the sweeps run
// on. One-shot: full forwards, threaded across the dataset (no
// memoization); threads = 0 is the hardware default, 1 restores serial
// execution.
double relative_accuracy(const network& net, const teacher_dataset& data,
                         const std::vector<layer_quant>& overlay,
                         unsigned threads = 0);

// For each weighted layer independently: quantize only that layer's weights
// (resp. inputs) and find the smallest precision meeting the target.
// Probes run on a quant overlay; the network is never mutated. Thin
// wrapper over batch_evaluator::sweep.
std::vector<layer_quant_requirement>
sweep_layer_precision(const network& net, const teacher_dataset& data,
                      const quant_sweep_config& cfg);

// The quant overlay encoding a requirement set (identity for layers
// without a requirement). `compute` selects the engine the overlay runs
// on; layers without a requirement stay f32 (they have no integer grid to
// quantize onto).
std::vector<layer_quant>
requirements_overlay(const network& net,
                     const std::vector<layer_quant_requirement>& req,
                     compute_mode compute = compute_mode::f32);

// Joint relative accuracy at a requirement set: relative_accuracy under
// requirements_overlay(net, req, compute).
double requirements_accuracy(const network& net,
                             const std::vector<layer_quant_requirement>& req,
                             const teacher_dataset& data,
                             unsigned threads = 0,
                             compute_mode compute = compute_mode::f32);

// Joint refinement: per-layer thresholds do not compose (quantization noise
// accumulates across layers), so the paper's methodology raises precisions
// until the *joint* configuration meets the target. This implementation
// bumps every layer still below cfg.max_bits by one bit per round, which
// preserves the layer-to-layer precision profile of the sweep.
std::vector<layer_quant_requirement>
refine_requirements(const network& net,
                    std::vector<layer_quant_requirement> reqs,
                    const teacher_dataset& data,
                    const quant_sweep_config& cfg);

std::vector<layer_sparsity> measure_sparsity(const network& net,
                                             const teacher_dataset& data);

} // namespace dvafs
