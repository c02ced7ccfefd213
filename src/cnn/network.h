// Sequential network container. A network stores its layers and weights
// only; the precision each layer runs at is an external overlay (one
// layer_quant per layer) passed to every forward, so one immutable network
// can serve many concurrent precision probes.

#pragma once

#include "cnn/layers.h"

#include <memory>
#include <string>
#include <vector>

namespace dvafs {

class network {
public:
    network(std::string name, tensor_shape input_shape)
        : name_(std::move(name)), input_shape_(input_shape)
    {
    }

    network(network&&) = default;
    network& operator=(network&&) = default;

    const std::string& name() const noexcept { return name_; }
    const tensor_shape& input_shape() const noexcept { return input_shape_; }

    void add(std::unique_ptr<layer> l)
    {
        layers_.push_back(std::move(l));
    }

    std::size_t depth() const noexcept { return layers_.size(); }
    layer& at(std::size_t i) { return *layers_.at(i); }
    const layer& at(std::size_t i) const { return *layers_.at(i); }

    // Indices of the layers that carry weights (conv + fc): the layers the
    // paper's Fig. 6 sweeps over.
    std::vector<std::size_t> weighted_layers() const;

    // Forward pass under a quant overlay (one entry per layer); a
    // default-constructed overlay, std::vector<layer_quant>(depth()), runs
    // the float network. This is the const sweep path: the precision
    // planner probes many configurations against one immutable network
    // shared across threads (the sim_engine const-read contract). If
    // `activations` is non-null it receives each layer's output (for
    // sparsity and range statistics).
    tensor forward(const tensor& input,
                   const std::vector<layer_quant>& quant,
                   std::vector<tensor>* activations = nullptr) const;

    // Runs only layers [first, depth) on `x`, the activation *entering*
    // layer `first`, under the overlay. This is the suffix path of the
    // memoized batch_evaluator (cnn/quant_analysis.h): when an overlay
    // perturbs no layer before `first`, the prefix activations are
    // bit-identical to a cached base run and need not be recomputed.
    // forward() is the first = 0 case after its input-shape check.
    tensor forward_from(std::size_t first, const tensor& x,
                        const std::vector<layer_quant>& quant,
                        std::vector<tensor>* activations = nullptr) const;

    // End-to-end pass through layer::reference_forward (the pre-GEMM naive
    // loops, per-call weight quantization): the differential baseline for
    // tests and the speedup benches.
    tensor reference_forward(const tensor& input,
                             const std::vector<layer_quant>& quant) const;

    // Total multiply-accumulates of one forward pass.
    std::uint64_t total_macs() const;

    // Output shape after all layers.
    tensor_shape output_shape() const;

private:
    std::string name_;
    tensor_shape input_shape_;
    std::vector<std::unique_ptr<layer>> layers_;
};

} // namespace dvafs
