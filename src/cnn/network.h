// Sequential network container. A network stores its layers and weights
// only; the precision each layer runs at is an external overlay (one
// layer_quant per layer), bound to it by a bound_network, so one immutable
// network can serve many concurrent precision probes.

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

    // One-shot bound_network(*this, quant).forward(input, activations). A
    // default overlay, std::vector<layer_quant>(depth()), runs the float
    // network.
    tensor forward(const tensor& input,
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

// A network bound to one quant overlay: each weighted layer's weights
// prepared once (layer::prepare), held until the last binding sharing
// them dies -- an f32 binding of VGG16-S holds about 1.2 MB of conv
// panels, AlexNet-S 1.9 MB. forward() is const and lock-free, so one
// binding serves any number of threads. A binding is a snapshot: after
// mutating weights, rebind. The network must outlive the binding.
class bound_network {
public:
    bound_network(const network& net, std::vector<layer_quant> overlay)
        : bound_network(net, std::move(overlay), nullptr)
    {
    }
    // Rebinds base's network, sharing base's prepared weights for every
    // layer whose (weight_bits, compute) key is unchanged.
    bound_network(const bound_network& base,
                  std::vector<layer_quant> overlay)
        : bound_network(*base.net_, std::move(overlay), &base)
    {
    }

    const network& net() const noexcept { return *net_; }
    const std::vector<layer_quant>& overlay() const noexcept
    {
        return overlay_;
    }
    // Layer i's prepared weights (null for a layer without weights).
    const prepared_weights* prepared(std::size_t i) const
    {
        return prepared_.at(i).get();
    }

    // `activations`, when non-null, receives each layer's output;
    // forward_from runs layers [first, depth) on `x`, layer first's input.
    tensor forward(const tensor& input,
                   std::vector<tensor>* activations = nullptr) const;
    tensor forward_from(std::size_t first, const tensor& x,
                        std::vector<tensor>* activations = nullptr) const;

private:
    bound_network(const network& net, std::vector<layer_quant> overlay,
                  const bound_network* base);

    const network* net_;
    std::vector<layer_quant> overlay_;
    std::vector<std::shared_ptr<const prepared_weights>> prepared_;
};

} // namespace dvafs
