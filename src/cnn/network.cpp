#include "cnn/network.h"

#include <atomic>
#include <stdexcept>
#include <utility>

namespace dvafs {

std::uint64_t network::next_version() noexcept
{
    static std::atomic<std::uint64_t> counter{0};
    return ++counter;
}

network::network(network&& other) noexcept
    : name_(std::move(other.name_)), input_shape_(other.input_shape_),
      layers_(std::move(other.layers_))
{
    other.version_ = next_version();
}

network& network::operator=(network&& other) noexcept
{
    name_ = std::move(other.name_);
    input_shape_ = other.input_shape_;
    layers_ = std::move(other.layers_);
    version_ = next_version();
    other.version_ = next_version();
    return *this;
}

std::vector<std::size_t> network::weighted_layers() const
{
    std::vector<std::size_t> idx;
    for (std::size_t i = 0; i < layers_.size(); ++i) {
        if (layers_[i]->weight_count() > 0) {
            idx.push_back(i);
        }
    }
    return idx;
}

tensor network::forward(const tensor& input,
                        const std::vector<layer_quant>& quant,
                        std::vector<tensor>* activations) const
{
    return bound_network(*this, quant).forward(input, activations);
}

bound_network::bound_network(const network& net,
                             std::vector<layer_quant> overlay,
                             const bound_network* base)
    : net_(&net), overlay_(std::move(overlay))
{
    if (overlay_.size() != net.depth()) {
        throw std::invalid_argument(
            "bound_network: quant overlay size mismatch");
    }
    for (std::size_t i = 0; i < overlay_.size(); ++i) {
        const layer_quant& q = overlay_[i];
        prepared_.push_back(
            base != nullptr && q.weight_bits == base->overlay_[i].weight_bits
                    && q.compute == base->overlay_[i].compute
                ? base->prepared_[i]
                : net.at(i).prepare(q));
    }
}

tensor bound_network::forward(const tensor& input,
                              std::vector<tensor>* activations) const
{
    return forward_range(0, overlay_.size(), input, activations);
}

tensor bound_network::forward_range(std::size_t first, std::size_t last,
                                    const tensor& x,
                                    std::vector<tensor>* activations) const
{
    if (first > last || last > overlay_.size()) {
        throw std::invalid_argument(
            "bound_network::forward_range: layer range out of bounds");
    }
    if (first == 0 && !(x.shape() == net_->input_shape())) {
        throw std::invalid_argument("bound_network: input shape "
                                    + x.shape().to_string() + " != "
                                    + net_->input_shape().to_string());
    }
    tensor a = x;
    for (std::size_t i = first; i < last; ++i) {
        a = net_->at(i).run(a, overlay_[i], prepared_[i].get());
        if (activations != nullptr) {
            activations->push_back(a);
        }
    }
    return a;
}

tensor network::reference_forward(
    const tensor& input, const std::vector<layer_quant>& quant) const
{
    if (quant.size() != layers_.size()) {
        throw std::invalid_argument(
            "network::reference_forward: quant overlay size mismatch");
    }
    if (!(input.shape() == input_shape_)) {
        throw std::invalid_argument(
            "network::reference_forward: input shape "
            + input.shape().to_string() + " != "
            + input_shape_.to_string());
    }
    tensor x = input;
    for (std::size_t i = 0; i < layers_.size(); ++i) {
        x = layers_[i]->reference_forward(x, quant[i]);
    }
    return x;
}

std::uint64_t network::total_macs() const
{
    std::uint64_t total = 0;
    tensor_shape s = input_shape_;
    for (const auto& l : layers_) {
        total += l->macs(s);
        s = l->out_shape(s);
    }
    return total;
}

tensor_shape network::output_shape() const
{
    tensor_shape s = input_shape_;
    for (const auto& l : layers_) {
        s = l->out_shape(s);
    }
    return s;
}

} // namespace dvafs
