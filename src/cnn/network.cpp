#include "cnn/network.h"

#include <stdexcept>

namespace dvafs {

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
    if (!(input.shape() == input_shape_)) {
        throw std::invalid_argument("network::forward: input shape "
                                    + input.shape().to_string()
                                    + " != " + input_shape_.to_string());
    }
    return forward_from(0, input, quant, activations);
}

tensor network::forward_from(std::size_t first, const tensor& x,
                             const std::vector<layer_quant>& quant,
                             std::vector<tensor>* activations) const
{
    if (quant.size() != layers_.size()) {
        throw std::invalid_argument(
            "network::forward: quant overlay size mismatch");
    }
    if (first > layers_.size()) {
        throw std::invalid_argument(
            "network::forward_from: start index out of range");
    }
    tensor a = x;
    for (std::size_t i = first; i < layers_.size(); ++i) {
        a = layers_[i]->forward(a, quant[i]);
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
