#include "cnn/workload.h"

namespace dvafs {

std::vector<layer_workload> extract_workloads(const network& net)
{
    std::vector<layer_workload> out;
    tensor_shape s = net.input_shape();
    for (std::size_t i = 0; i < net.depth(); ++i) {
        const layer& l = net.at(i);
        const tensor_shape os = l.out_shape(s);
        if (l.weight_count() > 0) {
            layer_workload w;
            w.name = l.name();
            w.is_conv = dynamic_cast<const conv_layer*>(&l) != nullptr;
            w.macs = l.macs(s);
            w.weight_count = l.weight_count();
            w.input_elems = s.elements();
            w.output_elems = os.elements();
            out.push_back(w);
        }
        s = os;
    }
    return out;
}

double total_mmacs(const std::vector<layer_workload>& w)
{
    double total = 0.0;
    for (const layer_workload& l : w) {
        total += static_cast<double>(l.macs) * 1e-6;
    }
    return total;
}

} // namespace dvafs
