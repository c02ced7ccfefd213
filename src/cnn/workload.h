// Layer workload descriptors: the per-layer MAC counts, tensor sizes and
// sparsity levels that the Envision model maps to power and efficiency
// (Table III's "MMACS/frame" column and friends).

#pragma once

#include "cnn/network.h"

#include <cstdint>
#include <string>
#include <vector>

namespace dvafs {

struct layer_workload {
    std::string name;
    bool is_conv = false;
    std::uint64_t macs = 0;        // multiply-accumulates per frame
    std::uint64_t weight_count = 0;
    std::uint64_t input_elems = 0;
    std::uint64_t output_elems = 0;
    // Quantization / sparsity parameters for the energy model (filled by
    // the caller from quant_analysis or from the paper's reported values).
    int weight_bits = 16;
    int input_bits = 16;
    double weight_sparsity = 0.0;
    double input_sparsity = 0.0;
    // Arithmetic engine the layer's forward pass runs (cnn/layers.h): the
    // mode selector must not schedule a subword configuration wider than
    // the engine's lanes (an i8 layer never executes 1x16 arithmetic).
    // extract_workloads leaves f32; the precision planner sets it.
    compute_mode compute = compute_mode::f32;
};

// Extracts the weighted layers of `net` as workload descriptors.
std::vector<layer_workload> extract_workloads(const network& net);

// Sum of MACs over all workloads [M MACs].
double total_mmacs(const std::vector<layer_workload>& w);

} // namespace dvafs
