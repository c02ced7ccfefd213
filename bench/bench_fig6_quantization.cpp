// Reproduces paper Fig. 6: the minimum number of quantization bits per
// layer for (a) weights and (b) input feature maps at 99% relative
// accuracy, for LeNet-5 and AlexNet.
//
// Substitution (DESIGN.md §2): synthetic seeded weights and a float-teacher
// agreement metric stand in for the trained networks and datasets; AlexNet
// runs in its reduced-resolution variant for the execution-based sweep.
// The paper's published per-layer bits are printed alongside.
//
// The sweep runs on the memoized batch_evaluator (blocked-GEMM forwards,
// cached quantized weights, prefix-activation reuse, threaded dataset);
// tests/test_batch_evaluator.cpp pins it probe-for-probe identical to the
// naive full-forward sweep.

#include "core/dvafs.h"

#include <iostream>

using namespace dvafs;

namespace {

void sweep_and_print(const network& net, const quant_sweep_config& cfg,
                     const std::vector<int>& paper_wbits,
                     const std::vector<int>& paper_ibits,
                     const std::string& tag, bench_reporter& report)
{
    const teacher_dataset data = make_teacher_dataset(net, cfg);
    const batch_evaluator eval(net, data, cfg.threads);
    const auto reqs = eval.refine(eval.sweep(cfg), cfg);

    ascii_table t({"layer", "weights[b] model", "weights[b] paper",
                   "inputs[b] model", "inputs[b] paper"});
    for (std::size_t i = 0; i < reqs.size(); ++i) {
        const std::string pw = i < paper_wbits.size()
                                   ? std::to_string(paper_wbits[i])
                                   : std::string("-");
        const std::string pi = i < paper_ibits.size()
                                   ? std::to_string(paper_ibits[i])
                                   : std::string("-");
        t.add_row({reqs[i].layer_name,
                   std::to_string(reqs[i].min_weight_bits), pw,
                   std::to_string(reqs[i].min_input_bits), pi});
        report.add(tag + "." + reqs[i].layer_name + ".weight_bits",
                   reqs[i].min_weight_bits, "bits");
        report.add(tag + "." + reqs[i].layer_name + ".input_bits",
                   reqs[i].min_input_bits, "bits");
    }
    t.print(std::cout);

    const double joint = requirements_accuracy(net, reqs, data);
    std::cout << "joint relative accuracy at the swept bits: "
              << fmt_percent(joint, 1) << " (target "
              << fmt_percent(cfg.target_accuracy, 0) << ")\n";
    report.add(tag + ".joint_accuracy", joint, "-");
}

} // namespace

int main(int argc, char** argv)
{
    bench_reporter report("fig6_quantization", argc, argv);
    quant_sweep_config cfg;
    cfg.images = 20;
    cfg.max_bits = 12;

    print_banner(std::cout,
                 "Fig. 6 -- minimum bits per layer @ 99% relative "
                 "accuracy: LeNet-5 (paper range 1-6b)");
    {
        network net = make_lenet5({.seed = 2017});
        // Paper Fig. 6 (read off the plot, conv+fc layers of LeNet-5).
        sweep_and_print(net, cfg, {5, 3, 2, 2, 2}, {1, 6, 5, 4, 4},
                        "lenet5", report);
    }

    print_banner(std::cout,
                 "Fig. 6 -- minimum bits per layer @ 99% relative "
                 "accuracy: AlexNet, reduced variant (paper range 5-9b)");
    {
        network net = make_alexnet_scaled({.seed = 2017});
        cfg.images = 10; // AlexNet forward passes dominate runtime
        sweep_and_print(net, cfg, {7, 7, 8, 9, 9, 6, 5, 6},
                        {4, 7, 9, 8, 8, 8, 7, 7}, "alexnet_s", report);
    }

    std::cout << "\nNote: absolute bit counts depend on the (synthetic) "
                 "weight distributions; the reproduced claims are the "
                 "layer-to-layer variability and the LeNet < AlexNet "
                 "precision ordering.\n";
    return report.write() ? 0 : 4;
}
