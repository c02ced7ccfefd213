#include "runtime/stream_scheduler.h"

#include "envision/envision.h"
#include "util/parallel.h"

#include <stdexcept>
#include <utility>

namespace dvafs {

std::vector<layer_quant> plan_overlay(const network& net,
                                      const network_plan& plan)
{
    const std::vector<std::size_t> weighted = net.weighted_layers();
    if (weighted.size() != plan.layers.size()) {
        throw std::invalid_argument(
            "plan_overlay: plan does not match the network");
    }
    std::vector<layer_quant> overlay(net.depth());
    for (std::size_t k = 0; k < weighted.size(); ++k) {
        overlay[weighted[k]].weight_bits = plan.layers[k].weight_bits;
        overlay[weighted[k]].input_bits = plan.layers[k].input_bits;
    }
    return overlay;
}

void stream_scheduler::run_batch(const bound_network& served,
                                 const bound_network& teacher,
                                 const network_plan& plan,
                                 const std::vector<tensor>& frames,
                                 std::uint64_t first_frame_index,
                                 std::size_t phase, int plan_version,
                                 double period_ms, double service_scale,
                                 std::vector<frame_result>& out,
                                 energy_ledger& ledger) const
{
    // Quantized + teacher forwards fan out per frame into preallocated
    // slots; the serial tail below reads them in index order, so the log
    // and the ledger are bit-identical for any thread count.
    std::vector<std::pair<int, int>> argmaxes(frames.size());
    parallel_for(frames.size(), threads_, [&](std::size_t i) {
        argmaxes[i].first = argmax(served.forward(frames[i]));
        argmaxes[i].second = argmax(teacher.forward(frames[i]));
    });

    for (std::size_t i = 0; i < frames.size(); ++i) {
        frame_result fr;
        fr.frame = first_frame_index + i;
        fr.phase = phase;
        fr.plan_version = plan_version;
        fr.predicted = argmaxes[i].first;
        fr.teacher = argmaxes[i].second;
        fr.time_ms = plan.total_time_ms * service_scale;
        fr.energy_mj = plan.total_energy_mj;
        fr.deadline_met = period_ms <= 0.0 || fr.time_ms <= period_ms;
        out.push_back(fr);

        // Per-domain attribution from the plan's power decomposition:
        // mW x ms = uJ = 1e6 pJ per layer and domain.
        for (const layer_plan& lp : plan.layers) {
            for (const power_domain d :
                 {power_domain::mem, power_domain::nas,
                  power_domain::as}) {
                ledger.add_pj(d,
                              domain_mw(lp.report, d) * lp.time_ms * 1e6);
            }
        }
    }
}

window_probe::window_probe(const network& net, std::vector<tensor> window,
                           std::vector<int> teacher_labels,
                           std::vector<layer_quant> base, unsigned threads)
    : window_probe(bound_network(net, std::move(base)), std::move(window),
                   std::move(teacher_labels), threads)
{
}

window_probe::window_probe(const bound_network& base,
                           std::vector<tensor> window,
                           std::vector<int> teacher_labels, unsigned threads)
    : data_{std::move(window), std::move(teacher_labels)},
      eval_(base, data_, threads)
{
}

} // namespace dvafs
