// Batched frame execution for the streaming runtime.
//
// The scheduler owns the per-frame hot path: it forwards in-flight frames
// through the active plan's binding (fanned out on util/parallel with
// per-frame result slots, so outcomes are bit-identical for any thread
// count), scores each frame against the bound float teacher, and
// attributes every frame's energy to the energy ledger per power domain
// from the plan's envision power decomposition.
//
// Drift diagnosis rides on cnn/quant_analysis's batch_evaluator: a
// window_probe bases the evaluator at the active plan's overlay over the
// most recent frames, so pricing a candidate escalation (bump one layer's
// bits) recomputes only the perturbed suffix -- the same prefix-activation
// caching the offline sweeps use, applied across streamed frames.

#pragma once

#include "cnn/quant_analysis.h"
#include "core/planner.h"
#include "energy/energy_ledger.h"
#include "runtime/scenario.h"

#include <cstdint>
#include <vector>

namespace dvafs {

// One streamed frame's outcome (the per-frame log of the scenario engine).
struct frame_result {
    std::uint64_t frame = 0;    // global frame index
    std::size_t phase = 0;      // index into scenario::phases
    int plan_version = 0;       // governor plan serving this frame
    int predicted = -1;         // argmax under the plan's quantization
    int teacher = -1;           // float-network argmax (drift reference)
    double time_ms = 0.0;       // modeled service time (plan total)
    double energy_mj = 0.0;
    bool deadline_met = true;   // time_ms <= the phase's frame period
};

// The quant overlay a plan schedules: weighted layers at the plan's
// (weight, input) bits, everything else float.
std::vector<layer_quant> plan_overlay(const network& net,
                                      const network_plan& plan);

class stream_scheduler {
public:
    // threads = 0 -> hardware default (the parallel_for convention).
    explicit stream_scheduler(unsigned threads = 0) : threads_(threads) {}

    // Runs `frames` through `served` (bound to plan_overlay(net, plan))
    // and `teacher` (bound to the float overlay), appending one result per
    // frame (input order) to `out` and attributing each frame's energy to
    // `ledger` per power domain. `period_ms` is the *effective* frame
    // period for the per-frame deadline flag (the engine shrinks it under
    // an injected rate burst); `service_scale` multiplies the plan's
    // modeled service time (>1 under an injected service overrun), so a
    // scripted fault shows up as honest per-frame latency without
    // touching the energy attribution.
    void run_batch(const bound_network& served,
                   const bound_network& teacher, const network_plan& plan,
                   const std::vector<tensor>& frames,
                   std::uint64_t first_frame_index, std::size_t phase,
                   int plan_version, double period_ms,
                   double service_scale,
                   std::vector<frame_result>& out,
                   energy_ledger& ledger) const;

private:
    unsigned threads_ = 0;
};

// Sliding-window escalation probe: a batch_evaluator over the last few
// streamed frames (teacher-labelled by their float argmaxes), based at the
// active plan's overlay. accuracy() prices the current plan on the live
// window; accuracy(overlay) prices a candidate escalation by suffix-only
// recomputation. The network must outlive the probe.
class window_probe {
public:
    window_probe(const network& net, std::vector<tensor> window,
                 std::vector<int> teacher_labels,
                 std::vector<layer_quant> base, unsigned threads = 0);
    // Based at the serving binding itself: the base prepares nothing.
    window_probe(const bound_network& base, std::vector<tensor> window,
                 std::vector<int> teacher_labels, unsigned threads = 0);

    double accuracy() const { return eval_.accuracy(eval_.base()); }
    double accuracy(const std::vector<layer_quant>& overlay) const
    {
        return eval_.accuracy(overlay);
    }

private:
    teacher_dataset data_; // declared before eval_ (eval_ references it)
    batch_evaluator eval_;
};

} // namespace dvafs
