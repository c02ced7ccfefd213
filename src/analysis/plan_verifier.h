// Static invariant checks over a network_plan -- the governor's gate.
//
// A network_plan is a contract between the planner and the streaming
// runtime: the scheduler prices every frame off its per-layer rows and the
// drift probe trusts its accuracy bookkeeping. The verifier asserts the
// invariants the planner promises, without re-running any DP or sweep:
//
//  * one layer row per weighted network layer, each with finite,
//    non-negative energy/time/power;
//  * the roll-up is consistent: total energy and time are the in-order
//    sums of the layer rows, fps inverts total time, avg power is
//    energy over time, savings_factor is baseline/total;
//  * deadline bookkeeping is honest: deadline_met under a positive
//    latency budget implies the total time actually fits it;
//  * against a set of layer frontiers (the governor's cached state):
//    every selected operating point is a member of its layer's frontier,
//    its recorded accuracy loss / activity divisor match the frontier
//    point, planned_accuracy_loss is the sum of the selected losses, and
//    a deadline-feasible selection spends no more than the accuracy
//    budget.
//
// stream_engine runs this on every re-plan and escalation before
// activating the plan; heuristic boot plans are verified without
// frontiers (their points are closed-form, not frontier members).

#pragma once

#include "analysis/diagnostics.h"
#include "cnn/network.h"
#include "core/planner.h"

#include <string>
#include <vector>

namespace dvafs {

lint_report
verify_plan(const network& net, const network_plan& plan,
            const std::vector<layer_frontier>* frontiers = nullptr,
            const std::string& subject = "plan");

} // namespace dvafs
