// Operating-point sweep grids for the DVAFS multiplier.
//
// A sweep point names one hardware configuration to measure: subword mode,
// effective precision (structural DAS gating in 1xW, per-lane data
// truncation in subword modes), and optionally a supply voltage and clock
// frequency. Grids are plain data; the threaded engine in sim/engine.h
// measures every point over an identical input stream and sim/result.h
// merges the records into energy/error/throughput reports.
//
// operating_point_spec doubles as the identity of a measured point
// everywhere above this layer: the Pareto frontier (core/pareto.h) keys
// its measurements on it, planner layer_plans carry it, and the streaming
// runtime swaps specs when the governor re-plans. Vdd/f of 0 mean
// "derive from the tech model" (nominal supply / constant-throughput
// clock); see docs/glossary.md for the keep_bits semantics per mode.

#pragma once

#include "mult/subword.h"

#include <string>
#include <vector>

namespace dvafs {

struct operating_point_spec {
    sw_mode mode = sw_mode::w1x16;
    int keep_bits = 16;  // effective operand precision (per lane)
    double vdd = 0.0;    // supply for energy accounting; 0 = tech nominal
    double f_mhz = 0.0;  // clock; 0 = derived (constant-throughput rule)

    // e.g. "1x16@8b", "4x4@4b 0.80V"
    std::string label() const;
};

bool operator==(const operating_point_spec& a,
                const operating_point_spec& b) noexcept;

// The seven points behind the paper's Table I / Fig. 2 extraction:
// 1xW structurally truncated to every quarter precision, plus the three
// subword modes at full lane precision.
std::vector<operating_point_spec> kparam_sweep_points(int width);

} // namespace dvafs
