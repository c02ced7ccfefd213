// Umbrella header: the public API of the DVAFS library.
//
// Layering (bottom to top):
//   vec/       one-source host-SIMD kernels with runtime ISA dispatch
//   circuit/   gate-level netlists, logic simulation, timing, technology
//   mult/      exact + approximate multipliers; the DVAFS multiplier
//   sim/       64-lane batched sweeps: operating-point grids, thread pool
//   energy/    the paper's power equations, k-parameter extraction, VF
//   simd/      the DVAFS-compatible SIMD vector processor
//   cnn/       quantized CNN inference and per-layer precision analysis
//   envision/  the Envision chip model
//   core/      modes, run-time controller, layer-wise precision planner
//   runtime/   streaming scenario engine: online per-frame re-planning

#pragma once

#include "util/bench_json.h"
#include "util/csv.h"
#include "util/parallel.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/table.h"

#include "vec/vec.h"

#include "fixedpoint/bitops.h"
#include "fixedpoint/fixed.h"
#include "fixedpoint/quantize.h"

#include "circuit/cells.h"
#include "circuit/compiled_sim.h"
#include "circuit/gate_kinds.h"
#include "circuit/logic_sim.h"
#include "circuit/netlist.h"
#include "circuit/tech.h"
#include "circuit/timing.h"

#include "mult/array_mult.h"
#include "mult/booth.h"
#include "mult/booth_wallace_mult.h"
#include "mult/dvafs_mult.h"
#include "mult/error_analysis.h"
#include "mult/subword.h"
#include "mult/wallace_mult.h"
#include "mult/approx/etm_mult.h"
#include "mult/approx/kulkarni_mult.h"
#include "mult/approx/per_mult.h"
#include "mult/approx/truncated_mult.h"

#include "energy/energy_ledger.h"
#include "energy/kparams.h"
#include "energy/power_model.h"
#include "energy/vf_curve.h"

#include "sim/engine.h"
#include "sim/result.h"
#include "sim/sweep.h"

#include "simd/assembler.h"
#include "simd/isa.h"
#include "simd/kernels.h"
#include "simd/memory.h"
#include "simd/power_domains.h"
#include "simd/processor.h"

#include "cnn/gemm.h"
#include "cnn/layers.h"
#include "cnn/network.h"
#include "cnn/quant_analysis.h"
#include "cnn/tensor.h"
#include "cnn/workload.h"
#include "cnn/zoo.h"

#include "envision/calibration.h"
#include "envision/envision.h"
#include "envision/layer_runner.h"

#include "core/controller.h"
#include "core/energy_report.h"
#include "core/mode.h"
#include "core/pareto.h"
#include "core/planner.h"

#include "runtime/adaptive_governor.h"
#include "runtime/fault_injector.h"
#include "runtime/scenario.h"
#include "runtime/stream_engine.h"
#include "runtime/stream_scheduler.h"
