// Shared thread-pool discipline for data-parallel loops.
//
// One contract, used by sim_engine::run_batch, the CNN batch_evaluator
// and the streaming runtime's frame scheduler: work items are claimed off
// an atomic counter, every item writes its result into a preallocated
// per-index slot (so the outcome is bit-identical for any thread count),
// and the first worker exception is rethrown on the caller's thread after
// the pool joins. Every repo-wide determinism claim -- threaded sweeps,
// dataset fan-out, batched frame streams -- reduces to this contract plus
// "reduce in index order afterwards".

#pragma once

#include <cstddef>
#include <functional>

namespace dvafs {

// Resolves a requested worker count: 0 means the hardware default, and the
// pool never runs more workers than there are items.
unsigned resolve_threads(unsigned threads, std::size_t count) noexcept;

// Runs fn(0) .. fn(count-1) across resolve_threads(threads, count)
// workers. fn must only write state owned by its index (the preallocated-
// slot rule above); with threads == 1 (or count <= 1) everything runs on
// the calling thread in index order.
//
// Workers are spawned per call and joined before returning (the same
// discipline sim_engine::run_batch always used): items cost milliseconds
// here, so spawn overhead is noise and there is no pool state to leak
// between callers. Note that per-call workers also get fresh
// thread_local scratch (e.g. a conv's padded input plane or im2col
// matrix, cnn/layers.cpp), so that amortization only applies within one
// parallel_for; a persistent pool is the upgrade path if item
// granularity ever drops.
void parallel_for(std::size_t count, unsigned threads,
                  const std::function<void(std::size_t)>& fn);

} // namespace dvafs
