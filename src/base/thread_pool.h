// Fork-join ParallelFor for embarrassingly-parallel simulation phases.
//
// The experiment layer (per-trial traces), the sweep grids (one config per
// task), the sharded serve and replay loops, and the auditor's blast-radius
// scan all consist of independent units of work whose *outputs* are merged
// deterministically by the caller. ParallelFor therefore makes no ordering
// promises about execution — determinism is the caller's contract (see
// DESIGN.md §8): fork RNG streams by task index up front, give every task
// private state, and merge results in task-index order.
//
// Every run has exactly one parallel level, so there is no persistent pool:
// each call spawns its workers, they claim indices from one shared counter,
// and the caller joins them. The caller only joins and runs no iterations
// itself (see DESIGN.md §8 for why). With one worker, or at most one index,
// every iteration runs inline on the caller in index order — the serial
// path, bit-identical to the parallel one by the determinism contract and
// free of thread-creation cost.
#ifndef SILOZ_SRC_BASE_THREAD_POOL_H_
#define SILOZ_SRC_BASE_THREAD_POOL_H_

#include <cstdint>
#include <functional>

namespace siloz {

// What one ParallelFor call did.
struct PoolMetrics {
  uint32_t workers = 1;  // resolved thread budget
  uint64_t tasks = 0;    // iterations run
  uint64_t steals = 0;   // always 0; kept for perfbench's sim.grid_steal_frac
};

// Resolves a `--threads N` style knob: N > 0 is taken literally; 0 is the
// hardware concurrency (minimum 1).
uint32_t ResolveThreads(uint32_t requested);

// Runs fn(i) for every i in [0, count) on min(ResolveThreads(threads), count)
// threads and returns once all iterations finished. fn must not throw and
// must not depend on execution order. Adds `count` to the sched-domain
// `pool.tasks` counter.
PoolMetrics ParallelFor(uint32_t threads, uint64_t count,
                        const std::function<void(uint64_t)>& fn);

}  // namespace siloz

#endif  // SILOZ_SRC_BASE_THREAD_POOL_H_
