// Work-stealing thread pool for embarrassingly-parallel simulation phases.
//
// The experiment layer (per-trial traces), the sweep grids (one config per
// task), and the auditor's blast-radius scan (one subarray-group shard per
// task) all consist of independent units of work whose *outputs* are merged
// deterministically by the caller. The pool therefore makes no ordering
// promises about execution — determinism is the caller's contract (see
// DESIGN.md §8): fork RNG streams by task index up front, give every task
// private state, and merge results in task-index order.
//
// Scheduling is work-stealing: each worker owns a deque, submissions are
// distributed round-robin, a worker drains its own deque front-first and
// steals from the back of a sibling's deque when it runs dry. Steal counts
// are surfaced through PoolMetrics so the benches can report scheduler
// behaviour alongside wall-clock speedups.
//
// A pool constructed with one worker runs every task inline on the calling
// thread — the legacy serial path, bit-identical to the parallel one by the
// determinism contract and free of thread-creation cost.
#ifndef SILOZ_SRC_BASE_THREAD_POOL_H_
#define SILOZ_SRC_BASE_THREAD_POOL_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "src/base/mutex.h"

namespace siloz {

// Lifetime counters of one pool, readable at any time (values are only
// stable once Wait() returned and no new work was submitted).
struct PoolMetrics {
  uint32_t workers = 1;
  uint64_t tasks = 0;   // tasks executed to completion
  uint64_t steals = 0;  // tasks a worker took from a sibling's deque
  uint64_t sleeps = 0;  // times a worker blocked waiting for work
};

// Resolves a `--threads N` style knob: N > 0 is taken literally; 0 falls
// back to $SILOZ_THREADS when it is a whole positive integer (parsed as
// strictly as a flag: "4x" does not mean 4), else the hardware concurrency
// (minimum 1).
uint32_t ResolveThreads(uint32_t requested);

class ThreadPool {
 public:
  // `threads` as in ResolveThreads(); the resolved count is worker_count().
  explicit ThreadPool(uint32_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  uint32_t worker_count() const { return worker_count_; }

  // Enqueues one task. Tasks must not throw and must not call Wait() or
  // ParallelFor() on this pool (a worker blocking on its own pool deadlocks).
  // With one worker the task runs inline before Submit returns.
  void Submit(std::function<void()> task);

  // Blocks until every submitted task has completed. Safe to call from
  // multiple external threads; each sees the pool drained.
  void Wait();

  // Runs fn(i) for every i in [begin, end) across the workers and blocks
  // until all iterations finish. Iterations are claimed dynamically, so
  // callers must not depend on execution order. Inline when serial.
  void ParallelFor(uint64_t begin, uint64_t end, const std::function<void(uint64_t)>& fn);

  PoolMetrics metrics() const;

 private:
  struct WorkerQueue {
    Mutex mutex;
    std::deque<std::function<void()>> tasks GUARDED_BY(mutex);
  };

  void WorkerLoop(uint32_t self);
  // Pops from our own deque front, else steals from a sibling's back.
  std::function<void()> NextTask(uint32_t self, bool& stolen);
  void FinishTask(bool stolen);

  uint32_t worker_count_ = 1;
  std::vector<std::unique_ptr<WorkerQueue>> queues_;
  std::vector<std::thread> workers_;

  // sync_mutex_ guards sleep/wake bookkeeping only; deques have their own
  // locks and are never touched while holding it.
  Mutex sync_mutex_;
  CondVar work_cv_;  // workers: "new work may exist"
  CondVar done_cv_;  // Wait(): "pending_ hit zero"
  uint64_t work_epoch_ GUARDED_BY(sync_mutex_) = 0;  // bumped on every submission
  bool stop_ GUARDED_BY(sync_mutex_) = false;

  std::atomic<uint64_t> pending_{0};
  std::atomic<uint64_t> tasks_run_{0};
  std::atomic<uint64_t> steals_{0};
  std::atomic<uint64_t> sleeps_{0};
  std::atomic<uint32_t> next_queue_{0};
};

}  // namespace siloz

#endif  // SILOZ_SRC_BASE_THREAD_POOL_H_
