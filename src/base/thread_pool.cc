#include "src/base/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <thread>
#include <vector>

#include "src/obs/metrics.h"

namespace siloz {

uint32_t ResolveThreads(uint32_t requested) {
  if (requested > 0) {
    return requested;
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

PoolMetrics ParallelFor(uint32_t threads, uint64_t count,
                        const std::function<void(uint64_t)>& fn) {
  PoolMetrics metrics;
  metrics.workers = ResolveThreads(threads);
  metrics.tasks = count;
  const uint64_t spawn = std::min<uint64_t>(metrics.workers, count);
  if (spawn <= 1) {
    for (uint64_t i = 0; i < count; ++i) {
      fn(i);
    }
  } else {
    // Workers claim indices one at a time, so uneven iteration costs
    // self-balance.
    std::atomic<uint64_t> next{0};
    std::vector<std::thread> workers;
    workers.reserve(spawn);
    for (uint64_t w = 0; w < spawn; ++w) {
      workers.emplace_back([&] {
        uint64_t i = 0;
        while ((i = next.fetch_add(1, std::memory_order_relaxed)) < count) {
          fn(i);
        }
      });
    }
    for (std::thread& worker : workers) {
      worker.join();
    }
  }
  // The task count describes how the host scheduled the run, not what the
  // simulated machine did: callers pick their work decomposition based on
  // the thread budget (the sharded engine serves fused with no ParallelFor
  // at all when threads <= 1), so it stays out of the model-domain census
  // that the §8 determinism contract holds thread-count-invariant.
  if (count > 0) {
    obs::Registry::Global().GetCounter("pool.tasks", obs::Domain::kSched).Add(count);
  }
  return metrics;
}

}  // namespace siloz
