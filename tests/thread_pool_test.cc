// Tests for the work-stealing pool (src/base/thread_pool.h): correctness of
// Submit/Wait/ParallelFor, the inline serial path, metrics accounting, and
// the ResolveThreads knob. Scheduling-order properties are deliberately not
// asserted — determinism lives in the callers' merge discipline (DESIGN.md
// §8), which tests/parallel_determinism_test.cc covers.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "src/base/thread_pool.h"

namespace siloz {
namespace {

// Restores $SILOZ_THREADS on scope exit so these tests cannot leak state
// into each other (or into a developer's shell-configured run).
class ScopedThreadsEnv {
 public:
  ScopedThreadsEnv() {
    const char* current = std::getenv("SILOZ_THREADS");
    had_value_ = current != nullptr;
    if (had_value_) {
      saved_ = current;
    }
  }
  ~ScopedThreadsEnv() {
    if (had_value_) {
      ::setenv("SILOZ_THREADS", saved_.c_str(), 1);
    } else {
      ::unsetenv("SILOZ_THREADS");
    }
  }

 private:
  bool had_value_ = false;
  std::string saved_;
};

TEST(ResolveThreadsTest, PositiveRequestIsLiteral) {
  EXPECT_EQ(ResolveThreads(1), 1u);
  EXPECT_EQ(ResolveThreads(7), 7u);
}

TEST(ResolveThreadsTest, ZeroFallsBackToEnvThenHardware) {
  ScopedThreadsEnv guard;
  ::setenv("SILOZ_THREADS", "3", 1);
  EXPECT_EQ(ResolveThreads(0), 3u);
  ::setenv("SILOZ_THREADS", "0", 1);  // non-positive env value is ignored
  EXPECT_GE(ResolveThreads(0), 1u);
  ::unsetenv("SILOZ_THREADS");
  EXPECT_GE(ResolveThreads(0), 1u);
}

TEST(ResolveThreadsTest, AutoDetectUsesHardwareConcurrency) {
  // --threads 0 is the documented auto-detect spelling everywhere a thread
  // knob is exposed (silozctl, siloz_audit, the figure benches): without an
  // env override it resolves to the host's hardware concurrency, and a pool
  // built from 0 gets exactly that many workers.
  ScopedThreadsEnv guard;
  ::unsetenv("SILOZ_THREADS");
  EXPECT_EQ(ResolveThreads(0), std::max(1u, std::thread::hardware_concurrency()));
  ThreadPool pool(0);
  EXPECT_EQ(pool.worker_count(), ResolveThreads(0));
}

// The figure driver resolves --threads once and forwards the resolved value:
// the count its banner prints must be the worker count of the pool that runs
// the grid.
TEST(ResolveThreadsTest, ExplicitFlagWinsOverEnvironment) {
  ScopedThreadsEnv guard;
  ::setenv("SILOZ_THREADS", "7", 1);
  EXPECT_EQ(ResolveThreads(3), 3u);
  ThreadPool pool(ResolveThreads(3));
  EXPECT_EQ(pool.worker_count(), 3u);
}

TEST(ResolveThreadsTest, AutoResolvesEnvironmentThenHardware) {
  ScopedThreadsEnv guard;
  ::setenv("SILOZ_THREADS", "5", 1);
  EXPECT_EQ(ResolveThreads(0), 5u);
  ::unsetenv("SILOZ_THREADS");
  EXPECT_EQ(ResolveThreads(0), std::max(1u, std::thread::hardware_concurrency()));
  ::setenv("SILOZ_THREADS", "0", 1);  // non-positive values fall through
  EXPECT_EQ(ResolveThreads(0), std::max(1u, std::thread::hardware_concurrency()));
}

TEST(ResolveThreadsTest, MalformedEnvironmentFallsThroughToHardware) {
  // $SILOZ_THREADS is parsed as strictly as a flag: "4x" is not 4.
  ScopedThreadsEnv guard;
  for (const char* bad : {"4x", "abc", "", "-4", " 4", "4294967296"}) {
    ::setenv("SILOZ_THREADS", bad, 1);
    EXPECT_EQ(ResolveThreads(0), std::max(1u, std::thread::hardware_concurrency())) << bad;
  }
}

TEST(ResolveThreadsTest, ReportedCountEqualsPoolWorkerCountUnderEnvDrift) {
  ScopedThreadsEnv guard;
  // Resolve once — this is the value the figure banner prints...
  ::setenv("SILOZ_THREADS", "3", 1);
  const uint32_t reported = ResolveThreads(0);
  ASSERT_EQ(reported, 3u);
  // ...then the environment drifts before the grid pool is constructed.
  ::setenv("SILOZ_THREADS", "7", 1);
  // Forwarding the resolved value keeps the pool in agreement with the
  // banner.
  ThreadPool pool(reported);
  EXPECT_EQ(pool.worker_count(), reported);
  // Handing the raw flag to the pool and letting it re-resolve would have
  // produced a 7-worker pool under a "3 worker threads" banner.
  ThreadPool stale(0);
  EXPECT_EQ(stale.worker_count(), 7u);
  EXPECT_NE(stale.worker_count(), reported);
}

TEST(ThreadPoolTest, SerialPoolRunsTasksInlineInSubmissionOrder) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.worker_count(), 1u);
  std::vector<int> order;
  for (int i = 0; i < 8; ++i) {
    pool.Submit([&order, i] { order.push_back(i); });
  }
  pool.Wait();  // no-op: everything already ran inside Submit
  std::vector<int> expected(8);
  std::iota(expected.begin(), expected.end(), 0);
  EXPECT_EQ(order, expected);
  const PoolMetrics metrics = pool.metrics();
  EXPECT_EQ(metrics.workers, 1u);
  EXPECT_EQ(metrics.tasks, 8u);
  EXPECT_EQ(metrics.steals, 0u);
}

TEST(ThreadPoolTest, SubmitWaitRunsEveryTaskExactlyOnce) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.worker_count(), 4u);
  constexpr int kTasks = 500;
  std::vector<std::atomic<int>> runs(kTasks);
  for (int i = 0; i < kTasks; ++i) {
    pool.Submit([&runs, i] { runs[i].fetch_add(1); });
  }
  pool.Wait();
  for (int i = 0; i < kTasks; ++i) {
    EXPECT_EQ(runs[i].load(), 1) << "task " << i;
  }
  EXPECT_EQ(pool.metrics().tasks, static_cast<uint64_t>(kTasks));
}

TEST(ThreadPoolTest, PoolIsReusableAcrossWaits) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  for (int round = 0; round < 3; ++round) {
    for (int i = 0; i < 50; ++i) {
      pool.Submit([&counter] { counter.fetch_add(1); });
    }
    pool.Wait();
    EXPECT_EQ(counter.load(), (round + 1) * 50);
  }
  EXPECT_EQ(pool.metrics().tasks, 150u);
}

TEST(ThreadPoolTest, ParallelForCoversExactRange) {
  for (const uint32_t threads : {1u, 2u, 5u}) {
    ThreadPool pool(threads);
    std::vector<std::atomic<int>> hits(100);
    pool.ParallelFor(10, 90, [&hits](uint64_t i) { hits[i].fetch_add(1); });
    for (uint64_t i = 0; i < 100; ++i) {
      EXPECT_EQ(hits[i].load(), (i >= 10 && i < 90) ? 1 : 0) << "i=" << i << " threads=" << threads;
    }
    // One task per iteration, so the metric is comparable across paths.
    EXPECT_EQ(pool.metrics().tasks, 80u);
  }
}

TEST(ThreadPoolTest, ParallelForEmptyRangeIsANoOp) {
  ThreadPool pool(2);
  pool.ParallelFor(5, 5, [](uint64_t) { FAIL() << "must not be called"; });
  EXPECT_EQ(pool.metrics().tasks, 0u);
}

TEST(ThreadPoolTest, WaitWithNothingSubmittedReturns) {
  ThreadPool pool(3);
  pool.Wait();
  pool.Wait();
  EXPECT_EQ(pool.metrics().tasks, 0u);
}

TEST(ThreadPoolTest, StealsAreCountedAndBoundedByTasks) {
  ThreadPool pool(4);
  constexpr int kTasks = 2000;
  std::atomic<uint64_t> sum{0};
  pool.ParallelFor(0, kTasks, [&sum](uint64_t i) { sum.fetch_add(i); });
  EXPECT_EQ(sum.load(), static_cast<uint64_t>(kTasks) * (kTasks - 1) / 2);
  const PoolMetrics metrics = pool.metrics();
  EXPECT_EQ(metrics.tasks, static_cast<uint64_t>(kTasks));
  // Steals depend on scheduling; the invariant is that every steal was a task.
  EXPECT_LE(metrics.steals, metrics.tasks);
}

}  // namespace
}  // namespace siloz
