// Tests for the fork-join ParallelFor (src/base/thread_pool.h): every index
// runs exactly once, the inline serial path, metrics accounting, and the
// ResolveThreads knob. Scheduling-order properties of the parallel path are
// deliberately not asserted — determinism lives in the callers' merge
// discipline (DESIGN.md §8), which tests/parallel_determinism_test.cc covers.
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
  // env override it resolves to the host's hardware concurrency, and a
  // ParallelFor given 0 reports exactly that many workers.
  ScopedThreadsEnv guard;
  ::unsetenv("SILOZ_THREADS");
  EXPECT_EQ(ResolveThreads(0), std::max(1u, std::thread::hardware_concurrency()));
  EXPECT_EQ(ParallelFor(0, 0, [](uint64_t) {}).workers, ResolveThreads(0));
}

// The figure driver resolves --threads once and forwards the resolved value:
// the count its banner prints must be the worker count of the ParallelFor
// that runs the grid.
TEST(ResolveThreadsTest, ExplicitFlagWinsOverEnvironment) {
  ScopedThreadsEnv guard;
  ::setenv("SILOZ_THREADS", "7", 1);
  EXPECT_EQ(ResolveThreads(3), 3u);
  EXPECT_EQ(ParallelFor(ResolveThreads(3), 0, [](uint64_t) {}).workers, 3u);
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
  // ...then the environment drifts before the grid runs.
  ::setenv("SILOZ_THREADS", "7", 1);
  // Forwarding the resolved value keeps the grid in agreement with the
  // banner.
  EXPECT_EQ(ParallelFor(reported, 0, [](uint64_t) {}).workers, reported);
  // Handing the raw flag to ParallelFor and letting it re-resolve would have
  // run 7 workers under a "3 worker threads" banner.
  const uint32_t stale = ParallelFor(0, 0, [](uint64_t) {}).workers;
  EXPECT_EQ(stale, 7u);
  EXPECT_NE(stale, reported);
}

TEST(ThreadPoolTest, ParallelForCoversExactRange) {
  for (const uint32_t threads : {1u, 2u, 5u, 64u}) {
    for (const uint64_t count : {0u, 1u, 3u, 100u, 2000u}) {
      std::vector<std::atomic<int>> hits(count);
      const PoolMetrics metrics =
          ParallelFor(threads, count, [&hits](uint64_t i) { hits[i].fetch_add(1); });
      for (uint64_t i = 0; i < count; ++i) {
        EXPECT_EQ(hits[i].load(), 1) << "i=" << i << " threads=" << threads;
      }
      EXPECT_EQ(metrics.workers, threads);
      EXPECT_EQ(metrics.tasks, count);
      EXPECT_EQ(metrics.steals, 0u);
    }
  }
}

TEST(ThreadPoolTest, ParallelForEmptyRangeIsANoOp) {
  const PoolMetrics metrics = ParallelFor(2, 0, [](uint64_t) { FAIL() << "must not be called"; });
  EXPECT_EQ(metrics.workers, 2u);
  EXPECT_EQ(metrics.tasks, 0u);
}

TEST(ThreadPoolTest, OneThreadRunsInlineInIndexOrder) {
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<uint64_t> order;
  ParallelFor(1, 8, [&](uint64_t i) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    order.push_back(i);
  });
  std::vector<uint64_t> expected(8);
  std::iota(expected.begin(), expected.end(), 0);
  EXPECT_EQ(order, expected);
}

}  // namespace
}  // namespace siloz
