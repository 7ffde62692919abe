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

// Restores $SILOZ_THREADS on scope exit so the tests that set it cannot
// leak state into each other.
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

TEST(ResolveThreadsTest, ZeroIgnoresEnvironment) {
  // --threads is the only thread knob: a well-formed $SILOZ_THREADS does not
  // change what 0 resolves to.
  ScopedThreadsEnv guard;
  const uint32_t hardware = std::max(1u, std::thread::hardware_concurrency());
  for (const char* value : {"3", "7"}) {
    ::setenv("SILOZ_THREADS", value, 1);
    EXPECT_EQ(ResolveThreads(0), hardware) << value;
    EXPECT_EQ(ParallelFor(0, 0, [](uint64_t) {}).workers, hardware) << value;
  }
}

TEST(ResolveThreadsTest, AutoDetectUsesHardwareConcurrency) {
  // --threads 0 is the documented auto-detect spelling everywhere a thread
  // knob is exposed (silozctl, siloz_audit, the figure benches): it resolves
  // to the host's hardware concurrency, and a ParallelFor given 0 reports
  // exactly that many workers.
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

TEST(ResolveThreadsTest, MalformedEnvironmentFallsThroughToHardware) {
  ScopedThreadsEnv guard;
  for (const char* bad : {"4x", "abc", "", "-4", " 4", "0", "4294967296"}) {
    ::setenv("SILOZ_THREADS", bad, 1);
    EXPECT_EQ(ResolveThreads(0), std::max(1u, std::thread::hardware_concurrency())) << bad;
  }
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
