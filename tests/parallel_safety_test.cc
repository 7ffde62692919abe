// Thread-safety battery for the parallel phases — the targets of the CI
// ThreadSanitizer job (SILOZ_SANITIZE=thread). These tests are about data
// races, not results: they drive ParallelFor, the trial loop, the audit scan
// and the tracer from many threads at once so TSan can observe every
// cross-thread access. Result checks are minimal (determinism is covered by
// parallel_determinism_test.cc).
#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "src/addr/decoder.h"
#include "src/audit/auditor.h"
#include "src/base/thread_pool.h"
#include "src/base/units.h"
#include "src/dram/remap.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/sim/experiment.h"
#include "src/workload/workloads.h"

namespace siloz {
namespace {

TEST(ParallelSafetyTest, PoolStressManyWaves) {
  // Repeated fork-join waves exercise thread spawn, index claiming and join
  // far more than one big batch would. Each wave's plain (non-atomic) writes
  // must be visible to the caller once ParallelFor returns.
  std::vector<uint64_t> hits(64, 0);
  for (int wave = 0; wave < 50; ++wave) {
    const PoolMetrics metrics = ParallelFor(8, hits.size(), [&hits](uint64_t i) { ++hits[i]; });
    EXPECT_EQ(metrics.tasks, hits.size());
  }
  for (const uint64_t count : hits) {
    EXPECT_EQ(count, 50u);
  }
}

TEST(ParallelSafetyTest, ConcurrentRunWorkloadCalls) {
  // Two whole experiment runs in flight at once, each with its own internal
  // pool — nothing below RunWorkload may touch unsynchronized shared state.
  WorkloadSpec spec = *FindWorkload("redis-a");
  spec.accesses = 10000;
  RunnerConfig config;
  config.trials = 3;
  config.threads = 2;
  std::vector<std::thread> runners;
  std::vector<Status> statuses(3, Status::Ok());
  for (size_t i = 0; i < statuses.size(); ++i) {
    runners.emplace_back([&, i] {
      RunnerConfig mine = config;
      mine.seed = 1000 + i;
      Result<RunMeasurement> run = RunWorkload(mine, spec);
      statuses[i] = run.ok() ? Status::Ok() : run.error();
    });
  }
  for (std::thread& runner : runners) {
    runner.join();
  }
  for (const Status& status : statuses) {
    EXPECT_TRUE(status.ok()) << (status.ok() ? "" : status.error().ToString());
  }
}

TEST(ParallelSafetyTest, ParallelAuditScan) {
  // The sharded blast-radius scan reads the decoder / remapper / group map /
  // buddy allocator concurrently; all of those paths must be const-clean.
  DramGeometry geometry;
  SkylakeDecoder decoder(geometry);
  audit::Options options;
  options.probe_stride = 16_MiB;
  options.random_probes = 128;
  options.threads = 8;
  Result<audit::Report> report =
      audit::AuditPlatform(decoder, SilozConfig{}, RemapConfig{}, options);
  ASSERT_TRUE(report.ok()) << report.error().ToString();
  EXPECT_TRUE(report->ok()) << report->ToText();
  EXPECT_EQ(report->scan_pool.workers, 8u);
}

TEST(ParallelSafetyTest, MetricsRegistryIsSafeUnderConcurrentWritersAndSnapshots) {
  // Writers hammer shared metrics (and keep registering names, exercising
  // the registration mutex) while a reader snapshots mid-flight. TSan checks
  // the shard accesses; the only result check is the exact post-join sum.
  obs::Registry& registry = obs::Registry::Global();
  obs::Counter& counter = registry.GetCounter("safety.obs.counter");
  counter.Reset();
  obs::Gauge& gauge = registry.GetGauge("safety.obs.gauge");
  obs::Histogram& histogram = registry.GetHistogram("safety.obs.histogram");
  constexpr int kWriters = 8;
  constexpr uint64_t kPerWriter = 20000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kWriters; ++t) {
    threads.emplace_back([&, t] {
      obs::Counter& named =
          registry.GetCounter("safety.obs.writer." + std::to_string(t % 2));
      for (uint64_t i = 0; i < kPerWriter; ++i) {
        counter.Increment();
        named.Increment();
        gauge.Add(1);
        histogram.Observe(i);
      }
    });
  }
  threads.emplace_back([&registry] {
    for (int i = 0; i < 50; ++i) {
      registry.ToJson();  // concurrent snapshot: torn totals are fine, races are not
    }
  });
  for (std::thread& thread : threads) {
    thread.join();
  }
  EXPECT_EQ(counter.Value(), kWriters * kPerWriter);
  EXPECT_GE(histogram.Snapshot().count, kWriters * kPerWriter);
}

TEST(ParallelSafetyTest, TracerIsSafeUnderConcurrentSpansAndControl) {
  // Spans from many threads race Enable/Disable/Reset and export; every
  // combination must be race-free (the CLI toggles the tracer while
  // instrumented phases are already running).
  obs::Tracer& tracer = obs::Tracer::Global();
  tracer.Reset();
  tracer.Enable();
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([] {
      for (int i = 0; i < 50; ++i) {
        obs::TraceSpan span("safety-span");
      }
    });
  }
  threads.emplace_back([&tracer] {
    for (int i = 0; i < 20; ++i) {
      tracer.ToJson();
      tracer.NowMicros();
    }
  });
  threads.emplace_back([&tracer] {
    for (int i = 0; i < 10; ++i) {
      tracer.Disable();
      tracer.Enable();
      tracer.Reset();
    }
  });
  for (std::thread& thread : threads) {
    thread.join();
  }
  tracer.Disable();
  tracer.Reset();
}

}  // namespace
}  // namespace siloz
