// Concurrency and fault-injection stress for the sharded engine.
//
// The concurrency leg drives the partitioned multi-worker serve with a real
// 8-worker pool over a large multi-socket stream — the TSan CI job runs this
// binary to prove the shard serve loop is race-free — and asserts
// bit-identity against the single-worker run (worker count must never be
// observable).
//
// The replay leg does the same for the disturbance replay: ReplayDisturbance
// on 8 workers must leave the flip census of the 1-worker run, so the TSan
// job covers the shared trace partition (PartitionByShard) from both of its
// callers.
//
// The fault-injection leg arms each of the sharded dispatch fault points
// (alloc.shard.partition, alloc.shard.dispatch) and proves the error
// propagates out of the engine while the absorb-target controllers stay
// untouched; a clean rerun on the same controllers then passes with the
// conservation checker (served == expected) intact.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/addr/decoder.h"
#include "src/base/fault_injector.h"
#include "src/base/rng.h"
#include "src/memctl/sharded_engine.h"
#include "src/sim/experiment.h"
#include "tests/support/replay_oracle.h"

namespace siloz {
namespace {

std::vector<MemRequest> BigStream(const DramGeometry& geometry, uint64_t seed,
                                  uint64_t count) {
  const SkylakeDecoder decoder(geometry);
  Rng rng(seed);
  const uint64_t lines = geometry.total_bytes() / kCacheLineBytes;
  std::vector<MemRequest> stream;
  stream.reserve(count);
  uint64_t line = rng.NextBelow(lines);
  for (uint64_t i = 0; i < count; ++i) {
    line = rng.NextBernoulli(0.6) ? (line + 1) % lines : rng.NextBelow(lines);
    MemRequest request;
    request.address = *decoder.PhysToMedia(line * kCacheLineBytes);
    request.is_write = rng.NextBernoulli(0.3);
    stream.push_back(request);
  }
  return stream;
}

struct ControllerSet {
  std::vector<std::unique_ptr<MemoryController>> owned;
  std::vector<MemoryController*> ptrs;

  explicit ControllerSet(const DramGeometry& geometry) {
    for (uint32_t socket = 0; socket < geometry.sockets; ++socket) {
      owned.push_back(std::make_unique<MemoryController>(geometry, socket));
      ptrs.push_back(owned.back().get());
    }
  }
};

ShardedEngineConfig StressConfig(uint32_t threads) {
  ShardedEngineConfig config;
  config.engine.max_outstanding = 10;
  config.engine.compute_ns_per_access = 2.0;
  config.channels_per_shard = 1;  // max shards = max concurrency
  config.threads = threads;
  return config;
}

TEST(ShardedStressTest, EightWorkersBitIdenticalToOne) {
  // Large enough that shards genuinely overlap in time on a multi-core
  // host; under TSan this is the race detector's main course.
  const DramGeometry geometry;
  const std::vector<MemRequest> stream = BigStream(geometry, 0x57E55, 400000);

  ControllerSet serial_workers(geometry);
  Result<ShardedEngineResult> one =
      RunShardedClosedLoop(stream, serial_workers.ptrs, StressConfig(1));
  ASSERT_TRUE(one.ok());

  ControllerSet parallel_workers(geometry);
  Result<ShardedEngineResult> eight =
      RunShardedClosedLoop(stream, parallel_workers.ptrs, StressConfig(8));
  ASSERT_TRUE(eight.ok());

  EXPECT_EQ(eight->elapsed_ns, one->elapsed_ns);
  EXPECT_EQ(eight->requests, one->requests);
  ASSERT_EQ(eight->shards.size(), one->shards.size());
  for (size_t shard = 0; shard < eight->shards.size(); ++shard) {
    EXPECT_EQ(eight->shards[shard].requests, one->shards[shard].requests) << shard;
    EXPECT_EQ(eight->shards[shard].elapsed_ns, one->shards[shard].elapsed_ns) << shard;
  }
  for (size_t socket = 0; socket < serial_workers.ptrs.size(); ++socket) {
    const ControllerStats& a = serial_workers.ptrs[socket]->stats();
    const ControllerStats& b = parallel_workers.ptrs[socket]->stats();
    EXPECT_EQ(a.requests, b.requests);
    EXPECT_EQ(a.row_hits, b.row_hits);
    EXPECT_EQ(a.row_misses, b.row_misses);
    EXPECT_EQ(a.busy_ns, b.busy_ns);
    EXPECT_EQ(a.total_latency_ns, b.total_latency_ns);
  }
}

TEST(ShardedStressTest, RepeatedParallelRunsAgree) {
  // Same stream, several 8-worker runs: scheduling jitter across runs must
  // never leak into results.
  const DramGeometry geometry;
  const std::vector<MemRequest> stream = BigStream(geometry, 0xA5A5, 150000);
  double reference_elapsed = 0.0;
  for (int run = 0; run < 3; ++run) {
    ControllerSet controllers(geometry);
    Result<ShardedEngineResult> result =
        RunShardedClosedLoop(stream, controllers.ptrs, StressConfig(8));
    ASSERT_TRUE(result.ok());
    if (run == 0) {
      reference_elapsed = result->elapsed_ns;
    } else {
      EXPECT_EQ(result->elapsed_ns, reference_elapsed) << "run " << run;
    }
  }
}

TEST(ShardedStressTest, ReplayDisturbanceEightWorkersBitIdenticalToOne) {
  const MachineConfig config = FragileFaultMachine(MachineConfig{});
  std::vector<std::vector<uint64_t>> censuses;
  for (const uint32_t threads : {1u, 8u}) {
    Machine machine(config);
    const std::vector<MemRequest> trace = HammerTrace(config.geometry, 0x8E9A, 6000);
    ReplayDisturbance(machine, trace, /*channels_per_shard=*/1, threads);
    censuses.push_back(DrainFlipPhys(machine));
  }
  ASSERT_FALSE(censuses[0].empty());
  EXPECT_EQ(censuses[1], censuses[0]);
}

class ShardedFaultTest : public ::testing::Test {
 protected:
  void TearDown() override { FaultInjector::Global().Disarm(); }
};

TEST_F(ShardedFaultTest, DispatchFaultsPropagateAndLeaveTargetsUntouched) {
  const DramGeometry geometry;
  const std::vector<MemRequest> stream = BigStream(geometry, 0xFA11, 50000);

  for (const std::string site : {"alloc.shard.partition", "alloc.shard.dispatch"}) {
    ControllerSet controllers(geometry);
    FaultInjector::Global().Arm(1, site);
    Result<ShardedEngineResult> failed =
        RunShardedClosedLoop(stream, controllers.ptrs, StressConfig(2));
    FaultInjector::Global().Disarm();

    ASSERT_FALSE(failed.ok()) << site << " fault did not propagate";
    // The absorb targets must be untouched: no partial merge, no stats.
    for (MemoryController* controller : controllers.ptrs) {
      EXPECT_EQ(controller->stats().requests, 0u) << site;
      EXPECT_EQ(controller->stats().busy_ns, 0.0) << site;
      for (const BankGroupCounts& group : controller->bank_group_counts()) {
        EXPECT_EQ(group.act + group.pre + group.rd + group.wr + group.ref, 0u) << site;
      }
    }

    // Clean rerun on the very same controllers: conservation holds, every
    // request accounted exactly once.
    Result<ShardedEngineResult> clean =
        RunShardedClosedLoop(stream, controllers.ptrs, StressConfig(2));
    ASSERT_TRUE(clean.ok()) << site;
    EXPECT_EQ(clean->requests, stream.size()) << site;
    uint64_t absorbed = 0;
    for (MemoryController* controller : controllers.ptrs) {
      absorbed += controller->stats().requests;
    }
    EXPECT_EQ(absorbed, stream.size()) << site;
  }
}

TEST_F(ShardedFaultTest, FusedPathFaultsMatchBatchedSemantics) {
  // The fused streaming path declares the same two fault points up front as
  // the multi-worker serve, so an injected failure leaves its targets
  // untouched the same way.
  const DramGeometry geometry;
  const std::vector<MemRequest> stream = BigStream(geometry, 0xFA12, 20000);
  ControllerSet controllers(geometry);
  ShardedEngineConfig config = StressConfig(1);

  auto run_fused = [&]() {
    return RunShardedFused(
        stream.size(),
        [&](auto&& emit) {
          for (const MemRequest& request : stream) {
            emit(controllers.ptrs[request.address.socket]->DecodeCmd(request),
                 request.address.socket);
          }
        },
        controllers.ptrs, config);
  };

  FaultInjector::Global().Arm(1, "alloc.shard.");
  Result<ShardedEngineResult> failed = run_fused();
  FaultInjector::Global().Disarm();
  ASSERT_FALSE(failed.ok());
  for (MemoryController* controller : controllers.ptrs) {
    EXPECT_EQ(controller->stats().requests, 0u);
  }

  Result<ShardedEngineResult> clean = run_fused();
  ASSERT_TRUE(clean.ok());
  EXPECT_EQ(clean->requests, stream.size());
}

}  // namespace
}  // namespace siloz
