// Serial-oracle-vs-shard-engine differentials over the PlatformDecoder
// registry.
//
// The sharded engine's partition argument (DESIGN.md §13) is
// platform-independent — it holds for any channel count and any decoder
// family. This battery re-proves it against every *registered* platform
// (the existing sharded_differential_test covers hand-built decoder
// shapes), which is what actually exercises the non-Skylake channel
// geometries: zen has 2 channels per socket on one socket, ddr5 has 8.
//
// Three claims per platform:
//  1. shard-invariant counts equal the serial oracle for every sharding;
//  2. the sharded engine is bit-identical across worker counts 1/2/8 —
//     the determinism contract, per platform;
//  3. experiment-level: RunWorkload under ApplyPlatform is bit-identical
//     across thread counts AND its per-shard served counts conserve the
//     issued request total with one shard slot per (socket, channel) —
//     the regression for the fixed channels-per-socket assumption that
//     used to hard-code Skylake's 6 (bench/fig_common.h, ShardPlan).
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "src/addr/decoder.h"
#include "src/addr/platform.h"
#include "src/base/rng.h"
#include "src/memctl/sharded_engine.h"
#include "src/obs/metrics.h"
#include "src/sim/experiment.h"
#include "tests/support/replay_oracle.h"
#include "tests/support/serial_engine.h"

namespace siloz {
namespace {

constexpr uint64_t kStreamCommands = 120000;

struct RegistryPlatform {
  std::string name;
  DramGeometry geometry;
  std::unique_ptr<AddressDecoder> decoder;
};

std::vector<RegistryPlatform> RegistryPlatforms() {
  std::vector<RegistryPlatform> platforms;
  for (const auto& [name, info] : PlatformRegistry()) {
    RegistryPlatform p;
    p.name = name;
    p.geometry = info.geometry;
    Result<std::unique_ptr<AddressDecoder>> made = info.make(info.geometry);
    EXPECT_TRUE(made.ok()) << name;
    p.decoder = std::move(*made);
    platforms.push_back(std::move(p));
  }
  return platforms;
}

// Same stream shape as sharded_differential_test.cc, but remote-socket
// issues only exist on multi-socket platforms (zen has one socket).
std::vector<MemRequest> MakeStream(const RegistryPlatform& platform, uint64_t seed,
                                   uint64_t count = kStreamCommands) {
  Rng rng(seed);
  const uint64_t lines = platform.geometry.total_bytes() / kCacheLineBytes;
  std::vector<MemRequest> stream;
  stream.reserve(count);
  uint64_t line = rng.NextBelow(lines);
  for (uint64_t i = 0; i < count; ++i) {
    if (!rng.NextBernoulli(0.7)) {
      line = rng.NextBelow(lines);
    } else {
      line = (line + 1) % lines;
    }
    MemRequest request;
    request.address = *platform.decoder->PhysToMedia(line * kCacheLineBytes);
    request.is_write = rng.NextBernoulli(0.3);
    const bool remote = rng.NextBernoulli(0.1);  // drawn unconditionally: keeps
    // the stream bit-comparable if a platform's socket count changes.
    request.source_socket = (remote && platform.geometry.sockets > 1) ? 1u : 0u;
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

EngineConfig TestEngineConfig() {
  EngineConfig config;
  config.max_outstanding = 10;
  config.compute_ns_per_access = 5.0;
  return config;
}

void ExpectShardInvariantCountsEqual(const ControllerStats& serial,
                                     const ControllerStats& sharded,
                                     const std::string& label) {
  EXPECT_EQ(serial.requests, sharded.requests) << label;
  EXPECT_EQ(serial.reads, sharded.reads) << label;
  EXPECT_EQ(serial.writes, sharded.writes) << label;
  EXPECT_EQ(serial.row_hits, sharded.row_hits) << label;
  EXPECT_EQ(serial.row_misses, sharded.row_misses) << label;
  EXPECT_EQ(serial.activates, sharded.activates) << label;
  EXPECT_EQ(serial.precharges, sharded.precharges) << label;
}

TEST(PlatformShardedTest, ShardInvariantCountsMatchSerialOnRegistryPlatforms) {
  for (const RegistryPlatform& platform : RegistryPlatforms()) {
    const std::vector<MemRequest> stream = MakeStream(platform, 0x9A7F0 + 1);
    ControllerSet serial(platform.geometry);
    RunClosedLoop(stream, serial.ptrs, TestEngineConfig());

    // 1 = one shard per channel; channels_per_socket = one shard per socket.
    // On zen (2 channels) these brackets meet; on ddr5 they span 8 channels.
    for (uint32_t channels_per_shard : {1u, platform.geometry.channels_per_socket}) {
      ControllerSet sharded(platform.geometry);
      ShardedEngineConfig config;
      config.engine = TestEngineConfig();
      config.channels_per_shard = channels_per_shard;
      Result<ShardedEngineResult> result = RunShardedClosedLoop(stream, sharded.ptrs, config);
      ASSERT_TRUE(result.ok()) << platform.name;
      EXPECT_EQ(result->requests, stream.size()) << platform.name;
      // One shard slot per (socket, channel-run): the ShardPlan must derive
      // the shard count from the platform's geometry, never from Skylake's.
      const uint32_t expected_shards =
          platform.geometry.sockets *
          ((platform.geometry.channels_per_socket + channels_per_shard - 1) / channels_per_shard);
      EXPECT_EQ(result->shards.size(), expected_shards)
          << platform.name << " cps=" << channels_per_shard;
      for (size_t socket = 0; socket < serial.ptrs.size(); ++socket) {
        ExpectShardInvariantCountsEqual(
            serial.ptrs[socket]->stats(), sharded.ptrs[socket]->stats(),
            platform.name + " cps=" + std::to_string(channels_per_shard) + " socket" +
                std::to_string(socket));
      }
    }
  }
}

TEST(PlatformShardedTest, BitIdenticalAcrossThreadCountsPerPlatform) {
  for (const RegistryPlatform& platform : RegistryPlatforms()) {
    const std::vector<MemRequest> stream = MakeStream(platform, 0x51A7);
    std::vector<ShardedEngineResult> results;
    std::vector<std::string> censuses;
    for (uint32_t threads : {1u, 2u, 8u}) {
      obs::Registry::Global().Reset();
      std::string census;
      ShardedEngineResult run;
      {
        ControllerSet controllers(platform.geometry);
        ShardedEngineConfig config;
        config.engine = TestEngineConfig();
        config.channels_per_shard = 1;
        config.threads = threads;
        Result<ShardedEngineResult> result =
            RunShardedClosedLoop(stream, controllers.ptrs, config);
        ASSERT_TRUE(result.ok()) << platform.name << " threads=" << threads;
        run = *result;
      }
      census = obs::Registry::Global().SectionJson(obs::Domain::kModel);
      if (!results.empty()) {
        const ShardedEngineResult& reference = results.front();
        const std::string label = platform.name + " threads=" + std::to_string(threads);
        EXPECT_EQ(run.elapsed_ns, reference.elapsed_ns) << label;
        EXPECT_EQ(run.requests, reference.requests) << label;
        ASSERT_EQ(run.shards.size(), reference.shards.size()) << label;
        for (size_t shard = 0; shard < run.shards.size(); ++shard) {
          EXPECT_EQ(run.shards[shard].requests, reference.shards[shard].requests) << label;
          EXPECT_EQ(run.shards[shard].elapsed_ns, reference.shards[shard].elapsed_ns) << label;
        }
        EXPECT_EQ(census, censuses.front()) << label;
      }
      results.push_back(run);
      censuses.push_back(census);
    }
  }
}

// Experiment-level determinism + conservation per platform: RunWorkload
// under ApplyPlatform must be bit-identical for threads 1/2/8, report one
// shard slot per (socket, channel), and serve exactly trials * accesses.
TEST(PlatformShardedTest, RunWorkloadConservesAndIsBitIdenticalPerPlatform) {
  for (const std::string& name : PlatformNames()) {
    WorkloadSpec spec = *FindWorkload("redis-a");
    spec.accesses = 60000;
    RunnerConfig config;
    config.trials = 2;
    config.vm.memory_bytes = 3ull << 30;
    config.channels_per_shard = 1;
    ASSERT_TRUE(ApplyPlatform(config, name).ok()) << name;

    std::vector<RunMeasurement> runs;
    for (uint32_t threads : {1u, 2u, 8u}) {
      config.threads = threads;
      Result<RunMeasurement> run = RunWorkload(config, spec);
      ASSERT_TRUE(run.ok()) << name << " threads=" << threads << ": "
                            << run.error().ToString();
      runs.push_back(std::move(*run));
    }
    for (size_t i = 1; i < runs.size(); ++i) {
      EXPECT_EQ(runs[i].elapsed_ns.mean(), runs[0].elapsed_ns.mean()) << name;
      EXPECT_EQ(runs[i].bandwidth_gibs.mean(), runs[0].bandwidth_gibs.mean()) << name;
      EXPECT_EQ(runs[i].row_hit_rate, runs[0].row_hit_rate) << name;
      EXPECT_EQ(runs[i].shard_requests, runs[0].shard_requests) << name;
    }

    // Conservation: the served counts must sum to the issued total, with one
    // slot per (socket, channel) of THIS platform's geometry — 2 slots on
    // zen, 16 on ddr5 — not Skylake's 12.
    const PlatformInfo* info = FindPlatform(name);
    ASSERT_NE(info, nullptr);
    const size_t expected_slots =
        static_cast<size_t>(info->geometry.sockets) * info->geometry.channels_per_socket;
    EXPECT_EQ(runs[0].shard_requests.size(), expected_slots) << name;
    const uint64_t served = std::accumulate(runs[0].shard_requests.begin(),
                                            runs[0].shard_requests.end(), uint64_t{0});
    EXPECT_EQ(served, static_cast<uint64_t>(config.trials) * spec.accesses) << name;
  }
}

// Fault-mode flip identity per platform: the sharded disturbance replay
// must leave a trace-order replay's flip census for every sharding and worker
// count, under each platform's geometry and remap chain.
TEST(PlatformShardedTest, FaultReplayFlipCensusMatchesSerialPerPlatform) {
  for (const char* name : {"zen", "ddr5"}) {  // the non-Skylake channel counts
    RunnerConfig runner;
    ASSERT_TRUE(ApplyPlatform(runner, name).ok()) << name;
    MachineConfig base;
    base.geometry = runner.geometry;
    base.platform = runner.platform;
    base.dimm_profiles = runner.dimm_profiles;
    const MachineConfig config = FragileFaultMachine(base);

    Machine reference(config);
    const std::vector<MemRequest> trace = HammerTrace(config.geometry, 0x2E9A, 6000);
    ReplayInTraceOrder(reference, trace);
    const std::vector<uint64_t> expected = DrainFlipPhys(reference);
    ASSERT_FALSE(expected.empty()) << name << ": the hammer trace must flip bits";

    for (const uint32_t channels_per_shard : {1u, 3u}) {
      for (const uint32_t threads : {1u, 4u}) {
        Machine machine(config);
        ReplayDisturbance(machine, trace, channels_per_shard, threads);
        EXPECT_EQ(DrainFlipPhys(machine), expected)
            << name << " cps=" << channels_per_shard << " threads=" << threads;
      }
    }
  }
}

}  // namespace
}  // namespace siloz
