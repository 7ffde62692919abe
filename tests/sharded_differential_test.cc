// Differential harness for the shard engine (src/memctl/sharded_engine.h,
// DESIGN.md §13) against the serial oracle (tests/support/serial_engine.h).
//
// Three claims are pinned here, each over >= 100k-command randomized streams
// on every platform shape (Skylake DDR4, DDR5, SNC-2, linear):
//
//  1. Shard-invariant counts — requests, reads, writes, row hits/misses,
//     ACTs, PREs, and the per-bank-group command census — are equal between
//     the serial oracle and every sharding of the same stream.
//     Per-bank command subsequences are identical under the channel
//     partition, so these counts cannot legally differ. (Completion *times*
//     differ by design: per-channel queues vs one global MLP window.)
//
//  2. The sharded engine is bit-identical across worker counts (threads
//     1/2/8), including every double-valued stat, the per-shard telemetry,
//     and the model-domain metrics census — the DESIGN.md §8 determinism
//     contract extended to shards.
//
//  3. The two entry points — fused streaming (RunShardedFused) and the
//     partitioned multi-worker trace serve (RunShardedClosedLoop at
//     threads > 1) — are bit-identical to each other.
//
// Claims 1 and 2 are additionally pinned under the §15 sub-channel
// decomposition (bank_groups_per_queue >= 1): queue regrouping never
// reorders ServeDecoded calls, so the invariant counts still match serial,
// and threads remain a pure scheduler knob with queues enabled.
//
// Plus the experiment-level corollaries: RunWorkload report values are
// bit-identical across thread counts, RunnerConfig{} is the one-shard-per-
// channel, one-queue-per-bank-group model, zero knobs are rejected, and
// ReplayDisturbance leaves the flip census (and, with TRR on, every
// device's counters) of a trace-order replay for every sharding and worker
// count.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/addr/decoder.h"
#include "src/base/rng.h"
#include "src/memctl/sharded_engine.h"
#include "src/obs/metrics.h"
#include "src/sim/experiment.h"
#include "tests/support/replay_oracle.h"
#include "tests/support/serial_engine.h"

namespace siloz {
namespace {

constexpr uint64_t kStreamCommands = 120000;  // >= 100k per the test contract

// One platform shape under test: a geometry plus the decoder that scatters
// phys addresses over it.
struct Platform {
  std::string name;
  DramGeometry geometry;
  std::unique_ptr<AddressDecoder> decoder;
};

std::vector<Platform> AllPlatforms() {
  std::vector<Platform> platforms;
  {
    Platform p;
    p.name = "skylake_ddr4";
    p.decoder = std::make_unique<SkylakeDecoder>(p.geometry);
    platforms.push_back(std::move(p));
  }
  {
    Platform p;
    p.name = "ddr5";
    p.geometry = Ddr5Geometry();
    p.decoder = std::make_unique<SkylakeDecoder>(p.geometry);
    platforms.push_back(std::move(p));
  }
  {
    Platform p;
    p.name = "snc2";
    p.decoder = std::make_unique<SncDecoder>(p.geometry, 2);
    platforms.push_back(std::move(p));
  }
  {
    Platform p;
    p.name = "linear";
    p.decoder = std::make_unique<LinearDecoder>(p.geometry);
    platforms.push_back(std::move(p));
  }
  return platforms;
}

// Randomized mixed sequential/jumping request stream over the whole machine
// (both sockets, remote issues included), deterministic in `seed`.
std::vector<MemRequest> MakeStream(const Platform& platform, uint64_t seed,
                                   uint64_t count = kStreamCommands) {
  Rng rng(seed);
  const uint64_t lines = platform.geometry.total_bytes() / kCacheLineBytes;
  std::vector<MemRequest> stream;
  stream.reserve(count);
  uint64_t line = rng.NextBelow(lines);
  for (uint64_t i = 0; i < count; ++i) {
    if (!rng.NextBernoulli(0.7)) {
      line = rng.NextBelow(lines);  // jump
    } else {
      line = (line + 1) % lines;  // sequential run
    }
    MemRequest request;
    request.address = *platform.decoder->PhysToMedia(line * kCacheLineBytes);
    request.is_write = rng.NextBernoulli(0.3);
    request.source_socket = rng.NextBernoulli(0.1) ? 1u : 0u;
    stream.push_back(request);
  }
  return stream;
}

// Per-socket controllers plus raw pointers in the span shape the engines
// take.
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

// The counts that must be invariant under sharding (everything the partition
// argument covers). Deliberately excludes busy_ns, total_latency_ns, and
// ref_tail_hits: those depend on completion times, which the sharded engine
// changes by design.
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

// Full bitwise equality, used between runs that must be identical (thread
// counts, fused vs multi-worker).
void ExpectStatsBitIdentical(const ControllerStats& a, const ControllerStats& b,
                             const std::string& label) {
  EXPECT_EQ(a.requests, b.requests) << label;
  EXPECT_EQ(a.reads, b.reads) << label;
  EXPECT_EQ(a.writes, b.writes) << label;
  EXPECT_EQ(a.row_hits, b.row_hits) << label;
  EXPECT_EQ(a.row_misses, b.row_misses) << label;
  EXPECT_EQ(a.activates, b.activates) << label;
  EXPECT_EQ(a.precharges, b.precharges) << label;
  EXPECT_EQ(a.ref_tail_hits, b.ref_tail_hits) << label;
  EXPECT_EQ(a.busy_ns, b.busy_ns) << label;                    // exact, not near
  EXPECT_EQ(a.total_latency_ns, b.total_latency_ns) << label;  // exact, not near
}

TEST(ShardedDifferentialTest, ShardInvariantCountsMatchSerialOnAllPlatforms) {
  for (const Platform& platform : AllPlatforms()) {
    const std::vector<MemRequest> stream = MakeStream(platform, 0xD1FF + 1);
    ControllerSet serial(platform.geometry);
    RunClosedLoop(stream, serial.ptrs, TestEngineConfig());

    for (uint32_t channels_per_shard :
         {1u, 2u, platform.geometry.channels_per_socket}) {
      ControllerSet sharded(platform.geometry);
      ShardedEngineConfig config;
      config.engine = TestEngineConfig();
      config.channels_per_shard = channels_per_shard;
      Result<ShardedEngineResult> result = RunShardedClosedLoop(stream, sharded.ptrs, config);
      ASSERT_TRUE(result.ok()) << platform.name;
      EXPECT_EQ(result->requests, stream.size()) << platform.name;
      for (size_t socket = 0; socket < serial.ptrs.size(); ++socket) {
        ExpectShardInvariantCountsEqual(
            serial.ptrs[socket]->stats(), sharded.ptrs[socket]->stats(),
            platform.name + " cps=" + std::to_string(channels_per_shard) + " socket" +
                std::to_string(socket));
      }
      // Per-bank-group command census: same partition argument, finer grain.
      for (size_t socket = 0; socket < serial.ptrs.size(); ++socket) {
        const auto& lhs = serial.ptrs[socket]->bank_group_counts();
        const auto& rhs = sharded.ptrs[socket]->bank_group_counts();
        ASSERT_EQ(lhs.size(), rhs.size());
        for (size_t group = 0; group < lhs.size(); ++group) {
          EXPECT_EQ(lhs[group].act, rhs[group].act) << platform.name << " group " << group;
          EXPECT_EQ(lhs[group].pre, rhs[group].pre) << platform.name << " group " << group;
          EXPECT_EQ(lhs[group].rd, rhs[group].rd) << platform.name << " group " << group;
          EXPECT_EQ(lhs[group].wr, rhs[group].wr) << platform.name << " group " << group;
        }
      }
    }
  }
}

TEST(ShardedDifferentialTest, SubShardedInvariantCountsMatchSerialOnAllPlatforms) {
  // Claim 1 extended to the §15 sub-channel decomposition: per-bank command
  // subsequences are a pure function of the channel partition, and bank-group
  // queues subdivide *within* a shard without reordering ServeDecoded calls —
  // so for every queue shape the invariant counts and the per-bank-group
  // census still match the serial oracle exactly.
  for (const Platform& platform : AllPlatforms()) {
    const std::vector<MemRequest> stream = MakeStream(platform, 0x5B5B);
    ControllerSet serial(platform.geometry);
    RunClosedLoop(stream, serial.ptrs, TestEngineConfig());

    for (const uint32_t bgpq : {1u, 2u, 4u}) {
      ControllerSet sharded(platform.geometry);
      ShardedEngineConfig config;
      config.engine = TestEngineConfig();
      config.channels_per_shard = 2;
      config.bank_groups_per_queue = bgpq;
      Result<ShardedEngineResult> result = RunShardedClosedLoop(stream, sharded.ptrs, config);
      const std::string label = platform.name + " bgpq=" + std::to_string(bgpq);
      ASSERT_TRUE(result.ok()) << label;
      EXPECT_EQ(result->requests, stream.size()) << label;
      // Telemetry reports the §15 queue decomposition per shard.
      for (const ShardTelemetry& shard : result->shards) {
        EXPECT_EQ(shard.queues, ShardQueueCount(platform.geometry, shard.channels, bgpq))
            << label;
      }
      for (size_t socket = 0; socket < serial.ptrs.size(); ++socket) {
        ExpectShardInvariantCountsEqual(serial.ptrs[socket]->stats(),
                                        sharded.ptrs[socket]->stats(),
                                        label + " socket" + std::to_string(socket));
        const auto& lhs = serial.ptrs[socket]->bank_group_counts();
        const auto& rhs = sharded.ptrs[socket]->bank_group_counts();
        ASSERT_EQ(lhs.size(), rhs.size()) << label;
        for (size_t group = 0; group < lhs.size(); ++group) {
          EXPECT_EQ(lhs[group].act, rhs[group].act) << label << " group " << group;
          EXPECT_EQ(lhs[group].pre, rhs[group].pre) << label << " group " << group;
          EXPECT_EQ(lhs[group].rd, rhs[group].rd) << label << " group " << group;
          EXPECT_EQ(lhs[group].wr, rhs[group].wr) << label << " group " << group;
        }
      }
    }
  }
}

TEST(ShardedDifferentialTest, BitIdenticalAcrossThreadCountsWithBankGroupQueues) {
  // Claim 2 with sub-channel queues on: bank_groups_per_queue is a model
  // knob (it moves completion times), threads stay a scheduler knob — the
  // results and the model-domain census must be byte-identical whether the
  // queues are served fused (threads = 1) or partitioned in parallel.
  for (const Platform& platform : AllPlatforms()) {
    const std::vector<MemRequest> stream = MakeStream(platform, 0xBEEF + 15);
    std::vector<ShardedEngineResult> results;
    std::vector<std::string> censuses;
    for (const uint32_t threads : {1u, 2u, 8u}) {
      obs::Registry::Global().Reset();
      std::string census;
      ShardedEngineResult run;
      {
        ControllerSet controllers(platform.geometry);
        ShardedEngineConfig config;
        config.engine = TestEngineConfig();
        config.channels_per_shard = 2;
        config.bank_groups_per_queue = 1;
        config.threads = threads;
        Result<ShardedEngineResult> result =
            RunShardedClosedLoop(stream, controllers.ptrs, config);
        ASSERT_TRUE(result.ok()) << platform.name << " threads=" << threads;
        run = *result;
      }  // controllers destroyed: lifetime censuses flushed to the registry
      census = obs::Registry::Global().SectionJson(obs::Domain::kModel);
      if (!results.empty()) {
        const ShardedEngineResult& reference = results.front();
        const std::string label = platform.name + " bgpq=1 threads=" + std::to_string(threads);
        EXPECT_EQ(run.elapsed_ns, reference.elapsed_ns) << label;
        EXPECT_EQ(run.requests, reference.requests) << label;
        ASSERT_EQ(run.shards.size(), reference.shards.size()) << label;
        for (size_t shard = 0; shard < run.shards.size(); ++shard) {
          EXPECT_EQ(run.shards[shard].requests, reference.shards[shard].requests) << label;
          EXPECT_EQ(run.shards[shard].elapsed_ns, reference.shards[shard].elapsed_ns) << label;
          EXPECT_EQ(run.shards[shard].queues, reference.shards[shard].queues) << label;
        }
        EXPECT_EQ(census, censuses.front()) << label;
      }
      results.push_back(run);
      censuses.push_back(census);
    }
  }
}

TEST(ShardedDifferentialTest, BitIdenticalAcrossThreadCounts) {
  for (const Platform& platform : AllPlatforms()) {
    const std::vector<MemRequest> stream = MakeStream(platform, 0xBEEF);
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
        config.channels_per_shard = 2;
        config.threads = threads;
        Result<ShardedEngineResult> result =
            RunShardedClosedLoop(stream, controllers.ptrs, config);
        ASSERT_TRUE(result.ok()) << platform.name << " threads=" << threads;
        run = *result;
      }  // controllers destroyed: lifetime censuses flushed to the registry
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
          EXPECT_EQ(run.shards[shard].socket, reference.shards[shard].socket) << label;
          EXPECT_EQ(run.shards[shard].first_channel, reference.shards[shard].first_channel)
              << label;
        }
        // Byte-identical model-domain metrics (per-shard censuses included).
        EXPECT_EQ(census, censuses.front()) << label;
      }
      results.push_back(run);
      censuses.push_back(census);
    }
  }
}

TEST(ShardedDifferentialTest, FusedMatchesMultiWorkerBitForBit) {
  for (const Platform& platform : AllPlatforms()) {
    const std::vector<MemRequest> stream = MakeStream(platform, 0xFA57);
    ShardedEngineConfig config;
    config.engine = TestEngineConfig();
    config.channels_per_shard = 1;

    // threads > 1: partition + one ShardServer per shard on a pool.
    ControllerSet parallel(platform.geometry);
    config.threads = 4;
    Result<ShardedEngineResult> parallel_result =
        RunShardedClosedLoop(stream, parallel.ptrs, config);
    ASSERT_TRUE(parallel_result.ok()) << platform.name;
    config.threads = 1;

    ControllerSet fused(platform.geometry);
    Result<ShardedEngineResult> fused_result = RunShardedFused(
        stream.size(),
        [&](auto&& emit) {
          for (const MemRequest& request : stream) {
            emit(fused.ptrs[request.address.socket]->DecodeCmd(request),
                 request.address.socket);
          }
        },
        fused.ptrs, config);
    ASSERT_TRUE(fused_result.ok()) << platform.name;

    EXPECT_EQ(fused_result->elapsed_ns, parallel_result->elapsed_ns) << platform.name;
    EXPECT_EQ(fused_result->requests, parallel_result->requests) << platform.name;
    ASSERT_EQ(fused_result->shards.size(), parallel_result->shards.size());
    for (size_t shard = 0; shard < fused_result->shards.size(); ++shard) {
      EXPECT_EQ(fused_result->shards[shard].requests,
                parallel_result->shards[shard].requests)
          << platform.name;
      EXPECT_EQ(fused_result->shards[shard].elapsed_ns,
                parallel_result->shards[shard].elapsed_ns)
          << platform.name;
    }
    for (size_t socket = 0; socket < parallel.ptrs.size(); ++socket) {
      ExpectStatsBitIdentical(fused.ptrs[socket]->stats(), parallel.ptrs[socket]->stats(),
                              platform.name + " socket" + std::to_string(socket));
    }
  }
}

TEST(ShardedDifferentialTest, OneShardPerChannelMatchesWiderShards) {
  // Different channels_per_shard values are different *models* and may
  // legally differ in time, but shard-invariant counts must agree among
  // themselves too (the partition argument applies between any two
  // shardings, not just sharded-vs-serial).
  const Platform platform{
      "skylake_ddr4", DramGeometry{}, std::make_unique<SkylakeDecoder>(DramGeometry{})};
  const std::vector<MemRequest> stream = MakeStream(platform, 0x5EED);
  ControllerSet narrow(platform.geometry);
  ControllerSet wide(platform.geometry);
  ShardedEngineConfig config;
  config.engine = TestEngineConfig();
  config.channels_per_shard = 1;
  ASSERT_TRUE(RunShardedClosedLoop(stream, narrow.ptrs, config).ok());
  config.channels_per_shard = 3;
  ASSERT_TRUE(RunShardedClosedLoop(stream, wide.ptrs, config).ok());
  for (size_t socket = 0; socket < narrow.ptrs.size(); ++socket) {
    ExpectShardInvariantCountsEqual(narrow.ptrs[socket]->stats(), wide.ptrs[socket]->stats(),
                                    "cps 1 vs 3 socket" + std::to_string(socket));
  }
}

TEST(ShardedDifferentialTest, RunWorkloadBitIdenticalAcrossThreads) {
  WorkloadSpec spec = *FindWorkload("redis-a");
  spec.accesses = 100000;
  RunnerConfig config;
  config.trials = 3;
  config.vm.memory_bytes = 3ull << 30;
  config.channels_per_shard = 1;

  std::vector<RunMeasurement> runs;
  for (uint32_t threads : {1u, 2u, 8u}) {
    config.threads = threads;
    Result<RunMeasurement> run = RunWorkload(config, spec);
    ASSERT_TRUE(run.ok()) << "threads=" << threads;
    runs.push_back(std::move(*run));
  }
  for (size_t i = 1; i < runs.size(); ++i) {
    EXPECT_EQ(runs[i].elapsed_ns.mean(), runs[0].elapsed_ns.mean());
    EXPECT_EQ(runs[i].elapsed_ns.stddev(), runs[0].elapsed_ns.stddev());
    EXPECT_EQ(runs[i].bandwidth_gibs.mean(), runs[0].bandwidth_gibs.mean());
    EXPECT_EQ(runs[i].row_hit_rate, runs[0].row_hit_rate);
    EXPECT_EQ(runs[i].shard_requests, runs[0].shard_requests);
  }
  // The sharded engine reported one slot per shard, every request accounted.
  ASSERT_FALSE(runs[0].shard_requests.empty());
  uint64_t total = 0;
  for (uint64_t requests : runs[0].shard_requests) {
    total += requests;
  }
  EXPECT_EQ(total, static_cast<uint64_t>(config.trials) * spec.accesses);
}

TEST(ShardedDifferentialTest, RunWorkloadDefaultsAreOneChannelAndOneBankGroup) {
  // RunnerConfig{} must time the model the figure benches and perfbench pin
  // explicitly: one shard per channel, one queue per bank group.
  WorkloadSpec spec = *FindWorkload("redis-a");
  spec.accesses = 60000;
  RunnerConfig defaults;
  defaults.trials = 2;
  defaults.vm.memory_bytes = 3ull << 30;
  RunnerConfig pinned = defaults;
  pinned.channels_per_shard = 1;
  pinned.bank_groups_per_queue = 1;

  Result<RunMeasurement> by_default = RunWorkload(defaults, spec);
  Result<RunMeasurement> by_value = RunWorkload(pinned, spec);
  ASSERT_TRUE(by_default.ok());
  ASSERT_TRUE(by_value.ok());
  EXPECT_EQ(by_default->elapsed_ns.mean(), by_value->elapsed_ns.mean());
  EXPECT_EQ(by_default->elapsed_ns.stddev(), by_value->elapsed_ns.stddev());
  EXPECT_EQ(by_default->bandwidth_gibs.mean(), by_value->bandwidth_gibs.mean());
  EXPECT_EQ(by_default->row_hit_rate, by_value->row_hit_rate);
  EXPECT_EQ(by_default->shard_requests, by_value->shard_requests);
}

TEST(ShardedDifferentialTest, ZeroShardKnobsAreInvalidArgument) {
  const Platform platform{
      "skylake_ddr4", DramGeometry{}, std::make_unique<SkylakeDecoder>(DramGeometry{})};
  const std::vector<MemRequest> stream = MakeStream(platform, 0x2E20, 1000);
  WorkloadSpec spec = *FindWorkload("redis-a");
  spec.accesses = 1000;
  for (const auto& [cps, bgpq] : {std::pair{0u, 1u}, std::pair{1u, 0u}}) {
    const std::string label = "cps=" + std::to_string(cps) + " bgpq=" + std::to_string(bgpq);
    for (const uint32_t threads : {1u, 4u}) {
      ControllerSet controllers(platform.geometry);
      ShardedEngineConfig config;
      config.engine = TestEngineConfig();
      config.channels_per_shard = cps;
      config.bank_groups_per_queue = bgpq;
      config.threads = threads;
      Result<ShardedEngineResult> served = RunShardedClosedLoop(stream, controllers.ptrs, config);
      ASSERT_FALSE(served.ok()) << label;
      EXPECT_EQ(served.error().code, ErrorCode::kInvalidArgument) << label;
      Result<ShardedEngineResult> fused =
          RunShardedFused(0, [](auto&&) {}, controllers.ptrs, config);
      ASSERT_FALSE(fused.ok()) << label;
      EXPECT_EQ(fused.error().code, ErrorCode::kInvalidArgument) << label;
      for (const MemoryController* controller : controllers.ptrs) {
        EXPECT_EQ(controller->stats().requests, 0u) << label;
      }
    }
    RunnerConfig runner;
    runner.trials = 1;
    runner.channels_per_shard = cps;
    runner.bank_groups_per_queue = bgpq;
    Result<RunMeasurement> run = RunWorkload(runner, spec);
    ASSERT_FALSE(run.ok()) << label;
    EXPECT_EQ(run.error().code, ErrorCode::kInvalidArgument) << label;
  }
}

TEST(ShardedDifferentialTest, FaultReplayFlipCensusMatchesSerial) {
  // ReplayDisturbance partitions by channel block with per-ACT timestamps
  // derived from global trace indices, so its flip census cannot depend on
  // the sharding or the worker count: it must equal a trace-order replay on
  // an identically built machine.
  const MachineConfig config = FragileFaultMachine(MachineConfig{});
  Machine reference(config);
  const std::vector<MemRequest> trace = HammerTrace(config.geometry, 0xF11B, 6000);
  ReplayInTraceOrder(reference, trace);
  const std::vector<uint64_t> expected = DrainFlipPhys(reference);
  ASSERT_FALSE(expected.empty()) << "the hammer trace must flip bits";

  for (const uint32_t channels_per_shard : {1u, 3u}) {
    for (const uint32_t threads : {1u, 4u}) {
      Machine machine(config);
      ReplayDisturbance(machine, trace, channels_per_shard, threads);
      EXPECT_EQ(DrainFlipPhys(machine), expected)
          << "cps=" << channels_per_shard << " threads=" << threads;
    }
  }
}

TEST(ShardedDifferentialTest, FaultReplayWithTrrMatchesSerial) {
  // The same identity with the TRR tracker live, compared record by record
  // (flip times included) and on every device counter: an ACT issued at any
  // other time would move the flips' timestamps, and where it crosses a REF
  // tick, the tracker's selections and victim refreshes.
  const MachineConfig config = TrrFaultMachine(MachineConfig{});
  Machine reference(config);
  const std::vector<MemRequest> trace = HammerTrace(config.geometry, 0x7BB, 6000);
  ReplayInTraceOrder(reference, trace);
  const std::vector<DeviceCounters> expected_counters = AllDeviceCounters(reference);
  const std::vector<PhysFlip> expected = reference.DrainFlips();
  ASSERT_FALSE(expected.empty()) << "the hammer trace must flip bits";
  uint64_t victim_refreshes = 0;
  for (const DeviceCounters& counters : expected_counters) {
    victim_refreshes += counters.trr_victim_refreshes;
  }
  ASSERT_GT(victim_refreshes, 0u) << "TRR must select targets";

  for (const uint32_t channels_per_shard : {1u, 3u}) {
    for (const uint32_t threads : {1u, 4u}) {
      Machine machine(config);
      ReplayDisturbance(machine, trace, channels_per_shard, threads);
      EXPECT_TRUE(AllDeviceCounters(machine) == expected_counters)
          << "cps=" << channels_per_shard << " threads=" << threads;
      EXPECT_TRUE(machine.DrainFlips() == expected)
          << "cps=" << channels_per_shard << " threads=" << threads;
    }
  }
}

}  // namespace
}  // namespace siloz
