// Algebraic properties of the shard-merge fold (MemoryController::AbsorbShard
// plus the ShardedEngineResult elapsed/requests fold; DESIGN.md §13).
//
// The merge is the one place shard results recombine, so its algebra is what
// the determinism contract rests on:
//  - the fold is a pure function of the shard sequence (same order, same
//    bits — twice),
//  - integer counters and the busy_ns max are associative under regrouping
//    (total_latency_ns, a double sum, is order-sensitive — which is exactly
//    why MergeShards pins one fixed fold order instead of relying on
//    associativity),
//  - a never-served shard is a fold identity,
//  - absorbing zeroes the source, so a double absorb is a no-op,
//  - shards touch disjoint bank groups, so the census fold is a disjoint
//    union, and
//  - the result-level fold is elapsed = max over shards, requests = sum,
//  - the registry's engine.shard<i>.* census equals each shard's own, and
//    a zero count (an idle shard's every count) registers no name.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "src/addr/decoder.h"
#include "src/base/rng.h"
#include "src/memctl/sharded_engine.h"
#include "src/obs/metrics.h"
#include "tests/support/serial_engine.h"

namespace siloz {
namespace {

EngineConfig TestEngineConfig() {
  EngineConfig config;
  config.max_outstanding = 8;
  config.compute_ns_per_access = 3.0;
  return config;
}

// A deterministic socket-0 stream confined to `channel`.
std::vector<MemRequest> ChannelStream(const DramGeometry& geometry, uint32_t channel,
                                      uint64_t seed, uint64_t count) {
  const SkylakeDecoder decoder(geometry);
  Rng rng(seed);
  const uint64_t lines = geometry.total_bytes() / kCacheLineBytes;
  std::vector<MemRequest> stream;
  stream.reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    // Redirect a random address onto the target channel; every other
    // coordinate stays randomized.
    MediaAddress address = *decoder.PhysToMedia(rng.NextBelow(lines) * kCacheLineBytes);
    address.socket = 0;
    address.channel = channel;
    MemRequest request;
    request.address = address;
    request.is_write = rng.NextBernoulli(0.25);
    request.source_socket = 0;
    stream.push_back(request);
  }
  return stream;
}

// Serves ChannelStream(channel) into a fresh controller through one
// ShardServer, giving each "shard" a distinct, channel-disjoint footprint.
std::unique_ptr<MemoryController> ServeChannelShard(const DramGeometry& geometry,
                                                    uint32_t channel, uint64_t seed,
                                                    uint64_t count = 20000,
                                                    uint32_t bank_groups_per_queue = 1,
                                                    EngineResult* served = nullptr) {
  auto controller = std::make_unique<MemoryController>(geometry, 0);
  ShardServer server(*controller, TestEngineConfig(), bank_groups_per_queue, channel,
                     /*channels=*/1);
  for (const MemRequest& request : ChannelStream(geometry, channel, seed, count)) {
    server.Feed(controller->DecodeCmd(request));
  }
  if (served != nullptr) {
    *served = server.result();
  }
  return controller;
}

bool StatsBitIdentical(const ControllerStats& a, const ControllerStats& b) {
  return a.requests == b.requests && a.row_hits == b.row_hits &&
         a.row_misses == b.row_misses && a.activates == b.activates &&
         a.precharges == b.precharges && a.reads == b.reads && a.writes == b.writes &&
         a.ref_tail_hits == b.ref_tail_hits && a.busy_ns == b.busy_ns &&
         a.total_latency_ns == b.total_latency_ns;
}

TEST(ShardMergePropertyTest, FixedOrderFoldIsDeterministic) {
  const DramGeometry geometry;
  ControllerStats folds[2];
  for (int repeat = 0; repeat < 2; ++repeat) {
    MemoryController target(geometry, 0);
    for (uint32_t channel = 0; channel < 3; ++channel) {
      auto shard = ServeChannelShard(geometry, channel, 100 + channel);
      target.AbsorbShard(*shard);
    }
    folds[repeat] = target.stats();
  }
  EXPECT_TRUE(StatsBitIdentical(folds[0], folds[1]))
      << "same shard sequence, different fold bits";
}

TEST(ShardMergePropertyTest, CounterFoldAssociativeUnderRegrouping) {
  // (target + A) + B  vs  target + (A + B): integer counters, the census,
  // and the busy_ns max must agree; total_latency_ns is excluded because
  // double addition is not associative — the fixed fold order exists
  // precisely so that non-associativity never becomes observable.
  const DramGeometry geometry;
  MemoryController left(geometry, 0);
  {
    auto a = ServeChannelShard(geometry, 0, 7);
    auto b = ServeChannelShard(geometry, 1, 8);
    left.AbsorbShard(*a);
    left.AbsorbShard(*b);
  }
  MemoryController right(geometry, 0);
  {
    auto a = ServeChannelShard(geometry, 0, 7);
    auto b = ServeChannelShard(geometry, 1, 8);
    a->AbsorbShard(*b);
    right.AbsorbShard(*a);
  }
  EXPECT_EQ(left.stats().requests, right.stats().requests);
  EXPECT_EQ(left.stats().row_hits, right.stats().row_hits);
  EXPECT_EQ(left.stats().row_misses, right.stats().row_misses);
  EXPECT_EQ(left.stats().activates, right.stats().activates);
  EXPECT_EQ(left.stats().precharges, right.stats().precharges);
  EXPECT_EQ(left.stats().reads, right.stats().reads);
  EXPECT_EQ(left.stats().writes, right.stats().writes);
  EXPECT_EQ(left.stats().ref_tail_hits, right.stats().ref_tail_hits);
  EXPECT_EQ(left.stats().busy_ns, right.stats().busy_ns);  // max is associative
  for (size_t g = 0; g < left.bank_group_counts().size(); ++g) {
    EXPECT_EQ(left.bank_group_counts()[g].act, right.bank_group_counts()[g].act);
    EXPECT_EQ(left.bank_group_counts()[g].rd, right.bank_group_counts()[g].rd);
    EXPECT_EQ(left.bank_group_counts()[g].wr, right.bank_group_counts()[g].wr);
  }
}

TEST(ShardMergePropertyTest, EmptyShardIsFoldIdentity) {
  const DramGeometry geometry;
  auto target = ServeChannelShard(geometry, 2, 42);
  const ControllerStats before = target->stats();
  MemoryController empty(geometry, 0);  // never served a request
  target->AbsorbShard(empty);
  EXPECT_TRUE(StatsBitIdentical(before, target->stats()))
      << "absorbing an empty shard changed the fold";
}

TEST(ShardMergePropertyTest, AbsorbZeroesSourceSoDoubleAbsorbIsNoOp) {
  const DramGeometry geometry;
  MemoryController target(geometry, 0);
  auto shard = ServeChannelShard(geometry, 1, 9);
  target.AbsorbShard(*shard);
  const ControllerStats after_first = target.stats();
  EXPECT_EQ(shard->stats().requests, 0u);  // source zeroed
  target.AbsorbShard(*shard);              // second absorb folds nothing
  EXPECT_TRUE(StatsBitIdentical(after_first, target.stats()));
  for (const BankGroupCounts& group : shard->bank_group_counts()) {
    EXPECT_EQ(group.act + group.pre + group.rd + group.wr + group.ref, 0u);
  }
}

TEST(ShardMergePropertyTest, ChannelShardsHaveDisjointBankGroupCensuses) {
  // Each channel owns a disjoint bank-index range, so two channel shards can
  // never write the same bank-group slot: the census fold is a disjoint
  // union, and the merged census equals each shard's own census on its
  // groups.
  const DramGeometry geometry;
  auto shard_a = ServeChannelShard(geometry, 0, 11);
  auto shard_b = ServeChannelShard(geometry, 1, 12);
  const std::vector<BankGroupCounts> census_a = shard_a->bank_group_counts();
  const std::vector<BankGroupCounts> census_b = shard_b->bank_group_counts();
  ASSERT_EQ(census_a.size(), census_b.size());
  uint64_t overlap = 0;
  uint64_t populated = 0;
  for (size_t g = 0; g < census_a.size(); ++g) {
    const bool a_active = census_a[g].rd + census_a[g].wr > 0;
    const bool b_active = census_b[g].rd + census_b[g].wr > 0;
    overlap += static_cast<uint64_t>(a_active && b_active);
    populated += static_cast<uint64_t>(a_active || b_active);
  }
  EXPECT_EQ(overlap, 0u) << "channel shards touched a shared bank group";
  EXPECT_GT(populated, 0u);

  MemoryController target(geometry, 0);
  target.AbsorbShard(*shard_a);
  target.AbsorbShard(*shard_b);
  for (size_t g = 0; g < census_a.size(); ++g) {
    EXPECT_EQ(target.bank_group_counts()[g].rd, census_a[g].rd + census_b[g].rd);
    EXPECT_EQ(target.bank_group_counts()[g].act, census_a[g].act + census_b[g].act);
  }
}

TEST(ShardMergePropertyTest, ShardQueueCountAlgebra) {
  // DESIGN.md §15: queues = ceil(banks / (kBanksPerGroup * bgpq)), bgpq >= 1.
  const DramGeometry geometry;  // 32 banks per channel by default
  EXPECT_EQ(ShardQueueCount(geometry, 1, 1), geometry.banks_per_channel() / kBanksPerGroup);
  for (uint32_t channels : {1u, 2u, 3u, 6u}) {
    for (uint32_t bgpq : {1u, 2u, 4u, 8u}) {
      const uint32_t queues = ShardQueueCount(geometry, channels, bgpq);
      const uint32_t banks = channels * geometry.banks_per_channel();
      // Ceil division: every bank routes to a queue, and the last queue is
      // non-empty.
      EXPECT_GE(queues * kBanksPerGroup * bgpq, banks);
      EXPECT_LT((queues - 1) * kBanksPerGroup * bgpq, banks);
    }
  }
  // Grouping coarser than the shard degrades to one queue, never zero.
  EXPECT_EQ(ShardQueueCount(geometry, 1, 1000), 1u);
}

TEST(ShardMergePropertyTest, BankGroupQueueRegroupingPreservesInvariantCounts) {
  // Splitting a shard's completion window into per-bank-group queues changes
  // completion *times* only: ServeDecoded runs once per command in the same
  // stream order under every regrouping, so the request/hit/miss/ACT/PRE/
  // read/write censuses are equal across queue shapes (§15). Timing fields
  // (busy_ns, latency, ref_tail_hits) are deliberately excluded — they are
  // exactly what the regrouping is allowed to move.
  const DramGeometry geometry;
  const uint32_t whole_shard = geometry.banks_per_channel() / kBanksPerGroup;
  std::vector<ControllerStats> stats;
  for (const uint32_t bgpq : {1u, 2u, 4u, whole_shard}) {
    stats.push_back(ServeChannelShard(geometry, 1, 77, 20000, bgpq)->stats());
  }
  for (size_t i = 1; i < stats.size(); ++i) {
    EXPECT_EQ(stats[i].requests, stats[0].requests) << "shape " << i;
    EXPECT_EQ(stats[i].row_hits, stats[0].row_hits) << "shape " << i;
    EXPECT_EQ(stats[i].row_misses, stats[0].row_misses) << "shape " << i;
    EXPECT_EQ(stats[i].activates, stats[0].activates) << "shape " << i;
    EXPECT_EQ(stats[i].precharges, stats[0].precharges) << "shape " << i;
    EXPECT_EQ(stats[i].reads, stats[0].reads) << "shape " << i;
    EXPECT_EQ(stats[i].writes, stats[0].writes) << "shape " << i;
  }
}

TEST(ShardMergePropertyTest, WholeShardQueueMatchesSerialOracleBitForBit) {
  // A single-channel stream through one whole-shard queue is the serial
  // oracle's loop (one window, one issue cursor, one controller), so every
  // ControllerStats field — timing included — and the elapsed time must
  // match bit for bit.
  const DramGeometry geometry;
  const uint32_t whole_shard = geometry.banks_per_channel() / kBanksPerGroup;
  ASSERT_EQ(ShardQueueCount(geometry, 1, whole_shard), 1u);
  EngineResult sharded;
  auto one_queue = ServeChannelShard(geometry, 0, 5, 20000, whole_shard, &sharded);

  MemoryController serial_controller(geometry, 0);
  MemoryController* serial_controllers[] = {&serial_controller};
  const EngineResult serial =
      RunClosedLoop(ChannelStream(geometry, 0, 5, 20000), serial_controllers, TestEngineConfig());
  EXPECT_TRUE(StatsBitIdentical(serial_controller.stats(), one_queue->stats()))
      << "whole-shard queue diverged from the serial oracle";
  EXPECT_EQ(sharded.elapsed_ns, serial.elapsed_ns);
  EXPECT_EQ(sharded.requests, serial.requests);
}

TEST(ShardMergePropertyTest, ResultFoldIsElapsedMaxRequestsSum) {
  const DramGeometry geometry;
  const SkylakeDecoder decoder(geometry);
  Rng rng(0xF01D);
  const uint64_t lines = geometry.total_bytes() / kCacheLineBytes;
  std::vector<MemRequest> stream;
  for (uint64_t i = 0; i < 30000; ++i) {
    MemRequest request;
    request.address = *decoder.PhysToMedia(rng.NextBelow(lines) * kCacheLineBytes);
    request.is_write = rng.NextBernoulli(0.5);
    stream.push_back(request);
  }
  std::vector<std::unique_ptr<MemoryController>> owned;
  std::vector<MemoryController*> controllers;
  for (uint32_t socket = 0; socket < geometry.sockets; ++socket) {
    owned.push_back(std::make_unique<MemoryController>(geometry, socket));
    controllers.push_back(owned.back().get());
  }
  ShardedEngineConfig config;
  config.engine = TestEngineConfig();
  config.channels_per_shard = 1;
  Result<ShardedEngineResult> result = RunShardedClosedLoop(stream, controllers, config);
  ASSERT_TRUE(result.ok());

  double max_elapsed = 0.0;
  uint64_t sum_requests = 0;
  for (const ShardTelemetry& shard : result->shards) {
    max_elapsed = std::max(max_elapsed, shard.elapsed_ns);
    sum_requests += shard.requests;
  }
  EXPECT_EQ(result->elapsed_ns, max_elapsed);
  EXPECT_EQ(result->requests, sum_requests);
  EXPECT_EQ(result->requests, stream.size());
}

// The engine.shard<i>.* names registered in the global registry's model
// section.
std::set<std::string> EngineShardNames() {
  const std::string json = obs::Registry::Global().SectionJson(obs::Domain::kModel);
  const std::string marker = "\"engine.shard";
  std::set<std::string> names;
  for (size_t at = json.find(marker); at != std::string::npos; at = json.find(marker, at + 1)) {
    names.insert(json.substr(at + 1, json.find('"', at + 1) - at - 1));
  }
  return names;
}

TEST(ShardMergePropertyTest, RegistryCensusMatchesEachShardAndSkipsZeros) {
  // A socket-0 stream on channels 0 and 3 plus a single request on channel
  // 4: one miss and no hit. Every other shard stays idle.
  const DramGeometry geometry;
  struct Served {
    uint32_t channel;
    uint64_t seed;
    uint64_t count;
  };
  const Served served[] = {{0, 21, 6000}, {3, 22, 4000}, {4, 23, 1}};
  std::vector<MemRequest> stream;
  for (const Served& s : served) {
    const std::vector<MemRequest> part = ChannelStream(geometry, s.channel, s.seed, s.count);
    stream.insert(stream.end(), part.begin(), part.end());
  }
  std::vector<std::unique_ptr<MemoryController>> owned;
  std::vector<MemoryController*> controllers;
  for (uint32_t socket = 0; socket < geometry.sockets; ++socket) {
    owned.push_back(std::make_unique<MemoryController>(geometry, socket));
    controllers.push_back(owned.back().get());
  }
  ShardedEngineConfig config;
  config.engine = TestEngineConfig();
  config.threads = 2;
  obs::Registry& registry = obs::Registry::Global();
  // Earlier tests in this process may have registered names; Reset zeroes
  // them, and only names this run adds are checked for the zero skip.
  registry.Reset();
  const std::set<std::string> before = EngineShardNames();
  ASSERT_TRUE(RunShardedClosedLoop(stream, controllers, config).ok());
  const std::set<std::string> after = EngineShardNames();

  ASSERT_EQ(ServeChannelShard(geometry, 4, 23, 1)->stats().row_hits, 0u)
      << "the one-request shard must exercise the zero skip";
  const ShardPlan plan(geometry, geometry.sockets, config.channels_per_shard);
  std::set<std::string> nonzero;
  for (const Served& s : served) {
    // Partition keeps trace order, so the shard served exactly this
    // channel's stream, as ServeChannelShard does alone.
    const ControllerStats census =
        ServeChannelShard(geometry, s.channel, s.seed, s.count)->stats();
    const std::string prefix = "engine.shard" + std::to_string(plan.ShardOf(0, s.channel)) + ".";
    for (const auto& [name, expected] : {std::pair{"requests", census.requests},
                                         std::pair{"row_hits", census.row_hits},
                                         std::pair{"row_misses", census.row_misses}}) {
      if (expected > 0) {
        nonzero.insert(prefix + name);
        EXPECT_EQ(after.count(prefix + name), 1u) << prefix << name << " missing";
        EXPECT_EQ(registry.GetCounter(prefix + name).Value(), expected) << prefix << name;
      }
    }
  }
  for (const std::string& name : after) {
    if (nonzero.count(name) == 0) {
      EXPECT_EQ(before.count(name), 1u) << name << " registered with count 0";
      EXPECT_EQ(registry.GetCounter(name).Value(), 0u) << name;
    }
  }
}

}  // namespace
}  // namespace siloz
