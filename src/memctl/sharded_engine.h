// The serve engine: per-channel command queues, split per bank group.
//
// Real controllers do not couple every channel through one MLP window: each
// channel owns an independent command queue, and cores sustain their MLP
// against the channel actually servicing the miss. The engine models that
// decomposition (DESIGN.md §13): the request stream is partitioned by
// (socket, channel block) into shards, every shard runs its own closed loop
// (ShardServer) against a shard-private MemoryController, and the per-shard
// results are merged in a fixed shard order.
//
// One level below the channel (DESIGN.md §15), each shard splits into
// per-bank-group command queues: every block of bank_groups_per_queue bank
// groups owns its own CompletionWindow, so a request stalls only behind its
// own queue's oldest in-flight miss while the shard's issue cursor keeps the
// command stream in order. This models the bank-level parallelism real
// controller front-ends schedule around.
//
// Determinism contract (DESIGN.md §8/§13): the shard decomposition is a
// property of the *model configuration* (channels_per_shard), never of the
// worker count. Shards share no mutable state while serving, and the merge —
// stats absorption, elapsed fold, telemetry — walks shards in ascending
// shard index on the coordinating thread. Results are therefore bit-identical
// for every `threads` value, including 1.
//
// Relation to the single-window serial loop (kept as the test oracle,
// tests/support/serial_engine.h): per-bank command subsequences are
// identical under partition, so row hits/misses, ACT/PRE censuses, and
// read/write counts match it exactly (tests/sharded_differential_test.cc
// pins this). Completion *times* differ by design — per-queue windows
// against one global window.
#ifndef SILOZ_SRC_MEMCTL_SHARDED_ENGINE_H_
#define SILOZ_SRC_MEMCTL_SHARDED_ENGINE_H_

#include <algorithm>
#include <cstdint>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "src/base/check.h"
#include "src/base/fault_injector.h"
#include "src/base/result.h"
#include "src/memctl/controller.h"
#include "src/memctl/engine.h"

namespace siloz {

struct ShardedEngineConfig {
  // Per-shard closed-loop parameters: each shard (channel command queue)
  // sustains its own MLP window and compute gap.
  EngineConfig engine;
  // Channels folded into one shard; >= 1, values above channels_per_socket
  // clamp to one shard per socket. Part of the model configuration: results
  // depend on this knob.
  uint32_t channels_per_shard = 1;
  // Sub-channel decomposition of each shard into per-bank-group command
  // queues (DESIGN.md §15): each block of N >= 1 bank groups (kBanksPerGroup
  // banks apiece) owns an independent queue with its own completion window;
  // the queues share the shard's issue cursor. A grouping that covers the
  // whole shard is one queue — the single-window shard. Part of the model
  // configuration: completion times depend on this knob — the per-bank
  // command subsequences, and hence every invariant census, do not.
  uint32_t bank_groups_per_queue = 1;
  // Workers for the shard serve loop (ParallelFor semantics; 1 = inline).
  // NOT part of the model: results are bit-identical for every value.
  uint32_t threads = 1;
};

// Rejects the model knobs no engine shape can serve: zero channels per shard
// or zero bank groups per queue (kInvalidArgument).
Status ValidateShardKnobs(uint32_t channels_per_shard, uint32_t bank_groups_per_queue);

// Fixed decomposition of the platform's channels into shards, enumerated
// socket-major then channel-block — the canonical merge order.
// `channels_per_shard` must be >= 1; values above channels_per_socket clamp
// to one shard per socket.
class ShardPlan {
 public:
  ShardPlan(const DramGeometry& geometry, uint32_t sockets, uint32_t channels_per_shard)
      : channels_per_socket_(geometry.channels_per_socket),
        channels_per_shard_(std::min(channels_per_shard, geometry.channels_per_socket)),
        sockets_(sockets),
        block_of_channel_(channels_per_socket_) {
    SILOZ_CHECK_GT(channels_per_shard, 0u);
    blocks_per_socket_ = (channels_per_socket_ + channels_per_shard_ - 1) / channels_per_shard_;
    // ShardOf runs once per command on the sharded hot paths; a prebuilt
    // channel->block table beats the integer divide it replaces.
    for (uint32_t channel = 0; channel < channels_per_socket_; ++channel) {
      block_of_channel_[channel] = channel / channels_per_shard_;
    }
  }

  uint32_t shard_count() const { return sockets_ * blocks_per_socket_; }
  uint32_t blocks_per_socket() const { return blocks_per_socket_; }
  uint32_t channels_per_shard() const { return channels_per_shard_; }

  uint32_t ShardOf(uint32_t socket, uint32_t channel) const {
    return socket * blocks_per_socket_ + block_of_channel_[channel];
  }
  uint32_t SocketOf(uint32_t shard) const { return shard / blocks_per_socket_; }
  uint32_t FirstChannelOf(uint32_t shard) const {
    return (shard % blocks_per_socket_) * channels_per_shard_;
  }
  uint32_t ChannelsOf(uint32_t shard) const {
    return std::min(channels_per_shard_, channels_per_socket_ - FirstChannelOf(shard));
  }

 private:
  uint32_t channels_per_socket_;
  uint32_t channels_per_shard_;
  uint32_t blocks_per_socket_ = 0;
  uint32_t sockets_;
  std::vector<uint32_t> block_of_channel_;  // channel -> block (shard within socket)
};

// Bank-group command queues one shard of `channels` channels decomposes
// into: ceil(banks / (kBanksPerGroup * bank_groups_per_queue)), with
// bank_groups_per_queue >= 1. Shared by the ShardServer construction, the
// merge telemetry, and the tests that pin the regrouping algebra.
inline uint32_t ShardQueueCount(const DramGeometry& geometry, uint32_t channels,
                                uint32_t bank_groups_per_queue) {
  SILOZ_CHECK_GT(bank_groups_per_queue, 0u);
  const uint32_t banks = channels * geometry.banks_per_channel();
  const uint32_t banks_per_queue = kBanksPerGroup * bank_groups_per_queue;
  return (banks + banks_per_queue - 1) / banks_per_queue;
}

// Per-shard slice of a run, reported in shard-plan order.
struct ShardTelemetry {
  uint32_t socket = 0;
  uint32_t first_channel = 0;
  uint32_t channels = 0;
  uint32_t queues = 1;  // bank-group command queues (ShardQueueCount)
  uint64_t requests = 0;
  double elapsed_ns = 0.0;
};

struct ShardedEngineResult {
  // Folded in ascending shard order: elapsed is the max over shards (shards
  // run concurrently in simulated time), requests the sum.
  double elapsed_ns = 0.0;
  uint64_t requests = 0;
  std::vector<ShardTelemetry> shards;

  double bandwidth_gib_per_s(double bytes_per_request = 64.0) const {
    if (elapsed_ns <= 0.0) {
      return 0.0;
    }
    return static_cast<double>(requests) * bytes_per_request / elapsed_ns *
           (1e9 / (1024.0 * 1024.0 * 1024.0));
  }
};

// One shard's closed loop as an incremental consumer: the CompletionWindow
// discipline (engine.h) against a shard-private controller, fed one
// pre-decoded command at a time in shard-stream order. Both entry points —
// fused streaming (RunShardedFused) and the parallel trace serve
// (RunShardedClosedLoop at threads > 1) — reduce each shard to exactly this
// sequence of operations, so the two are bit-identical by construction.
//
// The shard covers `channels` channels starting at `first_channel`; its
// banks split into ShardQueueCount() bank-group command queues (one
// CompletionWindow per block of kBanksPerGroup * bank_groups_per_queue
// banks). Each command stalls only on the oldest in-flight request of *its
// own* queue, while the shard-wide issue cursor keeps issues in stream order
// across queues. The queue routing is a pure function of the command's bank
// index — SocketBankIndex is channel-major, so a shard's banks form one
// contiguous index range and the route is a single LUT read off a
// shard-local base. ServeDecoded is called once per command in stream
// order, so every invariant census (hits/misses, ACT/PRE, reads/writes) is
// independent of the queue shape; only completion *times* change.
class ShardServer {
 public:
  ShardServer(MemoryController& controller, const EngineConfig& config,
              uint32_t bank_groups_per_queue, uint32_t first_channel, uint32_t channels)
      : controller_(&controller), config_(config) {
    const DramGeometry& geometry = controller.geometry();
    const uint32_t queues = ShardQueueCount(geometry, channels, bank_groups_per_queue);
    const uint32_t banks_per_channel = geometry.banks_per_channel();
    bank_base_ = first_channel * banks_per_channel;
    const uint32_t banks = channels * banks_per_channel;
    const uint32_t banks_per_queue = kBanksPerGroup * bank_groups_per_queue;
    queue_windows_.reserve(queues);
    for (uint32_t queue = 0; queue < queues; ++queue) {
      queue_windows_.emplace_back(config.max_outstanding);
    }
    queue_of_bank_.resize(banks);
    for (uint32_t bank = 0; bank < banks; ++bank) {
      queue_of_bank_[bank] = static_cast<uint16_t>(bank / banks_per_queue);
    }
    // Raw bases for the per-command route: Feed runs once per request, and
    // re-deriving data pointers through the vector headers each time costs
    // measurable ns/op on the fused loop.
    queue_base_ = queue_windows_.data();
    route_base_ = queue_of_bank_.data();
  }

  // Forced inline: Feed is the per-command body of the fused streaming loop
  // (once per request on the Fig 4 grid), and left to its own devices the
  // linker folds the out-of-line copy with unrelated identical code, hiding
  // a call per command inside the hot loop.
  [[gnu::always_inline]] inline void Feed(const DecodedCmd& cmd) {
    engine_internal::CompletionWindow& window =
        queue_base_[route_base_[static_cast<uint32_t>(cmd.bank_index) - bank_base_]];
    double completion;
    if (window.full()) {
      // The queue stalls until its oldest in-flight request retires; the new
      // request takes the retired slot.
      const size_t slot = window.MinSlot();
      issue_cursor_ = std::max(issue_cursor_, window.ValueAt(slot));
      completion = controller_->ServeDecoded(cmd, issue_cursor_);
      window.Replace(slot, completion);
    } else {
      completion = controller_->ServeDecoded(cmd, issue_cursor_);
      window.Push(completion);
    }
    last_completion_ = std::max(last_completion_, completion);
    issue_cursor_ += config_.compute_ns_per_access;
    ++requests_;
  }

  EngineResult result() const {
    EngineResult r;
    r.elapsed_ns = last_completion_;
    r.requests = requests_;
    return r;
  }

 private:
  MemoryController* controller_;
  EngineConfig config_;
  // One window per bank-group queue.
  std::vector<engine_internal::CompletionWindow> queue_windows_;
  // Shard-local bank index -> queue.
  std::vector<uint16_t> queue_of_bank_;
  // Cached .data() of the two vectors above (stable: both are sized once in
  // the constructor and never resized).
  engine_internal::CompletionWindow* queue_base_ = nullptr;
  const uint16_t* route_base_ = nullptr;
  uint32_t bank_base_ = 0;  // first bank of the shard (SocketBankIndex space)
  double issue_cursor_ = 0.0;
  double last_completion_ = 0.0;
  uint64_t requests_ = 0;
};

// Counting-sort partition of a trace's indices by shard (ShardPlan::ShardOf
// on each request's socket and channel): shard s owns
// indices[offsets[s], offsets[s + 1]), in trace order. The one decomposition
// shared by the parallel serve (RunShardedClosedLoop at threads > 1) and the
// parallel disturbance replay (ReplayDisturbance), so both walk exactly the
// per-shard subsequences the fused path feeds.
struct ShardPartition {
  std::vector<uint32_t> offsets;  // shard_count + 1 prefix sums
  std::vector<uint32_t> indices;  // trace indices, shard-major

  std::span<const uint32_t> Shard(uint32_t shard) const {
    return {indices.data() + offsets[shard], offsets[shard + 1] - offsets[shard]};
  }
};

ShardPartition PartitionByShard(const ShardPlan& plan, std::span<const MemRequest> trace);

namespace sharded_internal {

// The fixed-order merge shared by every sharded serve path: walks shards in
// ascending index (socket-major, then channel block) on the calling thread,
// absorbing each shard controller into controllers[socket], folding elapsed
// (max) and requests (sum), recording telemetry, and staging + folding the
// per-shard model-domain census into the global metrics registry. Ends with
// the conservation check (sum of per-shard requests == expected_requests);
// a violation is an integrity error, not a CHECK — the fault-injection
// battery drives that path deliberately.
Result<ShardedEngineResult> MergeShards(const ShardPlan& plan,
                                        std::span<std::optional<MemoryController>> shard_controllers,
                                        std::span<const EngineResult> shard_results,
                                        std::span<MemoryController* const> controllers,
                                        uint64_t expected_requests,
                                        uint32_t bank_groups_per_queue);

}  // namespace sharded_internal

// Serves a materialized trace. One worker (config.threads <= 1): the fused
// path, each request decoded and fed to its shard's server in trace order.
// More: PartitionByShard, then one ShardServer per shard on a pool of
// config.threads workers decoding its subsequence inline, then the ordered
// merge. Bit-identical either way. Zero channels_per_shard or
// bank_groups_per_queue is kInvalidArgument.
Result<ShardedEngineResult> RunShardedClosedLoop(std::span<const MemRequest> requests,
                                                 std::span<MemoryController* const> controllers,
                                                 const ShardedEngineConfig& config);

// Fused decode-and-serve: `for_each` is invoked once with an emit callback
// `(const DecodedCmd&, uint32_t socket)` and must produce the stream's
// commands in trace order (TraceStreamer::ForEachDecoded is the canonical
// producer); each command feeds its shard's closed loop the moment it is
// produced, with no per-shard batch materialization in between. Inherently
// single-threaded — the producer is serial — so it is the path whenever the
// caller parallelizes at a coarser level (e.g. the experiment runner's trial
// loop). Bit-identical to the parallel trace serve: each shard sees the
// same per-shard subsequence through the same ShardServer arithmetic, and
// the merge is the same fixed-order fold. `expected_requests` must equal
// the number of commands emitted (the conservation check fails the run
// otherwise). Zero channels_per_shard or bank_groups_per_queue is
// kInvalidArgument.
template <typename ForEachCmd>
Result<ShardedEngineResult> RunShardedFused(uint64_t expected_requests, ForEachCmd&& for_each,
                                            std::span<MemoryController* const> controllers,
                                            const ShardedEngineConfig& config) {
  SILOZ_CHECK(!controllers.empty());
  SILOZ_RETURN_IF_ERROR(ValidateShardKnobs(config.channels_per_shard,
                                           config.bank_groups_per_queue));
  const ShardPlan plan(controllers[0]->geometry(), static_cast<uint32_t>(controllers.size()),
                       config.channels_per_shard);
  // Both fault points of the parallel serve fire up front: an injected
  // failure must leave the absorb-target controllers untouched here too.
  SILOZ_FAULT_POINT("alloc.shard.partition");
  SILOZ_FAULT_POINT("alloc.shard.dispatch");
  std::vector<std::optional<MemoryController>> shard_controllers(plan.shard_count());
  std::vector<ShardServer> servers;
  servers.reserve(plan.shard_count());
  for (uint32_t shard = 0; shard < plan.shard_count(); ++shard) {
    const uint32_t socket = plan.SocketOf(shard);
    shard_controllers[shard].emplace(controllers[socket]->geometry(), socket,
                                     controllers[socket]->timings());
    servers.emplace_back(*shard_controllers[shard], config.engine, config.bank_groups_per_queue,
                         plan.FirstChannelOf(shard), plan.ChannelsOf(shard));
  }
  for_each([&](const DecodedCmd& cmd, uint32_t socket) {
    SILOZ_DCHECK(socket < controllers.size());
    servers[plan.ShardOf(socket, cmd.channel)].Feed(cmd);
  });
  std::vector<EngineResult> shard_results(plan.shard_count());
  for (uint32_t shard = 0; shard < plan.shard_count(); ++shard) {
    shard_results[shard] = servers[shard].result();
  }
  return sharded_internal::MergeShards(plan, shard_controllers, shard_results, controllers,
                                       expected_requests, config.bank_groups_per_queue);
}

}  // namespace siloz

#endif  // SILOZ_SRC_MEMCTL_SHARDED_ENGINE_H_
