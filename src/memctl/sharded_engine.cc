#include "src/memctl/sharded_engine.h"

#include <algorithm>
#include <limits>
#include <optional>
#include <string>

#include "src/base/thread_pool.h"
#include "src/obs/metrics.h"

namespace siloz {

Status ValidateShardKnobs(uint32_t channels_per_shard, uint32_t bank_groups_per_queue) {
  if (channels_per_shard == 0) {
    return MakeError(ErrorCode::kInvalidArgument, "channels_per_shard must be >= 1");
  }
  if (bank_groups_per_queue == 0) {
    return MakeError(ErrorCode::kInvalidArgument, "bank_groups_per_queue must be >= 1");
  }
  return Status::Ok();
}

ShardPartition PartitionByShard(const ShardPlan& plan, std::span<const MemRequest> trace) {
  SILOZ_CHECK(trace.size() <= std::numeric_limits<uint32_t>::max());
  const auto count = static_cast<uint32_t>(trace.size());
  ShardPartition partition;
  partition.offsets.assign(plan.shard_count() + 1, 0);
  // Counting pass: per-shard sizes, so the index array is sized exactly once.
  for (const MemRequest& request : trace) {
    ++partition.offsets[plan.ShardOf(request.address.socket, request.address.channel) + 1];
  }
  for (uint32_t shard = 0; shard < plan.shard_count(); ++shard) {
    partition.offsets[shard + 1] += partition.offsets[shard];
  }
  // Scatter pass in trace order, so each shard's slice keeps trace order.
  partition.indices.resize(count);
  std::vector<uint32_t> cursor(partition.offsets.begin(), partition.offsets.end() - 1);
  for (uint32_t index = 0; index < count; ++index) {
    const MediaAddress& address = trace[index].address;
    partition.indices[cursor[plan.ShardOf(address.socket, address.channel)]++] = index;
  }
  return partition;
}

namespace sharded_internal {

Result<ShardedEngineResult> MergeShards(const ShardPlan& plan,
                                        std::span<std::optional<MemoryController>> shard_controllers,
                                        std::span<const EngineResult> shard_results,
                                        std::span<MemoryController* const> controllers,
                                        uint64_t expected_requests,
                                        uint32_t bank_groups_per_queue) {
  SILOZ_CHECK(shard_controllers.size() == plan.shard_count());
  SILOZ_CHECK(shard_results.size() == plan.shard_count());

  // Fixed-order merge: ascending shard index (socket-major, then channel
  // block). AbsorbShard zeroes each shard controller, so their destructors
  // flush nothing — the absorb targets own the metrics export. The
  // model-domain per-shard census stages through ShardMetrics and folds in
  // the same shard order, keeping registry contents thread-count-invariant.
  ShardedEngineResult result;
  result.shards.reserve(plan.shard_count());
  obs::Registry& registry = obs::Registry::Global();
  obs::ShardMetrics staged;
  for (uint32_t shard = 0; shard < plan.shard_count(); ++shard) {
    const ControllerStats& stats = shard_controllers[shard]->stats();
    const std::string prefix = "engine.shard" + std::to_string(shard) + ".";
    staged.Add(prefix + "requests", stats.requests);
    staged.Add(prefix + "row_hits", stats.row_hits);
    staged.Add(prefix + "row_misses", stats.row_misses);
    controllers[plan.SocketOf(shard)]->AbsorbShard(*shard_controllers[shard]);
    const EngineResult& served = shard_results[shard];
    result.elapsed_ns = std::max(result.elapsed_ns, served.elapsed_ns);
    result.requests += served.requests;
    ShardTelemetry telemetry;
    telemetry.socket = plan.SocketOf(shard);
    telemetry.first_channel = plan.FirstChannelOf(shard);
    telemetry.channels = plan.ChannelsOf(shard);
    telemetry.queues = ShardQueueCount(controllers[0]->geometry(), telemetry.channels,
                                       bank_groups_per_queue);
    telemetry.requests = served.requests;
    telemetry.elapsed_ns = served.elapsed_ns;
    result.shards.push_back(telemetry);
  }
  staged.FoldInto(registry);

  // Conservation checker: partition + serve + merge must neither drop nor
  // duplicate a request. A violation here means a shard-dispatch bug, not a
  // model disagreement, so it is an integrity error rather than a CHECK —
  // the fault-injection battery drives this path deliberately.
  if (result.requests != expected_requests) {
    return MakeError(ErrorCode::kIntegrityViolation,
                     "shard conservation violated: served " +
                         std::to_string(result.requests) + " of " +
                         std::to_string(expected_requests) + " requests");
  }
  return result;
}

}  // namespace sharded_internal

Result<ShardedEngineResult> RunShardedClosedLoop(std::span<const MemRequest> requests,
                                                 std::span<MemoryController* const> controllers,
                                                 const ShardedEngineConfig& config) {
  SILOZ_CHECK(!controllers.empty());
  // One worker serves every shard inline, so partitioning first would only
  // walk the trace a second time: decode-and-feed fused is the same
  // per-shard command sequence with that pass skipped.
  if (config.threads <= 1) {
    return RunShardedFused(
        requests.size(),
        [&](auto&& emit) {
          for (const MemRequest& request : requests) {
            SILOZ_DCHECK(request.address.socket < controllers.size());
            emit(controllers[request.address.socket]->DecodeCmd(request),
                 request.address.socket);
          }
        },
        controllers, config);
  }
  SILOZ_RETURN_IF_ERROR(ValidateShardKnobs(config.channels_per_shard,
                                           config.bank_groups_per_queue));
  const ShardPlan plan(controllers[0]->geometry(), static_cast<uint32_t>(controllers.size()),
                       config.channels_per_shard);
  SILOZ_FAULT_POINT("alloc.shard.partition");
  const ShardPartition partition = PartitionByShard(plan, requests);
  // Fires before any shard serves: an injected dispatch failure must leave
  // the absorb-target controllers untouched (tested by the sharded stress
  // battery's fault-injection leg).
  SILOZ_FAULT_POINT("alloc.shard.dispatch");

  // Worker tasks fill only their own slot; ParallelFor's join makes the
  // coordinating thread's ordered merge race-free. Each shard decodes its
  // own subsequence inline against its private controller.
  std::vector<std::optional<MemoryController>> shard_controllers(plan.shard_count());
  std::vector<EngineResult> shard_results(plan.shard_count());
  ParallelFor(config.threads, plan.shard_count(), [&](uint64_t index) {
    const auto shard = static_cast<uint32_t>(index);
    const uint32_t socket = plan.SocketOf(shard);
    MemoryController& controller = shard_controllers[shard].emplace(
        controllers[socket]->geometry(), socket, controllers[socket]->timings());
    ShardServer server(controller, config.engine, config.bank_groups_per_queue,
                       plan.FirstChannelOf(shard), plan.ChannelsOf(shard));
    for (const uint32_t i : partition.Shard(shard)) {
      server.Feed(controller.DecodeCmd(requests[i]));
    }
    shard_results[shard] = server.result();
  });
  return sharded_internal::MergeShards(plan, shard_controllers, shard_results, controllers,
                                       requests.size(), config.bank_groups_per_queue);
}

}  // namespace siloz
