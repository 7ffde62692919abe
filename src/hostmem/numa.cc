#include "src/hostmem/numa.h"

#include <algorithm>
#include <optional>
#include <string>

#include "src/base/bitops.h"
#include "src/base/check.h"
#include "src/base/fault_injector.h"

namespace siloz {

NumaNode::NumaNode(uint32_t id, NodeKind kind, uint32_t physical_socket, uint32_t first_group,
                   std::vector<PhysRange> ranges, bool has_cpus)
    : id_(id),
      kind_(kind),
      physical_socket_(physical_socket),
      first_group_(first_group),
      has_cpus_(has_cpus),
      ranges_(std::move(ranges)),
      allocator_(ranges_) {}

Result<uint64_t> NumaNode::AllocateContiguous(uint64_t bytes, uint32_t order) {
  SILOZ_FAULT_POINT("alloc.hv.contiguous");
  SILOZ_CHECK_EQ(bytes % OrderBytes(order), 0u);
  for (const PhysRange& range : ranges_) {
    for (uint64_t cursor = range.begin;;) {
      const std::optional<PhysRange> run = allocator_.NextFreeRun(cursor, order);
      if (!run || run->begin + bytes > range.end) {
        break;
      }
      if (run->end - run->begin >= bytes) {
        SILOZ_RETURN_IF_ERROR(allocator_.TakeRange(PhysRange{run->begin, run->begin + bytes},
                                                   BuddyAllocator::Take::kAllocate));
        return run->begin;
      }
      cursor = run->end;  // every start before it runs into the page at run->end
    }
  }
  return MakeError(ErrorCode::kNoMemory, "no contiguous run of " + std::to_string(bytes) +
                                             " bytes in node " + std::to_string(id_));
}

Result<std::vector<PhysRange>> NumaNode::AllocateRuns(uint64_t bytes, uint32_t order) {
  SILOZ_FAULT_POINT("alloc.hv.runs");
  const uint64_t block = OrderBytes(order);
  SILOZ_CHECK_EQ(bytes % block, 0u);
  std::vector<PhysRange> runs;
  const auto release_runs = [&] {
    for (const PhysRange& run : runs) {
      for (uint64_t phys = run.begin; phys < run.end; phys += block) {
        SILOZ_CHECK(allocator_.Free(phys, order).ok()) << "rollback failed to free " << phys;
      }
    }
  };
  uint64_t remaining = bytes;
  for (const PhysRange& range : ranges_) {
    for (uint64_t cursor = range.begin; remaining > 0;) {
      const std::optional<PhysRange> run = allocator_.NextFreeRun(cursor, order);
      if (!run || run->begin + block > range.end) {
        break;
      }
      const PhysRange take{
          run->begin,
          run->begin + std::min(remaining,
                                AlignDown(std::min(run->end, range.end) - run->begin, block))};
      if (Status taken = allocator_.TakeRange(take, BuddyAllocator::Take::kAllocate);
          !taken.ok()) {
        release_runs();
        return taken.error();
      }
      remaining -= take.size();
      if (!runs.empty() && runs.back().end == take.begin) {
        runs.back().end = take.end;
      } else {
        runs.push_back(take);
      }
      cursor = take.end;
    }
  }
  if (remaining != 0) {
    release_runs();
    return MakeError(ErrorCode::kNoMemory, "node " + std::to_string(id_) + " lacks " +
                                               std::to_string(bytes) + " free bytes at order " +
                                               std::to_string(order));
  }
  return runs;
}

NumaNode& NodeRegistry::AddNode(NodeKind kind, uint32_t physical_socket, uint32_t first_group,
                                std::vector<PhysRange> ranges, bool has_cpus) {
  const auto id = static_cast<uint32_t>(nodes_.size());
  nodes_.push_back(std::make_unique<NumaNode>(id, kind, physical_socket, first_group,
                                              std::move(ranges), has_cpus));
  return *nodes_.back();
}

Result<NumaNode*> NodeRegistry::Get(uint32_t node_id) {
  if (node_id >= nodes_.size()) {
    return MakeError(ErrorCode::kNotFound, "no node " + std::to_string(node_id));
  }
  return nodes_[node_id].get();
}

std::vector<NumaNode*> NodeRegistry::NodesOfKind(NodeKind kind) {
  std::vector<NumaNode*> result;
  for (const auto& node : nodes_) {
    if (node->kind() == kind) {
      result.push_back(node.get());
    }
  }
  return result;
}

std::vector<NumaNode*> NodeRegistry::NodesOnSocket(uint32_t socket) {
  std::vector<NumaNode*> result;
  for (const auto& node : nodes_) {
    if (node->physical_socket() == socket) {
      result.push_back(node.get());
    }
  }
  return result;
}

std::vector<const NumaNode*> NodeRegistry::AllNodes() const {
  std::vector<const NumaNode*> result;
  result.reserve(nodes_.size());
  for (const auto& node : nodes_) {
    result.push_back(node.get());
  }
  return result;
}

}  // namespace siloz
