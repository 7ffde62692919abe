// Reference placement scans: the per-block loops that
// NumaNode::AllocateContiguous and NumaNode::AllocateRuns replaced. Each
// probes one naturally aligned block at a time, in address order, and treats
// a block it cannot take as an obstruction. The jump scans must choose the
// same blocks and leave the same free lists
// (tests/placement_differential_test.cc).
#ifndef SILOZ_TESTS_SUPPORT_PLACEMENT_ORACLE_H_
#define SILOZ_TESTS_SUPPORT_PLACEMENT_ORACLE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/base/bitops.h"
#include "src/base/check.h"
#include "src/base/result.h"
#include "src/hostmem/buddy.h"
#include "src/hostmem/numa.h"

namespace siloz {

// Takes the one naturally aligned block of `order` at `phys`.
inline Status TakeBlock(BuddyAllocator& buddy, uint64_t phys, uint32_t order) {
  return buddy.TakeRange(PhysRange{phys, phys + OrderBytes(order)},
                         BuddyAllocator::Take::kAllocate);
}

inline Result<uint64_t> OracleAllocateContiguous(NumaNode& node, uint64_t bytes,
                                                 uint32_t order) {
  const uint64_t block = OrderBytes(order);
  for (const PhysRange& range : node.ranges()) {
    uint64_t start = AlignUp(range.begin, block);
    while (start + bytes <= range.end) {
      uint64_t cursor = start;
      bool complete = true;
      for (; cursor < start + bytes; cursor += block) {
        if (!TakeBlock(node.allocator(), cursor, order).ok()) {
          complete = false;
          break;
        }
      }
      if (complete) {
        return start;
      }
      // Roll back the partial run and restart past the obstruction.
      for (uint64_t undo = start; undo < cursor; undo += block) {
        SILOZ_CHECK(node.allocator().Free(undo, order).ok());
      }
      start = cursor + block;
    }
  }
  return MakeError(ErrorCode::kNoMemory, "no contiguous run of " + std::to_string(bytes) +
                                             " bytes in node " + std::to_string(node.id()));
}

inline Result<std::vector<PhysRange>> OracleAllocateRuns(NumaNode& node, uint64_t bytes,
                                                         uint32_t order) {
  const uint64_t block = OrderBytes(order);
  std::vector<PhysRange> runs;
  uint64_t remaining = bytes;
  for (const PhysRange& range : node.ranges()) {
    for (uint64_t cursor = AlignUp(range.begin, block);
         remaining > 0 && cursor + block <= range.end; cursor += block) {
      if (!TakeBlock(node.allocator(), cursor, order).ok()) {
        continue;  // offlined or already-used block; skip past it
      }
      remaining -= block;
      if (!runs.empty() && runs.back().end == cursor) {
        runs.back().end = cursor + block;
      } else {
        runs.push_back(PhysRange{cursor, cursor + block});
      }
    }
    if (remaining == 0) {
      break;
    }
  }
  if (remaining != 0) {
    for (const PhysRange& run : runs) {
      for (uint64_t p = run.begin; p < run.end; p += block) {
        SILOZ_CHECK(node.allocator().Free(p, order).ok());
      }
    }
    return MakeError(ErrorCode::kNoMemory,
                     "node " + std::to_string(node.id()) + " lacks " + std::to_string(bytes) +
                         " free bytes at order " + std::to_string(order));
  }
  return runs;
}

}  // namespace siloz

#endif  // SILOZ_TESTS_SUPPORT_PLACEMENT_ORACLE_H_
