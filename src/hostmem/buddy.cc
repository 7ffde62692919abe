#include "src/hostmem/buddy.h"

#include <algorithm>
#include <iterator>
#include <string>
#include <utility>

#include "src/base/bitops.h"
#include "src/base/check.h"
#include "src/base/fault_injector.h"

namespace siloz {

BuddyAllocator::BuddyAllocator(const std::vector<PhysRange>& ranges) {
  free_.resize(kMaxOrder + 1);
  for (const PhysRange& range : ranges) {
    SILOZ_CHECK_EQ(range.begin % OrderBytes(0), 0u);
    SILOZ_CHECK_EQ(range.end % OrderBytes(0), 0u);
    SILOZ_CHECK_LT(range.begin, range.end);
    total_bytes_ += range.size();
    // Greedily carve the range into maximal naturally-aligned blocks.
    uint64_t cursor = range.begin;
    while (cursor < range.end) {
      uint32_t order = kMaxOrder;
      while (order > 0 &&
             (cursor % OrderBytes(order) != 0 || cursor + OrderBytes(order) > range.end)) {
        --order;
      }
      Insert(cursor, order);
      cursor += OrderBytes(order);
    }
  }
  free_bytes_ = total_bytes_;
}

void BuddyAllocator::AddFree(uint64_t phys, uint32_t order) {
  free_[order].insert(phys);
  free_by_addr_[phys] = order;
}

void BuddyAllocator::RemoveFree(uint64_t phys, uint32_t order) {
  free_[order].erase(phys);
  free_by_addr_.erase(phys);
}

void BuddyAllocator::Insert(uint64_t phys, uint32_t order) {
  // Coalesce with the buddy while possible.
  while (order < kMaxOrder) {
    const uint64_t buddy = phys ^ OrderBytes(order);
    auto it = free_[order].find(buddy);
    if (it == free_[order].end()) {
      break;
    }
    RemoveFree(buddy, order);
    phys = std::min(phys, buddy);
    ++order;
  }
  // Insert only places blocks; free_bytes_ accounting is the caller's.
  AddFree(phys, order);
}

Result<uint64_t> BuddyAllocator::Allocate(uint32_t order) {
  if (order > kMaxOrder) {
    return MakeError(ErrorCode::kInvalidArgument, "order too large");
  }
  SILOZ_FAULT_POINT("alloc.buddy.page");
  // Find the smallest order >= requested with a free block.
  uint32_t have = order;
  while (have <= kMaxOrder && free_[have].empty()) {
    ++have;
  }
  if (have > kMaxOrder) {
    return MakeError(ErrorCode::kNoMemory,
                     "no free block of order " + std::to_string(order));
  }
  // Lowest-address block of the smallest sufficient order. free_[have] is
  // address-ordered, so begin() is the deterministic choice (with the old
  // unordered free lists this dereferenced hash-table iteration order).
  uint64_t block = *free_[have].begin();
  RemoveFree(block, have);
  // Split down, returning the upper halves to the free lists.
  while (have > order) {
    --have;
    AddFree(block + OrderBytes(have), have);
  }
  free_bytes_ -= OrderBytes(order);
  return block;
}

bool BuddyAllocator::OverlapsFreeOrOfflined(uint64_t phys, uint32_t order) const {
  const uint64_t end = phys + OrderBytes(order);
  // Free blocks and offlined extents are each disjoint and address-ordered,
  // so in each the only candidate is the last one starting before `end`: it
  // overlaps iff it reaches past `phys`. (Offlined pages are permanently
  // carved out; a block covering one was never handed out whole.)
  auto free_block = free_by_addr_.lower_bound(end);
  if (free_block != free_by_addr_.begin()) {
    --free_block;
    if (free_block->first + OrderBytes(free_block->second) > phys) {
      return true;
    }
  }
  auto offlined = offlined_.lower_bound(end);
  return offlined != offlined_.begin() && std::prev(offlined)->second > phys;
}

Status BuddyAllocator::Free(uint64_t phys, uint32_t order) {
  if (order > kMaxOrder || phys % OrderBytes(order) != 0) {
    return MakeError(ErrorCode::kInvalidArgument, "misaligned Free");
  }
  SILOZ_FAULT_POINT("free.buddy.page");
  if (OverlapsFreeOrOfflined(phys, order)) {
    return MakeError(ErrorCode::kFailedPrecondition,
                     "double free: block at " + std::to_string(phys) + " order " +
                         std::to_string(order) + " overlaps free or offlined memory");
  }
  Insert(phys, order);
  free_bytes_ += OrderBytes(order);
  return Status::Ok();
}

void BuddyAllocator::KeepOutside(uint64_t phys, uint32_t order, const PhysRange& range) {
  const uint64_t end = phys + OrderBytes(order);
  if (end <= range.begin || phys >= range.end) {
    AddFree(phys, order);
    return;
  }
  if (phys >= range.begin && end <= range.end) {
    return;
  }
  // Straddles a range edge, so order > 0: a 4 KiB block is in or out.
  KeepOutside(phys, order - 1, range);
  KeepOutside(phys + OrderBytes(order - 1), order - 1, range);
}

Status BuddyAllocator::TakeRange(const PhysRange& range, Take take) {
  if (range.begin % OrderBytes(0) != 0 || range.end % OrderBytes(0) != 0 ||
      range.begin >= range.end) {
    return MakeError(ErrorCode::kInvalidArgument, "misaligned TakeRange");
  }
  SILOZ_FAULT_POINT("alloc.buddy.range");
  // The free blocks tiling the range, checked gap-free before anything is
  // touched so a failure leaves the allocator unchanged.
  std::vector<std::pair<uint64_t, uint32_t>> covering;
  auto block = free_by_addr_.upper_bound(range.begin);
  if (block != free_by_addr_.begin()) {
    --block;
  }
  for (uint64_t cursor = range.begin; cursor < range.end; ++block) {
    if (block == free_by_addr_.end() || block->first > cursor ||
        block->first + OrderBytes(block->second) <= cursor) {
      return MakeError(ErrorCode::kFailedPrecondition,
                       "page at " + std::to_string(cursor) + " not free; cannot take [" +
                           std::to_string(range.begin) + ", " + std::to_string(range.end) +
                           ")");
    }
    covering.emplace_back(block->first, block->second);
    cursor = block->first + OrderBytes(block->second);
  }
  for (const auto& [phys, order] : covering) {
    RemoveFree(phys, order);
    KeepOutside(phys, order, range);
  }
  free_bytes_ -= range.size();
  if (take == Take::kAllocate) {
    return Status::Ok();
  }
  offlined_bytes_ += range.size();
  total_bytes_ -= range.size();
  // Merge with offlined neighbours that end where the range begins or begin
  // where it ends; nothing overlaps, since every page was free.
  PhysRange merged = range;
  auto next = offlined_.lower_bound(range.end);
  if (next != offlined_.end() && next->first == range.end) {
    merged.end = next->second;
    next = offlined_.erase(next);
  }
  if (next != offlined_.begin() && std::prev(next)->second == range.begin) {
    merged.begin = std::prev(next)->first;
    offlined_.erase(std::prev(next));
  }
  offlined_.emplace(merged.begin, merged.end);
  return Status::Ok();
}

Status BuddyAllocator::OfflinePage(uint64_t phys) {
  if (phys % OrderBytes(0) != 0) {
    return MakeError(ErrorCode::kInvalidArgument, "misaligned OfflinePage");
  }
  return TakeRange(PhysRange{phys, phys + OrderBytes(0)}, Take::kOffline);
}

std::optional<PhysRange> BuddyAllocator::NextFreeRun(uint64_t phys, uint32_t order) const {
  const uint64_t start = AlignUp(phys, OrderBytes(order));
  // The free block holding `start` if there is one, else the first after it.
  auto block = free_by_addr_.upper_bound(start);
  if (block != free_by_addr_.begin() &&
      std::prev(block)->first + OrderBytes(std::prev(block)->second) > start) {
    --block;
  }
  while (block != free_by_addr_.end() && block->second < order) {
    ++block;
  }
  if (block == free_by_addr_.end()) {
    return std::nullopt;
  }
  PhysRange run{std::max(start, block->first), block->first + OrderBytes(block->second)};
  for (++block; block != free_by_addr_.end() && block->first == run.end; ++block) {
    run.end += OrderBytes(block->second);
  }
  return run;
}

int32_t BuddyAllocator::LargestFreeOrder() const {
  for (int32_t order = kMaxOrder; order >= 0; --order) {
    if (!free_[order].empty()) {
      return order;
    }
  }
  return -1;
}

bool BuddyAllocator::IsFree(uint64_t phys) const {
  for (uint32_t order = 0; order <= kMaxOrder; ++order) {
    if (free_[order].count(AlignDown(phys, OrderBytes(order))) != 0) {
      return true;
    }
  }
  return false;
}

bool BuddyAllocator::IsOfflined(uint64_t phys) const {
  auto next = offlined_.upper_bound(phys);
  return next != offlined_.begin() && std::prev(next)->second > phys;
}

}  // namespace siloz
