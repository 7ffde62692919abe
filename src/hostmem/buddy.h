// Buddy page allocator over a set of physical ranges.
//
// The reproduction's stand-in for Linux's per-node buddy allocator: each
// logical NUMA node (§5.2) owns one, seeded with the node's subarray-group
// extents. Supports the page sizes the paper discusses (4 KiB order 0 up to
// 1 GiB order 18) and page offlining (used for guard rows, §5.4, and for
// isolation-violating pages, §6).
#ifndef SILOZ_SRC_HOSTMEM_BUDDY_H_
#define SILOZ_SRC_HOSTMEM_BUDDY_H_

#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <vector>

#include "src/addr/subarray_group.h"
#include "src/base/result.h"

namespace siloz {

inline constexpr uint32_t kOrder4K = 0;
inline constexpr uint32_t kOrder2M = 9;   // 4 KiB << 9 = 2 MiB
inline constexpr uint32_t kOrder1G = 18;  // 4 KiB << 18 = 1 GiB
inline constexpr uint32_t kMaxOrder = kOrder1G;

constexpr uint64_t OrderBytes(uint32_t order) { return (4ull * 1024) << order; }

class BuddyAllocator {
 public:
  // Seeds the free lists with `ranges`; each range must be 4 KiB-aligned.
  // Blocks are kept naturally aligned to their size in absolute physical
  // space, so buddy computation is a simple XOR.
  explicit BuddyAllocator(const std::vector<PhysRange>& ranges);

  // Allocate one naturally-aligned block of (4 KiB << order) bytes.
  Result<uint64_t> Allocate(uint32_t order);

  // Return a block obtained from Allocate or TakeRange. Rejects with
  // kFailedPrecondition any block that overlaps a currently-free block or an
  // offlined page: a double (or never-allocated) free would otherwise
  // corrupt free_bytes_ and the coalescing state silently, which is exactly
  // the bookkeeping the isolation invariants rest on.
  Status Free(uint64_t phys, uint32_t order);

  // What TakeRange does with the pages it removes from the free lists.
  enum class Take : uint8_t {
    kAllocate,  // handed out, to be returned block by block through Free
    kOffline,   // permanently removed, as if by OfflinePage for each page
  };

  // Removes every page of the 4 KiB-aligned `range` from the free lists in
  // one pass: each free block overlapping the range is dropped and its parts
  // outside the range are re-added as maximal buddy sub-blocks. The free
  // lists end up exactly as a per-page loop of one-page takes over the range
  // leaves them, at O(blocks + log n) instead of O(pages * log n) — boot
  // carves the guard and EPT row groups (§5.4, §6) and VM placement takes
  // its backing runs this way. Fails with kFailedPrecondition, changing
  // nothing, if any page is not free.
  Status TakeRange(const PhysRange& range, Take take);

  // The free run at the lowest address >= `phys` that starts a wholly free,
  // naturally aligned block of `order`: [begin, end), where `end` extends
  // over every free block that follows contiguously. nullopt if no such
  // block exists. The free lists are always the maximal buddy blocks of the
  // free pages, so an aligned block of `order` is wholly free exactly when a
  // free block of order >= `order` contains it: one lookup in the
  // address-ordered mirror, then a forward walk over the free blocks.
  std::optional<PhysRange> NextFreeRun(uint64_t phys, uint32_t order) const;

  // Permanently remove a free 4 KiB page from the pool (Linux page
  // offlining, §5.4/§6): the one-page TakeRange. Fails if the page is not
  // currently free.
  Status OfflinePage(uint64_t phys);

  // Largest order with a free block available, or nullopt-like -1.
  int32_t LargestFreeOrder() const;

  uint64_t free_bytes() const { return free_bytes_; }
  uint64_t total_bytes() const { return total_bytes_; }
  uint64_t offlined_bytes() const { return offlined_bytes_; }

  // True if `phys` lies within a currently-free block (diagnostics/tests).
  bool IsFree(uint64_t phys) const;

  // True if the 4 KiB page holding `phys` was permanently removed via
  // OfflinePage. Distinguishes guard/quarantine carve-outs from allocated
  // pages — the static isolation audit relies on this to tell fence rows
  // apart from hammerable memory.
  bool IsOfflined(uint64_t phys) const;

  // True if [phys, phys + OrderBytes(order)) intersects any free block or
  // offlined page. O(log n): one lookup in the address-ordered free-block
  // mirror and one in the offlined extents.
  bool OverlapsFreeOrOfflined(uint64_t phys, uint32_t order) const;

 private:
  void Insert(uint64_t phys, uint32_t order);

  // Adds to the free lists the maximal buddy sub-blocks of the block at
  // `phys` that do not overlap `range`.
  void KeepOutside(uint64_t phys, uint32_t order, const PhysRange& range);

  // The ONLY mutators of the free-block containers, keeping free_ and
  // free_by_addr_ in lockstep.
  void AddFree(uint64_t phys, uint32_t order);
  void RemoveFree(uint64_t phys, uint32_t order);

  // free_[order] holds the start addresses of free blocks of that order.
  // Address-ordered (std::set): Allocate() hands out the lowest-address
  // block, so allocation placement is a pure function of the call sequence.
  // These were std::unordered_set once, and Allocate()'s begin() leaked
  // hash-table iteration order — a libstdc++-version-dependent placement
  // that broke bit-identical replay of allocation traces.
  std::vector<std::set<uint64_t>> free_;
  // Address-ordered mirror of every free block (start -> order). Free blocks
  // never overlap, so a start address maps to exactly one order; the mirror
  // gives Free() O(log n) overlap detection.
  std::map<uint64_t, uint32_t> free_by_addr_;
  // Offlined memory as disjoint, non-adjacent extents (begin -> end):
  // adjacent offlined ranges merge on insertion, so a guard block of any
  // size is one node and IsOfflined is one lookup.
  std::map<uint64_t, uint64_t> offlined_;
  uint64_t free_bytes_ = 0;
  uint64_t total_bytes_ = 0;
  uint64_t offlined_bytes_ = 0;
};

}  // namespace siloz

#endif  // SILOZ_SRC_HOSTMEM_BUDDY_H_
