// Tests for the buddy allocator, NUMA nodes, and control groups (src/hostmem).
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "src/base/rng.h"
#include "src/base/units.h"
#include "src/hostmem/buddy.h"
#include "src/hostmem/cgroup.h"
#include "src/hostmem/numa.h"
#include "tests/support/placement_oracle.h"

namespace siloz {
namespace {

// --- BuddyAllocator ---

TEST(BuddyTest, AllocateAndFreeRestoresPool) {
  BuddyAllocator buddy({PhysRange{0, 64_MiB}});
  EXPECT_EQ(buddy.total_bytes(), 64_MiB);
  EXPECT_EQ(buddy.free_bytes(), 64_MiB);

  Result<uint64_t> page = buddy.Allocate(kOrder4K);
  ASSERT_TRUE(page.ok());
  EXPECT_EQ(buddy.free_bytes(), 64_MiB - 4_KiB);
  ASSERT_TRUE(buddy.Free(*page, kOrder4K).ok());
  EXPECT_EQ(buddy.free_bytes(), 64_MiB);
  // Coalescing restored a maximal block.
  EXPECT_EQ(buddy.LargestFreeOrder(), 14);  // 64 MiB = order 14
}

TEST(BuddyTest, BlocksAreNaturallyAligned) {
  BuddyAllocator buddy({PhysRange{0, 256_MiB}});
  for (uint32_t order : {kOrder4K, kOrder2M, kOrder2M + 3, kOrder1G - 4}) {
    Result<uint64_t> block = buddy.Allocate(order);
    ASSERT_TRUE(block.ok());
    EXPECT_EQ(*block % OrderBytes(order), 0u) << "order " << order;
  }
}

TEST(BuddyTest, ExhaustionReturnsNoMemory) {
  BuddyAllocator buddy({PhysRange{0, 4_MiB}});
  ASSERT_TRUE(buddy.Allocate(kOrder2M).ok());
  ASSERT_TRUE(buddy.Allocate(kOrder2M).ok());
  EXPECT_FALSE(buddy.Allocate(kOrder2M).ok());
  EXPECT_FALSE(buddy.Allocate(kOrder4K).ok());
  EXPECT_EQ(buddy.free_bytes(), 0u);
}

TEST(BuddyTest, TakeBlockAtSpecificAddress) {
  BuddyAllocator buddy({PhysRange{0, 64_MiB}});
  ASSERT_TRUE(TakeBlock(buddy, 6_MiB, kOrder2M).ok());
  EXPECT_FALSE(buddy.IsFree(6_MiB));
  EXPECT_TRUE(buddy.IsFree(4_MiB));
  // Double allocation fails.
  EXPECT_FALSE(TakeBlock(buddy, 6_MiB, kOrder2M).ok());
  // Freeing restores.
  ASSERT_TRUE(buddy.Free(6_MiB, kOrder2M).ok());
  EXPECT_TRUE(buddy.IsFree(6_MiB));
  EXPECT_EQ(buddy.free_bytes(), 64_MiB);
}

TEST(BuddyTest, FreeRejectsMisaligned) {
  BuddyAllocator buddy({PhysRange{0, 64_MiB}});
  EXPECT_FALSE(buddy.Free(3_MiB, kOrder2M).ok());
}

TEST(BuddyTest, DoubleFreeRejected) {
  BuddyAllocator buddy({PhysRange{0, 64_MiB}});
  Result<uint64_t> block = buddy.Allocate(kOrder2M);
  ASSERT_TRUE(block.ok());
  ASSERT_TRUE(buddy.Free(*block, kOrder2M).ok());
  const uint64_t free_before = buddy.free_bytes();
  Status again = buddy.Free(*block, kOrder2M);
  ASSERT_FALSE(again.ok());
  EXPECT_EQ(again.error().code, ErrorCode::kFailedPrecondition);
  EXPECT_NE(again.error().message.find("double free"), std::string::npos);
  // The rejection must not disturb the accounting it protects.
  EXPECT_EQ(buddy.free_bytes(), free_before);
}

TEST(BuddyTest, FreeRejectsOverlapWithFreeBlocks) {
  BuddyAllocator buddy({PhysRange{0, 64_MiB}});
  ASSERT_TRUE(TakeBlock(buddy, 2_MiB, kOrder2M).ok());
  ASSERT_TRUE(buddy.Free(2_MiB, kOrder2M).ok());
  // A sub-block of a free block: the predecessor free block extends over it.
  EXPECT_FALSE(buddy.Free(2_MiB + 4_KiB, kOrder4K).ok());
  // A super-block containing free memory: a free block starts inside it.
  ASSERT_TRUE(TakeBlock(buddy, 4_MiB, kOrder2M).ok());
  ASSERT_TRUE(TakeBlock(buddy, 6_MiB, kOrder2M).ok());
  ASSERT_TRUE(buddy.Free(6_MiB, kOrder2M).ok());
  EXPECT_FALSE(buddy.Free(4_MiB, kOrder2M + 1).ok());
  // The genuinely-allocated block is still freeable.
  EXPECT_TRUE(buddy.Free(4_MiB, kOrder2M).ok());
}

TEST(BuddyTest, FreeRejectsOverlapWithOfflinedPages) {
  BuddyAllocator buddy({PhysRange{0, 8_MiB}});
  // Allocate the whole block, then free + offline one interior page so the
  // only overlap with [2 MiB, 4 MiB) is the offlined page.
  ASSERT_TRUE(TakeBlock(buddy, 2_MiB, kOrder2M).ok());
  ASSERT_TRUE(buddy.Free(2_MiB + 4_KiB, kOrder4K).ok());
  ASSERT_TRUE(buddy.OfflinePage(2_MiB + 4_KiB).ok());
  const uint64_t free_before = buddy.free_bytes();
  Status freed = buddy.Free(2_MiB, kOrder2M);
  ASSERT_FALSE(freed.ok());
  EXPECT_EQ(freed.error().code, ErrorCode::kFailedPrecondition);
  EXPECT_EQ(buddy.free_bytes(), free_before);
}

TEST(BuddyTest, OfflinePageRemovesPermanently) {
  BuddyAllocator buddy({PhysRange{0, 8_MiB}});
  ASSERT_TRUE(buddy.OfflinePage(2_MiB).ok());
  EXPECT_EQ(buddy.offlined_bytes(), 4_KiB);
  EXPECT_EQ(buddy.total_bytes(), 8_MiB - 4_KiB);
  EXPECT_FALSE(buddy.IsFree(2_MiB));
  // The containing 2 MiB block can no longer be allocated whole.
  EXPECT_FALSE(TakeBlock(buddy, 2_MiB, kOrder2M).ok());
  // But its other pages still can.
  EXPECT_TRUE(TakeBlock(buddy, 2_MiB + 4_KiB, kOrder4K).ok());
  // Offlining an allocated page fails.
  EXPECT_FALSE(buddy.OfflinePage(2_MiB + 4_KiB).ok());
}

TEST(BuddyTest, DisjointRangesSupported) {
  BuddyAllocator buddy({PhysRange{0, 4_MiB}, PhysRange{1_GiB, 1_GiB + 4_MiB}});
  EXPECT_EQ(buddy.total_bytes(), 8_MiB);
  // Allocate everything; blocks come from both ranges.
  bool saw_high = false;
  for (int i = 0; i < 4; ++i) {
    Result<uint64_t> block = buddy.Allocate(kOrder2M);
    ASSERT_TRUE(block.ok());
    saw_high |= (*block >= 1_GiB);
  }
  EXPECT_TRUE(saw_high);
  EXPECT_FALSE(buddy.Allocate(kOrder4K).ok());
}

TEST(BuddyTest, UnalignedRangeCarvedCorrectly) {
  // A range starting at an odd 4 KiB offset still seeds correctly.
  BuddyAllocator buddy({PhysRange{4_KiB, 2_MiB}});
  EXPECT_EQ(buddy.total_bytes(), 2_MiB - 4_KiB);
  uint64_t allocated = 0;
  while (buddy.Allocate(kOrder4K).ok()) {
    allocated += 4_KiB;
  }
  EXPECT_EQ(allocated, 2_MiB - 4_KiB);
}

TEST(BuddyTest, SplitAndCoalesceStress) {
  BuddyAllocator buddy({PhysRange{0, 32_MiB}});
  std::vector<uint64_t> pages;
  for (int i = 0; i < 1000; ++i) {
    Result<uint64_t> page = buddy.Allocate(kOrder4K);
    ASSERT_TRUE(page.ok());
    pages.push_back(*page);
  }
  for (uint64_t page : pages) {
    ASSERT_TRUE(buddy.Free(page, kOrder4K).ok());
  }
  EXPECT_EQ(buddy.free_bytes(), 32_MiB);
  EXPECT_EQ(buddy.LargestFreeOrder(), 13);  // fully coalesced to 32 MiB
}

TEST(BuddyTest, AllocationOrderIsDeterministicLowestAddressFirst) {
  // Regression: the per-order free lists were unordered_sets, so the block
  // Allocate handed out depended on the hash order of whatever addresses had
  // been freed — identical call sequences placed VMs differently run to run.
  // With ordered free lists, Allocate always returns the lowest-addressed
  // block of the smallest sufficient order.
  BuddyAllocator buddy({PhysRange{0, 64_MiB}});
  for (uint64_t expected : {0 * 2_MiB, 1 * 2_MiB, 2 * 2_MiB, 3 * 2_MiB}) {
    Result<uint64_t> block = buddy.Allocate(kOrder2M);
    ASSERT_TRUE(block.ok());
    EXPECT_EQ(*block, expected);
  }
  // Free three of the four in scrambled order; the block at 2 MiB stays
  // allocated so the frees cannot coalesce past it.
  ASSERT_TRUE(buddy.Free(4_MiB, kOrder2M).ok());
  ASSERT_TRUE(buddy.Free(0, kOrder2M).ok());
  ASSERT_TRUE(buddy.Free(6_MiB, kOrder2M).ok());  // coalesces into [4 MiB, 8 MiB)
  // Refills come back lowest-address-first regardless of free order: the
  // exact-order block at 0 first, then the coalesced 4 MiB block is split.
  Result<uint64_t> first = buddy.Allocate(kOrder2M);
  Result<uint64_t> second = buddy.Allocate(kOrder2M);
  Result<uint64_t> third = buddy.Allocate(kOrder2M);
  ASSERT_TRUE(first.ok() && second.ok() && third.ok());
  EXPECT_EQ(*first, 0u);
  EXPECT_EQ(*second, 4_MiB);
  EXPECT_EQ(*third, 6_MiB);
}

TEST(BuddyTest, TakeRangeSplitsStraddlingBlocksAndMergesOfflinedExtents) {
  BuddyAllocator buddy({PhysRange{0, 64_MiB}});
  // [6M, 10M) straddles the 8 MiB boundary of [0, 16M)'s buddy tree.
  ASSERT_TRUE(buddy.TakeRange(PhysRange{6_MiB, 10_MiB}, BuddyAllocator::Take::kOffline).ok());
  EXPECT_EQ(buddy.offlined_bytes(), 4_MiB);
  EXPECT_EQ(buddy.total_bytes(), 60_MiB);
  EXPECT_EQ(buddy.free_bytes(), 60_MiB);
  EXPECT_FALSE(buddy.IsOfflined(6_MiB - 4_KiB));
  EXPECT_TRUE(buddy.IsOfflined(6_MiB));
  EXPECT_TRUE(buddy.IsOfflined(10_MiB - 1));
  EXPECT_FALSE(buddy.IsOfflined(10_MiB));
  EXPECT_TRUE(buddy.IsFree(4_MiB));
  EXPECT_TRUE(buddy.IsFree(10_MiB));
  // Ranges on either side merge into one extent.
  ASSERT_TRUE(buddy.TakeRange(PhysRange{5_MiB, 6_MiB}, BuddyAllocator::Take::kOffline).ok());
  ASSERT_TRUE(buddy.OfflinePage(10_MiB).ok());
  EXPECT_EQ(buddy.offlined_bytes(), 5_MiB + 4_KiB);
  EXPECT_FALSE(buddy.IsOfflined(5_MiB - 4_KiB));
  EXPECT_TRUE(buddy.IsOfflined(5_MiB));
  EXPECT_TRUE(buddy.IsOfflined(10_MiB));
  EXPECT_FALSE(buddy.IsOfflined(10_MiB + 4_KiB));
  EXPECT_FALSE(buddy.OfflinePage(6_MiB).ok());
  // Free rejects any block overlapping the extent, even with no free page.
  ASSERT_TRUE(TakeBlock(buddy, 4_MiB, kOrder4K + 8).ok());  // [4M, 5M)
  EXPECT_FALSE(buddy.Free(4_MiB, kOrder2M).ok());
  EXPECT_TRUE(buddy.Free(4_MiB, kOrder4K + 8).ok());
  // kAllocate takes pages without offlining them: they free page by page.
  ASSERT_TRUE(buddy.TakeRange(PhysRange{32_MiB, 32_MiB + 12_KiB},
                              BuddyAllocator::Take::kAllocate)
                  .ok());
  EXPECT_FALSE(buddy.IsOfflined(32_MiB));
  EXPECT_FALSE(buddy.IsFree(32_MiB + 8_KiB));
  EXPECT_TRUE(buddy.Free(32_MiB + 4_KiB, kOrder4K).ok());
  EXPECT_FALSE(
      buddy.TakeRange(PhysRange{1_MiB + 1, 2_MiB}, BuddyAllocator::Take::kOffline).ok());
}

TEST(BuddyTest, TakeRangeOverNonFreePageFailsAndChangesNothing) {
  BuddyAllocator buddy({PhysRange{0, 16_MiB}});
  ASSERT_TRUE(TakeBlock(buddy, 8_MiB + 4_KiB, kOrder4K).ok());
  for (BuddyAllocator::Take take :
       {BuddyAllocator::Take::kAllocate, BuddyAllocator::Take::kOffline}) {
    Status taken = buddy.TakeRange(PhysRange{7_MiB, 9_MiB}, take);
    ASSERT_FALSE(taken.ok());
    EXPECT_EQ(taken.error().code, ErrorCode::kFailedPrecondition);
    // A per-page loop would have carved [7M, 8M + 4K) before failing.
    EXPECT_EQ(buddy.free_bytes(), 16_MiB - 4_KiB);
    EXPECT_EQ(buddy.offlined_bytes(), 0u);
    EXPECT_EQ(buddy.LargestFreeOrder(), 11);  // [0, 8M) is still whole
    EXPECT_TRUE(TakeBlock(buddy, 0, 11).ok());
    ASSERT_TRUE(buddy.Free(0, 11).ok());
  }
  // A range past the end of the pool fails the same way.
  EXPECT_EQ(buddy.TakeRange(PhysRange{16_MiB - 4_KiB, 16_MiB + 4_KiB},
                            BuddyAllocator::Take::kOffline)
                .error()
                .code,
            ErrorCode::kFailedPrecondition);
  EXPECT_EQ(buddy.free_bytes(), 16_MiB - 4_KiB);
}

// Twin allocators through the same seeded history, then random ranges:
// TakeRange on `ranged` and the per-page loop of one-page takes on `paged`.
// Both must agree on the free lists and on what is offlined, which a
// page-set model checks independently.
class TakeRangeEquivalence : public ::testing::TestWithParam<uint64_t> {};

constexpr uint64_t kEquivalencePoolEnd = 24_MiB;

void ExpectSameFreeLists(const BuddyAllocator& a, const BuddyAllocator& b, uint64_t seed) {
  for (uint64_t page = 0; page < kEquivalencePoolEnd; page += 4_KiB) {
    ASSERT_EQ(a.IsFree(page), b.IsFree(page)) << "page " << page;
  }
  EXPECT_EQ(a.free_bytes(), b.free_bytes());
  EXPECT_EQ(a.LargestFreeOrder(), b.LargestFreeOrder());
  BuddyAllocator next_a = a;
  BuddyAllocator next_b = b;
  Rng rng(seed);
  for (int i = 0; i < 64; ++i) {
    const auto order = static_cast<uint32_t>(rng.NextBelow(8));
    Result<uint64_t> from_a = next_a.Allocate(order);
    Result<uint64_t> from_b = next_b.Allocate(order);
    ASSERT_EQ(from_a.ok(), from_b.ok()) << "allocation " << i;
    if (from_a.ok()) {
      ASSERT_EQ(*from_a, *from_b) << "allocation " << i;
    }
  }
}

TEST_P(TakeRangeEquivalence, MatchesPerPageLoop) {
  const std::vector<PhysRange> pool = {PhysRange{4_KiB, 6_MiB},
                                       PhysRange{8_MiB, kEquivalencePoolEnd}};
  BuddyAllocator ranged(pool);
  Rng rng(GetParam());
  // History: allocations of mixed orders, pinned blocks and frees.
  std::vector<std::pair<uint64_t, uint32_t>> live;
  for (int step = 0; step < 300; ++step) {
    const double dice = rng.NextDouble();
    if (dice < 0.45) {
      const auto order = static_cast<uint32_t>(rng.NextBelow(10));
      if (Result<uint64_t> block = ranged.Allocate(order); block.ok()) {
        live.emplace_back(*block, order);
      }
    } else if (dice < 0.6) {
      const auto order = static_cast<uint32_t>(rng.NextBelow(4));
      const uint64_t phys =
          rng.NextBelow(kEquivalencePoolEnd / OrderBytes(order)) * OrderBytes(order);
      if (TakeBlock(ranged, phys, order).ok()) {
        live.emplace_back(phys, order);
      }
    } else if (!live.empty()) {
      const size_t victim = rng.NextBelow(live.size());
      ASSERT_TRUE(ranged.Free(live[victim].first, live[victim].second).ok());
      live.erase(live.begin() + static_cast<ptrdiff_t>(victim));
    }
  }
  BuddyAllocator paged = ranged;
  std::set<uint64_t> offlined;
  PhysRange last{0, 0};
  for (int trial = 0; trial < 48; ++trial) {
    // Log-uniform lengths starting at the first free page after a random
    // one; half the ranges abut the previous one, so offlined extents merge.
    const uint64_t pages = rng.NextInRange(1, uint64_t{1} << rng.NextBelow(11));
    uint64_t begin = rng.NextBelow(kEquivalencePoolEnd / 4_KiB) * 4_KiB;
    while (begin < kEquivalencePoolEnd && !paged.IsFree(begin)) {
      begin += 4_KiB;
    }
    if (trial > 0 && rng.NextBernoulli(0.5)) {
      begin = rng.NextBernoulli(0.5) ? last.end
                                     : (last.begin >= pages * 4_KiB ? last.begin - pages * 4_KiB
                                                                    : 0);
    }
    const PhysRange range{begin, std::min(begin + pages * 4_KiB, kEquivalencePoolEnd)};
    if (range.begin >= range.end) {
      continue;
    }
    const BuddyAllocator::Take take =
        rng.NextBernoulli(0.5) ? BuddyAllocator::Take::kOffline : BuddyAllocator::Take::kAllocate;
    bool all_free = true;
    for (uint64_t page = range.begin; page < range.end; page += 4_KiB) {
      all_free &= paged.IsFree(page);
    }
    Status taken = ranged.TakeRange(range, take);
    SCOPED_TRACE("trial " + std::to_string(trial) + " [" + std::to_string(range.begin) + ", " +
                 std::to_string(range.end) + ")");
    if (all_free) {
      ASSERT_TRUE(taken.ok()) << taken.error().ToString();
      for (uint64_t page = range.begin; page < range.end; page += 4_KiB) {
        ASSERT_TRUE(take == BuddyAllocator::Take::kOffline ? paged.OfflinePage(page).ok()
                                                           : TakeBlock(paged, page, 0).ok());
        if (take == BuddyAllocator::Take::kOffline) {
          offlined.insert(page);
        }
      }
      last = range;
    } else {
      ASSERT_FALSE(taken.ok());
      EXPECT_EQ(taken.error().code, ErrorCode::kFailedPrecondition);
    }
    ExpectSameFreeLists(ranged, paged, GetParam() + trial);
    EXPECT_EQ(ranged.total_bytes(), paged.total_bytes());
    EXPECT_EQ(ranged.offlined_bytes(), paged.offlined_bytes());
    EXPECT_EQ(ranged.offlined_bytes(), offlined.size() * 4_KiB);
    for (uint64_t page = 0; page < kEquivalencePoolEnd; page += 4_KiB) {
      ASSERT_EQ(ranged.IsOfflined(page), offlined.count(page) != 0) << "page " << page;
      ASSERT_EQ(paged.IsOfflined(page), offlined.count(page) != 0) << "page " << page;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TakeRangeEquivalence, ::testing::Values(1u, 7u, 42u, 1234u));

// --- NumaNode / NodeRegistry ---

TEST(NumaTest, NodeProperties) {
  NodeRegistry registry;
  NumaNode& host = registry.AddNode(NodeKind::kHostReserved, 0, 0,
                                    {PhysRange{0, 1536_MiB}}, true);
  NumaNode& guest = registry.AddNode(NodeKind::kGuestReserved, 0, 1,
                                     {PhysRange{1536_MiB, 3_GiB}}, false);
  EXPECT_EQ(host.id(), 0u);
  EXPECT_EQ(guest.id(), 1u);
  EXPECT_TRUE(host.has_cpus());
  EXPECT_FALSE(guest.has_cpus());
  EXPECT_EQ(guest.allocator().total_bytes(), 1536_MiB);
  EXPECT_EQ(guest.kind(), NodeKind::kGuestReserved);
  EXPECT_EQ(host.kind(), NodeKind::kHostReserved);
}

TEST(NumaTest, RegistryQueries) {
  NodeRegistry registry;
  registry.AddNode(NodeKind::kHostReserved, 0, 0, {PhysRange{0, 2_MiB}}, true);
  registry.AddNode(NodeKind::kGuestReserved, 0, 1, {PhysRange{2_MiB, 4_MiB}}, false);
  registry.AddNode(NodeKind::kGuestReserved, 1, 2, {PhysRange{4_MiB, 6_MiB}}, false);
  EXPECT_EQ(registry.node_count(), 3u);
  EXPECT_EQ(registry.NodesOfKind(NodeKind::kGuestReserved).size(), 2u);
  EXPECT_EQ(registry.NodesOnSocket(0).size(), 2u);
  EXPECT_FALSE(registry.Get(7).ok());
  ASSERT_TRUE(registry.Get(2).ok());
}

// --- Control groups ---

TEST(CgroupTest, CreateLookupDestroy) {
  CgroupRegistry registry;
  Result<ControlGroup*> group = registry.Create("vm-a", {1, 2, 3}, true);
  ASSERT_TRUE(group.ok());
  EXPECT_TRUE((*group)->kvm_privileged());
  EXPECT_TRUE((*group)->MayAllocateFrom(2));
  EXPECT_FALSE((*group)->MayAllocateFrom(4));
  ASSERT_TRUE(registry.Get("vm-a").ok());
  EXPECT_FALSE(registry.Get("vm-b").ok());
  ASSERT_TRUE(registry.Destroy("vm-a").ok());
  EXPECT_FALSE(registry.Get("vm-a").ok());
  EXPECT_FALSE(registry.Destroy("vm-a").ok());
}

TEST(CgroupTest, DuplicateNameRejected) {
  CgroupRegistry registry;
  ASSERT_TRUE(registry.Create("vm-a", {1}, true).ok());
  EXPECT_FALSE(registry.Create("vm-a", {2}, true).ok());
}

TEST(CgroupTest, ExclusiveNodeReservation) {
  // §5.3: a guest-reserved node belongs to at most one control group.
  CgroupRegistry registry;
  ASSERT_TRUE(registry.Create("vm-a", {1, 2}, true).ok());
  EXPECT_FALSE(registry.Create("vm-b", {2, 3}, true).ok());
  // Destroying vm-a frees its nodes for reuse.
  ASSERT_TRUE(registry.Destroy("vm-a").ok());
  EXPECT_TRUE(registry.Create("vm-b", {2, 3}, true).ok());
}

}  // namespace
}  // namespace siloz
