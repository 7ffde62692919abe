// Randomized model-checking stress for the buddy allocator.
//
// A reference model tracks the set of allocated [begin, end) intervals.
// After every operation the allocator must agree with the model on:
//   - no allocation overlaps another or leaves the seeded ranges,
//   - natural alignment of every returned block,
//   - exact free_bytes accounting,
//   - full coalescing back to the seeded maximal blocks after drain.
// NextFreeRun is checked against a page-by-page scan of IsFree.
#include <gtest/gtest.h>

#include <map>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "src/base/rng.h"
#include "src/base/units.h"
#include "src/hostmem/buddy.h"
#include "tests/support/placement_oracle.h"

namespace siloz {
namespace {

struct Allocation {
  uint64_t begin;
  uint32_t order;
};

class BuddyStress : public ::testing::TestWithParam<uint64_t> {};

TEST_P(BuddyStress, RandomAllocFreeAgainstModel) {
  const std::vector<PhysRange> ranges = {PhysRange{0, 64_MiB},
                                         PhysRange{256_MiB, 256_MiB + 16_MiB}};
  BuddyAllocator buddy(ranges);
  const uint64_t total = 64_MiB + 16_MiB;
  ASSERT_EQ(buddy.total_bytes(), total);

  Rng rng(GetParam());
  std::map<uint64_t, Allocation> live;  // begin -> allocation
  uint64_t live_bytes = 0;

  for (int step = 0; step < 4000; ++step) {
    const bool do_alloc = live.empty() || rng.NextBernoulli(0.55);
    if (do_alloc) {
      const uint32_t order = static_cast<uint32_t>(rng.NextBelow(10));  // up to 2 MiB
      Result<uint64_t> block = buddy.Allocate(order);
      if (!block.ok()) {
        // The model can confirm plausibility: free_bytes may still exceed
        // the request (fragmentation), but never the other way around.
        ASSERT_LT(buddy.free_bytes(), buddy.total_bytes());
        continue;
      }
      const uint64_t begin = *block;
      const uint64_t size = OrderBytes(order);
      // Alignment.
      ASSERT_EQ(begin % size, 0u);
      // Inside seeded ranges.
      bool inside = false;
      for (const PhysRange& range : ranges) {
        inside |= (begin >= range.begin && begin + size <= range.end);
      }
      ASSERT_TRUE(inside) << "block " << begin << " outside seeded ranges";
      // No overlap with any live allocation.
      auto next = live.lower_bound(begin);
      if (next != live.end()) {
        ASSERT_LE(begin + size, next->second.begin);
      }
      if (next != live.begin()) {
        auto prev = std::prev(next);
        ASSERT_LE(prev->second.begin + OrderBytes(prev->second.order), begin);
      }
      live[begin] = Allocation{begin, order};
      live_bytes += size;
    } else {
      // Free a random live allocation.
      auto it = live.begin();
      std::advance(it, rng.NextBelow(live.size()));
      ASSERT_TRUE(buddy.Free(it->second.begin, it->second.order).ok());
      live_bytes -= OrderBytes(it->second.order);
      live.erase(it);
    }
    ASSERT_EQ(buddy.free_bytes(), buddy.total_bytes() - live_bytes) << "at step " << step;
  }

  // Drain and verify full coalescing.
  for (const auto& [begin, allocation] : live) {
    ASSERT_TRUE(buddy.Free(allocation.begin, allocation.order).ok());
  }
  EXPECT_EQ(buddy.free_bytes(), total);
  EXPECT_EQ(buddy.LargestFreeOrder(), 14);  // the 64 MiB block is whole again
  // And the allocator can hand out the maximal blocks.
  EXPECT_TRUE(TakeBlock(buddy, 0, 14).ok());
  EXPECT_TRUE(TakeBlock(buddy, 256_MiB, 12).ok());  // 16 MiB block
}

INSTANTIATE_TEST_SUITE_P(Seeds, BuddyStress, ::testing::Values(1u, 2u, 3u, 5u, 8u, 13u));

TEST(BuddyStressTest, MixedTakeBlockAndOffline) {
  BuddyAllocator buddy({PhysRange{0, 32_MiB}});
  Rng rng(99);
  std::map<uint64_t, Allocation> live;
  std::set<uint64_t> offlined;
  for (int step = 0; step < 2000; ++step) {
    const double dice = rng.NextDouble();
    if (dice < 0.4) {
      const uint32_t order = static_cast<uint32_t>(rng.NextBelow(6));
      Result<uint64_t> block = buddy.Allocate(order);
      if (block.ok()) {
        live[*block] = Allocation{*block, order};
        // Never hand out an offlined page.
        for (uint64_t page = *block; page < *block + OrderBytes(order); page += kPage4K) {
          ASSERT_EQ(offlined.count(page), 0u);
        }
      }
    } else if (dice < 0.7 && !live.empty()) {
      auto it = live.begin();
      std::advance(it, rng.NextBelow(live.size()));
      ASSERT_TRUE(buddy.Free(it->second.begin, it->second.order).ok());
      live.erase(it);
    } else if (dice < 0.85) {
      const uint64_t page = rng.NextBelow(32_MiB / kPage4K) * kPage4K;
      if (buddy.OfflinePage(page).ok()) {
        offlined.insert(page);
      }
    } else {
      const uint64_t begin = rng.NextBelow(32_MiB / kPage2M) * kPage2M;
      if (TakeBlock(buddy, begin, kOrder2M).ok()) {
        live[begin] = Allocation{begin, kOrder2M};
        for (uint64_t page = begin; page < begin + kPage2M; page += kPage4K) {
          ASSERT_EQ(offlined.count(page), 0u);
        }
      }
    }
    ASSERT_EQ(buddy.offlined_bytes(), offlined.size() * kPage4K);
  }
  // Accounting closes: total shrank by offlined bytes.
  EXPECT_EQ(buddy.total_bytes(), 32_MiB - offlined.size() * kPage4K);
}

// --- NextFreeRun against a page-by-page scan ---

// Two small ranges and one whole 1 GiB block, so every order 0-18 can have
// a run; fragmentation mostly hits the small ranges.
const std::vector<PhysRange> kRunPool = {PhysRange{4_KiB, 6_MiB}, PhysRange{8_MiB, 40_MiB},
                                         PhysRange{1_GiB, 2_GiB}};
constexpr uint64_t kRunPoolPages = 2_GiB / kPage4K;

// The reference answer, read from IsFree one page at a time. Pages outside
// the seeded ranges are never free.
class PageScan {
 public:
  explicit PageScan(const BuddyAllocator& buddy)
      : next_busy_(kRunPoolPages + 1, kRunPoolPages), next_free_(kRunPoolPages + 1, kRunPoolPages) {
    std::vector<bool> free(kRunPoolPages, false);
    for (const PhysRange& range : kRunPool) {
      for (uint64_t phys = range.begin; phys < range.end; phys += kPage4K) {
        free[phys / kPage4K] = buddy.IsFree(phys);
      }
    }
    for (uint64_t page = kRunPoolPages; page-- > 0;) {
      next_busy_[page] = free[page] ? next_busy_[page + 1] : page;
      next_free_[page] = free[page] ? page : next_free_[page + 1];
    }
  }

  // The run at the lowest `order`-aligned address >= `phys` whose whole
  // block is free, extended page by page while pages stay free.
  std::optional<PhysRange> Run(uint64_t phys, uint32_t order) const {
    const uint64_t block_pages = OrderBytes(order) / kPage4K;
    uint64_t page = AlignUp(phys, OrderBytes(order)) / kPage4K;
    while (page + block_pages <= kRunPoolPages) {
      const uint64_t busy = next_busy_[page];
      if (busy >= page + block_pages) {
        return PhysRange{page * kPage4K, busy * kPage4K};
      }
      // Every aligned block up to the next free page holds a busy page.
      page = AlignUp(next_free_[busy], block_pages);
    }
    return std::nullopt;
  }

  // Every maximal free run, in address order.
  std::vector<PhysRange> FreeRuns() const {
    std::vector<PhysRange> runs;
    for (uint64_t page = next_free_[0]; page < kRunPoolPages;
         page = next_free_[next_busy_[page]]) {
      runs.push_back(PhysRange{page * kPage4K, next_busy_[page] * kPage4K});
    }
    return runs;
  }

 private:
  std::vector<uint64_t> next_busy_;  // first page >= i that is not free
  std::vector<uint64_t> next_free_;  // first page >= i that is free
};

std::string Describe(const std::optional<PhysRange>& run) {
  return run ? "[" + std::to_string(run->begin) + ", " + std::to_string(run->end) + ")"
             : "none";
}

// Frees an allocated range as its maximal naturally aligned blocks.
void FreeRange(BuddyAllocator& buddy, const PhysRange& range) {
  for (uint64_t phys = range.begin; phys < range.end;) {
    uint32_t order = kMaxOrder;
    while (phys % OrderBytes(order) != 0 || phys + OrderBytes(order) > range.end) {
      --order;
    }
    ASSERT_TRUE(buddy.Free(phys, order).ok()) << phys;
    phys += OrderBytes(order);
  }
}

class NextFreeRunProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(NextFreeRunProperty, MatchesPageScan) {
  BuddyAllocator buddy(kRunPool);
  Rng rng(GetParam());
  std::vector<PhysRange> taken;  // allocated through TakeRange or Allocate
  auto random_page = [&] {
    // One op in twenty lands in the 1 GiB block, so it sometimes stays whole.
    const PhysRange& range = kRunPool[rng.NextBernoulli(0.05) ? 2 : rng.NextBelow(2)];
    return range.begin + rng.NextBelow(range.size() / kPage4K) * kPage4K;
  };
  for (int snapshot = 0; snapshot < 7; ++snapshot) {
    const PageScan scan(buddy);
    // Starts before, at, inside and between free blocks, past the last one,
    // and off page alignment.
    std::set<uint64_t> starts = {0, 4_KiB + 1, 1_GiB - 4_KiB, 2_GiB - 4_KiB, 2_GiB, 3_GiB};
    for (const PhysRange& run : scan.FreeRuns()) {
      if (rng.NextBernoulli(0.25)) {
        starts.insert({run.begin - kPage4K, run.begin, run.begin + 1,
                       AlignDown(run.begin + run.size() / 2, kPage4K), run.end,
                       run.end + rng.NextBelow(8) * kPage4K});
      }
    }
    for (int i = 0; i < 16; ++i) {
      starts.insert(random_page());
    }
    bool found_1g = false;
    for (uint64_t start : starts) {
      for (uint32_t order = 0; order <= kMaxOrder; ++order) {
        const std::optional<PhysRange> expected = scan.Run(start, order);
        const std::optional<PhysRange> actual = buddy.NextFreeRun(start, order);
        ASSERT_EQ(Describe(actual), Describe(expected))
            << "snapshot " << snapshot << " start " << start << " order " << order;
        found_1g |= order == kOrder1G && actual.has_value();
      }
    }
    if (snapshot == 0) {
      EXPECT_TRUE(found_1g) << "the fresh 1 GiB block is a run";
    }
    for (int step = 0; step < 60; ++step) {
      const double dice = rng.NextDouble();
      if (dice < 0.35) {
        const uint64_t begin = random_page();
        const PhysRange range{begin, begin + rng.NextInRange(1, 1ull << rng.NextBelow(10)) *
                                                 kPage4K};
        const bool offline = rng.NextBernoulli(0.2);
        if (buddy.TakeRange(range, offline ? BuddyAllocator::Take::kOffline
                                           : BuddyAllocator::Take::kAllocate)
                .ok() &&
            !offline) {
          taken.push_back(range);
        }
      } else if (dice < 0.5) {
        const auto order = static_cast<uint32_t>(rng.NextBelow(10));
        if (Result<uint64_t> block = buddy.Allocate(order); block.ok()) {
          taken.push_back(PhysRange{*block, *block + OrderBytes(order)});
        }
      } else if (dice < 0.65) {
        (void)buddy.OfflinePage(random_page());
      } else if (!taken.empty()) {
        const size_t victim = rng.NextBelow(taken.size());
        ASSERT_NO_FATAL_FAILURE(FreeRange(buddy, taken[victim]));
        taken.erase(taken.begin() + static_cast<ptrdiff_t>(victim));
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, NextFreeRunProperty, ::testing::Values(1u, 2u, 3u));

}  // namespace
}  // namespace siloz
