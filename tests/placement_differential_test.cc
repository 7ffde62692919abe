// NumaNode's jump scans against the per-block loops they replaced
// (tests/support/placement_oracle.h). Twin nodes share one random
// fragmentation history; then each placement request runs on both, and the
// twins must return the same start or runs (or the same kNoMemory) and
// leave the same free lists, page by page.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/base/rng.h"
#include "src/base/units.h"
#include "src/hostmem/buddy.h"
#include "src/hostmem/numa.h"
#include "tests/support/placement_oracle.h"

namespace siloz {
namespace {

// Adjacent ranges (a run may not cross between them), an unaligned start,
// and one range listed out of address order.
const std::vector<PhysRange> kNodeRanges = {
    PhysRange{4_KiB, 6_MiB}, PhysRange{6_MiB, 14_MiB + 4_KiB}, PhysRange{40_MiB, 56_MiB},
    PhysRange{14_MiB + 12_KiB, 32_MiB}};
constexpr uint64_t kNodeEnd = 56_MiB;
constexpr uint32_t kOrders[] = {kOrder4K, 1, 4, kOrder2M};

void ExpectSameState(const NumaNode& oracle, const NumaNode& scanned) {
  const BuddyAllocator& a = oracle.allocator();
  const BuddyAllocator& b = scanned.allocator();
  ASSERT_EQ(a.free_bytes(), b.free_bytes());
  ASSERT_EQ(a.LargestFreeOrder(), b.LargestFreeOrder());
  for (uint64_t page = 0; page < kNodeEnd; page += kPage4K) {
    ASSERT_EQ(a.IsFree(page), b.IsFree(page)) << "page " << page;
    ASSERT_EQ(a.IsOfflined(page), b.IsOfflined(page)) << "page " << page;
  }
}

std::string Describe(const Result<std::vector<PhysRange>>& runs) {
  if (!runs.ok()) {
    return "error " + std::string(ErrorCodeName(runs.error().code));
  }
  std::string text;
  for (const PhysRange& run : *runs) {
    text += "[" + std::to_string(run.begin) + ", " + std::to_string(run.end) + ") ";
  }
  return text;
}

// Random fragmentation: taken and offlined ranges, buddy allocations, frees
// and offlined pages.
void Fragment(NumaNode& node, Rng& rng, int steps) {
  BuddyAllocator& buddy = node.allocator();
  std::vector<std::pair<uint64_t, uint32_t>> live;
  for (int step = 0; step < steps; ++step) {
    const double dice = rng.NextDouble();
    const uint64_t page = rng.NextBelow(kNodeEnd / kPage4K) * kPage4K;
    if (dice < 0.3) {
      const PhysRange range{page, page + rng.NextInRange(1, 1ull << rng.NextBelow(10)) * kPage4K};
      (void)buddy.TakeRange(range, rng.NextBernoulli(0.3) ? BuddyAllocator::Take::kOffline
                                                          : BuddyAllocator::Take::kAllocate);
    } else if (dice < 0.55) {
      const auto order = static_cast<uint32_t>(rng.NextBelow(10));
      if (Result<uint64_t> block = buddy.Allocate(order); block.ok()) {
        live.emplace_back(*block, order);
      }
    } else if (dice < 0.65) {
      (void)buddy.OfflinePage(page);
    } else if (!live.empty()) {
      const size_t victim = rng.NextBelow(live.size());
      ASSERT_TRUE(buddy.Free(live[victim].first, live[victim].second).ok());
      live.erase(live.begin() + static_cast<ptrdiff_t>(victim));
    }
  }
}

class PlacementDifferential : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PlacementDifferential, JumpScansMatchPerBlockLoops) {
  Rng rng(GetParam());
  NumaNode scanned(0, NodeKind::kGuestReserved, 0, 0, kNodeRanges, false);
  ASSERT_NO_FATAL_FAILURE(Fragment(scanned, rng, 40 + static_cast<int>(rng.NextBelow(80))));
  NumaNode oracle = scanned;
  int placed = 0;
  int short_of_memory = 0;
  for (int request = 0; request < 24; ++request) {
    const uint32_t order = kOrders[rng.NextBelow(std::size(kOrders))];
    const uint64_t block = OrderBytes(order);
    // Up to a little more than the free bytes, so some requests fall short.
    const uint64_t max_blocks = scanned.allocator().free_bytes() / block + 2;
    const uint64_t bytes = rng.NextInRange(1, rng.NextBernoulli(0.5) ? max_blocks
                                                                      : std::min<uint64_t>(
                                                                            max_blocks, 8)) *
                           block;
    SCOPED_TRACE("request " + std::to_string(request) + ": " + std::to_string(bytes) +
                 " bytes at order " + std::to_string(order));
    if (rng.NextBernoulli(0.5)) {
      Result<uint64_t> expected = OracleAllocateContiguous(oracle, bytes, order);
      Result<uint64_t> actual = scanned.AllocateContiguous(bytes, order);
      ASSERT_EQ(actual.ok(), expected.ok());
      if (expected.ok()) {
        ASSERT_EQ(*actual, *expected);
        ++placed;
      } else {
        EXPECT_EQ(actual.error().code, ErrorCode::kNoMemory);
        ++short_of_memory;
      }
    } else {
      Result<std::vector<PhysRange>> expected = OracleAllocateRuns(oracle, bytes, order);
      Result<std::vector<PhysRange>> actual = scanned.AllocateRuns(bytes, order);
      ASSERT_EQ(Describe(actual), Describe(expected));
      ++(expected.ok() ? placed : short_of_memory);
    }
    ASSERT_NO_FATAL_FAILURE(ExpectSameState(oracle, scanned));
  }
  EXPECT_GT(placed, 0);
  EXPECT_GT(short_of_memory, 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PlacementDifferential,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u));

// Free memory runs on across the boundary of two adjacent ranges, but a
// placement scans one range at a time, in list order: a contiguous run must
// fit inside one range, and runs split at each range's end.
TEST(PlacementDifferentialTest, AdjacentRangesBoundEveryRun) {
  const std::vector<PhysRange> ranges = {PhysRange{0, 4_MiB}, PhysRange{8_MiB, 12_MiB},
                                         PhysRange{4_MiB, 8_MiB}};
  NumaNode scanned(0, NodeKind::kGuestReserved, 0, 0, ranges, false);
  NumaNode oracle = scanned;
  Result<uint64_t> expected = OracleAllocateContiguous(oracle, 6_MiB, kOrder2M);
  Result<uint64_t> actual = scanned.AllocateContiguous(6_MiB, kOrder2M);
  ASSERT_FALSE(expected.ok());
  ASSERT_FALSE(actual.ok());
  EXPECT_EQ(actual.error().code, ErrorCode::kNoMemory);
  const std::string runs = Describe(scanned.AllocateRuns(10_MiB, kOrder2M));
  EXPECT_EQ(runs, "[0, 4194304) [8388608, 12582912) [4194304, 6291456) ");
  EXPECT_EQ(runs, Describe(OracleAllocateRuns(oracle, 10_MiB, kOrder2M)));
  ASSERT_NO_FATAL_FAILURE(ExpectSameState(oracle, scanned));
}

}  // namespace
}  // namespace siloz
