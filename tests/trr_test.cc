// Tests for the Misra-Gries TRR tracker (src/dram/trr.h).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "src/base/rng.h"
#include "src/dram/trr.h"
#include "tests/support/trr_oracle.h"

namespace siloz {
namespace {

TrrConfig SmallConfig() {
  TrrConfig config;
  config.tracker_entries = 4;
  config.act_threshold = 10;
  config.targets_per_ref = 1;
  return config;
}

TEST(TrrTest, TracksHotRow) {
  TrrTracker tracker(SmallConfig());
  for (int i = 0; i < 100; ++i) {
    tracker.OnActivate(42);
  }
  const auto targets = tracker.SelectTargets();
  ASSERT_EQ(targets.size(), 1u);
  EXPECT_EQ(targets[0], 42u);
}

TEST(TrrTest, IgnoresColdRows) {
  TrrTracker tracker(SmallConfig());
  for (uint32_t row = 0; row < 4; ++row) {
    tracker.OnActivate(row);  // one ACT each, below act_threshold
  }
  EXPECT_TRUE(tracker.SelectTargets().empty());
}

TEST(TrrTest, SelectsHottestFirst) {
  TrrConfig config = SmallConfig();
  config.targets_per_ref = 2;
  TrrTracker tracker(config);
  for (int i = 0; i < 50; ++i) {
    tracker.OnActivate(1);
  }
  for (int i = 0; i < 80; ++i) {
    tracker.OnActivate(2);
  }
  const auto targets = tracker.SelectTargets();
  ASSERT_EQ(targets.size(), 2u);
  EXPECT_EQ(targets[0], 2u);
  EXPECT_EQ(targets[1], 1u);
}

TEST(TrrTest, TargetCounterResetsAfterSelection) {
  TrrTracker tracker(SmallConfig());
  for (int i = 0; i < 100; ++i) {
    tracker.OnActivate(42);
  }
  EXPECT_FALSE(tracker.SelectTargets().empty());
  // Counter was reset; without further ACTs the row is no longer a target.
  EXPECT_TRUE(tracker.SelectTargets().empty());
  // Continued hammering re-arms it.
  for (int i = 0; i < 100; ++i) {
    tracker.OnActivate(42);
  }
  EXPECT_FALSE(tracker.SelectTargets().empty());
}

TEST(TrrTest, ManySidedDecoysEvictTrueAggressor) {
  // The Blacksmith bypass (§2.5): rotating through more distinct rows than
  // the tracker has entries decays the true aggressor's counter.
  TrrTracker tracker(SmallConfig());
  for (int round = 0; round < 50; ++round) {
    tracker.OnActivate(42);  // true aggressor
    for (uint32_t decoy = 100; decoy < 110; ++decoy) {
      tracker.OnActivate(decoy);  // 10 decoys vs 4 tracker entries
    }
  }
  // The aggressor's count never reaches act_threshold: decoy insertions keep
  // decrementing it.
  const auto targets = tracker.SelectTargets();
  EXPECT_TRUE(std::find(targets.begin(), targets.end(), 42u) == targets.end());
}

TEST(TrrTest, TrackerSizeBounded) {
  TrrTracker tracker(SmallConfig());
  for (uint32_t row = 0; row < 1000; ++row) {
    tracker.OnActivate(row);
  }
  EXPECT_LE(tracker.tracked_rows(), 4u);
}

// SelectTargets resets a target's count to 0 and keeps the entry. The next
// decrement sweep must evict it rather than wrap its count to 2^64 - 1,
// which would pin the stale row ahead of the real aggressor at every later
// REF tick.
TEST(TrrTest, SweepEvictsTargetsResetToZero) {
  TrrConfig config;
  config.tracker_entries = 2;
  config.act_threshold = 2;
  config.targets_per_ref = 1;
  TrrTracker tracker(config);
  tracker.OnActivate(1);
  tracker.OnActivate(1);
  EXPECT_EQ(tracker.SelectTargets(), std::vector<uint32_t>{1});
  for (uint32_t row : {2u, 3u, 4u, 4u}) {
    tracker.OnActivate(row);
  }
  EXPECT_TRUE(tracker.armed());
  EXPECT_EQ(tracker.SelectTargets(), std::vector<uint32_t>{4});
}

// Equal counts go to the lowest row, whatever order the rows arrived in.
// Rows 7, 2, 5 are inserted in that order and hammered round robin to equal
// counts; a recency rule (newest first) would pick 5 then 2.
TEST(TrrTest, EqualCountsSelectLowestRowFirst) {
  TrrConfig config = SmallConfig();
  config.targets_per_ref = 2;
  TrrTracker tracker(config);
  for (int i = 0; i < 20; ++i) {
    for (uint32_t row : {7u, 2u, 5u}) {
      tracker.OnActivate(row);
    }
  }
  EXPECT_EQ(tracker.SelectTargets(), (std::vector<uint32_t>{2, 5}));
  EXPECT_EQ(tracker.SelectTargets(), std::vector<uint32_t>{7});
}

TEST(TrrTest, RejectsMoreEntriesThanItsStorageHolds) {
  TrrConfig config = SmallConfig();
  config.tracker_entries = TrrTracker::kMaxEntries + 1;
  EXPECT_DEATH(TrrTracker{config}, "at most 12 entries");
}

// One seeded random program: a tracker shape, then a stream of ACTs with
// interleaved REF-tick selections, driven through the flat tracker and the
// ordered-map oracle in lockstep. Row draws are small integers arriving in
// random order, and pattern-style round robins give many rows equal counts:
// the lowest-row tie-break is exercised on most selections.
struct TrrProgramStats {
  uint64_t selections = 0;
  uint64_t targets = 0;
};

void RunTrrProgram(uint64_t seed, TrrProgramStats& stats) {
  Rng rng(seed);
  TrrConfig config;
  config.tracker_entries = static_cast<uint32_t>(rng.NextInRange(1, TrrTracker::kMaxEntries));
  config.targets_per_ref = static_cast<uint32_t>(rng.NextInRange(1, 3));
  config.act_threshold = rng.NextBelow(2) == 0 ? rng.NextInRange(1, 16) : rng.NextInRange(1, 600);
  TrrTracker tracker(config);
  MapTrrTracker oracle(config);

  const uint64_t universe = rng.NextInRange(1, 3 * config.tracker_entries + 4);
  const uint64_t pattern_rows = rng.NextInRange(1, config.tracker_entries + 4);
  const uint64_t mode = rng.NextBelow(3);
  const std::string where = "seed=" + std::to_string(seed) +
                            " entries=" + std::to_string(config.tracker_entries) +
                            " targets=" + std::to_string(config.targets_per_ref) +
                            " threshold=" + std::to_string(config.act_threshold);
  for (uint64_t op = 0; op < 4000; ++op) {
    if (rng.NextBelow(48) == 0) {
      const std::vector<uint32_t> got = tracker.SelectTargets();
      ASSERT_EQ(got, oracle.SelectTargets()) << where << " op=" << op;
      ++stats.selections;
      stats.targets += got.size();
    } else {
      uint64_t row = 0;
      switch (mode) {
        case 0:  // uniform
          row = rng.NextBelow(universe);
          break;
        case 1:  // a hot half of the tracker's width, cold decoys around it
          row = rng.NextBelow(4) != 0 ? rng.NextBelow(config.tracker_entries / 2 + 1)
                                      : rng.NextBelow(universe);
          break;
        default:  // round robin over a pattern, as fuzzer patterns replay
          row = rng.NextBelow(16) != 0 ? op % pattern_rows : rng.NextBelow(universe);
          break;
      }
      tracker.OnActivate(static_cast<uint32_t>(row));
      oracle.OnActivate(static_cast<uint32_t>(row));
    }
    ASSERT_EQ(tracker.armed(), oracle.armed()) << where << " op=" << op;
    ASSERT_EQ(tracker.tracked_rows(), oracle.tracked_rows()) << where << " op=" << op;
  }
}

TEST(TrrDifferentialTest, MatchesOrderedMapOracleOnRandomPrograms) {
  TrrProgramStats stats;
  for (uint64_t seed = 1; seed <= 2000; ++seed) {
    RunTrrProgram(seed, stats);
    if (HasFatalFailure()) {
      return;
    }
  }
  // The programs must actually reach the selection logic.
  EXPECT_GT(stats.targets, stats.selections / 4);
}

}  // namespace
}  // namespace siloz
