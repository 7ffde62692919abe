// Safe-rate property of the disturbance model, on every platform's remap
// chain (§2.5), in the spirit of BlockHammer's per-window activation bound.
//
// A victim's weighted disturbance is what it collects between two of its own
// refreshes: 1 per distance-1 ACT, distance2_factor per distance-2 ACT, and
// rowpress_acts_per_ns per nanosecond a neighbour is held open (RowPress),
// counting only aggressors in the victim's silicon subarray. A row is
// refreshed when it is itself activated and by auto-refresh, its k-th time
// at (row mod kRefreshBins) * tREFI + k * 64 ms. With TRR off:
//  - a victim whose weight stays below threshold_mean * (1 - spread) never
//    flips, so a schedule that keeps every victim there flips nothing;
//  - a victim whose weight goes above threshold_mean * (1 + spread) flips;
//  - every flip lies within the blast radius of an aggressor in the same
//    silicon subarray.
// Random ACT schedules drive a DramDevice while a ledger re-derives every
// victim's weight from those rules, in internal row coordinates obtained
// through the platform's remap chain.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "src/addr/platform.h"
#include "src/base/rng.h"
#include "src/base/units.h"
#include "src/dram/device.h"

namespace siloz {
namespace {

// (bank key, side, internal row) of one half-row.
using HalfRowKey = std::tuple<uint32_t, HalfRowSide, uint32_t>;

// Weighted disturbance per victim since its last refresh, and the most it
// ever held.
class DisturbanceLedger {
 public:
  DisturbanceLedger(const DisturbanceProfile& profile, const DramGeometry& geometry)
      : profile_(profile), geometry_(geometry) {}

  // The row was activated: that refreshes it.
  void Refresh(const HalfRowKey& row, uint64_t now_ns) {
    Cell& cell = cells_[row];
    cell.weight = 0.0;
    cell.epoch = Epoch(std::get<2>(row), now_ns);
  }

  // `aggressor` disturbs its same-subarray neighbours with `amount` ACTs'
  // worth at distance 1 and distance2_factor times that at distance 2.
  void Charge(const HalfRowKey& aggressor, double amount, uint64_t now_ns) {
    const auto [bank_key, side, row] = aggressor;
    const int64_t subarray = row / geometry_.rows_per_subarray;
    for (const auto& [delta, factor] : {std::pair{-1, 1.0}, std::pair{1, 1.0},
                                       std::pair{-2, profile_.distance2_factor},
                                       std::pair{2, profile_.distance2_factor}}) {
      const int64_t victim = static_cast<int64_t>(row) + delta;
      if (victim < 0 || victim >= geometry_.rows_per_bank ||
          victim / geometry_.rows_per_subarray != subarray) {
        continue;
      }
      Cell& cell = cells_[{bank_key, side, static_cast<uint32_t>(victim)}];
      const uint64_t epoch = Epoch(static_cast<uint32_t>(victim), now_ns);
      if (epoch != cell.epoch) {
        cell.weight = 0.0;
        cell.epoch = epoch;
      }
      cell.weight += amount * factor;
      cell.peak = std::max(cell.peak, cell.weight);
    }
  }

  double Peak(const HalfRowKey& row) const {
    const auto it = cells_.find(row);
    return it == cells_.end() ? 0.0 : it->second.peak;
  }
  const auto& cells() const { return cells_; }

 private:
  struct Cell {
    uint64_t epoch = 0;
    double weight = 0.0;
    double peak = 0.0;
  };

  // Auto-refreshes of `row` up to `now_ns`: the k-th happens at
  // (row mod kRefreshBins) * tREFI + (k - 1) * 64 ms.
  static uint64_t Epoch(uint32_t row, uint64_t now_ns) {
    const uint64_t phase = (row % kRefreshBins) * kRefreshIntervalNs;
    return now_ns < phase ? 0 : (now_ns - phase) / kRefreshWindowNs + 1;
  }

  DisturbanceProfile profile_;
  DramGeometry geometry_;
  std::map<HalfRowKey, Cell> cells_;
};

struct SafeRateStats {
  uint64_t programs = 0;
  uint64_t clean_programs = 0;    // every victim below the lowest threshold
  uint64_t safe_victims = 0;      // below the lowest threshold: must not flip
  uint64_t doomed_victims = 0;    // above the highest threshold: must flip
  uint64_t rowpress_flips = 0;
};

// One seeded schedule: a few aggressor rows around a subarray boundary in a
// few banks, activated in random order with random gaps, some long enough to
// press the open row and some long enough to cross auto-refreshes.
void RunSafeRateProgram(const PlatformInfo& platform, uint64_t seed, SafeRateStats& stats) {
  Rng rng(seed);
  const DramGeometry& geometry = platform.geometry;
  DisturbanceProfile profile;
  profile.threshold_mean = static_cast<double>(rng.NextInRange(150, 900));
  profile.threshold_spread = static_cast<double>(rng.NextBelow(6)) / 10.0;
  profile.distance2_factor =
      rng.NextBelow(3) == 0 ? 0.0 : 0.2 * static_cast<double>(rng.NextInRange(1, 3));
  profile.rowpress_acts_per_ns = rng.NextBelow(2) == 0 ? 1.0 / 3000.0 : 1.0 / 1000.0;
  profile.seed = seed;
  TrrConfig trr;
  trr.enabled = false;
  DramDevice device(geometry, platform.remap, profile, trr, "safe-rate");
  DisturbanceLedger ledger(profile, geometry);
  const double lowest = profile.threshold_mean * (1.0 - profile.threshold_spread);
  const double highest = profile.threshold_mean * (1.0 + profile.threshold_spread);

  struct Bank {
    uint32_t rank = 0;
    uint32_t bank = 0;
    int64_t open_row = -1;
    uint64_t open_since_ns = 0;
  };
  // Distinct banks: each keeps its own open row.
  std::vector<Bank> banks;
  const uint64_t bank_count = rng.NextInRange(1, 3);
  const uint64_t first_bank = rng.NextBelow(geometry.banks_per_dimm());
  for (uint64_t i = 0; i < bank_count; ++i) {
    const auto bank_key = static_cast<uint32_t>((first_bank + i * 5) % geometry.banks_per_dimm());
    banks.push_back(Bank{.rank = bank_key / geometry.banks_per_rank,
                         .bank = bank_key % geometry.banks_per_rank});
  }
  const int64_t boundary =
      static_cast<int64_t>(rng.NextInRange(1, geometry.subarrays_per_bank() - 1)) *
      geometry.rows_per_subarray;
  std::vector<uint32_t> rows(rng.NextInRange(1, 6));
  for (uint32_t& row : rows) {
    row = static_cast<uint32_t>(boundary + static_cast<int64_t>(rng.NextBelow(16)) - 8);
  }
  const std::string where = platform.name + " seed=" + std::to_string(seed);

  std::set<HalfRowKey> aggressors;
  const auto half_row = [&](const Bank& bank, uint32_t media_row, HalfRowSide side) {
    return HalfRowKey{bank.rank * geometry.banks_per_rank + bank.bank, side,
                      device.remapper().ToInternal(media_row, bank.rank, bank.bank, side)};
  };
  // Closing a row presses its neighbours for as long as it was open, capped
  // where refresh would have precharged the bank.
  const auto close = [&](Bank& bank, uint64_t now_ns) {
    if (bank.open_row < 0) {
      return;
    }
    const uint64_t open_ns = std::min(now_ns - bank.open_since_ns, kMaxRowOpenNs);
    for (HalfRowSide side : {HalfRowSide::kA, HalfRowSide::kB}) {
      ledger.Charge(half_row(bank, static_cast<uint32_t>(bank.open_row), side),
                    static_cast<double>(open_ns) * profile.rowpress_acts_per_ns, now_ns);
    }
    bank.open_row = -1;
  };

  uint64_t now_ns = rng.NextBelow(kRefreshWindowNs);
  const uint64_t acts = rng.NextInRange(20, 4000);
  for (uint64_t i = 0; i < acts; ++i) {
    const uint64_t gap_kind = rng.NextBelow(256);
    now_ns += gap_kind == 0   ? rng.NextBelow(kRefreshWindowNs / 2)
              : gap_kind < 16 ? rng.NextBelow(2 * kMaxRowOpenNs)
                              : 46;
    Bank& bank = banks[rng.NextBelow(banks.size())];
    const uint32_t media_row = rows[rng.NextBelow(rows.size())];
    device.Activate(bank.rank, bank.bank, media_row, now_ns);
    if (bank.open_row == static_cast<int64_t>(media_row)) {
      continue;  // already open: no ACT
    }
    close(bank, now_ns);
    for (HalfRowSide side : {HalfRowSide::kA, HalfRowSide::kB}) {
      const HalfRowKey row = half_row(bank, media_row, side);
      aggressors.insert(row);
      ledger.Refresh(row, now_ns);
      ledger.Charge(row, 1.0, now_ns);
    }
    bank.open_row = media_row;
    bank.open_since_ns = now_ns;
  }
  now_ns += rng.NextBelow(2 * kMaxRowOpenNs);
  for (Bank& bank : banks) {
    device.Precharge(bank.rank, bank.bank, now_ns);
    close(bank, now_ns);
  }

  // Every flip is in an in-subarray neighbour of an aggressor, and in a
  // victim that reached the lowest threshold.
  std::set<HalfRowKey> flipped;
  const uint32_t radius = BlastRadiusRows(profile);
  for (const FlipRecord& flip : device.flip_log()) {
    const HalfRowKey victim{flip.rank * geometry.banks_per_rank + flip.bank, flip.side,
                            flip.internal_row};
    flipped.insert(victim);
    const auto disturbs_victim = [&](const HalfRowKey& aggressor) {
      const auto [bank_key, side, row] = aggressor;
      const uint32_t distance =
          row > flip.internal_row ? row - flip.internal_row : flip.internal_row - row;
      return bank_key == std::get<0>(victim) && side == flip.side && distance >= 1 &&
             distance <= radius &&
             row / geometry.rows_per_subarray == flip.internal_row / geometry.rows_per_subarray;
    };
    ASSERT_TRUE(std::any_of(aggressors.begin(), aggressors.end(), disturbs_victim))
        << where << " flip in internal row " << flip.internal_row;
    ASSERT_GE(ledger.Peak(victim), lowest) << where << " internal row " << flip.internal_row;
  }
  stats.rowpress_flips += device.counters().flips_rowpress;

  bool clean = true;
  for (const auto& [victim, cell] : ledger.cells()) {
    if (cell.peak < lowest) {
      ++stats.safe_victims;
      ASSERT_EQ(flipped.count(victim), 0u) << where << " internal row " << std::get<2>(victim);
    } else {
      clean = false;
    }
    if (cell.peak > highest) {
      ++stats.doomed_victims;
      ASSERT_EQ(flipped.count(victim), 1u)
          << where << " internal row " << std::get<2>(victim) << " peak " << cell.peak;
    }
  }
  if (clean) {
    ++stats.clean_programs;
    ASSERT_TRUE(device.flip_log().empty()) << where;
  }
  ++stats.programs;
}

class SafeRateProperty : public ::testing::TestWithParam<std::string> {};

TEST_P(SafeRateProperty, WeightBelowLowestThresholdNeverFlipsAboveHighestAlwaysDoes) {
  const PlatformInfo* platform = FindPlatform(GetParam());
  ASSERT_NE(platform, nullptr);
  SafeRateStats stats;
  for (uint64_t seed = 1; seed <= 300; ++seed) {
    RunSafeRateProgram(*platform, seed, stats);
    if (HasFatalFailure()) {
      return;
    }
  }
  // Both sides of the bound, and RowPress, must actually be exercised.
  EXPECT_GT(stats.clean_programs, stats.programs / 10);
  EXPECT_GT(stats.doomed_victims, stats.programs / 10);
  EXPECT_GT(stats.safe_victims, stats.programs);
  EXPECT_GT(stats.rowpress_flips, 0u);
}

INSTANTIATE_TEST_SUITE_P(Platforms, SafeRateProperty, ::testing::ValuesIn(PlatformNames()),
                         [](const ::testing::TestParamInfo<std::string>& param) {
                           return param.param;
                         });

}  // namespace
}  // namespace siloz
