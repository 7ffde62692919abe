// Tests for DramDevice (src/dram/device.h): storage, ECC path, hammering,
// TRR interplay, RowPress, patrol scrub.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <numeric>
#include <random>
#include <tuple>
#include <vector>

#include "src/base/units.h"
#include "src/dram/device.h"

namespace siloz {
namespace {

DramGeometry SmallGeometry() {
  DramGeometry geometry;
  geometry.sockets = 1;
  geometry.channels_per_socket = 2;
  geometry.ranks_per_dimm = 2;
  geometry.banks_per_rank = 4;
  geometry.rows_per_bank = 8192;
  geometry.rows_per_subarray = 1024;
  return geometry;
}

DisturbanceProfile FastProfile() {
  DisturbanceProfile profile;
  profile.threshold_mean = 800.0;
  profile.threshold_spread = 0.1;
  return profile;
}

TrrConfig NoTrr() {
  TrrConfig config;
  config.enabled = false;
  return config;
}

DramDevice MakeDevice(TrrConfig trr = NoTrr(), RemapConfig remap = {}) {
  return DramDevice(SmallGeometry(), remap, FastProfile(), trr, "test");
}

TEST(DeviceTest, ReadBackWrittenData) {
  DramDevice device = MakeDevice();
  std::array<uint8_t, 64> data;
  std::iota(data.begin(), data.end(), 1);
  device.Write(0, 0, 100, 256, data, 1000);
  std::array<uint8_t, 64> out{};
  const ReadResult result = device.Read(0, 0, 100, 256, out, 2000);
  EXPECT_EQ(result.outcome, EccOutcome::kClean);
  EXPECT_EQ(out, data);
}

TEST(DeviceTest, UnwrittenRowsReadZero) {
  DramDevice device = MakeDevice();
  std::array<uint8_t, 128> out;
  out.fill(0xAB);
  const ReadResult result = device.Read(1, 3, 7000, 0, out, 1000);
  EXPECT_EQ(result.outcome, EccOutcome::kClean);
  for (uint8_t byte : out) {
    EXPECT_EQ(byte, 0);
  }
}

TEST(DeviceTest, NeverStoredRowInStoredBankReadsZero) {
  DramDevice device = MakeDevice();
  std::array<uint8_t, 64> data;
  data.fill(0x5A);
  device.Write(1, 2, 100, 0, data, 1000);
  device.Write(1, 2, 102, 0, data, 1100);
  device.InjectFlip(1, 2, 102, 0, 0, 1200);
  std::array<uint8_t, 64> out;
  out.fill(0xAB);
  const ReadResult result = device.Read(1, 2, 101, 0, out, 2000);
  EXPECT_EQ(result.outcome, EccOutcome::kClean);
  for (uint8_t byte : out) {
    EXPECT_EQ(byte, 0);
  }
}

// A zero-byte read of a stored row at column 0 used to compute its last
// word as (0 + 0 - 1) / 8 and walk off the row.
TEST(DeviceTest, EmptyReadOfStoredRowTouchesNoWord) {
  DramDevice device = MakeDevice();
  std::array<uint8_t, 8> data{1, 2, 3, 4, 5, 6, 7, 8};
  device.Write(0, 0, 40, 0, data, 1000);
  device.InjectFlip(0, 0, 40, 3, 1, 1100);
  const ReadResult empty = device.Read(0, 0, 40, 0, std::span<uint8_t>(), 2000);
  EXPECT_EQ(empty.outcome, EccOutcome::kClean);
  EXPECT_EQ(empty.corrected_words, 0u);
  EXPECT_EQ(device.counters().reads, 1u);
  // The latent flip is still there for the next real read to correct.
  std::array<uint8_t, 8> out{};
  const ReadResult result = device.Read(0, 0, 40, 0, out, 3000);
  EXPECT_EQ(result.outcome, EccOutcome::kCorrected);
  EXPECT_EQ(out, data);
}

// A zero-byte write at a column that is not a multiple of 8 used to
// re-encode the word holding the column and clear its flip mask, so a
// latent flip became permanent data with no correction reported.
TEST(DeviceTest, EmptyWriteKeepsLatentFlip) {
  DramDevice device = MakeDevice();
  std::array<uint8_t, 16> data;
  data.fill(10);
  device.Write(0, 0, 41, 0, data, 1000);
  device.InjectFlip(0, 0, 41, /*byte_in_row=*/9, /*bit_in_byte=*/0, 1100);
  device.Write(0, 0, 41, /*column=*/12, std::span<const uint8_t>(), 2000);
  EXPECT_EQ(device.counters().writes, 2u);
  std::array<uint8_t, 16> out{};
  const ReadResult result = device.Read(0, 0, 41, 0, out, 3000);
  EXPECT_EQ(result.outcome, EccOutcome::kCorrected);
  EXPECT_EQ(result.corrected_words, 1u);
  EXPECT_EQ(out, data);
}

TEST(DeviceTest, SingleInjectedFlipIsCorrected) {
  DramDevice device = MakeDevice();
  std::array<uint8_t, 8> data{1, 2, 3, 4, 5, 6, 7, 8};
  device.Write(0, 0, 50, 0, data, 1000);
  device.InjectFlip(0, 0, 50, /*byte_in_row=*/3, /*bit_in_byte=*/5, 2000);

  std::array<uint8_t, 8> out{};
  const ReadResult result = device.Read(0, 0, 50, 0, out, 3000);
  EXPECT_EQ(result.outcome, EccOutcome::kCorrected);
  EXPECT_EQ(result.corrected_words, 1u);
  EXPECT_EQ(result.silently_corrupt_words, 0u);
  EXPECT_EQ(out, data);  // scrubbed back to truth

  // Second read is clean: the correction was written back.
  const ReadResult again = device.Read(0, 0, 50, 0, out, 4000);
  EXPECT_EQ(again.outcome, EccOutcome::kClean);
}

TEST(DeviceTest, DoubleFlipIsUncorrectable) {
  DramDevice device = MakeDevice();
  std::array<uint8_t, 8> data{10, 20, 30, 40, 50, 60, 70, 80};
  device.Write(0, 0, 51, 0, data, 1000);
  device.InjectFlip(0, 0, 51, 0, 0, 2000);
  device.InjectFlip(0, 0, 51, 7, 7, 2100);

  std::array<uint8_t, 8> out{};
  const ReadResult result = device.Read(0, 0, 51, 0, out, 3000);
  EXPECT_EQ(result.outcome, EccOutcome::kUncorrectable);
  EXPECT_EQ(result.uncorrectable_words, 1u);
  EXPECT_EQ(device.counters().uncorrectable_words, 1u);
}

TEST(DeviceTest, WriteOverwritesFlips) {
  DramDevice device = MakeDevice();
  std::array<uint8_t, 8> data{};
  device.Write(0, 0, 52, 0, data, 1000);
  device.InjectFlip(0, 0, 52, 2, 1, 2000);
  device.InjectFlip(0, 0, 52, 3, 2, 2100);
  std::array<uint8_t, 8> fresh{9, 9, 9, 9, 9, 9, 9, 9};
  device.Write(0, 0, 52, 0, fresh, 3000);
  std::array<uint8_t, 8> out{};
  const ReadResult result = device.Read(0, 0, 52, 0, out, 4000);
  EXPECT_EQ(result.outcome, EccOutcome::kClean);
  EXPECT_EQ(out, fresh);
}

TEST(DeviceTest, HammeringProducesLoggedFlips) {
  DramDevice device = MakeDevice();
  uint64_t t = 0;
  for (int i = 0; i < 4000; ++i) {
    device.Activate(0, 0, 500, t);
    device.Precharge(0, 0, t + 25);
    t += 50;
  }
  EXPECT_FALSE(device.flip_log().empty());
  EXPECT_GT(device.counters().bit_flips, 0u);
  for (const FlipRecord& flip : device.flip_log()) {
    EXPECT_EQ(flip.rank, 0u);
    EXPECT_EQ(flip.bank, 0u);
    // With identity-ish remapping (even rank / A-side unaffected; B-side
    // inverted), victims must be within the aggressor's media subarray.
    EXPECT_EQ(flip.media_row / 1024, 500u / 1024);
  }
}

TEST(DeviceTest, RowBufferHitsDoNotActivate) {
  DramDevice device = MakeDevice();
  uint64_t t = 0;
  for (int i = 0; i < 4000; ++i) {
    device.Activate(0, 0, 500, t);  // row stays open: one real ACT
    t += 50;
  }
  EXPECT_EQ(device.counters().activates, 1u);
  EXPECT_TRUE(device.flip_log().empty());
}

TEST(DeviceTest, FlipLandsInSameSubarrayGroupBothSides) {
  // With standard mirroring+inversion and 1024-row subarrays, flips stay in
  // the aggressor's media subarray on both half-row sides (§6).
  RemapConfig remap;  // mirroring + inversion on
  DramDevice device = MakeDevice(NoTrr(), remap);
  uint64_t t = 0;
  for (int i = 0; i < 6000; ++i) {
    device.Activate(1, 2, 2047, t);  // odd rank: mirroring active
    device.Precharge(1, 2, t + 25);
    t += 50;
  }
  ASSERT_FALSE(device.flip_log().empty());
  bool saw_b_side = false;
  for (const FlipRecord& flip : device.flip_log()) {
    EXPECT_EQ(flip.media_row / 1024, 2047u / 1024) << "cross-subarray flip at media row "
                                                   << flip.media_row;
    saw_b_side |= (flip.side == HalfRowSide::kB);
  }
  EXPECT_TRUE(saw_b_side);
}

TEST(DeviceTest, TrrSuppressesSimpleDoubleSidedHammer) {
  TrrConfig trr;
  trr.enabled = true;
  trr.tracker_entries = 12;
  trr.act_threshold = 200;  // react well before the ~800-ACT threshold
  DramDevice device = MakeDevice(trr);
  uint64_t t = 0;
  for (int i = 0; i < 20000; ++i) {
    const uint32_t aggressor = (i % 2 == 0) ? 499 : 501;
    device.Activate(0, 0, aggressor, t);
    device.Precharge(0, 0, t + 25);
    t += 50;
  }
  EXPECT_TRUE(device.flip_log().empty())
      << "TRR failed to stop a naive double-sided hammer";
  EXPECT_GT(device.counters().trr_victim_refreshes, 0u);
}

TEST(DeviceTest, ManySidedPatternDefeatsTrr) {
  // Enough decoys exhaust the tracker (Blacksmith-style); flips occur
  // despite TRR.
  TrrConfig trr;
  trr.enabled = true;
  trr.tracker_entries = 12;
  trr.act_threshold = 200;
  DramDevice device = MakeDevice(trr);
  uint64_t t = 0;
  for (int round = 0; round < 2500; ++round) {
    for (uint32_t pair = 0; pair < 16; ++pair) {  // 32 aggressors > 12 entries
      const uint32_t base = 500 + pair * 8;
      device.Activate(0, 0, base, t);
      device.Precharge(0, 0, t + 20);
      t += 40;
      device.Activate(0, 0, base + 2, t);
      device.Precharge(0, 0, t + 20);
      t += 40;
    }
  }
  EXPECT_FALSE(device.flip_log().empty()) << "many-sided pattern should defeat TRR";
}

TEST(DeviceTest, RowPressLongOpenFlips) {
  DramDevice device = MakeDevice();
  uint64_t t = 0;
  // Keep the row open ~200 us per activation: few ACTs, long open time.
  for (int i = 0; i < 600; ++i) {
    device.Activate(0, 0, 600, t);
    t += 200'000;
    device.Precharge(0, 0, t);
    device.Activate(0, 0, 4000, t);  // park the row buffer elsewhere briefly
    t += 100;
    device.Precharge(0, 0, t);
  }
  bool saw_rowpress_victim = false;
  for (const FlipRecord& flip : device.flip_log()) {
    if (flip.media_row >= 598 && flip.media_row <= 602) {
      saw_rowpress_victim = true;
    }
  }
  EXPECT_TRUE(saw_rowpress_victim);
}

TEST(DeviceTest, PatrolScrubRepairsSingleBitFlips) {
  DramDevice device = MakeDevice();
  std::array<uint8_t, 8> data{1, 1, 1, 1, 1, 1, 1, 1};
  device.Write(0, 0, 70, 0, data, 1000);
  device.Write(0, 0, 70, 64, data, 1100);
  device.InjectFlip(0, 0, 70, 1, 0, 2000);
  device.InjectFlip(0, 0, 70, 65, 3, 2100);
  EXPECT_EQ(device.PatrolScrub(3000), 2u);
  // Everything reads clean afterwards.
  std::array<uint8_t, 8> out{};
  EXPECT_EQ(device.Read(0, 0, 70, 0, out, 4000).outcome, EccOutcome::kClean);
  EXPECT_EQ(out, data);
  EXPECT_EQ(device.Read(0, 0, 70, 64, out, 5000).outcome, EccOutcome::kClean);
  EXPECT_EQ(out, data);
}

// The scrub walks rows in (rank, bank, row) order whatever order they were
// stored in: rows stored in shuffled order scrub to the same corrections
// and the same bytes as rows stored in order.
TEST(DeviceTest, PatrolScrubIsIndependentOfStoreOrder) {
  using Row = std::tuple<uint32_t, uint32_t, uint32_t>;  // rank, bank, media row
  std::vector<Row> rows;
  for (uint32_t rank = 0; rank < 2; ++rank) {
    for (uint32_t bank = 0; bank < 4; ++bank) {
      for (uint32_t media_row : {3u, 700u, 701u, 5000u}) {
        rows.emplace_back(rank, bank, media_row);
      }
    }
  }
  std::vector<Row> shuffled = rows;
  std::shuffle(shuffled.begin(), shuffled.end(), std::mt19937(7));
  ASSERT_NE(shuffled, rows);

  // Per row: word 0 gets one flip (the scrub repairs it), word 1 two
  // (uncorrectable), word 2 three (miscorrected on read, left by the scrub).
  const auto store = [](DramDevice& device, const std::vector<Row>& order) {
    uint64_t now = 1000;
    for (const auto& [rank, bank, media_row] : order) {
      std::array<uint8_t, 32> data;
      std::iota(data.begin(), data.end(), static_cast<uint8_t>(media_row + bank));
      device.Write(rank, bank, media_row, 0, data, now += 100);
      device.InjectFlip(rank, bank, media_row, 2, 1, now);
      device.InjectFlip(rank, bank, media_row, 8, 0, now);
      device.InjectFlip(rank, bank, media_row, 12, 6, now);
      for (uint32_t byte : {16u, 19u, 23u}) {
        device.InjectFlip(rank, bank, media_row, byte, 4, now);
      }
    }
  };
  DramDevice in_order = MakeDevice();
  DramDevice out_of_order = MakeDevice();
  store(in_order, rows);
  store(out_of_order, shuffled);

  constexpr uint64_t kScrubNs = 1'000'000;
  EXPECT_EQ(in_order.PatrolScrub(kScrubNs), rows.size());
  EXPECT_EQ(out_of_order.PatrolScrub(kScrubNs), rows.size());
  EXPECT_EQ(in_order.counters().corrected_words, out_of_order.counters().corrected_words);
  EXPECT_EQ(in_order.counters().bit_flips, out_of_order.counters().bit_flips);
  uint64_t now = kScrubNs;
  for (const auto& [rank, bank, media_row] : rows) {
    std::array<uint8_t, 32> expected{};
    std::array<uint8_t, 32> actual{};
    const ReadResult a = in_order.Read(rank, bank, media_row, 0, expected, now += 100);
    const ReadResult b = out_of_order.Read(rank, bank, media_row, 0, actual, now);
    EXPECT_EQ(actual, expected) << rank << "/" << bank << "/" << media_row;
    EXPECT_EQ(a.outcome, EccOutcome::kUncorrectable);
    EXPECT_EQ(b.outcome, a.outcome);
    EXPECT_EQ(b.corrected_words, a.corrected_words);
    EXPECT_EQ(b.uncorrectable_words, a.uncorrectable_words);
  }
}

TEST(DeviceTest, CountersTrackOperations) {
  DramDevice device = MakeDevice();
  std::array<uint8_t, 8> buf{};
  device.Write(0, 0, 10, 0, buf, 1000);
  device.Read(0, 0, 10, 0, buf, 2000);
  device.Read(0, 0, 11, 0, buf, 3000);
  const DeviceCounters& counters = device.counters();
  EXPECT_EQ(counters.writes, 1u);
  EXPECT_EQ(counters.reads, 2u);
  EXPECT_EQ(counters.activates, 2u);  // row 10 (write+read share it), row 11
}

TEST(DeviceTest, RefreshTicksAdvanceWithTime) {
  DramDevice device = MakeDevice();
  device.AdvanceTo(10 * kRefreshIntervalNs);
  EXPECT_EQ(device.counters().ref_ticks, 10u);
}

}  // namespace
}  // namespace siloz
