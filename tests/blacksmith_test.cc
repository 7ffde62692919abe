// Tests for the Blacksmith-style fuzzer (src/attack).
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "src/attack/blacksmith.h"
#include "src/base/units.h"
#include "tests/support/act_oracle.h"
#include "tests/support/table_three.h"

namespace siloz {
namespace {

MachineConfig FaultConfig(bool trr_enabled = false) {
  MachineConfig config;
  config.fault_tracking = true;
  DimmProfile profile;
  profile.disturbance.threshold_mean = 2500.0;
  profile.disturbance.threshold_spread = 0.15;
  profile.trr.enabled = trr_enabled;
  profile.trr.act_threshold = 400;
  config.dimm_profiles = {profile};
  return config;
}

BlacksmithConfig FastFuzz(uint64_t seed = 7) {
  BlacksmithConfig config;
  config.patterns = 4;
  config.rounds = 1200;
  config.min_pairs = 6;
  config.max_pairs = 12;
  config.seed = seed;
  return config;
}

TEST(BlacksmithTest, FindsFlipsWithinAccessibleRegion) {
  Machine machine(FaultConfig());
  // Attacker owns subarray group 3 of socket 0: phys [4.5 GiB, 6 GiB).
  const uint64_t group_bytes = machine.decoder().geometry().subarray_group_bytes();
  const PhysRange region{3 * group_bytes, 4 * group_bytes};
  BlacksmithFuzzer fuzzer(FastFuzz());
  const FuzzReport report = fuzzer.Run(machine, {&region, 1});
  EXPECT_GT(report.patterns_run, 0u);
  EXPECT_GT(report.activations, 0u);
  ASSERT_FALSE(report.flips.empty());
  // Physics: all flips stay inside the attacker's subarray group.
  for (const PhysFlip& flip : report.flips) {
    EXPECT_TRUE(region.Contains(flip.phys))
        << "flip at phys " << flip.phys << " escaped the subarray group";
  }
}

TEST(BlacksmithTest, DefeatsTrr) {
  // Many-sided patterns must produce flips even with TRR enabled (the
  // paper's premise: deployed mitigations are insufficient, §2.5).
  Machine machine(FaultConfig(/*trr_enabled=*/true));
  const uint64_t group_bytes = machine.decoder().geometry().subarray_group_bytes();
  const PhysRange region{3 * group_bytes, 4 * group_bytes};
  BlacksmithConfig config = FastFuzz(11);
  config.min_pairs = 10;  // enough sides to exhaust the tracker
  config.max_pairs = 16;
  config.patterns = 6;
  BlacksmithFuzzer fuzzer(config);
  const FuzzReport report = fuzzer.Run(machine, {&region, 1});
  EXPECT_FALSE(report.flips.empty()) << "fuzzer failed to bypass TRR";
}

TEST(BlacksmithTest, RowPressProducesFlips) {
  Machine machine(FaultConfig());
  const uint64_t group_bytes = machine.decoder().geometry().subarray_group_bytes();
  const PhysRange region{0, group_bytes};
  BlacksmithFuzzer fuzzer(FastFuzz(13));
  const FuzzReport report = fuzzer.RunRowPress(machine, {&region, 1});
  EXPECT_FALSE(report.flips.empty());
  for (const PhysFlip& flip : report.flips) {
    EXPECT_TRUE(region.Contains(flip.phys));
  }
}

TEST(BlacksmithTest, CensusClassifiesInsideOutside) {
  Machine machine(FaultConfig());
  SubarrayGroupMap map = *SubarrayGroupMap::Build(machine.decoder(), 1024);
  std::vector<PhysFlip> flips(3);
  flips[0].phys = 100;  // group 0
  flips[0].dimm_name = "A";
  flips[1].phys = 100 + map.group_bytes();  // group 1
  flips[1].dimm_name = "B";
  flips[2].phys = 200;  // group 0
  flips[2].dimm_name = "A";
  const PhysRange inside{0, map.group_bytes()};
  const FlipCensus census = ClassifyFlips(flips, map, {&inside, 1});
  EXPECT_EQ(census.inside, 2u);
  EXPECT_EQ(census.outside, 1u);
  EXPECT_EQ(census.per_dimm.at("A"), 2u);
  EXPECT_EQ(census.per_dimm.at("B"), 1u);
  EXPECT_EQ(census.groups_hit.size(), 2u);
}

TEST(BlacksmithTest, DeterministicForSeed) {
  const uint64_t group_bytes = DramGeometry{}.subarray_group_bytes();
  const PhysRange region{3 * group_bytes, 4 * group_bytes};
  auto run = [&](uint64_t seed) {
    Machine machine(FaultConfig());
    BlacksmithFuzzer fuzzer(FastFuzz(seed));
    return fuzzer.Run(machine, {&region, 1});
  };
  const FuzzReport a = run(21);
  const FuzzReport b = run(21);
  EXPECT_EQ(a.activations, b.activations);
  ASSERT_EQ(a.flips.size(), b.flips.size());
  for (size_t i = 0; i < a.flips.size(); ++i) {
    EXPECT_EQ(a.flips[i].phys, b.flips[i].phys);
  }
  const FuzzReport c = run(22);
  EXPECT_NE(a.activations, c.activations);
}

TEST(BlacksmithTest, HammerPhysAddressesCountsActs) {
  Machine machine(FaultConfig());
  const uint64_t stride = machine.decoder().geometry().row_group_bytes() * 32;
  const uint64_t aggressors[] = {0, stride};
  EXPECT_EQ(HammerPhysAddresses(machine, aggressors, 100), 200u);
}

// --- Per-DIMM replay determinism (Machine::ReplayActs) ---

// Everything a replay leaves behind.
struct ReplayOutcome {
  FuzzReport report;
  std::vector<DeviceCounters> counters;  // every device, in machine order
  uint64_t clock_ns = 0;
};

ReplayOutcome Capture(Machine& machine, FuzzReport report) {
  ReplayOutcome outcome{std::move(report), {}, machine.clock_ns()};
  const DramGeometry& geometry = machine.config().geometry;
  for (uint32_t socket = 0; socket < geometry.sockets; ++socket) {
    for (uint32_t channel = 0; channel < geometry.channels_per_socket; ++channel) {
      for (uint32_t dimm = 0; dimm < geometry.dimms_per_channel; ++dimm) {
        outcome.counters.push_back(machine.device(socket, channel, dimm).counters());
      }
    }
  }
  return outcome;
}

void ExpectSameOutcome(const ReplayOutcome& expected, const ReplayOutcome& actual) {
  EXPECT_EQ(expected.report.activations, actual.report.activations);
  EXPECT_EQ(expected.report.patterns_run, actual.report.patterns_run);
  EXPECT_EQ(expected.clock_ns, actual.clock_ns);
  ASSERT_EQ(expected.report.flips.size(), actual.report.flips.size());
  for (size_t i = 0; i < expected.report.flips.size(); ++i) {
    EXPECT_TRUE(expected.report.flips[i] == actual.report.flips[i]) << "flip " << i;
  }
  ASSERT_EQ(expected.counters.size(), actual.counters.size());
  for (size_t i = 0; i < expected.counters.size(); ++i) {
    EXPECT_TRUE(expected.counters[i] == actual.counters[i]) << "device " << i;
  }
}

// Physical addresses of rows r-1 and r+1 around the first line of each of
// `channels` channels met walking `region` — a double-sided pair per DIMM.
std::vector<uint64_t> PairsOnDistinctDimms(const Machine& machine, const PhysRange& region,
                                           uint32_t channels) {
  const AddressDecoder& decoder = machine.decoder();
  std::vector<uint64_t> aggressors;
  std::set<uint32_t> seen;
  for (uint64_t phys = region.begin; seen.size() < channels; phys += kCacheLineBytes) {
    MediaAddress media = *decoder.PhysToMedia(phys);
    if (!seen.insert(media.channel).second) {
      continue;
    }
    media.row = std::max<uint32_t>(media.row, 1);
    for (uint32_t row : {media.row - 1, media.row + 1}) {
      media.row = row;
      aggressors.push_back(*decoder.MediaToPhys(media));
    }
  }
  return aggressors;
}

TEST(BlacksmithReplayTest, FuzzerMatchesSerialLoopAtEveryThreadCount) {
  const uint64_t group_bytes = DramGeometry{}.subarray_group_bytes();
  const PhysRange region{3 * group_bytes, 4 * group_bytes};
  BlacksmithConfig config = FastFuzz(5);
  config.patterns = 8;
  config.min_pairs = 8;
  config.max_pairs = 16;

  Machine serial_machine(TableThreeConfig());
  BlacksmithFuzzer serial_fuzzer(config);
  const ReplayOutcome serial =
      Capture(serial_machine, RunFuzzerSerially(serial_fuzzer, serial_machine, {&region, 1}));
  ASSERT_FALSE(serial.report.flips.empty());
  std::set<std::string> dimms;
  for (const PhysFlip& flip : serial.report.flips) {
    dimms.insert(flip.dimm_name);
  }
  EXPECT_GE(dimms.size(), 2u) << "the campaign should flip bits on several DIMMs";

  for (uint32_t threads : {1u, 2u, 4u}) {
    SCOPED_TRACE(testing::Message() << "threads=" << threads);
    config.threads = threads;
    Machine machine(TableThreeConfig());
    ExpectSameOutcome(serial,
                      Capture(machine, BlacksmithFuzzer(config).Run(machine, {&region, 1})));
  }
}

TEST(BlacksmithReplayTest, MultiDimmHammerMatchesSerialLoop) {
  const uint64_t group_bytes = DramGeometry{}.subarray_group_bytes();
  const PhysRange region{3 * group_bytes, 4 * group_bytes};
  constexpr uint32_t kRounds = 20'000;

  Machine serial_machine(FaultConfig());
  const std::vector<uint64_t> aggressors = PairsOnDistinctDimms(serial_machine, region, 3);
  const ActBurst burst{aggressors, kRounds, std::nullopt};
  FuzzReport serial_report;
  serial_report.activations = ReplayActsSerially(serial_machine, {&burst, 1});
  serial_report.flips = serial_machine.DrainFlips();
  const ReplayOutcome serial = Capture(serial_machine, serial_report);
  ASSERT_FALSE(serial.report.flips.empty());

  for (uint32_t threads : {1u, 2u, 4u}) {
    SCOPED_TRACE(testing::Message() << "threads=" << threads);
    Machine machine(FaultConfig());
    FuzzReport report;
    report.activations = machine.ReplayActs({&burst, 1}, threads);
    report.flips = machine.DrainFlips();
    ExpectSameOutcome(serial, Capture(machine, report));
  }
  Machine machine(FaultConfig());
  FuzzReport report;
  report.activations = HammerPhysAddresses(machine, aggressors, kRounds);
  report.flips = machine.DrainFlips();
  ExpectSameOutcome(serial, Capture(machine, report));
}

// Multi-DIMM bursts separated by idle gaps longer than the 65536 REF ticks
// one AdvanceTo processes: a device that sits out a burst must still see
// every AdvanceClock of the serial loop, or its armed TRR trackers run a
// different number of ticks.
TEST(BlacksmithReplayTest, IdleGapsMatchSerialLoop) {
  const uint64_t group_bytes = DramGeometry{}.subarray_group_bytes();
  const PhysRange region{3 * group_bytes, 4 * group_bytes};
  Machine probe(TableThreeConfig());
  const std::vector<uint64_t> pairs = PairsOnDistinctDimms(probe, region, 3);
  const uint64_t long_idle = 70'000 * kRefreshIntervalNs;
  const std::vector<ActBurst> bursts = {
      {{pairs[0], pairs[1], pairs[2], pairs[3]}, 3'000, long_idle},
      {{pairs[4], pairs[5]}, 3'000, std::nullopt},
      {{pairs[2], pairs[3], pairs[4], pairs[5]}, 2'000, kRefreshWindowNs},
      {{pairs[0], pairs[1]}, 2'000, long_idle},
  };

  Machine serial_machine(TableThreeConfig());
  FuzzReport serial_report;
  serial_report.activations = ReplayActsSerially(serial_machine, bursts);
  const ReplayOutcome serial = Capture(serial_machine, serial_report);
  for (uint32_t threads : {1u, 2u, 4u}) {
    SCOPED_TRACE(testing::Message() << "threads=" << threads);
    Machine machine(TableThreeConfig());
    FuzzReport report;
    report.activations = machine.ReplayActs(bursts, threads);
    ExpectSameOutcome(serial, Capture(machine, report));
  }
}

}  // namespace
}  // namespace siloz
