// Tests for sim::Machine composition (src/sim/machine.h).
#include <gtest/gtest.h>

#include <array>
#include <vector>

#include "src/base/units.h"
#include "src/sim/machine.h"
#include "src/siloz/hypervisor.h"
#include "tests/support/table_three.h"

namespace siloz {
namespace {

MachineConfig FaultConfig() {
  MachineConfig config;
  config.fault_tracking = true;
  DimmProfile profile;
  profile.disturbance.threshold_mean = 3000.0;
  profile.disturbance.threshold_spread = 0.1;
  profile.trr.enabled = false;
  config.dimm_profiles = {profile};
  return config;
}

TEST(MachineTest, TimingModeHasControllersAndFlatMemory) {
  MachineConfig config;
  Machine machine(config);
  EXPECT_FALSE(machine.fault_tracking());
  EXPECT_EQ(machine.controllers().size(), 2u);
  machine.phys_memory().WriteU64(1_GiB, 42);
  EXPECT_EQ(machine.phys_memory().ReadU64(1_GiB), 42u);
}

TEST(MachineTest, DramBackedMemoryRoundTrips) {
  Machine machine(FaultConfig());
  // Spans multiple cache lines, rows, channels, and devices.
  std::vector<uint8_t> data(4096);
  for (size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<uint8_t>(i * 13 + 7);
  }
  const uint64_t probes[] = {0, 100_MiB + 24, 191_GiB, 300_GiB};
  for (uint64_t phys : probes) {
    machine.phys_memory().WritePhys(phys, data);
    std::vector<uint8_t> out(data.size());
    machine.phys_memory().ReadPhys(phys, out);
    EXPECT_EQ(out, data) << "at phys " << phys;
  }
}

TEST(MachineTest, DramBackedMemoryDefaultsZero) {
  Machine machine(FaultConfig());
  EXPECT_EQ(machine.phys_memory().ReadU64(17_GiB + 8), 0u);
}

TEST(MachineTest, ActivatePhysAdvancesClockAndCountsActs) {
  Machine machine(FaultConfig());
  const uint64_t start = machine.clock_ns();
  machine.ActivatePhys(0);
  machine.ActivatePhys(100_MiB);  // different row
  EXPECT_EQ(machine.clock_ns(), start + 2 * machine.config().act_cost_ns);
  // The ACT landed on the device the decoder says it should.
  const MediaAddress media = *machine.decoder().PhysToMedia(0);
  EXPECT_GE(machine.device(media.socket, media.channel, media.dimm).counters().activates, 1u);
}

TEST(MachineTest, HammeringViaPhysProducesPhysResolvedFlips) {
  Machine machine(FaultConfig());
  // Alternate two same-bank rows to force real ACTs.
  const uint64_t row_stride = machine.decoder().geometry().row_group_bytes() * 32;
  for (int i = 0; i < 10000; ++i) {
    machine.ActivatePhys(i % 2 == 0 ? 0 : row_stride);
  }
  std::vector<PhysFlip> flips = machine.DrainFlips();
  ASSERT_FALSE(flips.empty());
  for (const PhysFlip& flip : flips) {
    // The resolved phys must decode back to the flip's media coordinates.
    const MediaAddress media = *machine.decoder().PhysToMedia(flip.phys);
    EXPECT_EQ(media.row, flip.record.media_row);
    EXPECT_EQ(media.rank, flip.record.rank);
    EXPECT_EQ(media.bank, flip.record.bank);
    EXPECT_EQ(media.socket, flip.media.socket);
  }
  // Drain clears.
  EXPECT_TRUE(machine.DrainFlips().empty());
}

TEST(MachineTest, DimmProfilesCycleAcrossDevices) {
  MachineConfig config = FaultConfig();
  config.dimm_profiles.clear();
  for (const char* name : {"A", "B", "C", "D", "E", "F"}) {
    DimmProfile profile;
    profile.name = name;
    config.dimm_profiles.push_back(profile);
  }
  Machine machine(config);
  EXPECT_EQ(machine.device(0, 0, 0).name(), "A");
  EXPECT_EQ(machine.device(0, 5, 0).name(), "F");
  EXPECT_EQ(machine.device(1, 0, 0).name(), "A");  // cycles per socket
}

TEST(MachineTest, PatrolScrubRepairsInjectedSingleFlips) {
  Machine machine(FaultConfig());
  machine.phys_memory().WriteU64(64_MiB, 0xAAAAAAAAAAAAAAAAull);
  const MediaAddress media = *machine.decoder().PhysToMedia(64_MiB);
  machine.device(media.socket, media.channel, media.dimm)
      .InjectFlip(media.rank, media.bank, media.row, media.column, 0, machine.clock_ns());
  machine.AdvanceClock(1000);
  EXPECT_EQ(machine.PatrolScrubAll(), 1u);
  EXPECT_EQ(machine.phys_memory().ReadU64(64_MiB), 0xAAAAAAAAAAAAAAAAull);
}

// A fault-mode CreateVm keeps its EPT pages in DRAM, so its page-table
// reads and writes are part of the model's output (DESIGN.md §4). This pins
// the command sequence of the Table-3 campaign's 6 GiB create: every
// device's reads, writes and ACTs, and the machine clock, after boot plus
// the create. A change to how the device stores rows must leave them alone.
TEST(MachineTest, FaultModeCreateVmCommandSequenceIsPinned) {
  Machine machine(TableThreeConfig());
  SilozHypervisor hypervisor(machine.decoder(), machine.phys_memory(), SilozConfig{});
  ASSERT_TRUE(hypervisor.Boot().ok());
  ASSERT_TRUE(hypervisor.CreateVm({.name = "blacksmith", .memory_bytes = 6_GiB}).ok());

  using Commands = std::array<uint64_t, 3>;  // reads, writes, activates
  std::vector<Commands> actual;
  const DramGeometry& geometry = machine.config().geometry;
  for (uint32_t socket = 0; socket < geometry.sockets; ++socket) {
    for (uint32_t channel = 0; channel < geometry.channels_per_socket; ++channel) {
      for (uint32_t dimm = 0; dimm < geometry.dimms_per_channel; ++dimm) {
        const DeviceCounters& counters = machine.device(socket, channel, dimm).counters();
        actual.push_back({counters.reads, counters.writes, counters.activates});
      }
    }
  }
  // Socket 0's six channels hold the VM; socket 1 sees no command.
  const std::vector<Commands> expected = {
      {512, 597, 32}, {512, 597, 32}, {3584, 598, 32}, {512, 597, 32},
      {3584, 604, 32}, {512, 598, 32}, {0, 0, 0},      {0, 0, 0},
      {0, 0, 0},      {0, 0, 0},      {0, 0, 0},      {0, 0, 0},
  };
  EXPECT_EQ(actual, expected);
  EXPECT_EQ(machine.clock_ns(), 320175u);
}

TEST(MachineTest, LinearAndSncDecodersSelectable) {
  MachineConfig config;
  config.decoder = DecoderKind::kLinear;
  Machine linear(config);
  EXPECT_EQ(linear.decoder().name(), "linear");
  config.decoder = DecoderKind::kSnc2;
  Machine snc(config);
  EXPECT_EQ(snc.decoder().name(), "snc2");
  EXPECT_EQ(snc.decoder().clusters_per_socket(), 2u);
}

}  // namespace
}  // namespace siloz
