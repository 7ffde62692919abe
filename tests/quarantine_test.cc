// Tests for §6 row-repair handling: inter-subarray repairs threaten
// isolation; Siloz quarantines the affected pages at boot.
#include <gtest/gtest.h>

#include "src/attack/blacksmith.h"
#include "src/base/units.h"
#include "src/sim/machine.h"
#include "src/siloz/hypervisor.h"

namespace siloz {
namespace {

// A DIMM whose media row 2500 (socket 0 / channel 0 / rank 0 / bank 0) is
// repaired to a spare row in a *different* subarray (internal 70000).
constexpr uint32_t kRepairedRow = 2500;
constexpr uint32_t kSpareRow = 70000;

MachineConfig RepairedMachine() {
  MachineConfig config;
  config.fault_tracking = true;
  DimmProfile repaired;
  repaired.name = "repaired";
  repaired.remap.repairs.push_back(
      RowRepair{.rank = 0, .bank = 0, .from_row = kRepairedRow, .to_row = kSpareRow});
  repaired.disturbance.threshold_mean = 2500.0;
  repaired.disturbance.threshold_spread = 0.15;
  repaired.trr.enabled = false;
  // Only channel 0's DIMM carries the repair; the rest are pristine.
  DimmProfile pristine = repaired;
  pristine.name = "pristine";
  pristine.remap.repairs.clear();
  config.dimm_profiles = {repaired, pristine, pristine, pristine, pristine, pristine};
  return config;
}

// Phys address of (channel 0, dimm 0, rank 0, bank 0, row, col 0), socket 0.
uint64_t RowPhys(const AddressDecoder& decoder, uint32_t row) {
  MediaAddress media;
  media.row = row;
  return *decoder.MediaToPhys(media);
}

TEST(QuarantineTest, InterSubarrayRepairLeaksFlipsWithoutQuarantine) {
  // Physics: hammering the repaired row activates the spare wordline, whose
  // neighbours live in a different subarray (group 68 area, not group 2).
  Machine machine(RepairedMachine());
  const uint64_t aggressors[] = {RowPhys(machine.decoder(), kRepairedRow),
                                 RowPhys(machine.decoder(), kRepairedRow - 40)};
  HammerPhysAddresses(machine, aggressors, 15000);
  bool flip_near_spare = false;
  for (const PhysFlip& flip : machine.DrainFlips()) {
    flip_near_spare |= (flip.record.internal_row >= kSpareRow - 2 &&
                        flip.record.internal_row <= kSpareRow + 2);
  }
  EXPECT_TRUE(flip_near_spare) << "expected disturbance around the spare row";
}

TEST(QuarantineTest, BootOfflinesRepairedRowPages) {
  Machine machine(RepairedMachine());
  SilozConfig config;
  MediaAddress quarantined;
  quarantined.row = kRepairedRow;  // socket/channel/dimm/rank/bank all 0
  config.quarantined_rows.push_back(quarantined);
  SilozHypervisor hypervisor(machine.decoder(), machine.phys_memory(), config);
  ASSERT_TRUE(hypervisor.Boot().ok());

  // 128 cache lines at 4 KiB-page granularity: 128 pages = 512 KiB.
  EXPECT_EQ(hypervisor.quarantined_bytes(), 128 * kPage4K);
  // None of the repaired row's pages are allocatable: row 2500 lives in
  // guest group 2, whose node must refuse to take each page.
  NumaNode* owner = nullptr;
  for (uint32_t node_id : hypervisor.AvailableGuestNodes(0)) {
    NumaNode& node = **hypervisor.nodes().Get(node_id);
    if (node.first_group() == 2) {
      owner = &node;
    }
  }
  ASSERT_NE(owner, nullptr);
  EXPECT_EQ(owner->allocator().offlined_bytes(), 128 * kPage4K);
  const DramGeometry& geometry = machine.decoder().geometry();
  for (uint32_t column = 0; column < geometry.row_bytes; column += kCacheLineBytes) {
    MediaAddress media = quarantined;
    media.column = column;
    const uint64_t page = *machine.decoder().MediaToPhys(media) & ~(kPage4K - 1);
    EXPECT_FALSE(owner->allocator()
                     .TakeRange(PhysRange{page, page + kPage4K}, BuddyAllocator::Take::kAllocate)
                     .ok());
  }
}

TEST(QuarantineTest, QuarantinedPagesNeverReachVms) {
  Machine machine(RepairedMachine());
  SilozConfig config;
  MediaAddress quarantined;
  quarantined.row = kRepairedRow;
  config.quarantined_rows.push_back(quarantined);
  SilozHypervisor hypervisor(machine.decoder(), machine.phys_memory(), config);
  ASSERT_TRUE(hypervisor.Boot().ok());

  // Fill the socket with VMs; no VM region may contain a quarantined page.
  std::vector<VmId> fleet;
  while (true) {
    Result<VmId> id = hypervisor.CreateVm(
        {.name = "vm" + std::to_string(fleet.size()), .memory_bytes = 1536_MiB, .socket = 0});
    if (!id.ok()) {
      break;
    }
    fleet.push_back(*id);
  }
  ASSERT_FALSE(fleet.empty());

  const DramGeometry& geometry = machine.decoder().geometry();
  std::set<uint64_t> quarantined_pages;
  for (uint32_t column = 0; column < geometry.row_bytes; column += kCacheLineBytes) {
    MediaAddress media = quarantined;
    media.column = column;
    quarantined_pages.insert(*machine.decoder().MediaToPhys(media) & ~(kPage4K - 1));
  }
  for (VmId id : fleet) {
    for (const VmRegion& region : (*hypervisor.GetVm(id))->regions()) {
      for (uint64_t page : quarantined_pages) {
        EXPECT_FALSE(page >= region.hpa && page < region.hpa + region.bytes)
            << "VM " << id << " received quarantined page " << page;
      }
    }
  }
}

TEST(QuarantineTest, QuarantineCostAccounting) {
  // Measured amplification: one 8 KiB repaired row costs 512 KiB of 4 KiB
  // pages under cache-line interleaving (64x), and fragments the row group
  // for 2 MiB-backed guests — the honest price of §6's mitigation.
  DramGeometry geometry;
  SkylakeDecoder decoder(geometry);
  FlatPhysMemory memory;
  SilozConfig config;
  for (uint32_t i = 0; i < 10; ++i) {
    MediaAddress row;
    row.row = 4000 + i * 3000;
    row.bank = i % 4;
    config.quarantined_rows.push_back(row);
  }
  SilozHypervisor hypervisor(decoder, memory, config);
  ASSERT_TRUE(hypervisor.Boot().ok());
  EXPECT_EQ(hypervisor.quarantined_bytes(), 10 * 128 * kPage4K);
}

}  // namespace
}  // namespace siloz
