// MigrateVm (§7 defragmentation): placement moves, contents survive,
// failures roll back, and the full lifecycle conserves resources under
// injected faults.
#include <gtest/gtest.h>

#include <vector>

#include "src/addr/decoder.h"
#include "src/base/units.h"
#include "src/ept/phys_memory.h"
#include "src/siloz/conservation.h"
#include "src/siloz/hypervisor.h"

namespace siloz {
namespace {

class MigrateTest : public ::testing::Test {
 protected:
  MigrateTest() : decoder_(geometry_), hv_(decoder_, memory_, SilozConfig{}) {
    SILOZ_CHECK(hv_.Boot().ok());
  }

  DramGeometry geometry_;
  SkylakeDecoder decoder_;
  FlatPhysMemory memory_;
  SilozHypervisor hv_;
};

// Writes a recognizable value at a guest-physical offset through the VM's
// current region list; returns the gpa written.
uint64_t StampGpa(FlatPhysMemory& memory, const Vm& vm, uint64_t gpa, uint64_t value) {
  for (const VmRegion& region : vm.regions()) {
    if (gpa >= region.gpa && gpa + 8 <= region.gpa + region.bytes) {
      memory.WriteU64(region.hpa + (gpa - region.gpa), value);
      return gpa;
    }
  }
  ADD_FAILURE() << "gpa " << gpa << " not mapped";
  return gpa;
}

uint64_t ReadGpa(FlatPhysMemory& memory, const Vm& vm, uint64_t gpa) {
  for (const VmRegion& region : vm.regions()) {
    if (gpa >= region.gpa && gpa + 8 <= region.gpa + region.bytes) {
      return memory.ReadU64(region.hpa + (gpa - region.gpa));
    }
  }
  ADD_FAILURE() << "gpa " << gpa << " not mapped";
  return 0;
}

TEST_F(MigrateTest, MovesPlacementAndPreservesContents) {
  const ConservationSnapshot booted = CaptureConservation(hv_);
  const VmId id = *hv_.CreateVm({.name = "tenant", .memory_bytes = 3_GiB});
  Vm& vm = **hv_.GetVm(id);
  ASSERT_EQ(vm.config().socket, 0u);

  // Stamp a few GPAs spread across the image (start, a 2 MiB boundary deep
  // inside, last 8 bytes) so the copy is checked across region boundaries.
  const std::vector<uint64_t> gpas = {0, 2_MiB + 64, 1_GiB + 512, 3_GiB - 8};
  for (size_t i = 0; i < gpas.size(); ++i) {
    StampGpa(memory_, vm, gpas[i], 0xC0FFEE00 + i);
  }

  const size_t source_free = hv_.AvailableGuestNodes(0).size();
  const size_t target_free = hv_.AvailableGuestNodes(1).size();
  const size_t nodes_used = vm.guest_nodes().size();

  ASSERT_TRUE(hv_.MigrateVm(id, 1).ok());

  EXPECT_EQ(vm.config().socket, 1u);
  EXPECT_EQ(vm.guest_nodes().size(), nodes_used);
  for (uint32_t node_id : vm.guest_nodes()) {
    EXPECT_EQ((*hv_.nodes().Get(node_id))->physical_socket(), 1u);
  }
  for (size_t i = 0; i < gpas.size(); ++i) {
    EXPECT_EQ(ReadGpa(memory_, vm, gpas[i]), 0xC0FFEE00 + i) << "gpa " << gpas[i];
  }
  // The source socket got everything back; the target paid for the VM.
  EXPECT_EQ(hv_.AvailableGuestNodes(0).size(), source_free + nodes_used);
  EXPECT_EQ(hv_.AvailableGuestNodes(1).size(), target_free - nodes_used);
  // Every EPT page the VM drew from socket 0's protected pool came back.
  EXPECT_EQ(hv_.ept_pool_free(0), booted.ept_pool_free[0]);
  EXPECT_TRUE(hv_.AuditVmIsolation(id).ok());

  ASSERT_TRUE(hv_.DestroyVm(id).ok());
  ASSERT_TRUE(hv_.ReleaseVmNodes(id).ok());
  EXPECT_EQ(DiffConservation(booted, CaptureConservation(hv_)), "");
}

TEST_F(MigrateTest, RejectsSameSocket) {
  const VmId id = *hv_.CreateVm({.name = "stay", .memory_bytes = 2_GiB});
  const Status status = hv_.MigrateVm(id, 0);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.error().code, ErrorCode::kInvalidArgument);
}

TEST_F(MigrateTest, RejectsOutOfRangeSocket) {
  const VmId id = *hv_.CreateVm({.name = "lost", .memory_bytes = 2_GiB});
  const Status status = hv_.MigrateVm(id, geometry_.sockets);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.error().code, ErrorCode::kOutOfRange);
}

TEST_F(MigrateTest, RejectsUnknownAndDestroyedVms) {
  EXPECT_EQ(hv_.MigrateVm(999, 1).error().code, ErrorCode::kNotFound);
  const VmId id = *hv_.CreateVm({.name = "gone", .memory_bytes = 2_GiB});
  ASSERT_TRUE(hv_.DestroyVm(id).ok());
  EXPECT_EQ(hv_.MigrateVm(id, 1).error().code, ErrorCode::kNotFound);
}

TEST_F(MigrateTest, RejectsVmWithPassthroughDevice) {
  const VmId id = *hv_.CreateVm({.name = "pinned", .memory_bytes = 2_GiB});
  const uint32_t device = *hv_.AssignPassthroughDevice(id, "nic0");
  const Status pinned = hv_.MigrateVm(id, 1);
  ASSERT_FALSE(pinned.ok());
  EXPECT_EQ(pinned.error().code, ErrorCode::kFailedPrecondition);
  // Dropping the device unpins the placement.
  ASSERT_TRUE(hv_.RemovePassthroughDevice(device).ok());
  EXPECT_TRUE(hv_.MigrateVm(id, 1).ok());
}

TEST_F(MigrateTest, ExhaustedTargetRollsBackCompletely) {
  // Fill socket 1 to the last guest node, then try to migrate into it.
  const size_t target_nodes = hv_.AvailableGuestNodes(1).size();
  const uint64_t group_bytes = hv_.group_map().group_bytes();
  const VmId hog =
      *hv_.CreateVm({.name = "hog", .memory_bytes = target_nodes * group_bytes, .socket = 1});
  ASSERT_EQ(hv_.AvailableGuestNodes(1).size(), 0u);

  const VmId id = *hv_.CreateVm({.name = "tenant", .memory_bytes = 3_GiB});
  const ConservationSnapshot placed = CaptureConservation(hv_);
  const Status status = hv_.MigrateVm(id, 1);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.error().code, ErrorCode::kNoMemory);
  // The failed migration must be a perfect no-op.
  EXPECT_EQ(DiffConservation(placed, CaptureConservation(hv_)), "");
  EXPECT_EQ((*hv_.GetVm(id))->config().socket, 0u);
  EXPECT_TRUE(hv_.AuditVmIsolation(id).ok());
  ASSERT_TRUE(hv_.DestroyVm(hog).ok());
  ASSERT_TRUE(hv_.ReleaseVmNodes(hog).ok());
  // With the hog gone the same migration goes through.
  EXPECT_TRUE(hv_.MigrateVm(id, 1).ok());
}

TEST_F(MigrateTest, BaselineKernelRejectsMigration) {
  SilozConfig baseline;
  baseline.enabled = false;
  FlatPhysMemory memory;
  SilozHypervisor hv(decoder_, memory, baseline);
  ASSERT_TRUE(hv.Boot().ok());
  const VmId id = *hv.CreateVm({.name = "legacy", .memory_bytes = 2_GiB});
  const Status status = hv.MigrateVm(id, 1);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.error().code, ErrorCode::kUnsupported);
}

TEST_F(MigrateTest, OneGibBackedVmMigrates) {
  const VmId id = *hv_.CreateVm(
      {.name = "big", .memory_bytes = 3_GiB, .backing = PageSize::k1G});
  const std::vector<uint64_t> gpas = {0, 1_GiB + 128, 3_GiB - 8};
  Vm& vm = **hv_.GetVm(id);
  for (size_t i = 0; i < gpas.size(); ++i) {
    StampGpa(memory_, vm, gpas[i], 0xBEEF00 + i);
  }
  ASSERT_TRUE(hv_.MigrateVm(id, 1).ok());
  for (size_t i = 0; i < gpas.size(); ++i) {
    EXPECT_EQ(ReadGpa(memory_, vm, gpas[i]), 0xBEEF00 + i);
  }
  EXPECT_TRUE(hv_.AuditVmIsolation(id).ok());
}

// MigrateVm stages its target through CreateVm's placement path, so a VM
// migrated onto socket 1 must get exactly what a fresh create there would:
// the same regions, nodes and EPT pages, and the same pool depth left over.
TEST_F(MigrateTest, MigratedPlacementMatchesFreshCreateOnTarget) {
  for (const PageSize backing : {PageSize::k2M, PageSize::k1G}) {
    for (const uint64_t mmio_bytes : {uint64_t{0}, uint64_t{1_MiB}}) {
      SCOPED_TRACE(testing::Message() << "backing " << static_cast<int>(backing) << " mmio "
                                      << mmio_bytes);
      VmConfig config{.name = "twin",
                      .memory_bytes = 3_GiB,
                      .rom_bytes = backing == PageSize::k1G ? 1_GiB : 2_MiB,
                      .mmio_bytes = mmio_bytes,
                      .socket = 0,
                      .backing = backing};
      FlatPhysMemory migrated_memory;
      SilozHypervisor migrated(decoder_, migrated_memory, SilozConfig{});
      ASSERT_TRUE(migrated.Boot().ok());
      const VmId moved = *migrated.CreateVm(config);
      ASSERT_TRUE(migrated.MigrateVm(moved, 1).ok());

      FlatPhysMemory fresh_memory;
      SilozHypervisor fresh(decoder_, fresh_memory, SilozConfig{});
      ASSERT_TRUE(fresh.Boot().ok());
      config.socket = 1;
      const VmId created = *fresh.CreateVm(config);

      const Vm& a = **migrated.GetVm(moved);
      const Vm& b = **fresh.GetVm(created);
      ASSERT_EQ(a.regions().size(), b.regions().size());
      for (size_t i = 0; i < a.regions().size(); ++i) {
        const VmRegion& x = a.regions()[i];
        const VmRegion& y = b.regions()[i];
        EXPECT_EQ(x.type, y.type) << "region " << i;
        EXPECT_EQ(x.gpa, y.gpa) << "region " << i;
        EXPECT_EQ(x.hpa, y.hpa) << "region " << i;
        EXPECT_EQ(x.bytes, y.bytes) << "region " << i;
        EXPECT_EQ(x.page_size, y.page_size) << "region " << i;
      }
      EXPECT_EQ(a.regions().back().type, mmio_bytes > 0 ? MemoryType::kMmio
                                                        : MemoryType::kGuestRom);
      EXPECT_EQ(a.guest_nodes(), b.guest_nodes());
      EXPECT_EQ(a.ept()->table_pages(), b.ept()->table_pages());
      EXPECT_EQ(migrated.ept_pool_free(1), fresh.ept_pool_free(1));
    }
  }
}

// Every reachable allocation fault point inside MigrateVm must leave the
// hypervisor exactly as it was: the VM intact at the source, no leaked
// nodes, backing, or EPT pages — and create→migrate→destroy→release a
// fixed point. (ctest -L faultinject)
TEST_F(MigrateTest, FaultSweepConservesEverything) {
  const Result<FaultSweepReport> report =
      RunMigrateVmFaultSweep(hv_, {.name = "sweep", .memory_bytes = 3_GiB}, 1);
  ASSERT_TRUE(report.ok()) << report.error().ToString();
  EXPECT_GT(report->points_probed, 1u);
  EXPECT_GT(report->faults_injected, 0u);
  EXPECT_GT(report->creates_failed, 0u);  // tallies failed migrations
}

}  // namespace
}  // namespace siloz
