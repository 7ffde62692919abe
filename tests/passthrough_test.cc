// Tests for passthrough-IO / IOMMU support and host shutdown (§5.1, §5.3).
#include <gtest/gtest.h>
#include <memory>

#include "src/addr/decoder.h"
#include "src/base/units.h"
#include "src/ept/phys_memory.h"
#include "src/siloz/hypervisor.h"

namespace siloz {
namespace {

class PassthroughTest : public ::testing::Test {
 protected:
  PassthroughTest() : decoder_(geometry_) {}

  std::unique_ptr<SilozHypervisor> MakeBooted(SilozConfig config = {}) {
    auto hypervisor = std::make_unique<SilozHypervisor>(decoder_, memory_, config);
    Status status = hypervisor->Boot();
    [&] { ASSERT_TRUE(status.ok()) << status.error().ToString(); }();
    return hypervisor;
  }

  DramGeometry geometry_;
  SkylakeDecoder decoder_;
  FlatPhysMemory memory_;
};

TEST_F(PassthroughTest, AssignAndDmaWithinGuestRanges) {
  auto hypervisor_owner = MakeBooted();
  SilozHypervisor& hypervisor = *hypervisor_owner;
  Result<VmId> vm = hypervisor.CreateVm({.name = "a", .memory_bytes = 1536_MiB, .socket = 0});
  ASSERT_TRUE(vm.ok());
  Result<uint32_t> nic = hypervisor.AssignPassthroughDevice(*vm, "nic0");
  ASSERT_TRUE(nic.ok()) << nic.error().ToString();

  // DMA inside the guest's RAM: translated to the region's HPA.
  const VmRegion& ram = (*hypervisor.GetVm(*vm))->regions()[0];
  Result<uint64_t> hpa = hypervisor.DeviceDma(*nic, 64 * kPage2M + 0x100);
  ASSERT_TRUE(hpa.ok()) << hpa.error().ToString();
  EXPECT_EQ(*hpa, ram.hpa + 64 * kPage2M + 0x100);
  // And the target is inside the VM's subarray groups.
  const uint32_t group = *hypervisor.group_map().GroupOfPhys(*hpa);
  EXPECT_EQ(group, (*hypervisor.GetVm(*vm))->guest_groups()[0]);
}

TEST_F(PassthroughTest, DmaOutsideGuestIsBlocked) {
  auto hypervisor_owner = MakeBooted();
  SilozHypervisor& hypervisor = *hypervisor_owner;
  Result<VmId> vm = hypervisor.CreateVm({.name = "a", .memory_bytes = 1536_MiB, .socket = 0});
  ASSERT_TRUE(vm.ok());
  Result<uint32_t> nic = hypervisor.AssignPassthroughDevice(*vm, "nic0");
  ASSERT_TRUE(nic.ok());

  // IOVAs beyond the guest's memory are unmapped: the IOMMU blocks them.
  Result<uint64_t> beyond = hypervisor.DeviceDma(*nic, 100_GiB);
  ASSERT_FALSE(beyond.ok());
  EXPECT_EQ(beyond.error().code, ErrorCode::kPermissionDenied);
}

TEST_F(PassthroughTest, IommuTablesComeFromProtectedPool) {
  auto hypervisor_owner = MakeBooted();
  SilozHypervisor& hypervisor = *hypervisor_owner;
  const size_t pool_before = hypervisor.ept_pool_free(0);
  Result<VmId> vm = hypervisor.CreateVm({.name = "a", .memory_bytes = 1536_MiB, .socket = 0});
  ASSERT_TRUE(vm.ok());
  Result<uint32_t> nic = hypervisor.AssignPassthroughDevice(*vm, "nic0");
  ASSERT_TRUE(nic.ok());
  EXPECT_LT(hypervisor.ept_pool_free(0), pool_before);
  EXPECT_TRUE(hypervisor.AuditDeviceIsolation(*nic).ok());
}

TEST_F(PassthroughTest, CorruptedIommuEntryCaughtByDmaBoundsCheck) {
  SilozConfig config;
  config.ept_protection = EptProtection::kNone;  // tables hammerable
  auto hypervisor_owner = MakeBooted(config);
  SilozHypervisor& hypervisor = *hypervisor_owner;
  Result<VmId> vm = hypervisor.CreateVm({.name = "a", .memory_bytes = 1536_MiB, .socket = 0});
  ASSERT_TRUE(vm.ok());
  Result<uint32_t> nic = hypervisor.AssignPassthroughDevice(*vm, "nic0");
  ASSERT_TRUE(nic.ok());
  ASSERT_TRUE(hypervisor.DeviceDma(*nic, 0).ok());

  // Flip a high frame bit in the leaf table (last-allocated page, a PD):
  // IOVA 0's translation jumps 16 GiB away, outside the VM's groups. The
  // DMA bounds check must flag the escape rather than let the DMA through.
  // Table allocation order: PML4, PDPT, then the PD covering IOVA 0.
  const std::vector<uint64_t> pages = *hypervisor.DeviceTablePages(*nic);
  ASSERT_GE(pages.size(), 3u);
  memory_.FlipBit(pages[2] + 4, 2);  // bit 34 of the PD's entry 0
  Result<uint64_t> dma = hypervisor.DeviceDma(*nic, 0);
  ASSERT_FALSE(dma.ok());
  EXPECT_EQ(dma.error().code, ErrorCode::kIntegrityViolation);
  // The audit sees the same corruption.
  EXPECT_FALSE(hypervisor.AuditDeviceIsolation(*nic).ok());
}

TEST_F(PassthroughTest, RemoveDeviceReturnsPoolPages) {
  auto hypervisor_owner = MakeBooted();
  SilozHypervisor& hypervisor = *hypervisor_owner;
  Result<VmId> vm = hypervisor.CreateVm({.name = "a", .memory_bytes = 1536_MiB, .socket = 0});
  ASSERT_TRUE(vm.ok());
  const size_t pool_before = hypervisor.ept_pool_free(0);
  Result<uint32_t> nic = hypervisor.AssignPassthroughDevice(*vm, "nic0");
  ASSERT_TRUE(nic.ok());
  ASSERT_LT(hypervisor.ept_pool_free(0), pool_before);
  ASSERT_TRUE(hypervisor.RemovePassthroughDevice(*nic).ok());
  EXPECT_EQ(hypervisor.ept_pool_free(0), pool_before);
  EXPECT_FALSE(hypervisor.DeviceDma(*nic, 0).ok());
  EXPECT_FALSE(hypervisor.RemovePassthroughDevice(*nic).ok());
}

// A device assigned after a migration is built on the VM's new placement:
// its IOMMU tables come from the target socket's pool and its DMAs land in
// the migrated regions.
TEST_F(PassthroughTest, DeviceOnMigratedVmUsesTargetPool) {
  auto hypervisor_owner = MakeBooted();
  SilozHypervisor& hypervisor = *hypervisor_owner;
  Result<VmId> vm = hypervisor.CreateVm({.name = "a", .memory_bytes = 1536_MiB, .socket = 0});
  ASSERT_TRUE(vm.ok());
  ASSERT_TRUE(hypervisor.MigrateVm(*vm, 1).ok());
  const size_t pool_before = hypervisor.ept_pool_free(1);
  Result<uint32_t> nic = hypervisor.AssignPassthroughDevice(*vm, "nic0");
  ASSERT_TRUE(nic.ok()) << nic.error().ToString();

  const std::vector<uint64_t> pages = *hypervisor.DeviceTablePages(*nic);
  ASSERT_FALSE(pages.empty());
  for (uint64_t page : pages) {
    bool inside = false;
    for (const PhysRange& range : hypervisor.ept_pool_ranges(1)) {
      inside |= range.Contains(page);
    }
    EXPECT_TRUE(inside) << "IOMMU table page " << page << " outside socket 1's pool";
  }
  EXPECT_TRUE(hypervisor.AuditDeviceIsolation(*nic).ok());

  const VmRegion& ram = (*hypervisor.GetVm(*vm))->regions()[0];
  ASSERT_EQ(ram.type, MemoryType::kGuestRam);
  Result<uint64_t> hpa = hypervisor.DeviceDma(*nic, 0x100);
  ASSERT_TRUE(hpa.ok()) << hpa.error().ToString();
  EXPECT_EQ(*hpa, ram.hpa + 0x100);

  ASSERT_TRUE(hypervisor.RemovePassthroughDevice(*nic).ok());
  EXPECT_EQ(hypervisor.ept_pool_free(1), pool_before);
}

TEST_F(PassthroughTest, SecureIommuDetectsCorruption) {
  SilozConfig config;
  config.ept_protection = EptProtection::kSecureEpt;
  auto hypervisor_owner = MakeBooted(config);
  SilozHypervisor& hypervisor = *hypervisor_owner;
  Result<VmId> vm = hypervisor.CreateVm({.name = "a", .memory_bytes = 1536_MiB, .socket = 0});
  ASSERT_TRUE(vm.ok());
  Result<uint32_t> nic = hypervisor.AssignPassthroughDevice(*vm, "nic0");
  ASSERT_TRUE(nic.ok());
  ASSERT_TRUE(hypervisor.DeviceDma(*nic, 0).ok());

  // Corrupt one byte of the IOMMU root (we know it is a 4 KiB page in host
  // memory; find it by the audit failing afterwards).
  Vm& tenant = **hypervisor.GetVm(*vm);
  // The VM's own EPT pages and the IOMMU's pages are distinct allocations;
  // flip a bit in the *EPT* root first to confirm independence:
  memory_.FlipBit(tenant.ept()->table_pages()[0] + 8, 3);
  EXPECT_FALSE(hypervisor.AuditVmIsolation(*vm).ok());
  EXPECT_TRUE(hypervisor.AuditDeviceIsolation(*nic).ok()) << "IOMMU unaffected by EPT flip";
}

TEST_F(PassthroughTest, DeviceOnDestroyedVmRejected) {
  auto hypervisor_owner = MakeBooted();
  SilozHypervisor& hypervisor = *hypervisor_owner;
  Result<VmId> vm = hypervisor.CreateVm({.name = "a", .memory_bytes = 1536_MiB, .socket = 0});
  ASSERT_TRUE(vm.ok());
  ASSERT_TRUE(hypervisor.DestroyVm(*vm).ok());
  Result<uint32_t> nic = hypervisor.AssignPassthroughDevice(*vm, "nic0");
  ASSERT_FALSE(nic.ok());
  EXPECT_EQ(nic.error().code, ErrorCode::kFailedPrecondition);
  EXPECT_FALSE(hypervisor.AssignPassthroughDevice(999, "nic1").ok());
  EXPECT_FALSE(hypervisor.DeviceDma(42, 0).ok());
  EXPECT_FALSE(hypervisor.AuditDeviceIsolation(42).ok());
}

// A device must not outlive its VM: DestroyVm detaches it and returns its
// IOMMU table pages before the backing is freed, so the stale device cannot
// reach whichever tenant is placed in that memory next (in baseline mode the
// next VM gets the very same HPAs).
TEST_F(PassthroughTest, DestroyVmDetachesItsDevices) {
  for (const bool enabled : {true, false}) {
    SCOPED_TRACE(enabled ? "siloz" : "baseline");
    SilozConfig config;
    config.enabled = enabled;
    auto hypervisor_owner = MakeBooted(config);
    SilozHypervisor& hypervisor = *hypervisor_owner;
    const size_t pool_boot = hypervisor.ept_pool_free(0);
    Result<VmId> vm = hypervisor.CreateVm({.name = "a", .memory_bytes = 1536_MiB, .socket = 0});
    ASSERT_TRUE(vm.ok());
    Result<uint32_t> nic = hypervisor.AssignPassthroughDevice(*vm, "nic0");
    ASSERT_TRUE(nic.ok());
    ASSERT_TRUE(hypervisor.DeviceDma(*nic, 0).ok());

    ASSERT_TRUE(hypervisor.DestroyVm(*vm).ok());
    Result<uint64_t> stale = hypervisor.DeviceDma(*nic, 0);
    ASSERT_FALSE(stale.ok()) << "device still reaches HPA " << *stale;
    EXPECT_EQ(stale.error().code, ErrorCode::kNotFound);
    EXPECT_EQ(hypervisor.ept_pool_free(0), pool_boot);
    EXPECT_EQ(hypervisor.ept_pages_held(), 0u);
    EXPECT_TRUE(hypervisor.DestroyVm(*vm).ok());  // still idempotent
    ASSERT_TRUE(hypervisor.ReleaseVmNodes(*vm).ok());

    // The next tenant: no IOVA of the old device reaches its memory.
    Result<VmId> later = hypervisor.CreateVm({.name = "b", .memory_bytes = 1536_MiB, .socket = 0});
    ASSERT_TRUE(later.ok());
    for (const VmRegion& region : (*hypervisor.GetVm(*later))->regions()) {
      for (uint64_t offset = 0; offset < region.bytes; offset += kPage2M) {
        Result<uint64_t> dma = hypervisor.DeviceDma(*nic, region.gpa + offset);
        ASSERT_FALSE(dma.ok()) << "stale device reaches HPA " << *dma;
        EXPECT_EQ(dma.error().code, ErrorCode::kNotFound);
      }
    }
    Status removed = hypervisor.RemovePassthroughDevice(*nic);
    ASSERT_FALSE(removed.ok());
    EXPECT_EQ(removed.error().code, ErrorCode::kNotFound);
    Status audit = hypervisor.AuditDeviceIsolation(*nic);
    ASSERT_FALSE(audit.ok());
    EXPECT_EQ(audit.error().code, ErrorCode::kNotFound);
  }
}

TEST_F(PassthroughTest, HostShutdownReleasesEverything) {
  auto hypervisor_owner = MakeBooted();
  SilozHypervisor& hypervisor = *hypervisor_owner;
  for (int i = 0; i < 4; ++i) {
    Result<VmId> vm = hypervisor.CreateVm(
        {.name = "vm" + std::to_string(i), .memory_bytes = 3_GiB, .socket = 0});
    ASSERT_TRUE(vm.ok());
    ASSERT_TRUE(hypervisor.AssignPassthroughDevice(*vm, "dev").ok());
  }
  EXPECT_EQ(hypervisor.AvailableGuestNodes(0).size(), 126u - 8);
  ASSERT_TRUE(hypervisor.HostShutdown().ok());
  // All nodes free, all cgroups gone, pool restored.
  EXPECT_EQ(hypervisor.AvailableGuestNodes(0).size(), 126u);
  EXPECT_FALSE(hypervisor.cgroups().Get("vm-vm0").ok());
  EXPECT_EQ(hypervisor.ept_pool_free(0), 384u);
  // Fresh VMs can be created afterwards.
  EXPECT_TRUE(hypervisor.CreateVm({.name = "fresh", .memory_bytes = 3_GiB}).ok());
}

}  // namespace
}  // namespace siloz
