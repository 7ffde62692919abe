// Tests for the Siloz hypervisor core (src/siloz): boot-time provisioning,
// VM lifecycle, allocation policy, EPT placement, isolation audit.
#include <gtest/gtest.h>
#include <memory>

#include "src/addr/decoder.h"
#include "src/base/units.h"
#include "src/ept/phys_memory.h"
#include "src/siloz/hypervisor.h"

namespace siloz {
namespace {

class HypervisorTest : public ::testing::Test {
 protected:
  HypervisorTest() : decoder_(geometry_) {}

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

TEST_F(HypervisorTest, BootProvisionsLogicalNodes) {
  auto hypervisor_owner = MakeBooted();
  SilozHypervisor& hypervisor = *hypervisor_owner;
  // 128 groups/socket, 2 host groups -> 1 host node + 126 guest nodes per
  // socket (§5.2).
  EXPECT_EQ(hypervisor.nodes().node_count(), 2u * (1 + 126));
  EXPECT_EQ(hypervisor.nodes().NodesOfKind(NodeKind::kGuestReserved).size(), 252u);
  EXPECT_EQ(hypervisor.AvailableGuestNodes(0).size(), 126u);
  ASSERT_TRUE(hypervisor.HostNode(1).ok());
  NumaNode& host = **hypervisor.nodes().Get(*hypervisor.HostNode(1));
  EXPECT_TRUE(host.has_cpus());
  EXPECT_EQ(host.physical_socket(), 1u);
  // Host cgroup exists and covers host nodes only.
  ASSERT_TRUE(hypervisor.cgroups().Get("host").ok());
}

TEST_F(HypervisorTest, BaselineBootIsOneNodePerSocket) {
  SilozConfig config;
  config.enabled = false;
  auto hypervisor_owner = MakeBooted(config);
  SilozHypervisor& hypervisor = *hypervisor_owner;
  EXPECT_EQ(hypervisor.nodes().node_count(), 2u);
  EXPECT_TRUE(hypervisor.AvailableGuestNodes(0).empty());
  EXPECT_EQ(hypervisor.ept_reserved_bytes(), 0u);
}

TEST_F(HypervisorTest, DoubleBootRejected) {
  auto hypervisor_owner = MakeBooted();
  SilozHypervisor& hypervisor = *hypervisor_owner;
  EXPECT_FALSE(hypervisor.Boot().ok());
}

TEST_F(HypervisorTest, EptBlockReservationMatchesPaperNumbers) {
  auto hypervisor_owner = MakeBooted();
  SilozHypervisor& hypervisor = *hypervisor_owner;
  // §5.4: b=32 row groups per socket reserved; 32 8 KiB rows per 1 GiB bank
  // = 0.024% of DRAM.
  const uint64_t expected = 2ull * 32 * geometry_.row_group_bytes();
  EXPECT_EQ(hypervisor.ept_reserved_bytes(), expected);
  const double fraction = static_cast<double>(hypervisor.ept_reserved_bytes()) /
                          static_cast<double>(geometry_.total_bytes());
  EXPECT_NEAR(fraction, 0.000244, 0.00003);
  // One row group of EPT pages per socket: 1.5 MiB / 4 KiB = 384 pages.
  EXPECT_EQ(hypervisor.ept_pool_free(0), 384u);
  EXPECT_EQ(hypervisor.ept_pool_free(1), 384u);
  ASSERT_EQ(hypervisor.ept_pool_ranges(0).size(), 1u);
  // The 31 guard row groups are offlined from the host node.
  NumaNode& host = **hypervisor.nodes().Get(*hypervisor.HostNode(0));
  EXPECT_EQ(host.allocator().offlined_bytes(), 31ull * geometry_.row_group_bytes());
}

TEST_F(HypervisorTest, CreateVmReservesWholeGroups) {
  auto hypervisor_owner = MakeBooted();
  SilozHypervisor& hypervisor = *hypervisor_owner;
  VmConfig config{.name = "a", .memory_bytes = 3_GiB, .socket = 0};
  Result<VmId> id = hypervisor.CreateVm(config);
  ASSERT_TRUE(id.ok()) << id.error().ToString();
  Vm& vm = **hypervisor.GetVm(*id);
  // 3 GiB needs 2 x 1.5 GiB groups.
  EXPECT_EQ(vm.guest_nodes().size(), 2u);
  EXPECT_EQ(hypervisor.AvailableGuestNodes(0).size(), 124u);
  // Its control group exists with exactly those nodes.
  Result<ControlGroup*> cgroup = hypervisor.cgroups().Get("vm-a");
  ASSERT_TRUE(cgroup.ok());
  for (uint32_t node : vm.guest_nodes()) {
    EXPECT_TRUE((*cgroup)->MayAllocateFrom(node));
  }
  // Regions are 2 MiB-backed guest RAM covering the full size.
  uint64_t total = 0;
  for (const VmRegion& region : vm.regions()) {
    EXPECT_EQ(region.type, MemoryType::kGuestRam);
    EXPECT_EQ(region.page_size, PageSize::k2M);
    total += region.bytes;
  }
  EXPECT_EQ(total, 3_GiB);
  // Audit passes on a fresh VM.
  EXPECT_TRUE(hypervisor.AuditVmIsolation(*id).ok());
}

TEST_F(HypervisorTest, VmMemoryStaysInItsGroups) {
  auto hypervisor_owner = MakeBooted();
  SilozHypervisor& hypervisor = *hypervisor_owner;
  Result<VmId> id = hypervisor.CreateVm({.name = "a", .memory_bytes = 1536_MiB, .socket = 0});
  ASSERT_TRUE(id.ok());
  Vm& vm = **hypervisor.GetVm(*id);
  const auto& groups = vm.guest_groups();
  for (const VmRegion& region : vm.regions()) {
    for (uint64_t offset = 0; offset < region.bytes; offset += kPage2M) {
      const uint32_t group = *hypervisor.group_map().GroupOfPhys(region.hpa + offset);
      EXPECT_NE(std::find(groups.begin(), groups.end(), group), groups.end())
          << "VM page outside its subarray groups";
    }
  }
}

TEST_F(HypervisorTest, TwoVmsGetDisjointGroups) {
  auto hypervisor_owner = MakeBooted();
  SilozHypervisor& hypervisor = *hypervisor_owner;
  Result<VmId> a = hypervisor.CreateVm({.name = "a", .memory_bytes = 3_GiB, .socket = 0});
  Result<VmId> b = hypervisor.CreateVm({.name = "b", .memory_bytes = 3_GiB, .socket = 0});
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  Vm& vm_a = **hypervisor.GetVm(*a);
  Vm& vm_b = **hypervisor.GetVm(*b);
  for (uint32_t group_a : vm_a.guest_groups()) {
    for (uint32_t group_b : vm_b.guest_groups()) {
      EXPECT_NE(group_a, group_b);
    }
  }
  EXPECT_TRUE(hypervisor.AuditVmIsolation(*a).ok());
  EXPECT_TRUE(hypervisor.AuditVmIsolation(*b).ok());
}

TEST_F(HypervisorTest, EptPagesComeFromProtectedRowGroup) {
  auto hypervisor_owner = MakeBooted();
  SilozHypervisor& hypervisor = *hypervisor_owner;
  Result<VmId> id = hypervisor.CreateVm({.name = "a", .memory_bytes = 1536_MiB, .socket = 0});
  ASSERT_TRUE(id.ok());
  Vm& vm = **hypervisor.GetVm(*id);
  const auto& pool_ranges = hypervisor.ept_pool_ranges(0);
  for (uint64_t page : vm.ept()->table_pages()) {
    bool inside = false;
    for (const PhysRange& range : pool_ranges) {
      inside |= range.Contains(page);
    }
    EXPECT_TRUE(inside) << "EPT page at " << page << " outside protected row group";
  }
}

TEST_F(HypervisorTest, AllocationPolicyEnforced) {
  auto hypervisor_owner = MakeBooted();
  SilozHypervisor& hypervisor = *hypervisor_owner;
  // 1024 MiB leaves slack in the VM's 1.5 GiB group for the policy probes.
  Result<VmId> id = hypervisor.CreateVm({.name = "a", .memory_bytes = 1024_MiB, .socket = 0});
  ASSERT_TRUE(id.ok());
  Vm& vm = **hypervisor.GetVm(*id);
  const uint32_t guest_node = vm.guest_nodes()[0];
  ControlGroup& vm_cgroup = **hypervisor.cgroups().Get("vm-a");
  ControlGroup& host_cgroup = **hypervisor.cgroups().Get("host");

  // Mediated allocations from guest-reserved nodes are denied even for the
  // owner (§5.1: mediated pages live in host groups).
  Result<uint64_t> mediated =
      hypervisor.AllocatePages(vm_cgroup, guest_node, kOrder4K, /*unmediated=*/false);
  ASSERT_FALSE(mediated.ok());
  EXPECT_EQ(mediated.error().code, ErrorCode::kPermissionDenied);

  // The host cgroup cannot touch guest-reserved nodes at all.
  Result<uint64_t> foreign =
      hypervisor.AllocatePages(host_cgroup, guest_node, kOrder4K, /*unmediated=*/true);
  ASSERT_FALSE(foreign.ok());
  EXPECT_EQ(foreign.error().code, ErrorCode::kPermissionDenied);

  // An unprivileged cgroup with the node in mems is still denied (no KVM).
  ControlGroup unprivileged("rogue", {guest_node}, /*kvm_privileged=*/false);
  Result<uint64_t> rogue =
      hypervisor.AllocatePages(unprivileged, guest_node, kOrder4K, /*unmediated=*/true);
  ASSERT_FALSE(rogue.ok());
  EXPECT_EQ(rogue.error().code, ErrorCode::kPermissionDenied);

  // The owning cgroup with the UNMEDIATED flag succeeds.
  Result<uint64_t> ok =
      hypervisor.AllocatePages(vm_cgroup, guest_node, kOrder4K, /*unmediated=*/true);
  ASSERT_TRUE(ok.ok());
  EXPECT_TRUE(hypervisor.FreePages(guest_node, *ok, kOrder4K).ok());
}

TEST_F(HypervisorTest, DestroyAndReleaseLifecycle) {
  auto hypervisor_owner = MakeBooted();
  SilozHypervisor& hypervisor = *hypervisor_owner;
  Result<VmId> id = hypervisor.CreateVm({.name = "a", .memory_bytes = 3_GiB, .socket = 0});
  ASSERT_TRUE(id.ok());
  EXPECT_EQ(hypervisor.AvailableGuestNodes(0).size(), 124u);

  // Release before destroy is rejected.
  EXPECT_FALSE(hypervisor.ReleaseVmNodes(*id).ok());

  // Destroy frees memory but keeps the reservation (§5.3).
  ASSERT_TRUE(hypervisor.DestroyVm(*id).ok());
  EXPECT_EQ(hypervisor.AvailableGuestNodes(0).size(), 124u);
  EXPECT_TRUE(hypervisor.cgroups().Get("vm-a").ok());

  // Release returns the nodes and destroys the cgroup.
  ASSERT_TRUE(hypervisor.ReleaseVmNodes(*id).ok());
  EXPECT_EQ(hypervisor.AvailableGuestNodes(0).size(), 126u);
  EXPECT_FALSE(hypervisor.cgroups().Get("vm-a").ok());
  EXPECT_FALSE(hypervisor.GetVm(*id).ok());

  // The freed nodes are reusable.
  EXPECT_TRUE(hypervisor.CreateVm({.name = "b", .memory_bytes = 3_GiB, .socket = 0}).ok());
}

TEST_F(HypervisorTest, SocketCapacityExhaustion) {
  auto hypervisor_owner = MakeBooted();
  SilozHypervisor& hypervisor = *hypervisor_owner;
  // 126 guest groups = 189 GiB; a 190 GiB VM cannot fit on one socket.
  Result<VmId> id = hypervisor.CreateVm({.name = "big", .memory_bytes = 190_GiB, .socket = 0});
  ASSERT_FALSE(id.ok());
  EXPECT_EQ(id.error().code, ErrorCode::kNoMemory);
  // Nothing leaked: a large-but-fitting VM still works.
  EXPECT_TRUE(hypervisor.CreateVm({.name = "ok", .memory_bytes = 6_GiB, .socket = 0}).ok());
}

TEST_F(HypervisorTest, AuditDetectsEptCorruption) {
  auto hypervisor_owner = MakeBooted();
  SilozHypervisor& hypervisor = *hypervisor_owner;
  Result<VmId> id = hypervisor.CreateVm({.name = "a", .memory_bytes = 1536_MiB, .socket = 0});
  ASSERT_TRUE(id.ok());
  Vm& vm = **hypervisor.GetVm(*id);
  ASSERT_TRUE(hypervisor.AuditVmIsolation(*id).ok());

  // Flip a frame bit in the last table page (a PD full of leaf entries).
  const uint64_t pd_page = vm.ept()->table_pages().back();
  memory_.FlipBit(pd_page + 4, 2);  // bit 34 of entry 0

  const Status audit = hypervisor.AuditVmIsolation(*id);
  ASSERT_FALSE(audit.ok());
  EXPECT_EQ(audit.error().code, ErrorCode::kIntegrityViolation);
}

TEST_F(HypervisorTest, SecureEptModeDetectsCorruption) {
  SilozConfig config;
  config.ept_protection = EptProtection::kSecureEpt;
  auto hypervisor_owner = MakeBooted(config);
  SilozHypervisor& hypervisor = *hypervisor_owner;
  EXPECT_EQ(hypervisor.ept_reserved_bytes(), 0u);  // no guard rows needed
  Result<VmId> id = hypervisor.CreateVm({.name = "a", .memory_bytes = 1536_MiB, .socket = 0});
  ASSERT_TRUE(id.ok());
  Vm& vm = **hypervisor.GetVm(*id);
  ASSERT_TRUE(hypervisor.AuditVmIsolation(*id).ok());

  memory_.FlipBit(vm.ept()->table_pages().back() + 4, 2);
  const Status audit = hypervisor.AuditVmIsolation(*id);
  ASSERT_FALSE(audit.ok());
  EXPECT_EQ(audit.error().code, ErrorCode::kIntegrityViolation);
}

TEST_F(HypervisorTest, ArtificialGroupsForNonPowerOfTwo) {
  SilozConfig config;
  config.rows_per_subarray = 768;
  auto hypervisor_owner = MakeBooted(config);
  SilozHypervisor& hypervisor = *hypervisor_owner;
  EXPECT_TRUE(hypervisor.using_artificial_groups());
  EXPECT_EQ(hypervisor.effective_rows_per_subarray(), 1024u);
  // §6: n=4 guard rows per artificial group boundary, doubled to 8 media
  // rows per group by the B-side inversion images (rank/side accounting).
  EXPECT_EQ(hypervisor.artificial_guard_bytes(),
            256ull * 8 * geometry_.row_group_bytes());
  // Guest nodes lose the guard rows but still host VMs.
  EXPECT_TRUE(hypervisor.CreateVm({.name = "a", .memory_bytes = 1536_MiB, .socket = 0}).ok());
}

TEST_F(HypervisorTest, ArtificialGroupsCanBeDisallowed) {
  SilozConfig config;
  config.rows_per_subarray = 768;
  config.allow_artificial_groups = false;
  SilozHypervisor hypervisor(decoder_, memory_, config);
  const Status status = hypervisor.Boot();
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.error().code, ErrorCode::kUnsupported);
}

TEST_F(HypervisorTest, RomRegionIsUnmediatedAndMapped) {
  auto hypervisor_owner = MakeBooted();
  SilozHypervisor& hypervisor = *hypervisor_owner;
  Result<VmId> id = hypervisor.CreateVm(
      {.name = "a", .memory_bytes = 1024_MiB, .rom_bytes = 16_MiB, .socket = 0});
  ASSERT_TRUE(id.ok()) << id.error().ToString();
  Vm& vm = **hypervisor.GetVm(*id);
  const VmRegion* rom = nullptr;
  for (const VmRegion& region : vm.regions()) {
    if (region.type == MemoryType::kGuestRom) {
      rom = &region;
    }
  }
  ASSERT_NE(rom, nullptr);
  // ROM is unmediated (reads do not exit): it lives in the VM's own groups
  // and is EPT-mapped.
  EXPECT_EQ(rom->gpa, 1024_MiB);
  EXPECT_EQ(rom->bytes, 16_MiB);
  bool in_guest_group = false;
  const uint32_t group = *hypervisor.group_map().GroupOfPhys(rom->hpa);
  for (uint32_t g : vm.guest_groups()) {
    in_guest_group |= (g == group);
  }
  EXPECT_TRUE(in_guest_group);
  EXPECT_EQ(*vm.ept()->Translate(rom->gpa), rom->hpa);
  EXPECT_TRUE(hypervisor.AuditVmIsolation(*id).ok());
}

TEST_F(HypervisorTest, MmioRegionIsMediatedAndUnmapped) {
  auto hypervisor_owner = MakeBooted();
  SilozHypervisor& hypervisor = *hypervisor_owner;
  Result<VmId> id = hypervisor.CreateVm(
      {.name = "a", .memory_bytes = 1536_MiB, .mmio_bytes = 16_MiB, .socket = 0});
  ASSERT_TRUE(id.ok());
  Vm& vm = **hypervisor.GetVm(*id);
  const VmRegion* mmio = nullptr;
  for (const VmRegion& region : vm.regions()) {
    if (region.type == MemoryType::kMmio) {
      mmio = &region;
    }
  }
  ASSERT_NE(mmio, nullptr);
  // MMIO backing lives in a host-reserved group, not the VM's groups.
  const uint32_t group = *hypervisor.group_map().GroupOfPhys(mmio->hpa);
  for (uint32_t vm_group : vm.guest_groups()) {
    EXPECT_NE(group, vm_group);
  }
  // And it is not mapped in the EPT (accesses exit).
  EXPECT_FALSE(vm.ept()->Translate(mmio->gpa).ok());
}

TEST_F(HypervisorTest, VmOnSecondSocketUsesItsNodes) {
  auto hypervisor_owner = MakeBooted();
  SilozHypervisor& hypervisor = *hypervisor_owner;
  Result<VmId> id = hypervisor.CreateVm({.name = "a", .memory_bytes = 3_GiB, .socket = 1});
  ASSERT_TRUE(id.ok());
  Vm& vm = **hypervisor.GetVm(*id);
  for (uint32_t node_id : vm.guest_nodes()) {
    EXPECT_EQ((*hypervisor.nodes().Get(node_id))->physical_socket(), 1u);
  }
  EXPECT_EQ(hypervisor.AvailableGuestNodes(0).size(), 126u);
  EXPECT_EQ(hypervisor.AvailableGuestNodes(1).size(), 124u);
}

TEST_F(HypervisorTest, CreateVmValidatesArguments) {
  auto hypervisor_owner = MakeBooted();
  SilozHypervisor& hypervisor = *hypervisor_owner;
  EXPECT_FALSE(hypervisor.CreateVm({.name = "z", .memory_bytes = 0}).ok());
  EXPECT_FALSE(hypervisor.CreateVm({.name = "z", .memory_bytes = 3_MiB}).ok());  // not 2M-mult.
  EXPECT_FALSE(hypervisor.CreateVm({.name = "z", .memory_bytes = 2_MiB, .socket = 9}).ok());
}

}  // namespace
}  // namespace siloz
