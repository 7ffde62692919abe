// Error-path tests for the transactional VM lifecycle (DESIGN.md §11).
//
// Every test here follows the same shape: snapshot the hypervisor's
// conservation state, force a specific allocation or release to fail via the
// deterministic FaultInjector, and verify the state is bit-identical
// afterward (failed creates) or reachable again (interrupted destroys). The
// three historical leak sites — AllocateRuns mid-create, the baseline
// contiguous allocation, and the MMIO window — each get a targeted
// regression; the sweeps then cover every reachable fault point k = 1..N.
#include <gtest/gtest.h>
#include <memory>

#include "src/addr/decoder.h"
#include "src/base/fault_injector.h"
#include "src/base/transaction.h"
#include "src/base/units.h"
#include "src/ept/phys_memory.h"
#include "src/hostmem/buddy.h"
#include "src/siloz/conservation.h"
#include "src/siloz/hypervisor.h"

namespace siloz {
namespace {

TEST(FaultInjectorTest, FiresExactlyOnceAtKthMatchingCall) {
  BuddyAllocator allocator({PhysRange{0, 1_MiB}});
  ScopedFault fault(/*k=*/2, "alloc.buddy.");
  EXPECT_TRUE(allocator.Allocate(kOrder4K).ok());
  Result<uint64_t> second = allocator.Allocate(kOrder4K);
  ASSERT_FALSE(second.ok());
  EXPECT_EQ(second.error().code, ErrorCode::kNoMemory);
  EXPECT_NE(second.error().message.find("injected fault at alloc.buddy.page"),
            std::string::npos);
  // One-shot: the same k is never re-triggered, so cleanup code that runs
  // because of the injected failure is not itself sabotaged.
  EXPECT_TRUE(allocator.Allocate(kOrder4K).ok());
  EXPECT_EQ(FaultInjector::Global().matched_calls(), 3u);
  EXPECT_EQ(FaultInjector::Global().faults_fired(), 1u);
}

TEST(FaultInjectorTest, TakeRangeIsOnePointPerRangeAndFailsWhole) {
  BuddyAllocator allocator({PhysRange{0, 4_MiB}});
  {
    ScopedFault fault(/*k=*/1, "alloc.buddy.range");
    Status taken =
        allocator.TakeRange(PhysRange{1_MiB, 2_MiB}, BuddyAllocator::Take::kOffline);
    ASSERT_FALSE(taken.ok());
    EXPECT_EQ(taken.error().code, ErrorCode::kNoMemory);
  }
  EXPECT_EQ(allocator.free_bytes(), 4_MiB);
  EXPECT_EQ(allocator.offlined_bytes(), 0u);
  EXPECT_EQ(allocator.LargestFreeOrder(), 10);
  // One matching call for a 256-page range.
  ScopedFault fault(/*k=*/1000, "alloc.buddy.");
  EXPECT_TRUE(allocator.TakeRange(PhysRange{1_MiB, 2_MiB}, BuddyAllocator::Take::kOffline).ok());
  EXPECT_EQ(FaultInjector::Global().matched_calls(), 1u);
}

TEST(FaultInjectorTest, PrefixSelectsSiteNamespace) {
  BuddyAllocator allocator({PhysRange{0, 1_MiB}});
  Result<uint64_t> page = allocator.Allocate(kOrder4K);
  ASSERT_TRUE(page.ok());
  ScopedFault fault(/*k=*/1, "free.");
  // Allocation sites do not match a "free." arm.
  EXPECT_TRUE(allocator.Allocate(kOrder4K).ok());
  EXPECT_EQ(FaultInjector::Global().faults_fired(), 0u);
  Status freed = allocator.Free(*page, kOrder4K);
  ASSERT_FALSE(freed.ok());
  EXPECT_NE(freed.error().message.find("injected fault at free.buddy.page"),
            std::string::npos);
}

TEST(ReservationTransactionTest, RollsBackNewestFirstUnlessCommitted) {
  std::vector<int> undone;
  {
    ReservationTransaction txn;
    txn.OnRollback([&undone] { undone.push_back(1); });
    txn.OnRollback([&undone] { undone.push_back(2); });
    EXPECT_EQ(txn.pending_undos(), 2u);
  }
  EXPECT_EQ(undone, (std::vector<int>{2, 1}));
  undone.clear();
  {
    ReservationTransaction txn;
    txn.OnRollback([&undone] { undone.push_back(1); });
    txn.Commit();
  }
  EXPECT_TRUE(undone.empty());
}

class LifecycleFaultTest : public ::testing::Test {
 protected:
  LifecycleFaultTest() : decoder_(geometry_) {}

  std::unique_ptr<SilozHypervisor> MakeBooted(SilozConfig config = {}) {
    auto hypervisor = std::make_unique<SilozHypervisor>(decoder_, memory_, config);
    Status status = hypervisor->Boot();
    [&] { ASSERT_TRUE(status.ok()) << status.error().ToString(); }();
    return hypervisor;
  }

  // Fails the k-th `site_prefix` call inside CreateVm and requires the
  // create to fail without disturbing any conserved quantity.
  void ExpectConservedFailure(SilozHypervisor& hypervisor, const VmConfig& vm, uint64_t k,
                              const std::string& site_prefix) {
    const ConservationSnapshot before = CaptureConservation(hypervisor);
    Result<VmId> id = [&] {
      ScopedFault fault(k, site_prefix);
      return hypervisor.CreateVm(vm);
    }();
    ASSERT_FALSE(id.ok()) << "fault at " << site_prefix << " k=" << k << " was not fatal";
    EXPECT_EQ(id.error().code, ErrorCode::kNoMemory);
    EXPECT_EQ(DiffConservation(before, CaptureConservation(hypervisor)), "");
    EXPECT_EQ(hypervisor.backing_map_entries(), 0u);
    EXPECT_EQ(hypervisor.ept_page_map_entries(), 0u);
  }

  DramGeometry geometry_;
  SkylakeDecoder decoder_;
  FlatPhysMemory memory_;
};

// Regression: AllocateRuns failing on the SECOND node used to return through
// SILOZ_RETURN_IF_ERROR before the unwind lambda existed, leaking the first
// node's runs, the cgroup, both node reservations, and the phantom
// vm_backing_/vm_ept_pages_ entries.
TEST_F(LifecycleFaultTest, RunsFailureOnSecondNodeConservesEverything) {
  auto hypervisor_owner = MakeBooted();
  SilozHypervisor& hypervisor = *hypervisor_owner;
  // 3 GiB spans two 1.5 GiB guest nodes, so AllocateRuns is called twice.
  VmConfig vm{.name = "a", .memory_bytes = 3_GiB, .socket = 0};
  const size_t available_before = hypervisor.AvailableGuestNodes(0).size();
  ExpectConservedFailure(hypervisor, vm, /*k=*/2, "alloc.hv.runs");
  EXPECT_EQ(hypervisor.AvailableGuestNodes(0).size(), available_before);
  EXPECT_FALSE(hypervisor.cgroups().Get("vm-a").ok());
  // The failed attempt must not poison a retry.
  Result<VmId> id = hypervisor.CreateVm(vm);
  ASSERT_TRUE(id.ok()) << id.error().ToString();
}

// A quarantined row (§6) in the first guest group splits its node, so
// AllocateRuns takes the RAM as several runs. A fault on a later take must
// free the runs already taken and unwind the whole create; the sweep then
// covers every point of this create.
TEST_F(LifecycleFaultTest, LaterRunTakeFailureConservesEverything) {
  SilozConfig config;
  MediaAddress quarantined;
  quarantined.row = 2500;  // group 2: the first guest group on socket 0
  config.quarantined_rows.push_back(quarantined);
  auto hypervisor_owner = MakeBooted(config);
  SilozHypervisor& hypervisor = *hypervisor_owner;
  VmConfig vm{.name = "split", .memory_bytes = 1_GiB, .socket = 0};
  size_t runs = 0;
  {
    Result<VmId> id = hypervisor.CreateVm(vm);
    ASSERT_TRUE(id.ok()) << id.error().ToString();
    runs = (*hypervisor.GetVm(*id))->regions().size();
    ASSERT_TRUE(hypervisor.DestroyVm(*id).ok());
    ASSERT_TRUE(hypervisor.ReleaseVmNodes(*id).ok());
  }
  ASSERT_GE(runs, 2u);
  for (uint64_t k = 2; k <= runs; ++k) {
    ExpectConservedFailure(hypervisor, vm, k, "alloc.buddy.range");
  }
  Result<FaultSweepReport> report = RunCreateVmFaultSweep(hypervisor, vm);
  ASSERT_TRUE(report.ok()) << report.error().ToString();
  EXPECT_GE(report->creates_failed, runs);
  EXPECT_EQ(report->creates_survived, 0u);
}

// Regression: the baseline contiguous allocation failure leaked the phantom
// map entries created before the first fallible step.
TEST_F(LifecycleFaultTest, BaselineContiguousFailureConservesEverything) {
  SilozConfig config;
  config.enabled = false;
  auto hypervisor_owner = MakeBooted(config);
  SilozHypervisor& hypervisor = *hypervisor_owner;
  VmConfig vm{.name = "b", .memory_bytes = 64_MiB, .socket = 0};
  ExpectConservedFailure(hypervisor, vm, /*k=*/1, "alloc.hv.contiguous");
  Result<VmId> id = hypervisor.CreateVm(vm);
  ASSERT_TRUE(id.ok()) << id.error().ToString();
}

// Regression: an MMIO window failure used to leak every RAM/ROM run
// allocated before it (the unwind lambda was defined later).
TEST_F(LifecycleFaultTest, MmioFailureRollsBackRamAndRom) {
  auto hypervisor_owner = MakeBooted();
  SilozHypervisor& hypervisor = *hypervisor_owner;
  VmConfig vm{.name = "c", .memory_bytes = 64_MiB, .rom_bytes = 2_MiB, .mmio_bytes = 64_KiB,
              .socket = 0};
  // In Siloz mode the only AllocateContiguous call is the MMIO window, so
  // k=1 fires after all unmediated backing has been reserved.
  ExpectConservedFailure(hypervisor, vm, /*k=*/1, "alloc.hv.contiguous");
  Result<VmId> id = hypervisor.CreateVm(vm);
  ASSERT_TRUE(id.ok()) << id.error().ToString();
}

// EPT table-page exhaustion mid-Map releases drawn pool pages and all
// backing. k=1 fails the root allocation (the fallible Create path), larger
// k fail inside the mapping loop.
TEST_F(LifecycleFaultTest, EptTablePageFailureConservesPool) {
  auto hypervisor_owner = MakeBooted();
  SilozHypervisor& hypervisor = *hypervisor_owner;
  VmConfig vm{.name = "d", .memory_bytes = 64_MiB, .socket = 0};
  for (uint64_t k : {1u, 2u, 3u}) {
    ExpectConservedFailure(hypervisor, vm, k, "alloc.ept.table_page");
    EXPECT_EQ(hypervisor.ept_pages_held(), 0u);
  }
  Result<VmId> id = hypervisor.CreateVm(vm);
  ASSERT_TRUE(id.ok()) << id.error().ToString();
}

// A failed passthrough assignment must return the IOMMU table pages it drew.
TEST_F(LifecycleFaultTest, PassthroughAssignFailureReturnsTablePages) {
  auto hypervisor_owner = MakeBooted();
  SilozHypervisor& hypervisor = *hypervisor_owner;
  VmConfig vm{.name = "e", .memory_bytes = 64_MiB, .socket = 0};
  Result<VmId> id = hypervisor.CreateVm(vm);
  ASSERT_TRUE(id.ok()) << id.error().ToString();
  const ConservationSnapshot before = CaptureConservation(hypervisor);
  Result<uint32_t> device = [&] {
    ScopedFault fault(/*k=*/2, "alloc.ept.table_page");
    return hypervisor.AssignPassthroughDevice(*id, "nic0");
  }();
  ASSERT_FALSE(device.ok());
  EXPECT_EQ(DiffConservation(before, CaptureConservation(hypervisor)), "");
}

// Regression: a mid-teardown Free failure used to abandon the remaining
// blocks with no record of progress, so a retry double-freed the prefix.
TEST_F(LifecycleFaultTest, DestroyVmResumesAfterInterruptedFree) {
  auto hypervisor_owner = MakeBooted();
  SilozHypervisor& hypervisor = *hypervisor_owner;
  VmConfig vm{.name = "f", .memory_bytes = 64_MiB, .socket = 0};
  const ConservationSnapshot pristine = CaptureConservation(hypervisor);
  Result<VmId> id = hypervisor.CreateVm(vm);
  ASSERT_TRUE(id.ok()) << id.error().ToString();
  {
    ScopedFault fault(/*k=*/2, "free.buddy.page");
    Status interrupted = hypervisor.DestroyVm(*id);
    ASSERT_FALSE(interrupted.ok());
    EXPECT_NE(interrupted.error().message.find("injected fault"), std::string::npos);
  }
  // The first destroy recorded its progress; the retry frees only what is
  // still allocated (the overlap detector would reject a double free).
  ASSERT_TRUE(hypervisor.DestroyVm(*id).ok());
  ASSERT_TRUE(hypervisor.ReleaseVmNodes(*id).ok());
  EXPECT_EQ(DiffConservation(pristine, CaptureConservation(hypervisor)), "");
}

TEST_F(LifecycleFaultTest, DestroyVmIsIdempotent) {
  auto hypervisor_owner = MakeBooted();
  SilozHypervisor& hypervisor = *hypervisor_owner;
  VmConfig vm{.name = "g", .memory_bytes = 64_MiB, .socket = 0};
  Result<VmId> id = hypervisor.CreateVm(vm);
  ASSERT_TRUE(id.ok()) << id.error().ToString();
  const ConservationSnapshot destroyed_once = [&] {
    EXPECT_TRUE(hypervisor.DestroyVm(*id).ok());
    return CaptureConservation(hypervisor);
  }();
  // Second destroy: no-op, no double release of backing or EPT pages.
  EXPECT_TRUE(hypervisor.DestroyVm(*id).ok());
  EXPECT_EQ(DiffConservation(destroyed_once, CaptureConservation(hypervisor)), "");
  EXPECT_TRUE(hypervisor.ReleaseVmNodes(*id).ok());
}

// The tentpole proof: fail every reachable "alloc." point once. Failed
// creates must conserve; tolerated faults must leave create->destroy->
// release a fixed point.
TEST_F(LifecycleFaultTest, FaultSweepSilozConfig) {
  auto hypervisor_owner = MakeBooted();
  SilozHypervisor& hypervisor = *hypervisor_owner;
  VmConfig vm{.name = "sweep", .memory_bytes = 8_MiB, .rom_bytes = 2_MiB, .socket = 0};
  Result<FaultSweepReport> report = RunCreateVmFaultSweep(hypervisor, vm);
  ASSERT_TRUE(report.ok()) << report.error().ToString();
  EXPECT_GT(report->faults_injected, 0u);
  EXPECT_GT(report->creates_failed, 0u);
  EXPECT_EQ(report->points_probed, report->faults_injected + 1);
}

TEST_F(LifecycleFaultTest, FaultSweepBaselineConfig) {
  SilozConfig config;
  config.enabled = false;
  auto hypervisor_owner = MakeBooted(config);
  SilozHypervisor& hypervisor = *hypervisor_owner;
  VmConfig vm{.name = "sweep", .memory_bytes = 4_MiB, .rom_bytes = 2_MiB, .mmio_bytes = 16_KiB,
              .socket = 0};
  Result<FaultSweepReport> report = RunCreateVmFaultSweep(hypervisor, vm);
  ASSERT_TRUE(report.ok()) << report.error().ToString();
  EXPECT_GT(report->faults_injected, 0u);
  EXPECT_GT(report->creates_failed, 0u);
}

}  // namespace
}  // namespace siloz
