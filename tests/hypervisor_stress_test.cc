// Randomized lifecycle stress for the hypervisor: create / destroy /
// release / assign devices over many rounds, checking global invariants
// after every step:
//   I1  a guest node is owned by at most one live cgroup,
//   I2  free + allocated + offlined bytes are conserved per node,
//   I3  every live VM audits clean,
//   I4  the EPT pool never leaks (free + in-use == initial),
//   I5  full teardown restores boot-time capacity exactly.
#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <set>

#include "src/addr/decoder.h"
#include "src/audit/auditor.h"
#include "src/base/fault_injector.h"
#include "src/base/rng.h"
#include "src/base/thread_pool.h"
#include "src/base/units.h"
#include "src/ept/phys_memory.h"
#include "src/siloz/conservation.h"
#include "src/siloz/hypervisor.h"

namespace siloz {
namespace {

struct LiveVm {
  VmId id;
  bool destroyed = false;
  std::vector<uint32_t> devices;
};

class HypervisorStress : public ::testing::TestWithParam<uint64_t> {};

TEST_P(HypervisorStress, RandomChurnKeepsInvariants) {
  DramGeometry geometry;
  SkylakeDecoder decoder(geometry);
  FlatPhysMemory memory;
  SilozHypervisor hypervisor(decoder, memory, SilozConfig{});
  ASSERT_TRUE(hypervisor.Boot().ok());

  const size_t boot_nodes_s0 = hypervisor.AvailableGuestNodes(0).size();
  const size_t boot_nodes_s1 = hypervisor.AvailableGuestNodes(1).size();
  const size_t boot_pool_s0 = hypervisor.ept_pool_free(0);
  const size_t boot_pool_s1 = hypervisor.ept_pool_free(1);

  Rng rng(GetParam());
  std::vector<LiveVm> vms;
  uint32_t created = 0;

  auto check_invariants = [&]() {
    // I1: node ownership is exclusive across live VM cgroups.
    std::set<uint32_t> owned;
    for (const LiveVm& vm : vms) {
      for (uint32_t node : (*hypervisor.GetVm(vm.id))->guest_nodes()) {
        ASSERT_TRUE(owned.insert(node).second) << "node " << node << " double-owned";
      }
    }
    // I3: live (non-destroyed) VMs audit clean; devices too.
    for (const LiveVm& vm : vms) {
      if (vm.destroyed) {
        continue;
      }
      ASSERT_TRUE(hypervisor.AuditVmIsolation(vm.id).ok());
      for (uint32_t device : vm.devices) {
        ASSERT_TRUE(hypervisor.AuditDeviceIsolation(device).ok());
      }
    }
  };

  for (int step = 0; step < 120; ++step) {
    const double dice = rng.NextDouble();
    if (dice < 0.40) {
      // Create a VM of 1-4 groups on a random socket.
      VmConfig config;
      config.name = "vm" + std::to_string(created++);
      config.memory_bytes = rng.NextInRange(1, 4) * 1536_MiB;
      config.socket = static_cast<uint32_t>(rng.NextBelow(2));
      Result<VmId> id = hypervisor.CreateVm(config);
      if (id.ok()) {
        vms.push_back(LiveVm{*id});
      } else {
        EXPECT_EQ(id.error().code, ErrorCode::kNoMemory);
      }
    } else if (dice < 0.55 && !vms.empty()) {
      // Assign a passthrough device to a live VM.
      LiveVm& vm = vms[rng.NextBelow(vms.size())];
      if (!vm.destroyed) {
        Result<uint32_t> device = hypervisor.AssignPassthroughDevice(
            vm.id, "dev" + std::to_string(step));
        if (device.ok()) {
          vm.devices.push_back(*device);
        }
      }
    } else if (dice < 0.80 && !vms.empty()) {
      // Destroy a random live VM (devices removed first).
      const size_t index = rng.NextBelow(vms.size());
      LiveVm& vm = vms[index];
      if (!vm.destroyed) {
        for (uint32_t device : vm.devices) {
          ASSERT_TRUE(hypervisor.RemovePassthroughDevice(device).ok());
        }
        vm.devices.clear();
        ASSERT_TRUE(hypervisor.DestroyVm(vm.id).ok());
        vm.destroyed = true;
      }
    } else if (!vms.empty()) {
      // Release a random destroyed VM's nodes.
      const size_t index = rng.NextBelow(vms.size());
      if (vms[index].destroyed) {
        ASSERT_TRUE(hypervisor.ReleaseVmNodes(vms[index].id).ok());
        vms.erase(vms.begin() + static_cast<long>(index));
      }
    }
    if (step % 10 == 0) {
      check_invariants();
    }
  }
  check_invariants();

  // I5: full teardown restores everything.
  ASSERT_TRUE(hypervisor.HostShutdown().ok());
  EXPECT_EQ(hypervisor.AvailableGuestNodes(0).size(), boot_nodes_s0);
  EXPECT_EQ(hypervisor.AvailableGuestNodes(1).size(), boot_nodes_s1);
  EXPECT_EQ(hypervisor.ept_pool_free(0), boot_pool_s0);
  EXPECT_EQ(hypervisor.ept_pool_free(1), boot_pool_s1);
  // Guest nodes are fully free again (I2 at the end state).
  for (uint32_t socket = 0; socket < 2; ++socket) {
    for (uint32_t node_id : hypervisor.AvailableGuestNodes(socket)) {
      NumaNode& node = **hypervisor.nodes().Get(node_id);
      EXPECT_EQ(node.allocator().free_bytes(), node.allocator().total_bytes());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, HypervisorStress, ::testing::Values(11u, 23u, 47u));

// Concurrent lifecycle churn (ROADMAP item 1): the hypervisor's internal
// mutex serializes create/destroy/release, so pool workers may churn VMs on
// one shared instance. Workers race real allocations — capacity misses are
// legitimate when peers hold all guest nodes — and after the pool drains,
// boot-time capacity and the full conservation snapshot must be restored
// exactly. Run under TSan this also checks the lock annotations describe
// reality, not just satisfy -Wthread-safety.
TEST(HypervisorConcurrentChurn, ParallelLifecycleRestoresCapacity) {
  DramGeometry geometry;
  SkylakeDecoder decoder(geometry);
  FlatPhysMemory memory;
  SilozHypervisor hypervisor(decoder, memory, SilozConfig{});
  ASSERT_TRUE(hypervisor.Boot().ok());

  const size_t boot_nodes_s0 = hypervisor.AvailableGuestNodes(0).size();
  const size_t boot_nodes_s1 = hypervisor.AvailableGuestNodes(1).size();
  const ConservationSnapshot before = CaptureConservation(hypervisor);

  constexpr uint64_t kWorkers = 8;
  constexpr uint32_t kRoundsPerWorker = 12;
  std::atomic<uint32_t> creates{0};
  std::atomic<uint32_t> capacity_misses{0};
  ParallelFor(static_cast<uint32_t>(kWorkers), kWorkers, [&](uint64_t worker) {
    for (uint32_t round = 0; round < kRoundsPerWorker; ++round) {
      VmConfig config;
      config.name = "churn-" + std::to_string(worker) + "-" + std::to_string(round);
      config.memory_bytes = 1536_MiB;
      config.socket = static_cast<uint32_t>(worker % 2);
      Result<VmId> id = hypervisor.CreateVm(config);
      if (!id.ok()) {
        capacity_misses.fetch_add(1, std::memory_order_relaxed);
        continue;
      }
      creates.fetch_add(1, std::memory_order_relaxed);
      EXPECT_TRUE(hypervisor.AuditVmIsolation(*id).ok());
      EXPECT_TRUE(hypervisor.DestroyVm(*id).ok());
      EXPECT_TRUE(hypervisor.ReleaseVmNodes(*id).ok());
    }
  });

  EXPECT_GT(creates.load(), 0u) << "every create hit capacity; churn vacuous";
  EXPECT_EQ(hypervisor.AvailableGuestNodes(0).size(), boot_nodes_s0);
  EXPECT_EQ(hypervisor.AvailableGuestNodes(1).size(), boot_nodes_s1);
  EXPECT_EQ(DiffConservation(before, CaptureConservation(hypervisor)), "");
}

// Same churn, but every CreateVm runs under a randomly armed allocation
// fault and destroys occasionally race an injected free failure. Either
// outcome of a faulted create is fine; what must hold is that a failed
// create leaves the hypervisor bit-identical (DESIGN.md §11) and that an
// interrupted destroy can be retried to completion.
TEST_P(HypervisorStress, FaultInjectedChurnConservesState) {
  DramGeometry geometry;
  SkylakeDecoder decoder(geometry);
  FlatPhysMemory memory;
  SilozConfig siloz_config;
  SilozHypervisor hypervisor(decoder, memory, siloz_config);
  ASSERT_TRUE(hypervisor.Boot().ok());

  const size_t boot_nodes_s0 = hypervisor.AvailableGuestNodes(0).size();
  const size_t boot_nodes_s1 = hypervisor.AvailableGuestNodes(1).size();
  const size_t boot_pool_s0 = hypervisor.ept_pool_free(0);
  const size_t boot_pool_s1 = hypervisor.ept_pool_free(1);

  Rng rng(GetParam() * 7919 + 1);
  FaultInjector& injector = FaultInjector::Global();
  std::vector<LiveVm> vms;
  uint32_t created = 0;
  uint64_t faulted_creates = 0;
  uint64_t interrupted_destroys = 0;

  for (int step = 0; step < 120; ++step) {
    const double dice = rng.NextDouble();
    if (dice < 0.40) {
      VmConfig config;
      config.name = "fvm" + std::to_string(created++);
      config.memory_bytes = rng.NextInRange(1, 4) * 1536_MiB;
      config.socket = static_cast<uint32_t>(rng.NextBelow(2));
      const ConservationSnapshot before = CaptureConservation(hypervisor);
      // Arm a one-shot fault at a random allocation call. Deep k values may
      // never match (the injector simply doesn't fire) — that exercises the
      // clean path under an armed injector, which must also be benign.
      injector.Arm(rng.NextInRange(1, 12), "alloc.");
      Result<VmId> id = hypervisor.CreateVm(config);
      const uint64_t fired = injector.faults_fired();
      injector.Disarm();
      if (id.ok()) {
        vms.push_back(LiveVm{*id});
      } else {
        if (fired > 0) {
          ++faulted_creates;
        } else {
          EXPECT_EQ(id.error().code, ErrorCode::kNoMemory);
        }
        // Every failure path — injected or natural — must conserve state.
        const std::string diff =
            DiffConservation(before, CaptureConservation(hypervisor));
        EXPECT_TRUE(diff.empty()) << "leak after failed create: " << diff;
      }
    } else if (dice < 0.55 && !vms.empty()) {
      LiveVm& vm = vms[rng.NextBelow(vms.size())];
      if (!vm.destroyed) {
        Result<uint32_t> device = hypervisor.AssignPassthroughDevice(
            vm.id, "fdev" + std::to_string(step));
        if (device.ok()) {
          vm.devices.push_back(*device);
        }
      }
    } else if (dice < 0.80 && !vms.empty()) {
      const size_t index = rng.NextBelow(vms.size());
      LiveVm& vm = vms[index];
      if (!vm.destroyed) {
        for (uint32_t device : vm.devices) {
          ASSERT_TRUE(hypervisor.RemovePassthroughDevice(device).ok());
        }
        vm.devices.clear();
        // Occasionally interrupt the destroy with an injected free failure;
        // a disarmed retry must pick up where it stopped and succeed.
        if (rng.NextDouble() < 0.5) {
          injector.Arm(rng.NextInRange(1, 3), "free.buddy.page");
          Status first = hypervisor.DestroyVm(vm.id);
          const uint64_t fired = injector.faults_fired();
          injector.Disarm();
          if (!first.ok()) {
            ASSERT_GT(fired, 0u) << first.error().ToString();
            ++interrupted_destroys;
          }
        }
        ASSERT_TRUE(hypervisor.DestroyVm(vm.id).ok());
        vm.destroyed = true;
      }
    } else if (!vms.empty()) {
      const size_t index = rng.NextBelow(vms.size());
      if (vms[index].destroyed) {
        ASSERT_TRUE(hypervisor.ReleaseVmNodes(vms[index].id).ok());
        vms.erase(vms.begin() + static_cast<long>(index));
      }
    }
    if (step % 10 == 0) {
      // Node ownership stays exclusive and live VMs still audit clean even
      // with faults firing between steps.
      std::set<uint32_t> owned;
      for (const LiveVm& vm : vms) {
        for (uint32_t node : (*hypervisor.GetVm(vm.id))->guest_nodes()) {
          ASSERT_TRUE(owned.insert(node).second) << "node " << node << " double-owned";
        }
      }
      for (const LiveVm& vm : vms) {
        if (!vm.destroyed) {
          ASSERT_TRUE(hypervisor.AuditVmIsolation(vm.id).ok());
        }
      }
    }
  }
  // The sweep should actually have exercised both fault classes across the
  // seeds; with these rates a seed that never fires either is a logic bug.
  EXPECT_GT(faulted_creates + interrupted_destroys, 0u);

  // Full teardown is still a fixed point after all that abuse.
  ASSERT_TRUE(hypervisor.HostShutdown().ok());
  EXPECT_EQ(hypervisor.AvailableGuestNodes(0).size(), boot_nodes_s0);
  EXPECT_EQ(hypervisor.AvailableGuestNodes(1).size(), boot_nodes_s1);
  EXPECT_EQ(hypervisor.ept_pool_free(0), boot_pool_s0);
  EXPECT_EQ(hypervisor.ept_pool_free(1), boot_pool_s1);
  for (uint32_t socket = 0; socket < 2; ++socket) {
    for (uint32_t node_id : hypervisor.AvailableGuestNodes(socket)) {
      NumaNode& node = **hypervisor.nodes().Get(node_id);
      EXPECT_EQ(node.allocator().free_bytes(), node.allocator().total_bytes());
    }
  }

  // Re-run the static isolation audit on the same platform: fault-churned
  // lifecycles must not have invalidated the provisioning-plan invariants.
  audit::Options options;
  options.probe_stride = 2_MiB;
  options.random_probes = 256;
  Result<audit::Report> report =
      audit::AuditPlatform(decoder, siloz_config, RemapConfig{}, options);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->ok()) << report->ToText();
}

}  // namespace
}  // namespace siloz
