// The Siloz hypervisor (§5): subarray groups as logical NUMA nodes, private
// per-VM placement, and guard-row-protected EPTs.
//
// The class models the memory-management plane of Linux/KVM with Siloz's
// modifications. With config.enabled == false it behaves as the unmodified
// baseline (one node per socket, EPTs in ordinary memory) so experiments can
// run the same workloads against both kernels, as the paper does.
#ifndef SILOZ_SRC_SILOZ_HYPERVISOR_H_
#define SILOZ_SRC_SILOZ_HYPERVISOR_H_

#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "src/addr/decoder.h"
#include "src/addr/subarray_group.h"
#include "src/base/result.h"
#include "src/base/transaction.h"
#include "src/ept/ept.h"
#include "src/ept/phys_memory.h"
#include "src/hostmem/cgroup.h"
#include "src/hostmem/numa.h"
#include "src/siloz/config.h"
#include "src/siloz/vm.h"

namespace siloz {

// Thread-safety: one thread at a time, like the other model objects — the
// memory-management plane is serial, and the fleet-churn simulator replays
// its lifecycle serially. Once Boot() returns, the boot-time layout
// (NodeOfGroup, ept_pool_ranges, group_map) may be read from many threads
// while no lifecycle call runs. Distinct instances share no state and may run
// concurrently.
class SilozHypervisor {
 public:
  // `decoder` is the platform's fixed physical-to-media mapping; `memory` is
  // where EPT table bytes live (flat for performance runs, DRAM-backed for
  // security runs).
  SilozHypervisor(const AddressDecoder& decoder, PhysMemory& memory, SilozConfig config);
  // Flushes lifetime event counts into the global metrics registry.
  ~SilozHypervisor();

  SilozHypervisor(const SilozHypervisor&) = delete;
  SilozHypervisor& operator=(const SilozHypervisor&) = delete;

  // Early-boot computation (§5.3): derive subarray groups from the decoder,
  // provision logical nodes, reserve + guard the EPT block, offline guard
  // pages. Must be called exactly once before any allocation.
  Status Boot();

  // --- VM lifecycle (§5.3) ---

  // Creates a VM: reserves guest nodes (whole subarray groups), creates its
  // control group, statically allocates contiguous backing for all
  // unmediated regions, and builds its EPT via the GFP_EPT path.
  Result<VmId> CreateVm(const VmConfig& vm_config);

  // Removes the VM's passthrough devices (their IOMMU tables map its
  // backing), then frees the VM's memory to its nodes' free pools. Per §5.3
  // the nodes stay reserved until the control group is destroyed
  // (ReleaseVmNodes). Idempotent: destroying an already-destroyed VM is a no-op returning Ok.
  // On a mid-teardown failure the freed prefix is recorded, so a retry after
  // the fault clears resumes where it stopped instead of double-freeing.
  Status DestroyVm(VmId id);

  // Destroys the (dead) VM's control group, returning its nodes to the
  // available pool. Privileged operation.
  Status ReleaseVmNodes(VmId id);

  // Moves a live VM to `target_socket` (§7: the defragmentation remedy for
  // stranded capacity under churn). The target placement is staged and its
  // EPT built by the same path CreateVm uses, so a migrated VM gets exactly
  // the nodes, regions and table pages a fresh CreateVm on the target would.
  // The guest image is then copied GPA-for-GPA and the VM's control group
  // retargeted. All target-side reservations are transactional — any failure
  // (target exhausted, EPT pool empty, an armed fault point) rolls back and
  // leaves the VM untouched on its source socket. Siloz mode only (the
  // baseline has no subarray-group placement to move); VMs with passthrough
  // devices must drop them first, since their IOMMU tables pin the source
  // placement. The committed placement is re-audited before returning.
  Status MigrateVm(VmId id, uint32_t target_socket);

  Result<Vm*> GetVm(VmId id);

  // --- Passthrough IO (§5.1) ---
  //
  // The prototype's guest IO is paravirtual (virtio): the hypervisor mediates
  // all DMA. Secure SR-IOV passthrough additionally requires (1) an IOMMU
  // that restricts the device's DMAs to the guest's subarray-group ranges,
  // and (2) IOMMU page tables protected like EPT pages. Both are implemented
  // here: the IOMMU table is built from the same protected pool and maps the
  // VM's unmediated regions at their guest-physical addresses (IOVA = GPA).

  // Assigns a passthrough device to a VM; returns a device id.
  Result<uint32_t> AssignPassthroughDevice(VmId vm_id, const std::string& name);

  // A DMA issued by the device at `iova`: translated by its IOMMU and
  // bounds-checked against the owning VM's provisioned ranges. Returns the
  // HPA, or kPermissionDenied / kIntegrityViolation.
  Result<uint64_t> DeviceDma(uint32_t device_id, uint64_t iova);

  // Verifies the device's IOMMU mappings and table-page placement, like
  // AuditVmIsolation does for EPTs.
  Status AuditDeviceIsolation(uint32_t device_id) const;

  // Unassigns a device, returning its IOMMU table pages to the pool.
  Status RemovePassthroughDevice(uint32_t device_id);

  // HPAs of a device's IOMMU table pages (introspection for experiments).
  Result<std::vector<uint64_t>> DeviceTablePages(uint32_t device_id) const;

  // --- Host shutdown (§5.3) ---
  //
  // The privileged shutdown path kills every VM and releases all
  // reservations, ignoring otherwise-active subarray-group constraints.
  Status HostShutdown();

  // --- Allocation policy (§5.1-§5.3), exposed for tests and host use ---

  // Allocate (4 KiB << order) bytes from `node_id` on behalf of `group`.
  // Guest-reserved nodes require the UNMEDIATED flag, membership of the
  // node in the group's cpuset.mems, and KVM privileges.
  Result<uint64_t> AllocatePages(const ControlGroup& group, uint32_t node_id, uint32_t order,
                                 bool unmediated);
  Status FreePages(uint32_t node_id, uint64_t phys, uint32_t order);

  // --- Isolation audit ---

  // Re-walks every mapping of the VM's EPT and verifies each translation
  // lands inside the VM's provisioned ranges (and, for unmediated regions,
  // inside its private subarray groups). A hammered EPT that escaped would
  // fail with kIntegrityViolation; a secure-EPT checksum failure propagates.
  Status AuditVmIsolation(VmId id) const;

  // --- Introspection for experiments ---

  const SilozConfig& config() const { return config_; }
  bool booted() const { return booted_; }
  const SubarrayGroupMap& group_map() const { return *group_map_; }
  // Logical node owning a global subarray group id (Siloz mode only).
  Result<uint32_t> NodeOfGroup(uint32_t group) const;
  NodeRegistry& nodes() { return nodes_; }
  const NodeRegistry& nodes() const { return nodes_; }
  CgroupRegistry& cgroups() { return cgroups_; }
  const CgroupRegistry& cgroups() const { return cgroups_; }
  const AddressDecoder& decoder() const { return decoder_; }

  // Effective subarray size after artificial-group rounding (§6).
  uint32_t effective_rows_per_subarray() const { return effective_rows_per_subarray_; }
  bool using_artificial_groups() const { return using_artificial_groups_; }

  // DRAM reserved for EPT protection: guard pages + EPT row-group pages.
  uint64_t ept_reserved_bytes() const { return ept_reserved_bytes_; }
  // DRAM offlined for artificial-group boundary guards (§6).
  uint64_t artificial_guard_bytes() const { return artificial_guard_bytes_; }
  // DRAM offlined because of quarantined (inter-subarray-repaired) rows (§6).
  uint64_t quarantined_bytes() const { return quarantined_bytes_; }
  // Free pages remaining in the per-socket EPT pools.
  size_t ept_pool_free(uint32_t socket) const;
  // Physical extents holding EPT pages (for hammering experiments).
  const std::vector<PhysRange>& ept_pool_ranges(uint32_t socket) const;

  // Nodes not yet reserved by any VM cgroup, on the given socket.
  std::vector<uint32_t> AvailableGuestNodes(uint32_t socket) const;
  // The host-reserved node of a socket.
  Result<uint32_t> HostNode(uint32_t socket) const;

  // --- Conservation bookkeeping (tested by the fault-injection sweep) ---

  // Guest nodes currently reserved by some VM cgroup.
  size_t owned_node_count() const { return node_owner_.size(); }
  // Live entries in the per-VM backing / EPT-page maps. A failed CreateVm
  // must leave no phantom entry behind.
  size_t backing_map_entries() const { return vm_backing_.size(); }
  size_t ept_page_map_entries() const { return vm_ept_pages_.size(); }
  // EPT/IOMMU table pages drawn from MakeEptAllocator and not yet returned.
  uint64_t ept_pages_held() const { return ept_pages_held_; }

 private:
  struct Backing;    // defined below
  struct Placement;  // defined in hypervisor.cc

  // Physical extent of row group `row` in (socket, cluster): verifies the
  // decoder keeps row groups contiguous (kUnsupported otherwise).
  Result<PhysRange> RowGroupExtent(uint32_t socket, uint32_t cluster, uint32_t row) const;

  // Reserve the §5.4 EPT block in the first host group of each socket:
  // offline the b-1 guard row groups, seed the EPT pool from the EPT row
  // group.
  Status ReserveEptBlocks();
  Status OfflineArtificialBoundaryGuards();
  // §6 row-repair handling: offline every page with bytes in a quarantined
  // (inter-subarray-repaired) row.
  Status QuarantineRepairedRows();

  // The table-page source BuildTable draws from: the protected pool in
  // guard-row mode, else the socket's host node.
  EptPageAllocator MakeEptAllocator(uint32_t socket, std::vector<uint64_t>* pages_out);

  // --- The one placement path: CreateVm, MigrateVm and passthrough ---

  // Stages `vm_config`'s placement on `socket`: whole free guest nodes marked
  // owned by `owner` (Siloz) or one contiguous run of the socket's node
  // (baseline), the unmediated backing laid out RAM then ROM in guest-physical
  // order, and the mediated MMIO window after it. Every reservation registers
  // its undo on `txn`; nothing is published to a Vm or a cgroup.
  Result<Placement> StagePlacement(const VmConfig& vm_config, uint32_t socket,
                                   const std::string& owner, ReservationTransaction& txn);

  // Builds a translation table — a VM's EPT or a device's IOMMU table — from
  // `socket`'s table-page source (§5.4), mapping every unmediated region with
  // IOVA = GPA. Drawn pages land in `pages`, which must outlive both the
  // table and `txn`; `txn` gets the undo that returns them.
  Result<std::unique_ptr<ExtendedPageTable>> BuildTable(
      uint32_t socket, const std::vector<VmRegion>& regions, std::vector<uint64_t>& pages,
      ReservationTransaction& txn);

  // Re-walks `table` over `vm`'s unmediated regions and, in guard-row mode,
  // checks its pages lie in the protected row group. `kind` ("EPT" or
  // "IOMMU") prefixes the error.
  Status AuditTable(const char* kind, const ExtendedPageTable& table, const Vm& vm) const;

  // Returns table pages drawn from MakeEptAllocator(socket, ...), newest
  // first, to the protected pool in guard mode, else to the socket's host
  // node. Each page is popped as it goes, so a failure leaves `pages` holding
  // exactly the unreturned ones and a retry resumes there.
  Status ReturnTablePages(uint32_t socket, std::vector<uint64_t>& pages);

  // Free `backing` block by block, recording progress in place: each freed
  // block advances backing.phys and shrinks backing.bytes, so a failure
  // leaves `backing` describing exactly the still-allocated suffix.
  Status FreeBackingBlocks(Backing& backing);

  // Refresh the hv.ept.* scheduler-domain gauges after pool/held changes.
  void UpdateEptGauges();

  // Logical node owning a global subarray group id.
  Result<NumaNode*> NodeFor(uint32_t group);

  const AddressDecoder& decoder_;
  PhysMemory& memory_;
  SilozConfig config_;
  bool booted_ = false;

  // Lifetime event counts, flushed to the metrics registry at destruction.
  // Mutable because the const audits still detect and count integrity
  // violations.
  struct HvCounters {
    uint64_t alloc_pages = 0;      // successful AllocatePages blocks
    uint64_t alloc_denied = 0;     // kPermissionDenied by allocation policy
    uint64_t vms_created = 0;
    uint64_t vms_destroyed = 0;
    uint64_t vms_migrated = 0;
    uint64_t ept_pool_pages = 0;   // pages seeded into per-socket EPT pools
    uint64_t ept_guard_pages = 0;  // guard-row pages offlined around them
    uint64_t ept_violations = 0;   // kIntegrityViolation detections
  };

  mutable HvCounters obs_counts_;

  uint32_t effective_rows_per_subarray_ = 0;
  bool using_artificial_groups_ = false;
  std::unique_ptr<SubarrayGroupMap> group_map_;
  NodeRegistry nodes_;
  CgroupRegistry cgroups_;

  // node id -> owning VM cgroup name (empty when free).
  std::map<uint32_t, std::string> node_owner_;
  // Boot-time-only layout (stable after Boot()).
  std::vector<uint32_t> host_node_by_socket_;
  // global subarray group id -> node id (Siloz mode only).
  std::vector<uint32_t> node_of_group_;

  // Per-socket EPT page pools (guard-row mode).
  std::vector<std::vector<uint64_t>> ept_pool_;
  std::vector<std::vector<PhysRange>> ept_pool_ranges_;
  uint64_t ept_reserved_bytes_ = 0;
  uint64_t artificial_guard_bytes_ = 0;
  uint64_t quarantined_bytes_ = 0;

  struct PassthroughDevice {
    std::string name;
    VmId vm;
    std::unique_ptr<ExtendedPageTable> iommu;
    std::vector<uint64_t> table_pages;
  };
  std::map<uint32_t, PassthroughDevice> devices_;
  uint32_t next_device_id_ = 1;

  VmId next_vm_id_ = 1;
  std::map<VmId, std::unique_ptr<Vm>> vms_;
  std::set<VmId> destroyed_vms_;
  // Per-VM EPT pages (for release on destroy).
  std::map<VmId, std::vector<uint64_t>> vm_ept_pages_;
  // Table pages handed out by MakeEptAllocator and not yet returned.
  uint64_t ept_pages_held_ = 0;
  // Per-VM backing allocations.
  struct Backing {
    uint32_t node;
    uint64_t phys;
    uint64_t bytes;
    uint32_t order;  // block order the run was allocated in
  };
  std::map<VmId, std::vector<Backing>> vm_backing_;
};

}  // namespace siloz

#endif  // SILOZ_SRC_SILOZ_HYPERVISOR_H_
