#include "src/siloz/hypervisor.h"

#include <algorithm>

#include "src/base/bitops.h"
#include "src/base/check.h"
#include "src/base/fault_injector.h"
#include "src/base/transaction.h"
#include "src/base/units.h"
#include "src/dram/remap.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"

namespace siloz {
namespace {

uint32_t OrderOf(PageSize size) {
  switch (size) {
    case PageSize::k4K:
      return kOrder4K;
    case PageSize::k2M:
      return kOrder2M;
    case PageSize::k1G:
      return kOrder1G;
  }
  return kOrder4K;
}

}  // namespace

SilozHypervisor::SilozHypervisor(const AddressDecoder& decoder, PhysMemory& memory,
                                 SilozConfig config)
    : decoder_(decoder), memory_(memory), config_(config) {}

SilozHypervisor::~SilozHypervisor() {
  // Deterministic flush point: pure event totals, independent of thread
  // count or timing (see DESIGN.md on the metrics determinism contract).
  // Zero counts are skipped; zero-ness is deterministic, so the exported
  // key set still matches across thread counts.
  obs::Registry& registry = obs::Registry::Global();
  const auto flush = [&registry](const char* name, uint64_t value) {
    if (value > 0) {
      registry.GetCounter(name).Add(value);
    }
  };
  flush("hv.alloc.pages", obs_counts_.alloc_pages);
  flush("hv.alloc.denied", obs_counts_.alloc_denied);
  flush("hv.vm.created", obs_counts_.vms_created);
  flush("hv.vm.destroyed", obs_counts_.vms_destroyed);
  flush("hv.vm.migrated", obs_counts_.vms_migrated);
  flush("hv.ept.pool_pages", obs_counts_.ept_pool_pages);
  flush("hv.ept.guard_pages", obs_counts_.ept_guard_pages);
  flush("hv.ept.violations", obs_counts_.ept_violations);
}

Status SilozHypervisor::Boot() {
  obs::TraceSpan span("hv.Boot");
  if (booted_) {
    return MakeError(ErrorCode::kFailedPrecondition, "already booted");
  }
  const DramGeometry& geometry = decoder_.geometry();
  host_node_by_socket_.assign(geometry.sockets, 0);
  ept_pool_.assign(geometry.sockets, {});
  ept_pool_ranges_.assign(geometry.sockets, {});

  if (!config_.enabled) {
    // Unmodified baseline: one node per socket covering all of its memory.
    effective_rows_per_subarray_ = geometry.rows_per_subarray;
    for (uint32_t socket = 0; socket < geometry.sockets; ++socket) {
      const uint64_t begin = socket * geometry.socket_bytes();
      NumaNode& node = nodes_.AddNode(NodeKind::kHostReserved, socket, /*first_group=*/0,
                                      {PhysRange{begin, begin + geometry.socket_bytes()}},
                                      /*has_cpus=*/true);
      host_node_by_socket_[socket] = node.id();
    }
    std::set<uint32_t> host_nodes;
    for (uint32_t node : host_node_by_socket_) {
      host_nodes.insert(node);
    }
    Result<ControlGroup*> host_cgroup = cgroups_.Create("host", host_nodes, true);
    SILOZ_RETURN_IF_ERROR(host_cgroup);
    UpdateEptGauges();
    booted_ = true;
    return Status::Ok();
  }

  // §6: round non-power-of-2 subarray sizes up to artificial groups —
  // except on DDR5-style platforms whose devices all see the same internal
  // addresses (§8.2), where any size dividing the bank is managed natively.
  effective_rows_per_subarray_ = config_.rows_per_subarray;
  if (!IsPowerOfTwo(effective_rows_per_subarray_)) {
    const bool native_ok = config_.uniform_internal_addressing &&
                           geometry.rows_per_bank % effective_rows_per_subarray_ == 0;
    if (!native_ok) {
      if (!config_.allow_artificial_groups) {
        return MakeError(ErrorCode::kUnsupported,
                         "non-power-of-2 subarray size requires artificial groups");
      }
      effective_rows_per_subarray_ =
          static_cast<uint32_t>(NextPowerOfTwo(effective_rows_per_subarray_));
      using_artificial_groups_ = true;
    }
  }

  // Boot-time subarray group computation (§5.3).
  Result<SubarrayGroupMap> map = SubarrayGroupMap::Build(decoder_, effective_rows_per_subarray_);
  SILOZ_RETURN_IF_ERROR(map);
  group_map_ = std::make_unique<SubarrayGroupMap>(std::move(*map));

  const uint32_t clusters = group_map_->clusters_per_socket();
  const uint32_t groups_per_cluster = group_map_->groups_per_cluster();
  if (config_.host_groups_per_socket == 0 ||
      config_.host_groups_per_socket >= groups_per_cluster) {
    return MakeError(ErrorCode::kInvalidArgument, "host_groups_per_socket out of range");
  }

  // Provision one host-reserved node (first host_groups_per_socket groups of
  // each cluster) and one guest-reserved, memory-only node per remaining
  // group (§5.2).
  std::set<uint32_t> host_nodes;
  node_of_group_.assign(group_map_->total_groups(), 0);
  for (uint32_t socket = 0; socket < geometry.sockets; ++socket) {
    for (uint32_t cluster = 0; cluster < clusters; ++cluster) {
      const uint32_t first_group = (socket * clusters + cluster) * groups_per_cluster;
      std::vector<PhysRange> host_ranges;
      for (uint32_t g = 0; g < config_.host_groups_per_socket; ++g) {
        const auto& ranges = group_map_->RangesOf(first_group + g);
        host_ranges.insert(host_ranges.end(), ranges.begin(), ranges.end());
      }
      NumaNode& host = nodes_.AddNode(NodeKind::kHostReserved, socket, first_group,
                                      std::move(host_ranges), /*has_cpus=*/true);
      host_nodes.insert(host.id());
      for (uint32_t g = 0; g < config_.host_groups_per_socket; ++g) {
        node_of_group_[first_group + g] = host.id();
      }
      if (cluster == 0) {
        host_node_by_socket_[socket] = host.id();
      }
      for (uint32_t g = config_.host_groups_per_socket; g < groups_per_cluster; ++g) {
        NumaNode& guest = nodes_.AddNode(NodeKind::kGuestReserved, socket, first_group + g,
                                         group_map_->RangesOf(first_group + g),
                                         /*has_cpus=*/false);
        node_of_group_[first_group + g] = guest.id();
      }
    }
  }
  Result<ControlGroup*> host_cgroup = cgroups_.Create("host", host_nodes, true);
  SILOZ_RETURN_IF_ERROR(host_cgroup);

  if (!config_.quarantined_rows.empty()) {
    SILOZ_RETURN_IF_ERROR(QuarantineRepairedRows());
  }
  if (using_artificial_groups_) {
    SILOZ_RETURN_IF_ERROR(OfflineArtificialBoundaryGuards());
  }
  if (config_.ept_protection == EptProtection::kGuardRows) {
    SILOZ_RETURN_IF_ERROR(ReserveEptBlocks());
  }
  UpdateEptGauges();
  booted_ = true;
  return Status::Ok();
}

Status SilozHypervisor::QuarantineRepairedRows() {
  const DramGeometry& geometry = decoder_.geometry();
  std::set<uint64_t> pages;
  for (MediaAddress row : config_.quarantined_rows) {
    // Every 4 KiB page holding any cache line of the repaired row.
    for (uint32_t column = 0; column < geometry.row_bytes; column += kCacheLineBytes) {
      row.column = column;
      Result<uint64_t> phys = decoder_.MediaToPhys(row);
      SILOZ_RETURN_IF_ERROR(phys);
      pages.insert(AlignDown(*phys, kPage4K));
    }
  }
  for (uint64_t page : pages) {
    Result<uint32_t> group = group_map_->GroupOfPhys(page);
    SILOZ_RETURN_IF_ERROR(group);
    Result<NumaNode*> node = NodeFor(*group);
    SILOZ_RETURN_IF_ERROR(node);
    SILOZ_RETURN_IF_ERROR((*node)->allocator().OfflinePage(page));
    quarantined_bytes_ += kPage4K;
  }
  return Status::Ok();
}

Result<PhysRange> SilozHypervisor::RowGroupExtent(uint32_t socket, uint32_t cluster,
                                                  uint32_t row) const {
  const DramGeometry& geometry = decoder_.geometry();
  const uint32_t clusters = group_map_->clusters_per_socket();
  const uint64_t row_group_bytes =
      static_cast<uint64_t>(geometry.banks_per_socket() / clusters) * geometry.row_bytes;
  const uint32_t group = (socket * clusters + cluster) * group_map_->groups_per_cluster() +
                         row / effective_rows_per_subarray_;
  for (const PhysRange& range : group_map_->RangesOf(group)) {
    for (uint64_t start = range.begin; start + row_group_bytes <= range.end;
         start += row_group_bytes) {
      Result<MediaAddress> first = decoder_.PhysToMedia(start);
      SILOZ_RETURN_IF_ERROR(first);
      if (first->row != row) {
        continue;
      }
      // Verify the block really is one row group: its last line must map to
      // the same row (true for interleaving decoders; not for linear ones).
      Result<MediaAddress> last = decoder_.PhysToMedia(start + row_group_bytes - kCacheLineBytes);
      SILOZ_RETURN_IF_ERROR(last);
      Result<MediaAddress> mid = decoder_.PhysToMedia(start + row_group_bytes / 2);
      SILOZ_RETURN_IF_ERROR(mid);
      if (last->row != row || mid->row != row) {
        return MakeError(ErrorCode::kUnsupported,
                         "decoder does not keep row groups physically contiguous");
      }
      return PhysRange{start, start + row_group_bytes};
    }
  }
  return MakeError(ErrorCode::kNotFound, "row group not found in group extents");
}

Result<uint32_t> SilozHypervisor::NodeOfGroup(uint32_t group) const {
  if (group >= node_of_group_.size()) {
    return MakeError(ErrorCode::kOutOfRange, "no group " + std::to_string(group));
  }
  return node_of_group_[group];
}

Result<NumaNode*> SilozHypervisor::NodeFor(uint32_t group) {
  if (group >= node_of_group_.size()) {
    return MakeError(ErrorCode::kOutOfRange, "no group " + std::to_string(group));
  }
  return nodes_.Get(node_of_group_[group]);
}

Status SilozHypervisor::OfflineArtificialBoundaryGuards() {
  // §6: artificial subarray boundaries do not coincide with silicon
  // isolation, so n guard rows are reserved at each boundary. The guards
  // live at *internal* rows [boundary, boundary+n); their media images
  // differ per rank (mirroring) and half-row side (inversion), so every
  // transform image must be offlined — this is the paper's "accounting for
  // mappings on different ranks and sides" that yields ~1.56% (512 rows) to
  // ~0.39% (2048 rows) of DRAM.
  const uint32_t guard_rows = config_.artificial_boundary_guard_rows;
  for (uint32_t group = 0; group < group_map_->total_groups(); ++group) {
    const uint32_t socket = group_map_->SocketOfGroup(group);
    const uint32_t cluster = group_map_->ClusterOfGroup(group);
    const uint32_t start_row = group_map_->IndexInCluster(group) * effective_rows_per_subarray_;
    std::set<uint32_t> media_rows;
    for (uint32_t r = 0; r < guard_rows; ++r) {
      const uint32_t internal = start_row + r;
      for (uint32_t rank : {0u, 1u}) {
        for (HalfRowSide side : {HalfRowSide::kA, HalfRowSide::kB}) {
          // Mirroring and inversion are involutions: the media row whose
          // internal image is `internal` is the transform of `internal`.
          uint32_t media = RowRemapper::ApplyInversion(internal, side);
          media = RowRemapper::ApplyMirroring(media, rank);
          media_rows.insert(media);
        }
      }
    }
    for (uint32_t media_row : media_rows) {
      // A transform image may land in a neighbouring group's row range (e.g.
      // b9 inversion with 512-row groups); offline from the owning node.
      const uint32_t owning_group =
          (socket * group_map_->clusters_per_socket() + cluster) *
              group_map_->groups_per_cluster() +
          media_row / effective_rows_per_subarray_;
      Result<NumaNode*> node = NodeFor(owning_group);
      SILOZ_RETURN_IF_ERROR(node);
      Result<PhysRange> extent = RowGroupExtent(socket, cluster, media_row);
      SILOZ_RETURN_IF_ERROR(extent);
      SILOZ_RETURN_IF_ERROR(
          (*node)->allocator().TakeRange(*extent, BuddyAllocator::Take::kOffline));
      artificial_guard_bytes_ += extent->size();
    }
  }
  return Status::Ok();
}

Status SilozHypervisor::ReserveEptBlocks() {
  // §5.4: a contiguous block of b row groups in the first host group of each
  // socket; the row group at offset o holds EPT pages, the other b-1 are
  // guard rows (offlined).
  const uint32_t b = config_.ept_block_row_groups;
  const uint32_t o = config_.ept_row_group_offset;
  if (o >= b) {
    return MakeError(ErrorCode::kInvalidArgument, "ept_row_group_offset must be < block size");
  }
  const uint32_t skip = using_artificial_groups_ ? config_.artificial_boundary_guard_rows : 0;
  for (uint32_t socket = 0; socket < decoder_.geometry().sockets; ++socket) {
    Result<NumaNode*> host = nodes_.Get(host_node_by_socket_[socket]);
    SILOZ_RETURN_IF_ERROR(host);
    for (uint32_t r = 0; r < b; ++r) {
      Result<PhysRange> extent = RowGroupExtent(socket, /*cluster=*/0, skip + r);
      SILOZ_RETURN_IF_ERROR(extent);
      const uint64_t pages = extent->size() / kPage4K;
      if (r == o) {
        // EPT row group: pull its pages out of general allocation and seed
        // the per-socket EPT pool.
        SILOZ_RETURN_IF_ERROR(
            (*host)->allocator().TakeRange(*extent, BuddyAllocator::Take::kAllocate));
        for (uint64_t page = extent->begin; page < extent->end; page += kPage4K) {
          ept_pool_[socket].push_back(page);
        }
        obs_counts_.ept_pool_pages += pages;
        ept_pool_ranges_[socket].push_back(*extent);
      } else {
        SILOZ_RETURN_IF_ERROR(
            (*host)->allocator().TakeRange(*extent, BuddyAllocator::Take::kOffline));
        obs_counts_.ept_guard_pages += pages;
      }
      ept_reserved_bytes_ += extent->size();
    }
  }
  return Status::Ok();
}

Result<uint64_t> SilozHypervisor::AllocatePages(const ControlGroup& group, uint32_t node_id,
                                                uint32_t order, bool unmediated) {
  if (!booted_) {
    return MakeError(ErrorCode::kFailedPrecondition, "not booted");
  }
  Result<NumaNode*> node = nodes_.Get(node_id);
  SILOZ_RETURN_IF_ERROR(node);
  if ((*node)->kind() == NodeKind::kGuestReserved) {
    // §5.3: guest-reserved nodes serve only UNMEDIATED requests from
    // KVM-privileged processes whose cgroup includes the node.
    if (!unmediated) {
      ++obs_counts_.alloc_denied;
      return MakeError(ErrorCode::kPermissionDenied,
                       "mediated allocation from guest-reserved node " + std::to_string(node_id));
    }
    if (!group.MayAllocateFrom(node_id)) {
      ++obs_counts_.alloc_denied;
      return MakeError(ErrorCode::kPermissionDenied,
                       "cgroup '" + group.name() + "' lacks node " + std::to_string(node_id));
    }
    if (!group.kvm_privileged()) {
      ++obs_counts_.alloc_denied;
      return MakeError(ErrorCode::kPermissionDenied,
                       "cgroup '" + group.name() + "' lacks KVM privileges");
    }
  }
  Result<uint64_t> page = (*node)->allocator().Allocate(order);
  if (page.ok()) {
    ++obs_counts_.alloc_pages;
  }
  return page;
}

Status SilozHypervisor::FreePages(uint32_t node_id, uint64_t phys, uint32_t order) {
  Result<NumaNode*> node = nodes_.Get(node_id);
  SILOZ_RETURN_IF_ERROR(node);
  return (*node)->allocator().Free(phys, order);
}

std::vector<uint32_t> SilozHypervisor::AvailableGuestNodes(uint32_t socket) const {
  std::vector<uint32_t> available;
  for (const auto& node : const_cast<NodeRegistry&>(nodes_).NodesOnSocket(socket)) {
    if (node->kind() == NodeKind::kGuestReserved && node_owner_.count(node->id()) == 0) {
      available.push_back(node->id());
    }
  }
  return available;
}

Result<uint32_t> SilozHypervisor::HostNode(uint32_t socket) const {
  if (socket >= host_node_by_socket_.size()) {
    return MakeError(ErrorCode::kOutOfRange, "no socket " + std::to_string(socket));
  }
  return host_node_by_socket_[socket];
}

EptPageAllocator SilozHypervisor::MakeEptAllocator(uint32_t socket,
                                                   std::vector<uint64_t>* pages_out) {
  if (config_.enabled && config_.ept_protection == EptProtection::kGuardRows) {
    // The GFP_EPT path (§5.4): pages come from the protected row group.
    return [this, socket, pages_out]() -> Result<uint64_t> {
      if (ept_pool_[socket].empty()) {
        return MakeError(ErrorCode::kNoMemory, "EPT pool exhausted");
      }
      const uint64_t page = ept_pool_[socket].back();
      ept_pool_[socket].pop_back();
      pages_out->push_back(page);
      ++ept_pages_held_;
      UpdateEptGauges();
      return page;
    };
  }
  // Baseline / secure-EPT: ordinary host-node memory.
  const uint32_t host_node = host_node_by_socket_[socket];
  return [this, host_node, pages_out]() -> Result<uint64_t> {
    Result<NumaNode*> node = nodes_.Get(host_node);
    SILOZ_RETURN_IF_ERROR(node);
    Result<uint64_t> page = (*node)->allocator().Allocate(kOrder4K);
    SILOZ_RETURN_IF_ERROR(page);
    pages_out->push_back(*page);
    ++ept_pages_held_;
    UpdateEptGauges();
    return *page;
  };
}

Status SilozHypervisor::ReturnTablePages(uint32_t socket, std::vector<uint64_t>& pages) {
  const bool guard_rows = config_.enabled && config_.ept_protection == EptProtection::kGuardRows;
  while (!pages.empty()) {
    if (guard_rows) {
      ept_pool_[socket].push_back(pages.back());
    } else {
      SILOZ_RETURN_IF_ERROR(FreePages(host_node_by_socket_[socket], pages.back(), kOrder4K));
    }
    pages.pop_back();
    SILOZ_CHECK_GT(ept_pages_held_, 0u);
    --ept_pages_held_;
    UpdateEptGauges();
  }
  return Status::Ok();
}

Status SilozHypervisor::FreeBackingBlocks(Backing& backing) {
  Result<NumaNode*> node = nodes_.Get(backing.node);
  SILOZ_RETURN_IF_ERROR(node);
  const uint64_t block = OrderBytes(backing.order);
  while (backing.bytes > 0) {
    SILOZ_RETURN_IF_ERROR((*node)->allocator().Free(backing.phys, backing.order));
    backing.phys += block;
    backing.bytes -= block;
  }
  return Status::Ok();
}

void SilozHypervisor::UpdateEptGauges() {
  // Scheduler domain, not model: concurrent trials each run a hypervisor and
  // these last-writer-wins levels would differ across thread counts.
  int64_t pool_free = 0;
  for (const auto& pool : ept_pool_) {
    pool_free += static_cast<int64_t>(pool.size());
  }
  obs::Registry& registry = obs::Registry::Global();
  registry.GetGauge("hv.ept.pool_free", obs::Domain::kSched).Set(pool_free);
  registry.GetGauge("hv.ept.pages_in_use", obs::Domain::kSched)
      .Set(static_cast<int64_t>(ept_pages_held_));
}

// A placement staged by StagePlacement: reserved, but not yet any VM's.
struct SilozHypervisor::Placement {
  std::vector<Backing> backing;
  std::vector<VmRegion> regions;
  std::vector<std::pair<uint32_t, uint32_t>> nodes;  // node id, first group

  // Publishes the nodes and regions onto `vm` (whose placement is empty);
  // returns the node set for its cgroup's cpuset.mems.
  std::set<uint32_t> InstallOn(Vm& vm) const {
    std::set<uint32_t> mems;
    for (const auto& [node_id, first_group] : nodes) {
      vm.AddGuestNode(node_id, first_group);
      mems.insert(node_id);
    }
    for (const VmRegion& region : regions) {
      vm.AddRegion(region);
    }
    return mems;
  }
};

Result<SilozHypervisor::Placement> SilozHypervisor::StagePlacement(const VmConfig& vm_config,
                                                                   uint32_t socket,
                                                                   const std::string& owner,
                                                                   ReservationTransaction& txn) {
  const uint32_t order = OrderOf(vm_config.backing);
  const uint64_t backing_bytes = OrderBytes(order);
  const uint64_t unmediated_bytes = vm_config.memory_bytes + vm_config.rom_bytes;
  Placement placement;
  auto log_backing = [&](const Backing& run) {
    placement.backing.push_back(run);
    txn.OnRollback([this, run] {
      Backing remaining = run;
      SILOZ_CHECK(FreeBackingBlocks(remaining).ok())
          << "rollback failed to free backing at " << run.phys;
    });
  };
  uint64_t gpa_cursor = 0;
  // Adds unmediated regions for one contiguous host run, splitting at the
  // RAM/ROM boundary in guest-physical space.
  auto add_unmediated_regions = [&](uint64_t hpa, uint64_t bytes) {
    uint64_t remaining = bytes;
    while (remaining > 0) {
      const bool is_ram = gpa_cursor < vm_config.memory_bytes;
      const uint64_t limit = is_ram ? vm_config.memory_bytes - gpa_cursor : remaining;
      const uint64_t piece = std::min(remaining, limit);
      placement.regions.push_back(VmRegion{is_ram ? MemoryType::kGuestRam : MemoryType::kGuestRom,
                                           gpa_cursor, hpa, piece, vm_config.backing});
      gpa_cursor += piece;
      hpa += piece;
      remaining -= piece;
    }
  };

  if (config_.enabled) {
    // Whole subarray groups, same socket (§5.2-§5.3). Select enough free
    // guest nodes by their actual free capacity (guard offlining can shave a
    // few rows off a group).
    std::vector<uint32_t> selected;
    uint64_t capacity = 0;
    for (uint32_t node_id : AvailableGuestNodes(socket)) {
      if (capacity >= unmediated_bytes) {
        break;
      }
      NumaNode& node = *nodes_.Get(node_id).value();
      selected.push_back(node_id);
      capacity += AlignDown(node.allocator().free_bytes(), backing_bytes);
    }
    if (capacity < unmediated_bytes) {
      return MakeError(ErrorCode::kNoMemory,
                       "socket " + std::to_string(socket) + " has only " +
                           std::to_string(capacity) + " free guest-node bytes of " +
                           std::to_string(unmediated_bytes) + " needed");
    }
    uint64_t remaining = unmediated_bytes;
    for (uint32_t node_id : selected) {
      node_owner_[node_id] = owner;
      txn.OnRollback([this, node_id] { node_owner_.erase(node_id); });
      NumaNode& node = *nodes_.Get(node_id).value();
      placement.nodes.emplace_back(node_id, node.first_group());
      const uint64_t chunk =
          std::min(remaining, AlignDown(node.allocator().free_bytes(), backing_bytes));
      if (chunk == 0) {
        continue;
      }
      Result<std::vector<PhysRange>> runs = node.AllocateRuns(chunk, order);
      SILOZ_RETURN_IF_ERROR(runs);
      for (const PhysRange& run : *runs) {
        log_backing(Backing{node_id, run.begin, run.size(), order});
        add_unmediated_regions(run.begin, run.size());
      }
      remaining -= chunk;
    }
    SILOZ_CHECK_EQ(remaining, 0u);
  } else {
    // Baseline: contiguous run from the socket's single node.
    NumaNode& node = *nodes_.Get(host_node_by_socket_[socket]).value();
    Result<uint64_t> start = node.AllocateContiguous(unmediated_bytes, order);
    SILOZ_RETURN_IF_ERROR(start);
    log_backing(Backing{node.id(), *start, unmediated_bytes, order});
    add_unmediated_regions(*start, unmediated_bytes);
  }

  // --- Mediated MMIO window: host memory, never mapped in the EPT ---
  if (vm_config.mmio_bytes > 0) {
    NumaNode& host = *nodes_.Get(host_node_by_socket_[socket]).value();
    const uint64_t mmio_bytes = AlignUp(vm_config.mmio_bytes, kPage4K);
    Result<uint64_t> mmio = host.AllocateContiguous(mmio_bytes, kOrder4K);
    SILOZ_RETURN_IF_ERROR(mmio);
    log_backing(Backing{host.id(), *mmio, mmio_bytes, kOrder4K});
    placement.regions.push_back(
        VmRegion{MemoryType::kMmio, gpa_cursor, *mmio, mmio_bytes, PageSize::k4K});
  }
  return placement;
}

Result<std::unique_ptr<ExtendedPageTable>> SilozHypervisor::BuildTable(
    uint32_t socket, const std::vector<VmRegion>& regions, std::vector<uint64_t>& pages,
    ReservationTransaction& txn) {
  // Creation can fail mid-way (e.g. the per-socket protected pool is
  // exhausted: a real capacity limit — one row group per socket bounds the
  // EPT working set, §5.4), so the undo returns whatever was drawn.
  txn.OnRollback([this, socket, &pages] {
    SILOZ_CHECK(ReturnTablePages(socket, pages).ok()) << "rollback failed to return a table page";
  });
  Result<std::unique_ptr<ExtendedPageTable>> table = ExtendedPageTable::Create(
      memory_, MakeEptAllocator(socket, &pages),
      /*secure=*/config_.ept_protection == EptProtection::kSecureEpt);
  SILOZ_RETURN_IF_ERROR(table);
  for (const VmRegion& region : regions) {
    if (!IsUnmediated(region.type)) {
      continue;  // mediated accesses exit; no mapping
    }
    if (!memory_.AccessesActivateRows()) {
      SILOZ_RETURN_IF_ERROR(
          (*table)->MapRange(region.gpa, region.hpa, region.bytes, region.page_size));
      continue;
    }
    // DRAM-backed memory: every table access may activate a hammerable row,
    // so the number and order of accesses is model output. One walk per page.
    const uint64_t step = OrderBytes(OrderOf(region.page_size));
    for (uint64_t offset = 0; offset < region.bytes; offset += step) {
      SILOZ_RETURN_IF_ERROR(
          (*table)->Map(region.gpa + offset, region.hpa + offset, region.page_size));
    }
  }
  return table;
}

Status SilozHypervisor::AuditTable(const char* kind, const ExtendedPageTable& table,
                                   const Vm& vm) const {
  for (const VmRegion& region : vm.regions()) {
    if (!IsUnmediated(region.type)) {
      continue;
    }
    const uint64_t step = OrderBytes(OrderOf(region.page_size));
    for (uint64_t offset = 0; offset < region.bytes; offset += step) {
      Result<uint64_t> hpa = table.Translate(region.gpa + offset);
      SILOZ_RETURN_IF_ERROR(hpa);  // secure-table integrity failures surface here
      if (*hpa != region.hpa + offset) {
        ++obs_counts_.ept_violations;
        return MakeError(ErrorCode::kIntegrityViolation,
                         std::string(kind) + " maps GPA " + std::to_string(region.gpa + offset) +
                             " to HPA " + std::to_string(*hpa) + ", expected " +
                             std::to_string(region.hpa + offset) + " — subarray group escape");
      }
    }
  }
  // Guard-row mode: every table page must still live in the protected row
  // group.
  if (config_.enabled && config_.ept_protection == EptProtection::kGuardRows) {
    const auto& pool_ranges = ept_pool_ranges_[vm.config().socket];
    for (uint64_t page : table.table_pages()) {
      if (std::none_of(pool_ranges.begin(), pool_ranges.end(),
                       [page](const PhysRange& range) { return range.Contains(page); })) {
        ++obs_counts_.ept_violations;
        return MakeError(ErrorCode::kIntegrityViolation,
                         std::string(kind) + " table page outside the protected row group");
      }
    }
  }
  return Status::Ok();
}

Result<VmId> SilozHypervisor::CreateVm(const VmConfig& vm_config) {
  obs::TraceSpan span("hv.CreateVm");
  if (!booted_) {
    return MakeError(ErrorCode::kFailedPrecondition, "not booted");
  }
  const uint64_t backing_bytes = OrderBytes(OrderOf(vm_config.backing));
  if (vm_config.memory_bytes == 0 || vm_config.memory_bytes % backing_bytes != 0 ||
      vm_config.rom_bytes % backing_bytes != 0) {
    return MakeError(ErrorCode::kInvalidArgument,
                     "VM memory/rom must be nonzero multiples of the backing page size");
  }
  if (vm_config.socket >= decoder_.geometry().sockets) {
    return MakeError(ErrorCode::kOutOfRange, "no such socket");
  }

  const VmId id = next_vm_id_++;
  const std::string cgroup_name = config_.enabled ? ("vm-" + vm_config.name) : "host";
  auto vm = std::make_unique<Vm>(id, vm_config, cgroup_name);

  // Every reservation below registers its undo the moment it succeeds; any
  // early return rolls the whole set back (newest first) via the
  // transaction's destructor, and only Commit() at the end makes it stick.
  ReservationTransaction txn;
  Result<Placement> placement = StagePlacement(vm_config, vm_config.socket, cgroup_name, txn);
  SILOZ_RETURN_IF_ERROR(placement);
  const std::set<uint32_t> mems = placement->InstallOn(*vm);
  if (config_.enabled) {
    Result<ControlGroup*> cgroup = cgroups_.Create(cgroup_name, mems, /*kvm_privileged=*/true);
    SILOZ_RETURN_IF_ERROR(cgroup);
    txn.OnRollback([this, cgroup_name] {
      SILOZ_CHECK(cgroups_.Destroy(cgroup_name).ok())
          << "rollback failed to destroy cgroup " << cgroup_name;
    });
  }

  // --- Build the EPT (§5.4) ---
  // The map entry is itself a logged reservation: its undo, registered
  // before BuildTable's page-return undo, runs after it and erases the
  // emptied entry, so no phantom entry survives a failed create. The entry
  // (not a local) also gives the allocator a stable vector to fill.
  // siloz-lint: allow(map-bracket-probe): the default-insert IS the logged
  // reservation — the rollback registered next erases it, so no phantom
  // entry survives a failed create.
  std::vector<uint64_t>& ept_pages = vm_ept_pages_[id];
  txn.OnRollback([this, id] { vm_ept_pages_.erase(id); });
  Result<std::unique_ptr<ExtendedPageTable>> ept =
      BuildTable(vm_config.socket, vm->regions(), ept_pages, txn);
  SILOZ_RETURN_IF_ERROR(ept);
  vm->SetEpt(std::move(*ept));

  // --- Commit: everything reserved; publish and disarm the rollback ---
  txn.Commit();
  vm_backing_[id] = std::move(placement->backing);
  vms_[id] = std::move(vm);
  ++obs_counts_.vms_created;
  return id;
}

Result<Vm*> SilozHypervisor::GetVm(VmId id) {
  auto it = vms_.find(id);
  if (it == vms_.end()) {
    return MakeError(ErrorCode::kNotFound, "no VM " + std::to_string(id));
  }
  return it->second.get();
}

Status SilozHypervisor::DestroyVm(VmId id) {
  auto it = vms_.find(id);
  if (it == vms_.end()) {
    return MakeError(ErrorCode::kNotFound, "no VM " + std::to_string(id));
  }
  Vm& vm = *it->second;
  if (destroyed_vms_.count(id) != 0) {
    return Status::Ok();  // idempotent: already torn down
  }
  // Devices first: their IOMMU tables map this backing, and a device left
  // behind would reach whatever tenant is placed there next. Each removal
  // returns its table pages resumably, so a retry picks up where a failure
  // stopped.
  for (auto device = devices_.begin(); device != devices_.end();) {
    const uint32_t device_id = device->first;
    const bool attached = device->second.vm == id;
    ++device;  // RemovePassthroughDevice erases device_id's entry
    if (attached) {
      SILOZ_RETURN_IF_ERROR(RemovePassthroughDevice(device_id));
    }
  }
  // Free backing memory to its nodes (§5.3: pages return to the nodes' free
  // pools; the node reservation itself survives until ReleaseVmNodes).
  // Progress is recorded as it happens — FreeBackingBlocks shrinks the entry
  // in place and fully-freed entries are popped — so a mid-teardown failure
  // leaves the log describing exactly what is still allocated, and a retry
  // resumes there instead of double-freeing.
  auto backing_it = vm_backing_.find(id);
  if (backing_it != vm_backing_.end()) {
    std::vector<Backing>& log = backing_it->second;
    while (!log.empty()) {
      SILOZ_RETURN_IF_ERROR(FreeBackingBlocks(log.back()));
      log.pop_back();
    }
    vm_backing_.erase(backing_it);
  }
  // EPT pages: back to the pool (guard mode) or the host node, with the same
  // resumability.
  auto pages_it = vm_ept_pages_.find(id);
  if (pages_it != vm_ept_pages_.end()) {
    SILOZ_RETURN_IF_ERROR(ReturnTablePages(vm.config().socket, pages_it->second));
    vm_ept_pages_.erase(pages_it);
  }
  destroyed_vms_.insert(id);
  ++obs_counts_.vms_destroyed;
  return Status::Ok();
}

Status SilozHypervisor::ReleaseVmNodes(VmId id) {
  if (destroyed_vms_.count(id) == 0) {
    return MakeError(ErrorCode::kFailedPrecondition,
                     "VM " + std::to_string(id) + " must be destroyed first");
  }
  auto it = vms_.find(id);
  SILOZ_CHECK(it != vms_.end());
  const std::string cgroup_name = it->second->cgroup_name();
  for (uint32_t node : it->second->guest_nodes()) {
    node_owner_.erase(node);
  }
  if (cgroup_name != "host") {
    SILOZ_RETURN_IF_ERROR(cgroups_.Destroy(cgroup_name));
  }
  vms_.erase(it);
  destroyed_vms_.erase(id);
  return Status::Ok();
}

Status SilozHypervisor::MigrateVm(VmId id, uint32_t target_socket) {
  obs::TraceSpan span("hv.MigrateVm");
  if (!booted_) {
    return MakeError(ErrorCode::kFailedPrecondition, "not booted");
  }
  if (!config_.enabled) {
    return MakeError(ErrorCode::kUnsupported,
                     "baseline kernel has no subarray-group placement to migrate");
  }
  auto it = vms_.find(id);
  if (it == vms_.end() || destroyed_vms_.count(id) != 0) {
    return MakeError(ErrorCode::kNotFound, "no live VM " + std::to_string(id));
  }
  Vm& vm = *it->second;
  const VmConfig& vm_config = vm.config();
  if (target_socket >= decoder_.geometry().sockets) {
    return MakeError(ErrorCode::kOutOfRange, "no such socket");
  }
  if (target_socket == vm_config.socket) {
    return MakeError(ErrorCode::kInvalidArgument,
                     "VM " + std::to_string(id) + " is already on socket " +
                         std::to_string(target_socket));
  }
  for (const auto& [device_id, device] : devices_) {
    if (device.vm == id) {
      return MakeError(ErrorCode::kFailedPrecondition,
                       "VM has passthrough device " + std::to_string(device_id) +
                           "; its IOMMU pins the source placement");
    }
  }
  SILOZ_FAULT_POINT("alloc.hv.migrate");

  // Stage the target placement through CreateVm's own path, but keep it off
  // the VM: the VM keeps its source placement until every target reservation
  // has succeeded, and any failure below unwinds the target half and leaves
  // the VM untouched. Declared before txn: the EPT undo below captures it by
  // reference, and an uncommitted txn unwinds in its destructor — which runs
  // before the destructor of anything declared after it.
  std::vector<uint64_t> old_ept_pages;
  ReservationTransaction txn;
  Result<Placement> target = StagePlacement(vm_config, target_socket, vm.cgroup_name(), txn);
  SILOZ_RETURN_IF_ERROR(target);

  // --- New EPT from the *target* socket's protected pool ---
  // The EPT object keeps its page allocator for life, so the vector the
  // allocator fills must outlive this function: stash the source pages in a
  // local and reuse the VM's stable map node for the target pages — the same
  // lifetime contract CreateVm relies on. This undo runs after
  // BuildTable's has returned the target pages, and restores the source set.
  auto pages_it = vm_ept_pages_.find(id);
  SILOZ_CHECK(pages_it != vm_ept_pages_.end());
  std::vector<uint64_t>& ept_pages = pages_it->second;
  old_ept_pages = std::move(ept_pages);
  ept_pages.clear();
  txn.OnRollback([&ept_pages, &old_ept_pages] { ept_pages = std::move(old_ept_pages); });
  Result<std::unique_ptr<ExtendedPageTable>> new_ept =
      BuildTable(target_socket, target->regions, ept_pages, txn);
  SILOZ_RETURN_IF_ERROR(new_ept);

  // --- Copy the guest image, matched by guest-physical address ---
  // Both region lists are GPA-ascending over the same span by construction
  // (StagePlacement lays out the same config), so a single forward walk pairs
  // them. Infallible, and writes only into the still-uncommitted target
  // backing, so it runs last before the commit point.
  {
    const std::vector<VmRegion>& new_regions = target->regions;
    size_t ni = 0;
    for (const VmRegion& old_region : vm.regions()) {
      uint64_t gpa = old_region.gpa;
      const uint64_t end = old_region.gpa + old_region.bytes;
      while (gpa < end) {
        while (ni < new_regions.size() &&
               new_regions[ni].gpa + new_regions[ni].bytes <= gpa) {
          ++ni;
        }
        SILOZ_CHECK_LT(ni, new_regions.size());
        const VmRegion& region = new_regions[ni];
        SILOZ_CHECK_LE(region.gpa, gpa);
        const uint64_t chunk = std::min(end, region.gpa + region.bytes) - gpa;
        memory_.CopyPhys(region.hpa + (gpa - region.gpa),
                         old_region.hpa + (gpa - old_region.gpa), chunk);
        gpa += chunk;
      }
    }
  }

  // --- Commit: target fully reserved and populated; flip the placement ---
  txn.Commit();
  const uint32_t source_socket = vm_config.socket;
  // Source-side frees cannot fail short of bookkeeping corruption, so they
  // are invariant-CHECKed like rollback frees (the conservation sweeps arm
  // "alloc." points only; there is no partial-commit state to resume from).
  auto backing_it = vm_backing_.find(id);
  SILOZ_CHECK(backing_it != vm_backing_.end());
  for (Backing& run : backing_it->second) {
    SILOZ_CHECK(FreeBackingBlocks(run).ok()) << "migration failed to free source backing";
  }
  backing_it->second = std::move(target->backing);
  SILOZ_CHECK(ReturnTablePages(source_socket, old_ept_pages).ok())
      << "migration failed to return source EPT pages";
  for (uint32_t node : vm.guest_nodes()) {
    node_owner_.erase(node);
  }
  vm.ResetPlacement(target_socket);
  const std::set<uint32_t> mems = target->InstallOn(vm);
  vm.SetEpt(std::move(*new_ept));
  Result<ControlGroup*> cgroup = cgroups_.Get(vm.cgroup_name());
  SILOZ_CHECK(cgroup.ok()) << "VM cgroup vanished mid-migration";
  (*cgroup)->SetMemsAllowed(mems);
  ++obs_counts_.vms_migrated;

  // The committed placement must still prove isolation on the target groups
  // before the caller trusts it.
  SILOZ_RETURN_IF_ERROR(AuditVmIsolation(id));
  return Status::Ok();
}

Status SilozHypervisor::AuditVmIsolation(VmId id) const {
  auto it = vms_.find(id);
  if (it == vms_.end()) {
    return MakeError(ErrorCode::kNotFound, "no VM " + std::to_string(id));
  }
  const Vm& vm = *it->second;
  SILOZ_CHECK(vm.ept() != nullptr);
  return AuditTable("EPT", *vm.ept(), vm);
}

Result<uint32_t> SilozHypervisor::AssignPassthroughDevice(VmId vm_id, const std::string& name) {
  Result<Vm*> vm = GetVm(vm_id);
  SILOZ_RETURN_IF_ERROR(vm);
  if (destroyed_vms_.count(vm_id) != 0) {
    return MakeError(ErrorCode::kFailedPrecondition, "VM is destroyed");
  }
  const uint32_t id = next_device_id_++;
  PassthroughDevice device;
  device.name = name;
  device.vm = vm_id;
  // IOMMU table pages come from the same protected path as EPT pages
  // (requirement (2) of §5.1), and IOVA space mirrors the guest-physical
  // layout of unmediated regions (requirement (1): the device can only reach
  // the guest's groups). A failed build returns every page already drawn.
  ReservationTransaction txn;
  Result<std::unique_ptr<ExtendedPageTable>> iommu =
      BuildTable((*vm)->config().socket, (*vm)->regions(), device.table_pages, txn);
  SILOZ_RETURN_IF_ERROR(iommu);
  device.iommu = std::move(*iommu);
  txn.Commit();
  devices_.emplace(id, std::move(device));
  return id;
}

Result<uint64_t> SilozHypervisor::DeviceDma(uint32_t device_id, uint64_t iova) {
  auto it = devices_.find(device_id);
  if (it == devices_.end()) {
    return MakeError(ErrorCode::kNotFound, "no device " + std::to_string(device_id));
  }
  const PassthroughDevice& device = it->second;
  Result<uint64_t> hpa = device.iommu->Translate(iova);
  if (!hpa.ok()) {
    // Unmapped IOVA: the IOMMU blocks the DMA (no such window).
    if (hpa.error().code == ErrorCode::kNotFound) {
      return MakeError(ErrorCode::kPermissionDenied,
                       "DMA to unmapped IOVA " + std::to_string(iova) + " blocked");
    }
    return hpa.error();  // secure-mode integrity violations surface as-is
  }
  // Defense in depth: the translated address must stay inside the owning
  // VM's provisioned ranges, else the table was corrupted.
  Result<Vm*> vm = GetVm(device.vm);
  SILOZ_RETURN_IF_ERROR(vm);
  for (const PhysRange& range : (*vm)->AllowedHpaRanges()) {
    if (range.Contains(*hpa)) {
      return *hpa;
    }
  }
  ++obs_counts_.ept_violations;
  return MakeError(ErrorCode::kIntegrityViolation,
                   "IOMMU resolved IOVA " + std::to_string(iova) +
                       " outside the VM's subarray groups");
}

Status SilozHypervisor::AuditDeviceIsolation(uint32_t device_id) const {
  auto it = devices_.find(device_id);
  if (it == devices_.end()) {
    return MakeError(ErrorCode::kNotFound, "no device " + std::to_string(device_id));
  }
  auto vm_it = vms_.find(it->second.vm);
  SILOZ_CHECK(vm_it != vms_.end());
  return AuditTable("IOMMU", *it->second.iommu, *vm_it->second);
}

Status SilozHypervisor::RemovePassthroughDevice(uint32_t device_id) {
  auto it = devices_.find(device_id);
  if (it == devices_.end()) {
    return MakeError(ErrorCode::kNotFound, "no device " + std::to_string(device_id));
  }
  const uint32_t socket = vms_.at(it->second.vm)->config().socket;
  SILOZ_RETURN_IF_ERROR(ReturnTablePages(socket, it->second.table_pages));
  devices_.erase(it);
  return Status::Ok();
}

Result<std::vector<uint64_t>> SilozHypervisor::DeviceTablePages(uint32_t device_id) const {
  auto it = devices_.find(device_id);
  if (it == devices_.end()) {
    return MakeError(ErrorCode::kNotFound, "no device " + std::to_string(device_id));
  }
  return it->second.table_pages;
}

Status SilozHypervisor::HostShutdown() {
  // Privileged teardown: kill every VM and release every reservation,
  // ignoring active subarray-group constraints (§5.3). DestroyVm detaches
  // each VM's devices.
  std::vector<VmId> ids;
  for (const auto& [id, vm] : vms_) {
    ids.push_back(id);
  }
  for (VmId id : ids) {
    if (destroyed_vms_.count(id) == 0) {
      SILOZ_RETURN_IF_ERROR(DestroyVm(id));
    }
    SILOZ_RETURN_IF_ERROR(ReleaseVmNodes(id));
  }
  return Status::Ok();
}

size_t SilozHypervisor::ept_pool_free(uint32_t socket) const {
  SILOZ_CHECK_LT(socket, ept_pool_.size());
  return ept_pool_[socket].size();
}

const std::vector<PhysRange>& SilozHypervisor::ept_pool_ranges(uint32_t socket) const {
  SILOZ_CHECK_LT(socket, ept_pool_ranges_.size());
  return ept_pool_ranges_[socket];
}

}  // namespace siloz
