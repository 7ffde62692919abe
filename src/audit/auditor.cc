#include "src/audit/auditor.h"

#include <algorithm>
#include <chrono>
#include <set>
#include <sstream>
#include <utility>
#include <vector>

#include "src/base/check.h"
#include "src/base/rng.h"
#include "src/base/thread_pool.h"
#include "src/base/units.h"
#include "src/ept/phys_memory.h"
#include "src/hostmem/buddy.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"

namespace siloz::audit {
namespace {

std::string Hex(uint64_t value) {
  std::ostringstream out;
  out << "0x" << std::hex << value;
  return out.str();
}

}  // namespace

Auditor::Auditor(const SilozHypervisor& hypervisor, const AddressDecoder& truth,
                 const RemapConfig& remap, Options options)
    : hypervisor_(hypervisor),
      truth_(truth),
      remapper_(truth.geometry(), remap),
      options_(options),
      effective_rows_(hypervisor.effective_rows_per_subarray()),
      silicon_rows_(options.silicon_rows_per_subarray != 0 ? options.silicon_rows_per_subarray
                                                           : hypervisor.effective_rows_per_subarray()) {
  SILOZ_CHECK(hypervisor_.booted()) << "the audit inspects a boot-time plan; call Boot() first";
  SILOZ_CHECK_GT(options_.blast_radius, 0u);
  SILOZ_CHECK_GT(options_.probe_stride, 0u);
  nodes_by_id_ = hypervisor_.nodes().AllNodes();
}

Auditor::Auditor(const SilozHypervisor& hypervisor, const RemapConfig& remap, Options options)
    : Auditor(hypervisor, hypervisor.decoder(), remap, options) {}

Report Auditor::Run() const {
  obs::TraceSpan span("audit.Run");
  Report report;
  CheckDecoderInvertibility(report);
  // The remaining invariants are statements about the Siloz provisioning
  // plan; a baseline-mode hypervisor has no subarray-group plan to audit.
  if (hypervisor_.config().enabled) {
    CheckDomainClosure(report);
    CheckGuardFencing(report);
    CheckBlastRadius(report);
  }
  // Probe census per invariant. Probe counts depend only on geometry and
  // options, never on scheduling, so these counters join the determinism
  // contract alongside the report bytes.
  obs::Registry& registry = obs::Registry::Global();
  for (Invariant invariant :
       {Invariant::kDecoderInvertibility, Invariant::kDomainClosure, Invariant::kGuardFencing,
        Invariant::kBlastRadius}) {
    const InvariantStats& stats = report.StatsFor(invariant);
    if (!stats.ran) {
      continue;
    }
    const std::string name = InvariantName(invariant);
    registry.GetCounter("audit.probes." + name).Add(stats.probes);
    if (stats.violations > 0) {
      registry.GetCounter("audit.violations." + name).Add(stats.violations);
    }
  }
  return report;
}

Result<uint32_t> Auditor::GroupOfRow(uint32_t socket, uint32_t cluster, uint32_t row) const {
  return hypervisor_.group_map().GroupAt(socket, cluster, row / effective_rows_);
}

Result<Auditor::RowStatus> Auditor::StatusOfRow(uint32_t socket, uint32_t cluster, uint32_t rank,
                                                uint32_t row) const {
  const DramGeometry& geom = truth_.geometry();
  Result<uint32_t> group = GroupOfRow(socket, cluster, row);
  SILOZ_RETURN_IF_ERROR(group);
  Result<uint32_t> node_id = hypervisor_.NodeOfGroup(*group);
  SILOZ_RETURN_IF_ERROR(node_id);
  SILOZ_CHECK_LT(*node_id, nodes_by_id_.size());
  const NumaNode* node = nodes_by_id_[*node_id];

  // Representative page of the row: bank 0 of the rank, first column, first
  // channel of the cluster. Guard offlining and EPT seeding operate on whole
  // row groups, so one page's status stands for the row's.
  MediaAddress media;
  media.socket = socket;
  media.channel = cluster * (geom.channels_per_socket / truth_.clusters_per_socket());
  media.rank = rank;
  media.row = row;
  Result<uint64_t> phys = truth_.MediaToPhys(media);
  SILOZ_RETURN_IF_ERROR(phys);

  RowStatus status;
  status.node = *node_id;
  status.kind = node->kind();
  status.offlined = node->allocator().IsOfflined(*phys);
  status.phys = *phys;
  for (const PhysRange& range : hypervisor_.ept_pool_ranges(socket)) {
    if (range.Contains(*phys)) {
      status.ept_pool = true;
      break;
    }
  }
  return status;
}

void Auditor::AddFinding(Report& report, Invariant invariant, uint64_t phys, uint32_t internal_row,
                         std::string detail) const {
  Finding finding;
  finding.invariant = invariant;
  finding.severity = Severity::kCritical;
  finding.phys = phys;
  finding.internal_row = internal_row;
  finding.detail = std::move(detail);
  Result<MediaAddress> media = truth_.PhysToMedia(phys);
  if (media.ok()) {
    finding.media = *media;
    Result<uint32_t> group =
        GroupOfRow(media->socket, truth_.ClusterOf(*media), media->row);
    if (group.ok()) {
      finding.group = *group;
    }
  }
  report.Add(std::move(finding), options_.max_findings_per_invariant);
}

// --- Invariant 1: phys <-> media is a bijection -----------------------------

void Auditor::CheckDecoderInvertibility(Report& report) const {
  InvariantStats& stats = report.StatsFor(Invariant::kDecoderInvertibility);
  stats.ran = true;
  const DramGeometry& geom = truth_.geometry();
  const uint64_t total = geom.total_bytes();
  Rng rng(options_.seed);

  auto probe_phys = [&](uint64_t phys) {
    ++stats.probes;
    Result<MediaAddress> media = truth_.PhysToMedia(phys);
    if (!media.ok()) {
      AddFinding(report, Invariant::kDecoderInvertibility, phys, 0,
                 "physical address does not decode: " + media.error().ToString());
      return;
    }
    if (Status valid = ValidateAddress(geom, *media); !valid.ok()) {
      AddFinding(report, Invariant::kDecoderInvertibility, phys, 0,
                 "decoded media address out of geometry bounds: " + valid.error().ToString());
      return;
    }
    Result<uint64_t> back = truth_.MediaToPhys(*media);
    if (!back.ok()) {
      AddFinding(report, Invariant::kDecoderInvertibility, phys, 0,
                 "media address does not map back: " + back.error().ToString());
    } else if (*back != phys) {
      AddFinding(report, Invariant::kDecoderInvertibility, phys, 0,
                 "round trip returns " + Hex(*back) + " instead of " + Hex(phys) +
                     ": decoder is not its own inverse");
    }
  };

  // Stratified physical sweep: fixed stride plus seeded random fill, so every
  // interleave period is sampled without 10^8 exhaustive probes (available
  // via options.exhaustive).
  const uint64_t stride = options_.exhaustive ? kPage4K : options_.probe_stride;
  for (uint64_t phys = 0; phys < total; phys += stride) {
    probe_phys(phys);
  }
  probe_phys(total - kCacheLineBytes);
  for (uint64_t i = 0; i < options_.random_probes; ++i) {
    probe_phys(rng.NextBelow(total));
  }

  // Media-space sweep: the inverse direction, over every (socket, channel,
  // dimm, rank, bank) combination at subarray-boundary and random rows.
  std::set<uint32_t> rows = {0, effective_rows_ - 1, geom.rows_per_bank - 1};
  if (effective_rows_ < geom.rows_per_bank) {
    rows.insert(effective_rows_);
  }
  for (int i = 0; i < 4; ++i) {
    rows.insert(static_cast<uint32_t>(rng.NextBelow(geom.rows_per_bank)));
  }
  const uint32_t last_column = static_cast<uint32_t>(geom.row_bytes - kCacheLineBytes);
  auto probe_media = [&](const MediaAddress& media) {
    ++stats.probes;
    Result<uint64_t> phys = truth_.MediaToPhys(media);
    if (!phys.ok()) {
      AddFinding(report, Invariant::kDecoderInvertibility, 0, 0,
                 "media address " + media.ToString() +
                     " has no physical image: " + phys.error().ToString());
      return;
    }
    if (*phys >= total) {
      AddFinding(report, Invariant::kDecoderInvertibility, *phys, 0,
                 "media address " + media.ToString() + " maps outside the physical space");
      return;
    }
    Result<MediaAddress> back = truth_.PhysToMedia(*phys);
    if (!back.ok() || !(*back == media)) {
      AddFinding(report, Invariant::kDecoderInvertibility, *phys, 0,
                 "media round trip through " + Hex(*phys) + " does not return " +
                     media.ToString());
    }
  };
  MediaAddress media;
  for (media.socket = 0; media.socket < geom.sockets; ++media.socket) {
    for (media.channel = 0; media.channel < geom.channels_per_socket; ++media.channel) {
      for (media.dimm = 0; media.dimm < geom.dimms_per_channel; ++media.dimm) {
        for (media.rank = 0; media.rank < geom.ranks_per_dimm; ++media.rank) {
          for (media.bank = 0; media.bank < geom.banks_per_rank; ++media.bank) {
            for (uint32_t row : rows) {
              media.row = row;
              media.column = 0;
              probe_media(media);
              media.column = last_column;
              probe_media(media);
            }
          }
        }
      }
    }
  }
}

// --- Invariant 2: every node's pages stay inside its groups -----------------

void Auditor::CheckDomainClosure(Report& report) const {
  InvariantStats& stats = report.StatsFor(Invariant::kDomainClosure);
  stats.ran = true;
  const DramGeometry& geom = truth_.geometry();
  Rng rng(options_.seed ^ 0x5107u);

  auto probe = [&](const NumaNode* node, uint64_t phys) {
    ++stats.probes;
    Result<MediaAddress> media = truth_.PhysToMedia(phys);
    if (!media.ok()) {
      AddFinding(report, Invariant::kDomainClosure, phys, 0,
                 "page of node " + std::to_string(node->id()) +
                     " does not decode: " + media.error().ToString());
      return;
    }
    if (media->socket != node->physical_socket()) {
      AddFinding(report, Invariant::kDomainClosure, phys, 0,
                 "page of node " + std::to_string(node->id()) + " decodes to socket " +
                     std::to_string(media->socket) + ", node is pinned to socket " +
                     std::to_string(node->physical_socket()));
      return;
    }
    Result<uint32_t> group = GroupOfRow(media->socket, truth_.ClusterOf(*media), media->row);
    if (!group.ok()) {
      AddFinding(report, Invariant::kDomainClosure, phys, 0,
                 "page has no subarray group: " + group.error().ToString());
      return;
    }
    Result<uint32_t> owner = hypervisor_.NodeOfGroup(*group);
    if (!owner.ok() || *owner != node->id()) {
      AddFinding(report, Invariant::kDomainClosure, phys, 0,
                 "page provisioned to node " + std::to_string(node->id()) +
                     " decodes into subarray group " + std::to_string(*group) + " owned by " +
                     (owner.ok() ? "node " + std::to_string(*owner) : "nobody") +
                     ": the node spans a group boundary");
    }
  };

  const uint64_t stride = options_.exhaustive ? kPage4K : options_.probe_stride;
  for (const NumaNode* node : nodes_by_id_) {
    for (const PhysRange& range : node->ranges()) {
      for (uint64_t phys = range.begin; phys < range.end; phys += stride) {
        probe(node, phys);
      }
      probe(node, range.end - kCacheLineBytes);
      for (int i = 0; i < 16; ++i) {
        probe(node, range.begin + rng.NextBelow(range.size()));
      }
    }
  }

  // Post-remap closure (§6): the DIMM transform chain must permute media
  // subarray blocks onto whole internal blocks, for every rank and half-row
  // side, or a media-level group physically straddles two internal
  // subarrays. Exhaustive over row space — it is only 2^17 rows per bank.
  const uint32_t banks = remapper_.config().repairs.empty() ? 1 : geom.banks_per_rank;
  for (uint32_t rank = 0; rank < geom.ranks_per_dimm; ++rank) {
    for (HalfRowSide side : {HalfRowSide::kA, HalfRowSide::kB}) {
      for (uint32_t bank = 0; bank < banks; ++bank) {
        for (uint32_t base = 0; base < geom.rows_per_bank; base += effective_rows_) {
          const uint32_t block = remapper_.ToInternal(base, rank, bank, side) / effective_rows_;
          for (uint32_t row = base; row < std::min(base + effective_rows_, geom.rows_per_bank);
               ++row) {
            ++stats.probes;
            const uint32_t internal = remapper_.ToInternal(row, rank, bank, side);
            if (internal / effective_rows_ != block) {
              MediaAddress media;
              media.rank = rank;
              media.bank = bank;
              media.row = row;
              Result<uint64_t> phys = truth_.MediaToPhys(media);
              AddFinding(report, Invariant::kDomainClosure, phys.ok() ? *phys : 0, internal,
                         "remap chain (rank " + std::to_string(rank) + ", side " +
                             HalfRowSideName(side) + ") scatters media block " +
                             std::to_string(base / effective_rows_) + " across internal blocks " +
                             std::to_string(block) + " and " +
                             std::to_string(internal / effective_rows_));
            }
          }
        }
      }
    }
  }
}

// --- Invariant 3: EPT rows fenced by >= blast-radius guard rows -------------

void Auditor::CheckGuardFencing(Report& report) const {
  if (hypervisor_.config().ept_protection != EptProtection::kGuardRows) {
    return;  // nothing to fence; stats stay "skipped"
  }
  InvariantStats& stats = report.StatsFor(Invariant::kGuardFencing);
  stats.ran = true;
  const DramGeometry& geom = truth_.geometry();
  const uint32_t banks = remapper_.config().repairs.empty() ? 1 : geom.banks_per_rank;

  for (uint32_t socket = 0; socket < geom.sockets; ++socket) {
    // Decode the EPT pool back to media rows; the plan puts each socket's
    // pool in one row group, but the audit re-derives that from the bytes.
    std::set<std::pair<uint32_t, uint32_t>> ept_rows;  // (cluster, media row)
    for (const PhysRange& range : hypervisor_.ept_pool_ranges(socket)) {
      for (uint64_t phys = range.begin; phys < range.end; phys += kPage4K) {
        Result<MediaAddress> media = truth_.PhysToMedia(phys);
        if (!media.ok()) {
          AddFinding(report, Invariant::kGuardFencing, phys, 0,
                     "EPT pool page does not decode: " + media.error().ToString());
          continue;
        }
        ept_rows.insert({truth_.ClusterOf(*media), media->row});
      }
    }

    for (const auto& [cluster, ept_row] : ept_rows) {
      for (uint32_t rank = 0; rank < geom.ranks_per_dimm; ++rank) {
        for (HalfRowSide side : {HalfRowSide::kA, HalfRowSide::kB}) {
          for (uint32_t bank = 0; bank < banks; ++bank) {
            const uint32_t internal = remapper_.ToInternal(ept_row, rank, bank, side);
            // Disturbance cannot leave the silicon subarray, whatever size
            // Siloz presumed at boot.
            const uint32_t lo = (internal / silicon_rows_) * silicon_rows_;
            const uint32_t hi = std::min(lo + silicon_rows_, geom.rows_per_bank);
            const uint32_t jlo =
                internal > lo + options_.blast_radius ? internal - options_.blast_radius : lo;
            const uint32_t jhi = std::min(hi - 1, internal + options_.blast_radius);
            for (uint32_t j = jlo; j <= jhi; ++j) {
              if (j == internal) {
                continue;
              }
              ++stats.probes;
              const uint32_t neighbour = remapper_.ToMedia(j, rank, bank, side);
              Result<RowStatus> status = StatusOfRow(socket, cluster, rank, neighbour);
              if (!status.ok()) {
                AddFinding(report, Invariant::kGuardFencing, 0, j,
                           "cannot resolve neighbour row " + std::to_string(neighbour) +
                               " of EPT row: " + status.error().ToString());
                continue;
              }
              if (!status->offlined && !status->ept_pool) {
                AddFinding(report, Invariant::kGuardFencing, status->phys, j,
                           "allocatable media row " + std::to_string(neighbour) + " (node " +
                               std::to_string(status->node) + ") is " +
                               std::to_string(j > internal ? j - internal : internal - j) +
                               " internal row(s) from EPT row " + std::to_string(ept_row) +
                               " (rank " + std::to_string(rank) + ", side " +
                               HalfRowSideName(side) + "): guard band thinner than the blast radius");
              }
            }
          }
        }
      }
    }
  }
}

// --- Invariant 4: disturbance never crosses a domain boundary ---------------

void Auditor::CheckBlastRadius(Report& report) const {
  report.StatsFor(Invariant::kBlastRadius).ran = true;
  const DramGeometry& geom = truth_.geometry();
  const uint32_t clusters = truth_.clusters_per_socket();

  // Shard the row space by presumed subarray group, in the serial scan's
  // enumeration order (socket, cluster, row block). Every shard accumulates
  // into a private report; merging them in shard order reproduces the
  // serial findings byte-for-byte (see Report::Merge), so the scan is free
  // to run the shards on any number of threads.
  std::vector<ScanShard> shards;
  for (uint32_t socket = 0; socket < geom.sockets; ++socket) {
    for (uint32_t cluster = 0; cluster < clusters; ++cluster) {
      for (uint32_t base = 0; base < geom.rows_per_bank; base += effective_rows_) {
        shards.push_back(ScanShard{socket, cluster, base,
                                   std::min(base + effective_rows_, geom.rows_per_bank)});
      }
    }
  }

  std::vector<Report> locals(shards.size());
  const auto wall_start = std::chrono::steady_clock::now();
  {
    obs::TraceSpan scan_span("audit.BlastRadiusScan");
    report.scan_pool = ParallelFor(options_.threads, shards.size(), [&](uint64_t i) {
      ScanBlastRadiusShard(shards[i], locals[i]);
    });
  }
  report.scan_wall_ms = std::chrono::duration<double, std::milli>(
                            std::chrono::steady_clock::now() - wall_start)
                            .count();
  // Shard sizes are fixed by geometry, so observing them in shard order on
  // the coordinating thread keeps the histogram thread-count-invariant.
  obs::Histogram& per_shard =
      obs::Registry::Global().GetHistogram("audit.blast_radius.probes_per_shard");
  for (const Report& local : locals) {
    per_shard.Observe(local.StatsFor(Invariant::kBlastRadius).probes);
    report.Merge(local, options_.max_findings_per_invariant);
  }
}

void Auditor::ScanBlastRadiusShard(const ScanShard& shard, Report& report) const {
  InvariantStats& stats = report.StatsFor(Invariant::kBlastRadius);
  const DramGeometry& geom = truth_.geometry();
  const uint32_t banks = remapper_.config().repairs.empty() ? 1 : geom.banks_per_rank;

  const uint32_t socket = shard.socket;
  const uint32_t cluster = shard.cluster;
  for (uint32_t row = shard.row_begin; row < shard.row_end; ++row) {
    Result<uint32_t> group = GroupOfRow(socket, cluster, row);
    Result<uint32_t> owner =
        group.ok() ? hypervisor_.NodeOfGroup(*group)
                   : Result<uint32_t>(group.error());
    if (!owner.ok()) {
      continue;  // closure pass reports unresolvable rows
    }
    for (uint32_t rank = 0; rank < geom.ranks_per_dimm; ++rank) {
      for (HalfRowSide side : {HalfRowSide::kA, HalfRowSide::kB}) {
        for (uint32_t bank = 0; bank < banks; ++bank) {
          const uint32_t internal = remapper_.ToInternal(row, rank, bank, side);
          const uint32_t lo = (internal / silicon_rows_) * silicon_rows_;
          const uint32_t hi = std::min(lo + silicon_rows_, geom.rows_per_bank);
          const uint32_t jlo =
              internal > lo + options_.blast_radius ? internal - options_.blast_radius : lo;
          const uint32_t jhi = std::min(hi - 1, internal + options_.blast_radius);
          for (uint32_t j = jlo; j <= jhi; ++j) {
            if (j == internal) {
              continue;
            }
            ++stats.probes;
            const uint32_t neighbour = remapper_.ToMedia(j, rank, bank, side);
            // Same presumed block -> same group -> same node: the common
            // case, because the remap chain permutes block-to-block.
            if (neighbour / effective_rows_ == row / effective_rows_) {
              continue;
            }
            Result<uint32_t> group2 = GroupOfRow(socket, cluster, neighbour);
            Result<uint32_t> owner2 =
                group2.ok() ? hypervisor_.NodeOfGroup(*group2)
                            : Result<uint32_t>(group2.error());
            if (owner2.ok() && *owner2 == *owner) {
              continue;  // e.g. two host groups of the same host node
            }
            Result<RowStatus> status = StatusOfRow(socket, cluster, rank, row);
            Result<RowStatus> status2 = StatusOfRow(socket, cluster, rank, neighbour);
            if (!status.ok() || !status2.ok()) {
              AddFinding(report, Invariant::kBlastRadius, 0, j,
                         "cannot resolve cross-domain neighbours " + std::to_string(row) +
                             "/" + std::to_string(neighbour));
              continue;
            }
            if (status->offlined || status2->offlined) {
              continue;  // a guard row fences the boundary
            }
            const std::string relation =
                "media rows " + std::to_string(row) + " (node " + std::to_string(*owner) +
                ") and " + std::to_string(neighbour) + " (node " +
                (owner2.ok() ? std::to_string(*owner2) : "?") +
                ") are internal neighbours at distance " +
                std::to_string(j > internal ? j - internal : internal - j) + " (rank " +
                std::to_string(rank) + ", side " + HalfRowSideName(side) + ")";
            if (status->ept_pool || status2->ept_pool) {
              AddFinding(report, Invariant::kBlastRadius, status2->phys, j,
                         relation + ": EPT rows reachable from a foreign domain");
            } else {
              AddFinding(report, Invariant::kBlastRadius, status2->phys, j,
                         relation + ": disturbance crosses the domain boundary");
            }
          }
        }
      }
    }
  }
}

// --- Optional live pass: a VM's EPT bytes vs its provisioning ---------------

void Auditor::CheckVmContainment(const Vm& vm, Report& report) const {
  const ExtendedPageTable* ept = vm.ept();
  if (ept == nullptr) {
    return;
  }
  InvariantStats& closure = report.StatsFor(Invariant::kDomainClosure);
  closure.ran = true;

  Status walk = ept->VisitLeafMappings([&](const ExtendedPageTable::LeafMapping& leaf) {
    ++closure.probes;
    const uint64_t bytes = PageSizeBytes(leaf.size);
    bool contained = false;
    for (const VmRegion& region : vm.regions()) {
      if (leaf.hpa >= region.hpa && leaf.hpa + bytes <= region.hpa + region.bytes) {
        contained = true;
        break;
      }
    }
    if (!contained) {
      AddFinding(report, Invariant::kDomainClosure, leaf.hpa, 0,
                 "EPT leaf for GPA " + Hex(leaf.gpa) + " of VM " + std::to_string(vm.id()) +
                     " maps outside the VM's provisioned regions");
    }
  });
  if (!walk.ok()) {
    AddFinding(report, Invariant::kGuardFencing, ept->root_hpa(), 0,
               "EPT walk of VM " + std::to_string(vm.id()) +
                   " failed integrity verification: " + walk.error().ToString());
  }

  if (hypervisor_.config().ept_protection == EptProtection::kGuardRows) {
    InvariantStats& fencing = report.StatsFor(Invariant::kGuardFencing);
    fencing.ran = true;
    const std::vector<PhysRange>& pool = hypervisor_.ept_pool_ranges(vm.config().socket);
    for (uint64_t page : ept->table_pages()) {
      ++fencing.probes;
      bool contained = false;
      for (const PhysRange& range : pool) {
        if (range.Contains(page)) {
          contained = true;
          break;
        }
      }
      if (!contained) {
        AddFinding(report, Invariant::kGuardFencing, page, 0,
                   "EPT table page of VM " + std::to_string(vm.id()) +
                       " lies outside the guard-protected pool");
      }
    }
  }
}

// --- Convenience entry points -----------------------------------------------

Result<Report> AuditProvisioningPlan(const AddressDecoder& boot_decoder,
                                     const AddressDecoder& truth_decoder,
                                     const SilozConfig& config, const RemapConfig& remap,
                                     const Options& options) {
  if (!config.enabled) {
    return MakeError(ErrorCode::kInvalidArgument,
                     "the static audit inspects a Siloz provisioning plan; enable Siloz mode");
  }
  FlatPhysMemory memory;
  SilozHypervisor hypervisor(boot_decoder, memory, config);
  SILOZ_RETURN_IF_ERROR(hypervisor.Boot());
  return Auditor(hypervisor, truth_decoder, remap, options).Run();
}

Result<Report> AuditPlatform(const AddressDecoder& decoder, const SilozConfig& config,
                             const RemapConfig& remap, const Options& options) {
  return AuditProvisioningPlan(decoder, decoder, config, remap, options);
}

}  // namespace siloz::audit
