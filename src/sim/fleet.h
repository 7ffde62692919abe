// Fleet-churn simulator (§7 operational costs).
//
// Quantifies what Siloz's whole-subarray-group placement costs an operator
// under production churn: thousands of VMs arriving and departing, each
// reserving whole logical nodes, with the stranded capacity, per-socket
// exhaustion events, and allocation tails that follow — plus how much of the
// stranded capacity a migration-based defragmentation policy claws back.
//
// The driver has three deterministic stages:
//
//  1. Trace synthesis. A fixed number of independent streams (never a
//     function of the worker count) each synthesize a Poisson arrival
//     process whose rate is modulated by a compressed diurnal cycle
//     (thinning against the peak rate), with Zipfian-skewed VM sizes and
//     bounded-Pareto lifetimes. Every stream draws from an Rng forked from
//     the run seed by stream index, and the merged trace is sorted by
//     (arrival time, stream, sequence) — bit-identical for any --threads N.
//
//  2. Epoch replay. Simulated time is cut into epochs. Within an epoch each
//     socket replays its own arrivals/departures in timestamp order, one
//     socket after another in id order. A socket's admission decisions
//     depend only on that socket's state (its guest nodes, its EPT pool, its
//     host node — all disjoint by construction), so the socket order never
//     changes an outcome. The replay is serial on purpose: every socket
//     shares one hypervisor, and a hypervisor is driven by one thread at a
//     time (see SilozHypervisor). VM ids follow the replay order and never
//     appear in deterministic output; trace names are the keys.
//
//  3. Epoch boundaries. After every socket reaches the epoch's horizon, the
//     cross-socket work runs: the defragmentation policy (MigrateVm donors
//     from exhausted sockets to the emptiest peers, then retry the blocked
//     admissions) and the stranded-capacity census.
//
// After the last arrival the replay drains naturally (every admitted VM
// departs at the end of its lifetime), and the final state is diffed
// against the post-boot conservation snapshot: a leak-free run reports
// drained_clean = true.
//
// Model-domain outputs (FleetReport, the fleet.* counters) are bit-identical
// for every --threads value. Wall-clock allocation/teardown/migration tails
// go to sched-domain histograms and are excluded from that contract.
#ifndef SILOZ_SRC_SIM_FLEET_H_
#define SILOZ_SRC_SIM_FLEET_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "src/base/result.h"
#include "src/dram/geometry.h"
#include "src/siloz/config.h"

namespace siloz {

// What to do with an arrival its home socket cannot place (§7).
enum class AdmissionPolicy : uint8_t {
  kReject,  // fail fast: count the rejection and drop the arrival
  kQueue,   // FIFO-wait for departures on the socket, up to a timeout
  kDefrag,  // queue, and migrate donors away at epoch boundaries to make room
};

const char* AdmissionPolicyName(AdmissionPolicy policy);
Result<AdmissionPolicy> ParseAdmissionPolicy(std::string_view name);

// A fleet-scale platform: 8 sockets x 1 TiB of 8 KiB rows, 512-row subarray
// groups of 2 GiB each — 510 guest nodes per socket once the host keeps two
// groups. Sparse backing means the 8 TiB is never materialized; what bounds
// concurrency is the §5.4 EPT pool (one protected row group per socket).
DramGeometry FleetGeometry();

struct FleetConfig {
  SilozConfig hypervisor;  // rows_per_subarray is forced to the geometry's
  DramGeometry geometry = FleetGeometry();
  AdmissionPolicy policy = AdmissionPolicy::kDefrag;
  uint64_t seed = 42;
  // Trace-synthesis workers (0 = hardware concurrency);
  // the replay itself is serial. Model outputs are identical for every value.
  uint32_t threads = 0;

  // --- Trace shape (simulated time) ---
  uint32_t streams = 16;        // synthesis streams; fixed, NOT thread-derived
  double duration_s = 120.0;    // arrival window
  double arrivals_per_s = 20.0; // base Poisson rate, summed over streams
  double burst_amplitude = 0.6; // diurnal modulation depth, in [0, 1)
  double burst_period_s = 240.0;   // compressed diurnal cycle
  double size_theta = 1.5;         // Zipfian skew over size_classes_bytes
  std::vector<uint64_t> size_classes_bytes = {
      1ull << 30, 2ull << 30, 4ull << 30, 8ull << 30, 16ull << 30};
  double lifetime_alpha = 1.5;     // bounded-Pareto tail index
  double min_lifetime_s = 20.0;
  double max_lifetime_s = 600.0;

  // --- Replay shape ---
  double epoch_s = 15.0;           // defrag + census cadence
  double queue_timeout_s = 60.0;   // kQueue/kDefrag: abandon after this wait
  uint32_t max_migrations_per_epoch = 64;
};

struct FleetSocketStats {
  uint64_t admitted = 0;
  uint64_t queued_admits = 0;      // admitted after waiting in the queue
  uint64_t rejected = 0;           // kReject policy: failed on arrival
  uint64_t abandoned = 0;          // queue wait exceeded the timeout
  // Failed CreateVm attempts with kNoMemory (nodes or EPT pool), retries
  // included — the paper's node-exhaustion events, per socket.
  uint64_t exhaustion_events = 0;
  bool operator==(const FleetSocketStats&) const = default;
};

struct FleetReport {
  // --- Model domain: bit-identical for every --threads value ---
  uint64_t trace_vms = 0;          // arrivals synthesized
  uint64_t admitted = 0;
  uint64_t queued_admits = 0;
  uint64_t rejected = 0;
  uint64_t abandoned = 0;
  uint64_t exhaustion_events = 0;
  uint64_t migrations = 0;         // successful MigrateVm calls (defrag)
  uint64_t failed_migrations = 0;
  // Whole-node capacity freed on exhausted sockets by those migrations.
  uint64_t recovered_bytes = 0;
  // Exact maximum of simultaneously-admitted VMs (post-hoc interval sweep).
  uint64_t peak_concurrency = 0;
  // Reserved-but-unallocated bytes inside VM-owned nodes, censused at epoch
  // boundaries — the §7 stranded-memory cost.
  uint64_t peak_stranded_bytes = 0;
  std::vector<FleetSocketStats> sockets;
  // Post-drain conservation: true iff the hypervisor state matched the
  // post-boot snapshot exactly once every VM had departed.
  bool drained_clean = false;
  std::string drain_diff;          // empty when clean

  // Deterministic renderings of the model fields above.
  std::string ModelText() const;
  std::string ModelJson() const;

  // Sched domain: wall-clock alloc/teardown/migration tail latencies
  // (p50/p99/p999 from the fleet.*_ns histograms in the global registry).
  // Host-dependent; never part of the determinism contract.
  static std::string LatencyText();
};

// Boots a fleet-scale hypervisor, synthesizes the trace, replays the churn,
// drains, and reports. Also folds the report's totals into the global
// metrics registry as fleet.* model-domain counters/gauges (single-threaded,
// after the replay) and observes per-call wall latencies into sched-domain
// fleet.alloc_ns / fleet.teardown_ns / fleet.migrate_ns histograms.
Result<FleetReport> RunFleetChurn(const FleetConfig& config);

}  // namespace siloz

#endif  // SILOZ_SRC_SIM_FLEET_H_
