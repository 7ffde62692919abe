// Experiment runner for the performance figures (Figs 4-7).
//
// Runs one workload in a VM under a given hypervisor configuration
// (baseline Linux/KVM or a Siloz variant), over several trials with
// distinct trace seeds, and reports elapsed-time and bandwidth statistics
// with 95% confidence intervals — the quantities the paper's figures plot.
//
// Trials are independent by construction. A run's one parallel level is its
// (point, trial) tasks on one fork-join ParallelFor (src/base/thread_pool.h);
// RunWorkload is the one-point grid. In timing mode trials share only the
// immutable booted platform (decoder, VM placement) and own private
// controllers; in fault mode each trial gets a whole Machine (disturbance
// devices accumulate per-trial state). Every trial draws a private Rng
// forked from the run seed by trial index, and per-trial statistics are
// merged in trial order. Results are therefore bit-identical for every
// thread count, threads = 1 included — the determinism contract of
// DESIGN.md §8.
#ifndef SILOZ_SRC_SIM_EXPERIMENT_H_
#define SILOZ_SRC_SIM_EXPERIMENT_H_

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "src/base/result.h"
#include "src/base/stats.h"
#include "src/sim/machine.h"
#include "src/sim/report.h"
#include "src/siloz/hypervisor.h"
#include "src/workload/workloads.h"

namespace siloz {

struct RunnerConfig {
  SilozConfig hypervisor;                      // baseline vs Siloz-512/1024/2048
  DecoderKind decoder = DecoderKind::kSkylake;
  // Named platform from the PlatformDecoder registry; empty = the legacy
  // `decoder`/`geometry` pair. Set via ApplyPlatform (below), which also
  // seeds geometry, DDR-generation semantics, and the default DIMM profile.
  std::string platform;
  DramGeometry geometry;
  DdrTimings timings;
  uint32_t trials = 5;
  uint64_t seed = 42;
  // Worker threads for the trial loop: 0 = hardware concurrency, 1 = inline
  // on the caller. Any value yields identical results.
  uint32_t threads = 0;
  // Channel sharding of the engine (DESIGN.md §13): each block of N >= 1
  // channels is an independent command-queue shard and — in fault mode — its
  // own device replay shard. Part of the *model* configuration: reported
  // times depend on this knob, but never on `threads` (the decomposition is
  // fixed by the geometry, not by the worker count). 0 is kInvalidArgument.
  uint32_t channels_per_shard = 1;
  // Sub-channel decomposition of each shard into per-bank-group command
  // queues (DESIGN.md §15): each block of N >= 1 bank groups owns an
  // independent command queue and window under the shard's issue cursor.
  // Like channels_per_shard this is *model* configuration: completion times
  // depend on it, invariant censuses and thread counts never do. 0 is
  // kInvalidArgument.
  uint32_t bank_groups_per_queue = 1;
  // Run-to-run system jitter applied multiplicatively to elapsed time
  // (scheduler/interrupt noise a real host exhibits); deterministic in seed.
  double os_noise_frac = 0.0015;
  // Route every activation through the DramDevice disturbance model and
  // collect the flipped physical addresses per trial (slower; Table 3-style
  // runs). Off for the timing-fidelity figures.
  bool fault_tracking = false;
  // Fault-model personality per DIMM when fault_tracking is set.
  std::vector<DimmProfile> dimm_profiles = {DimmProfile{}};
  // The measurement VM. The paper uses 160 GiB / 40 vCPUs; the model's
  // results depend on placement, not size, so benches default smaller to
  // keep trace generation fast and note the substitution.
  VmConfig vm{.name = "bench", .memory_bytes = 6ull << 30, .socket = 0};
};

struct RunMeasurement {
  RunningStat elapsed_ns;       // per-trial elapsed time
  RunningStat bandwidth_gibs;   // per-trial achieved bandwidth
  double row_hit_rate = 0.0;    // of the final trial
  // Fault mode only: flipped physical addresses, sorted within each trial
  // and concatenated in trial order.
  std::vector<uint64_t> flip_phys;
  // Requests served per shard, summed across trials, in shard-plan order
  // (socket-major, then channel block).
  std::vector<uint64_t> shard_requests;
  // Scheduler/timing metrics of the run's one-point grid ("grid" phase).
  PoolPhaseMetrics pool;
};

// Selects a platform from the PlatformDecoder registry (src/addr/platform.h)
// into `config`: sets config.platform, seeds config.geometry from the
// platform default, mirrors the subarray size into the hypervisor config,
// applies DDR-generation semantics (uniform internal addressing), and
// rewrites the DIMM profiles' remap/TRR to the platform's (disturbance
// personalities and names are kept — customize profiles AFTER this call).
// `rows_per_subarray` 0 selects the platform default; any other value must
// be one the platform's parts ship with (PlatformInfo::subarray_sizes).
// Unknown platforms and unsupported subarray sizes are kInvalidArgument.
// Every platform keeps the determinism contract: reports and model metrics
// are bit-identical for any --threads value.
Status ApplyPlatform(RunnerConfig& config, std::string_view platform,
                     uint32_t rows_per_subarray = 0);

// The machine a run of `config` boots: its geometry, decoder or platform,
// timings, fault tracking and DIMM profiles. The one derivation shared by
// the timing-mode boot, the fault-mode trials and RunColocated.
MachineConfig MachineConfigFor(const RunnerConfig& config);

// Runs `spec` for config.trials independent traces: the one-point
// RunWorkloadGrid below on config.threads workers, with its "grid" phase
// metrics in RunMeasurement::pool. In timing mode the machine + hypervisor
// boot once and trials share only their immutable state (decoder, VM
// regions), each serving its trace through trial-private controllers; fault
// mode boots per trial because the disturbance devices accumulate per-trial
// state. A zero channels_per_shard or bank_groups_per_queue is
// kInvalidArgument.
Result<RunMeasurement> RunWorkload(const RunnerConfig& config, const WorkloadSpec& spec);

// Replays a request trace's activation stream into a fault-tracking
// machine's disturbance model: a per-bank open-row tracker mirrors the
// controller's open-page policy, so each row *miss* becomes one device ACT
// (row hits reuse the buffer and disturb nothing). ACT timestamps derive
// from the request's global trace index (machine clock + index * act_cost),
// so a channel shard can compute its own timestamps without global
// coordination. The trace is partitioned like the serve engine's
// (PartitionByShard; channels_per_shard >= 1, 0 CHECK-fails in ShardPlan)
// and the shards replay on `threads` workers (as in RunnerConfig::threads)
// over channel-disjoint devices, flip-identical to a trace-order replay by
// construction. Each shard filters its index slice in place down to its
// ACTs, then issues them while prefetching the device state of the ACT a
// fixed lookahead ahead (DramDevice::Prefetch, a hint with no model
// effect). Deterministic in the trace alone; the machine clock itself is
// not advanced.
void ReplayDisturbance(Machine& machine, std::span<const MemRequest> trace,
                       uint32_t channels_per_shard = 1, uint32_t threads = 1);

// One point of a sweep grid: a full runner configuration plus a workload.
struct GridPoint {
  RunnerConfig config;
  WorkloadSpec workload;
};

// Runs every (point, trial) pair as one ParallelFor index — grid cells and
// their trials share a single flat schedule instead of nesting a
// serial trial loop inside each grid task — and returns the measurements in
// point order, merged per point in trial order: bit-identical for every
// thread count, and identical to running each point through RunWorkload.
// `threads` as in RunnerConfig::threads. On failure returns the error of
// the lowest-indexed failing point (lowest failing trial within it).
// `metrics`, when non-null, receives the "grid" phase metrics — the only
// scheduler telemetry of a grid run; the per-point RunMeasurement::pool is
// left empty because no per-point pool exists anymore.
Result<std::vector<RunMeasurement>> RunWorkloadGrid(const std::vector<GridPoint>& points,
                                                    uint32_t threads = 0,
                                                    PoolPhaseMetrics* metrics = nullptr);

}  // namespace siloz

#endif  // SILOZ_SRC_SIM_EXPERIMENT_H_
