#include "src/sim/experiment.h"

#include <algorithm>
#include <memory>
#include <optional>
#include <utility>

#include "src/base/rng.h"
#include "src/base/thread_pool.h"
#include "src/memctl/sharded_engine.h"
#include "src/obs/trace.h"

namespace siloz {
namespace {

// Everything one trial produces; merged into RunMeasurement in trial order.
struct TrialOutcome {
  double elapsed_ns = 0.0;
  double bandwidth_gibs = 0.0;
  double row_hit_rate = 0.0;
  std::vector<uint64_t> flip_phys;       // sorted
  std::vector<uint64_t> shard_requests;  // shard-plan order
};

// Workload identity + hypervisor variant tag mixed into the jitter stream so
// baseline and Siloz runs of one workload draw different (deterministic)
// noise, exactly like back-to-back runs on a real host.
uint64_t VariantTag(const RunnerConfig& config, const WorkloadSpec& spec) {
  uint64_t tag = 0xCBF29CE484222325ull;
  for (char c : spec.name) {
    tag = (tag ^ static_cast<uint8_t>(c)) * 0x100000001B3ull;
  }
  tag ^= (static_cast<uint64_t>(config.hypervisor.enabled) << 40) ^
         (static_cast<uint64_t>(config.hypervisor.rows_per_subarray) << 8) ^
         static_cast<uint64_t>(config.hypervisor.ept_protection);
  return tag;
}

// Serves one trial's trace through the shard engine (DESIGN.md §13/§15).
// `controllers` is the per-socket absorb-target set — trial-private in
// timing mode, the machine's own in fault mode. When `materialized` is
// non-null the trace is generated up front and returned through it (fault
// mode consumes it a second time in ReplayDisturbance); otherwise
// generation streams straight into the per-shard servers.
Result<ShardedEngineResult> ServeTrial(const RunnerConfig& config, const WorkloadSpec& spec,
                                       const AddressDecoder& decoder, const Vm& vm,
                                       uint64_t trace_seed,
                                       std::span<MemoryController* const> controllers,
                                       std::vector<MemRequest>* materialized) {
  ShardedEngineConfig sharded;
  sharded.engine.max_outstanding = spec.mlp;
  sharded.engine.compute_ns_per_access = spec.compute_ns_per_access;
  sharded.channels_per_shard = config.channels_per_shard;
  sharded.bank_groups_per_queue = config.bank_groups_per_queue;
  // The grid's (point, trial) tasks are the run's one parallel level; nested
  // shard workers would only oversubscribe. Thread counts never change
  // results.
  sharded.threads = 1;
  if (materialized != nullptr) {
    *materialized = GenerateTrace(spec, decoder, vm.regions(), config.vm.socket, trace_seed);
    return RunShardedClosedLoop(*materialized, controllers, sharded);
  }
  // The streamer emits pre-resolved commands straight into the per-shard
  // closed loops: no MemRequest materialization at all.
  TraceStreamer stream(spec, decoder, vm.regions(), config.vm.socket, trace_seed);
  return RunShardedFused(
      stream.size(), [&stream](auto&& feed) { stream.ForEachDecoded(feed); }, controllers,
      sharded);
}

TrialOutcome FinishTrial(const RunnerConfig& config, const ShardedEngineResult& served,
                         const MemoryController& vm_controller, Rng& noise_rng) {
  TrialOutcome outcome;
  const double jitter = 1.0 + config.os_noise_frac * noise_rng.NextGaussian();
  outcome.elapsed_ns = served.elapsed_ns * jitter;
  outcome.bandwidth_gibs = static_cast<double>(served.requests) * 64.0 /
                           outcome.elapsed_ns * (1e9 / (1024.0 * 1024.0 * 1024.0));
  outcome.row_hit_rate = vm_controller.stats().row_hit_rate();
  outcome.shard_requests.reserve(served.shards.size());
  for (const ShardTelemetry& shard : served.shards) {
    outcome.shard_requests.push_back(shard.requests);
  }
  return outcome;
}

// Timing-mode trial: the booted platform (decoder, VM regions) is shared and
// immutable; all mutable timing state — the per-socket controllers the serve
// loop updates — is private to the trial, so trials stay independent with
// the boot hoisted out of the loop.
Result<TrialOutcome> RunTimingTrial(const RunnerConfig& config, const WorkloadSpec& spec,
                                    uint32_t trial, Rng noise_rng,
                                    const AddressDecoder& decoder, const Vm& vm) {
  std::vector<std::unique_ptr<MemoryController>> owned;
  std::vector<MemoryController*> controllers;
  owned.reserve(config.geometry.sockets);
  controllers.reserve(config.geometry.sockets);
  for (uint32_t socket = 0; socket < config.geometry.sockets; ++socket) {
    owned.push_back(
        std::make_unique<MemoryController>(config.geometry, socket, config.timings));
    controllers.push_back(owned.back().get());
  }
  const uint64_t trace_seed = config.seed + trial * 7919;
  Result<ShardedEngineResult> served =
      ServeTrial(config, spec, decoder, vm, trace_seed, controllers, nullptr);
  SILOZ_RETURN_IF_ERROR(served);
  return FinishTrial(config, *served, *controllers[config.vm.socket], noise_rng);
}

// Fault-mode trial: boots a whole private Machine because the disturbance
// devices (and the flips they record) are per-trial state. The trace is
// materialized once and consumed twice: timing serve, then device replay.
Result<TrialOutcome> RunFaultTrial(const RunnerConfig& config, const WorkloadSpec& spec,
                                   uint32_t trial, Rng noise_rng) {
  Machine machine(MachineConfigFor(config));

  SilozHypervisor hypervisor(machine.decoder(), machine.phys_memory(), config.hypervisor);
  SILOZ_RETURN_IF_ERROR(hypervisor.Boot());
  Result<VmId> vm_id = hypervisor.CreateVm(config.vm);
  SILOZ_RETURN_IF_ERROR(vm_id);
  Result<Vm*> vm = hypervisor.GetVm(*vm_id);
  SILOZ_RETURN_IF_ERROR(vm);

  const std::vector<MemoryController*> controllers = machine.controllers();
  const uint64_t trace_seed = config.seed + trial * 7919;
  std::vector<MemRequest> trace;
  Result<ShardedEngineResult> served =
      ServeTrial(config, spec, machine.decoder(), **vm, trace_seed, controllers, &trace);
  SILOZ_RETURN_IF_ERROR(served);

  TrialOutcome outcome =
      FinishTrial(config, *served, *controllers[config.vm.socket], noise_rng);
  // Trials are the run's parallel level, so the replay runs on one worker
  // here; the shard decomposition still matches the serve engine's.
  ReplayDisturbance(machine, trace, config.channels_per_shard, /*threads=*/1);
  for (const PhysFlip& flip : machine.DrainFlips()) {
    outcome.flip_phys.push_back(flip.phys);
  }
  std::sort(outcome.flip_phys.begin(), outcome.flip_phys.end());
  return outcome;
}

// A booted timing-mode platform: machine + hypervisor + measurement VM.
// Immutable once built — trials read only the decoder and the VM's region
// placement, so a platform is shareable across trials, and (in a grid)
// across whole points whose platform configuration compares equal.
struct BootedPlatform {
  explicit BootedPlatform(MachineConfig machine_config)
      : machine(std::move(machine_config)) {}
  Machine machine;
  std::optional<SilozHypervisor> hypervisor;
  const Vm* vm = nullptr;
};

Result<std::shared_ptr<const BootedPlatform>> BootPlatform(const RunnerConfig& config) {
  auto platform = std::make_shared<BootedPlatform>(MachineConfigFor(config));
  platform->hypervisor.emplace(platform->machine.decoder(), platform->machine.phys_memory(),
                               config.hypervisor);
  SILOZ_RETURN_IF_ERROR(platform->hypervisor->Boot());
  Result<VmId> vm_id = platform->hypervisor->CreateVm(config.vm);
  SILOZ_RETURN_IF_ERROR(vm_id);
  Result<Vm*> vm = platform->hypervisor->GetVm(*vm_id);
  SILOZ_RETURN_IF_ERROR(vm);
  platform->vm = *vm;
  return std::shared_ptr<const BootedPlatform>(std::move(platform));
}

// True when two timing-mode configs boot byte-identical platforms: boot
// depends on the hypervisor configuration, the decoder, the geometry, and
// the measurement VM. Everything else in RunnerConfig (timings, trials,
// seed, noise, threads, sharding) only shapes per-trial state that each
// trial builds privately.
bool SamePlatformConfig(const RunnerConfig& a, const RunnerConfig& b) {
  return a.hypervisor == b.hypervisor && a.decoder == b.decoder &&
         a.platform == b.platform && a.geometry == b.geometry && a.vm == b.vm;
}

// Deterministic merge of one point's trial outcomes: trial order,
// lowest-index error wins.
Result<RunMeasurement> MergeTrialOutcomes(std::span<const Result<TrialOutcome>> outcomes) {
  RunMeasurement measurement;
  for (const Result<TrialOutcome>& result : outcomes) {
    SILOZ_RETURN_IF_ERROR(result);
    const TrialOutcome& outcome = *result;
    RunningStat elapsed;
    elapsed.Add(outcome.elapsed_ns);
    RunningStat bandwidth;
    bandwidth.Add(outcome.bandwidth_gibs);
    measurement.elapsed_ns.Merge(elapsed);
    measurement.bandwidth_gibs.Merge(bandwidth);
    measurement.row_hit_rate = outcome.row_hit_rate;
    measurement.flip_phys.insert(measurement.flip_phys.end(), outcome.flip_phys.begin(),
                                 outcome.flip_phys.end());
    measurement.shard_requests.resize(outcome.shard_requests.size(), 0);
    for (size_t shard = 0; shard < outcome.shard_requests.size(); ++shard) {
      measurement.shard_requests[shard] += outcome.shard_requests[shard];
    }
  }
  return measurement;
}

// The per-trial noise streams of one run, forked up front in trial order so
// they depend only on (seed, variant, trial index) — never on which thread
// runs the trial or in what order trials finish.
std::vector<Rng> ForkNoiseStreams(const RunnerConfig& config, const WorkloadSpec& spec) {
  Rng noise_base(config.seed ^ VariantTag(config, spec));
  std::vector<Rng> noise_rngs;
  noise_rngs.reserve(config.trials);
  for (uint32_t trial = 0; trial < config.trials; ++trial) {
    noise_rngs.push_back(noise_base.Fork(trial));
  }
  return noise_rngs;
}

}  // namespace

MachineConfig MachineConfigFor(const RunnerConfig& config) {
  MachineConfig machine_config;
  machine_config.geometry = config.geometry;
  machine_config.decoder = config.decoder;
  machine_config.platform = config.platform;
  machine_config.timings = config.timings;
  machine_config.fault_tracking = config.fault_tracking;
  machine_config.dimm_profiles = config.dimm_profiles;
  return machine_config;
}

Status ApplyPlatform(RunnerConfig& config, std::string_view platform,
                     uint32_t rows_per_subarray) {
  const PlatformInfo* info = FindPlatform(platform);
  if (info == nullptr) {
    std::string names;
    for (const std::string& name : PlatformNames()) {
      names += names.empty() ? name : ", " + name;
    }
    return MakeError(ErrorCode::kInvalidArgument, "unknown platform '" +
                                                      std::string(platform) +
                                                      "' (have: " + names + ")");
  }
  uint32_t subarray = rows_per_subarray == 0 ? info->geometry.rows_per_subarray
                                             : rows_per_subarray;
  if (std::find(info->subarray_sizes.begin(), info->subarray_sizes.end(), subarray) ==
      info->subarray_sizes.end()) {
    return MakeError(ErrorCode::kInvalidArgument,
                     "platform '" + std::string(platform) + "' has no " +
                         std::to_string(subarray) + "-row subarray parts");
  }
  config.platform = std::string(platform);
  config.geometry = info->geometry;
  config.geometry.rows_per_subarray = subarray;
  config.hypervisor.rows_per_subarray = subarray;
  config.hypervisor.uniform_internal_addressing = info->uniform_internal_addressing;
  for (DimmProfile& profile : config.dimm_profiles) {
    profile.remap = info->remap;
    profile.trr = info->trr;
  }
  return Status::Ok();
}

// How many ACTs ahead ReplayDisturbance prefetches: far enough to cover a
// DRAM miss behind the ACTs in flight, near enough that the lines are still
// cached when the ACT arrives.
constexpr uint32_t kReplayLookahead = 8;

void ReplayDisturbance(Machine& machine, std::span<const MemRequest> trace,
                       uint32_t channels_per_shard, uint32_t threads) {
  const DramGeometry& geometry = machine.config().geometry;
  // Device clocks are monotonic and already advanced by boot-time writes.
  const uint64_t clock0 = machine.clock_ns();
  const uint64_t act_cost = machine.config().act_cost_ns;
  const uint32_t banks_per_socket = geometry.banks_per_socket();

  // Open-row tracker, flat over every bank in the machine (-1 = closed).
  // Shards touch channel-disjoint index ranges (SocketBankIndex is
  // channel-major), so concurrent shards never share an entry.
  std::vector<int64_t> open_rows(geometry.total_banks(), -1);

  // Partition trace indices by (socket, channel block) — the serve engine's
  // decomposition — and replay each shard's subsequence in trace order.
  // Devices and open-row entries are channel-disjoint across shards, so
  // shard replays commute. Timestamps come from the request's *global trace
  // index*, not from an accumulated clock, so every shard computes the
  // per-ACT times a trace-order replay would: the flip census is the same
  // for every channels_per_shard and thread count. The machine clock itself
  // is not advanced.
  const ShardPlan plan(geometry, geometry.sockets, channels_per_shard);
  ShardPartition partition = PartitionByShard(plan, trace);
  auto replay_shard = [&](uint64_t shard) {
    // First filter the shard's index slice in place down to its ACTs (row
    // hits reuse the buffer and disturb nothing; the writes trail the
    // reads), so the issue loop below can see kReplayLookahead ACTs ahead.
    uint32_t* const acts = partition.indices.data() + partition.offsets[shard];
    uint32_t act_count = 0;
    for (const uint32_t index : partition.Shard(static_cast<uint32_t>(shard))) {
      const MediaAddress& media = trace[index].address;
      int64_t& open_row =
          open_rows[media.socket * banks_per_socket + SocketBankIndex(geometry, media)];
      if (open_row != static_cast<int64_t>(media.row)) {
        open_row = media.row;
        acts[act_count++] = index;
      }
    }
    // The victim slabs of a trial overflow the last-level cache, so the ACT
    // stream is memory-latency bound: hint each ACT's cells kReplayLookahead
    // ACTs before issuing it. Prefetch has no model effect.
    for (uint32_t j = 0; j < act_count; ++j) {
      if (j + kReplayLookahead < act_count) {
        const MediaAddress& ahead = trace[acts[j + kReplayLookahead]].address;
        machine.device(ahead.socket, ahead.channel, ahead.dimm)
            .Prefetch(ahead.rank, ahead.bank, ahead.row);
      }
      const MediaAddress& media = trace[acts[j]].address;
      machine.device(media.socket, media.channel, media.dimm)
          .Activate(media.rank, media.bank, media.row, clock0 + acts[j] * act_cost);
    }
  };
  ParallelFor(threads, plan.shard_count(), replay_shard);
}

Result<RunMeasurement> RunWorkload(const RunnerConfig& config, const WorkloadSpec& spec) {
  SILOZ_RETURN_IF_ERROR(
      ValidateShardKnobs(config.channels_per_shard, config.bank_groups_per_queue));
  PoolPhaseMetrics metrics;
  Result<std::vector<RunMeasurement>> runs =
      RunWorkloadGrid({GridPoint{config, spec}}, config.threads, &metrics);
  SILOZ_RETURN_IF_ERROR(runs);
  RunMeasurement measurement = std::move(runs->front());
  measurement.pool = metrics;
  return measurement;
}

Result<std::vector<RunMeasurement>> RunWorkloadGrid(const std::vector<GridPoint>& points,
                                                    uint32_t threads,
                                                    PoolPhaseMetrics* metrics) {
  std::vector<Result<RunMeasurement>> runs(points.size(),
                                           Result<RunMeasurement>(RunMeasurement{}));
  PhaseTimer timer("grid");

  // Boot each distinct timing-mode platform configuration exactly once, on
  // the coordinating thread in point order — a figure grid reuses a handful
  // of platforms (~2 MB each) across dozens of points, and serializing the
  // boots here keeps boot-time model metrics thread-count-invariant. A point
  // whose boot fails records its error and is skipped below; a later point
  // with the same configuration re-attempts the (deterministic) boot.
  std::vector<std::shared_ptr<const BootedPlatform>> point_platform(points.size());
  std::vector<size_t> booted_points;
  for (size_t i = 0; i < points.size(); ++i) {
    if (points[i].config.fault_tracking) {
      continue;  // fault mode boots per trial; nothing shareable
    }
    bool found = false;
    for (size_t prior : booted_points) {
      if (SamePlatformConfig(points[prior].config, points[i].config)) {
        point_platform[i] = point_platform[prior];
        found = true;
        break;
      }
    }
    if (found) {
      continue;
    }
    Result<std::shared_ptr<const BootedPlatform>> booted = BootPlatform(points[i].config);
    if (booted.ok()) {
      point_platform[i] = std::move(*booted);
      booted_points.push_back(i);
    } else {
      runs[i] = booted.error();
    }
  }

  // Flattened schedule: every (point, trial) pair is one ParallelFor index,
  // so grid cells and their trials share a single schedule instead of
  // nesting a serial trial loop inside each grid task (DESIGN.md §15) — a
  // figure grid's parallelism is points * trials, not points. Noise streams
  // fork per point in trial order up front (ForkNoiseStreams), so the
  // flattening is invisible in the results. Observability
  // files are never written per point (that would race and interleave); the
  // grid's caller writes once after all points complete.
  struct FlatTask {
    uint32_t point = 0;
    uint32_t trial = 0;
  };
  std::vector<FlatTask> tasks;
  std::vector<std::vector<Rng>> point_noise(points.size());
  std::vector<std::vector<Result<TrialOutcome>>> point_outcomes(points.size());
  for (size_t i = 0; i < points.size(); ++i) {
    if (!runs[i].ok()) {
      continue;  // boot failed; the merge below reports it in point order
    }
    const RunnerConfig& config = points[i].config;
    point_noise[i] = ForkNoiseStreams(config, points[i].workload);
    point_outcomes[i].assign(config.trials, Result<TrialOutcome>(TrialOutcome{}));
    for (uint32_t trial = 0; trial < config.trials; ++trial) {
      tasks.push_back(FlatTask{static_cast<uint32_t>(i), trial});
    }
  }

  PoolMetrics pool_metrics;
  {
    obs::TraceSpan span("grid");
    pool_metrics = ParallelFor(threads, tasks.size(), [&](uint64_t t) {
      const FlatTask task = tasks[t];
      const GridPoint& point = points[task.point];
      Result<TrialOutcome>& outcome = point_outcomes[task.point][task.trial];
      if (point.config.fault_tracking) {
        outcome = RunFaultTrial(point.config, point.workload, task.trial,
                                point_noise[task.point][task.trial]);
      } else {
        outcome = RunTimingTrial(point.config, point.workload, task.trial,
                                 point_noise[task.point][task.trial],
                                 point_platform[task.point]->machine.decoder(),
                                 *point_platform[task.point]->vm);
      }
    });
  }
  if (metrics != nullptr) {
    *metrics = timer.Finish(pool_metrics);
  }

  // Deterministic merge: point order, trial order within each point; the
  // lowest-indexed failure wins.
  std::vector<RunMeasurement> measurements;
  measurements.reserve(points.size());
  for (size_t i = 0; i < points.size(); ++i) {
    SILOZ_RETURN_IF_ERROR(runs[i]);
    Result<RunMeasurement> merged = MergeTrialOutcomes(point_outcomes[i]);
    SILOZ_RETURN_IF_ERROR(merged);
    measurements.push_back(std::move(*merged));
  }
  return measurements;
}

}  // namespace siloz
