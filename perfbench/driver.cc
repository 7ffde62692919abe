// End-to-end benchmark driver for the Siloz simulator.
//
// Runs one of four batch workloads in-process against the src/ libraries and
// reports host time — what the simulator takes to run — never simulated
// time. Simulated outputs instead fold into a per-workload model checksum,
// which a change that only speeds the simulator up must leave unchanged.
//
//   siloz_perfbench --workload perf_grid|hammer
//                   --seed N --seconds S --trace 0|1 [--workers N]
//                   [--trace-dir DIR]
//
// --trace 0 repeats set-up plus the workload's timed section until S seconds
// have passed and prints the end-to-end metrics (medians over repetitions).
// --trace 1 runs the per-layer suite instead: it times calls into each
// layer's public functions from here, records a span around each of them,
// and enables the program's own obs::Tracer so its spans are recorded too.
// Each suite section writes its Chrome trace to DIR/<section>.json for
// trace_fold.py. Every layer is measured from outside: nothing under src/
// is instrumented for the benchmark.
//
// The last line of stdout is the result object
//   {"correct":...,"attempted":N,"failed":N,"metrics":{name:{value,unit}}}
// preceded by a manifest line (host, seed, workers, platform, model knobs,
// model checksum) and a report line with the per-workload named metrics.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "src/addr/decoder.h"
#include "src/addr/platform.h"
#include "src/attack/blacksmith.h"
#include "src/audit/auditor.h"
#include "src/base/units.h"
#include "src/ept/phys_memory.h"
#include "src/memctl/sharded_engine.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/sim/experiment.h"
#include "src/sim/fleet.h"
#include "src/sim/machine.h"
#include "src/siloz/hypervisor.h"
#include "src/workload/workloads.h"

namespace siloz::perfbench {
namespace {

// Model knobs pinned once for every workload: the values the figure benches
// run with. RunnerConfig's own default (bank_groups_per_queue = 0) would
// time a different model.
constexpr uint32_t kChannelsPerShard = 1;
constexpr uint32_t kBankGroupsPerQueue = 1;

constexpr const char* kWorkloads[] = {"perf_grid", "hammer"};

// Fewest repetitions a run makes, however short --seconds is.
constexpr int kMinReps = 3;

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double CpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double PeakRssMiB() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

double Median(std::vector<double> values) {
  SILOZ_CHECK(!values.empty());
  std::sort(values.begin(), values.end());
  const size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid] : 0.5 * (values[mid - 1] + values[mid]);
}

// ---------------------------------------------------------------------------
// Strict command line: every flag is known, every number parses completely,
// and nothing falls back to a default.
// ---------------------------------------------------------------------------

struct Flags {
  std::string workload;
  uint64_t seed = 0;
  uint32_t seconds = 0;
  bool trace = false;
  uint32_t workers = 0;  // 0 = the workload's fixed worker count
  std::string trace_dir;
};

bool ParseUint(std::string_view text, uint64_t max, uint64_t& out) {
  if (text.empty() || text.size() > 20) {
    return false;
  }
  uint64_t value = 0;
  for (char c : text) {
    if (c < '0' || c > '9') {
      return false;
    }
    const uint64_t digit = static_cast<uint64_t>(c - '0');
    if (value > (max - digit) / 10) {
      return false;
    }
    value = value * 10 + digit;
  }
  out = value;
  return true;
}

std::optional<Flags> ParseFlags(int argc, char** argv, std::string& error) {
  Flags flags;
  std::map<std::string, std::string> values;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    static const char* kKnown[] = {"--workload", "--seed",    "--seconds",
                                   "--trace",    "--workers", "--trace-dir"};
    if (std::find_if(std::begin(kKnown), std::end(kKnown),
                     [&](const char* known) { return flag == known; }) == std::end(kKnown)) {
      error = "unknown flag '" + flag + "'";
      return std::nullopt;
    }
    if (i + 1 >= argc) {
      error = flag + " needs a value";
      return std::nullopt;
    }
    if (!values.emplace(flag, argv[++i]).second) {
      error = flag + " given twice";
      return std::nullopt;
    }
  }
  for (const char* required : {"--workload", "--seed", "--seconds", "--trace"}) {
    if (values.count(required) == 0) {
      error = std::string("missing ") + required;
      return std::nullopt;
    }
  }
  flags.workload = values["--workload"];
  if (std::find_if(std::begin(kWorkloads), std::end(kWorkloads), [&](const char* name) {
        return flags.workload == name;
      }) == std::end(kWorkloads)) {
    error = "unknown workload '" + flags.workload +
            "' (have: perf_grid, hammer)";
    return std::nullopt;
  }
  uint64_t number = 0;
  if (!ParseUint(values["--seed"], UINT64_MAX, number)) {
    error = "--seed: '" + values["--seed"] + "' is not a non-negative integer";
    return std::nullopt;
  }
  flags.seed = number;
  if (!ParseUint(values["--seconds"], 3600, number) || number == 0) {
    error = "--seconds: '" + values["--seconds"] + "' is not an integer in [1, 3600]";
    return std::nullopt;
  }
  flags.seconds = static_cast<uint32_t>(number);
  if (values["--trace"] != "0" && values["--trace"] != "1") {
    error = "--trace: '" + values["--trace"] + "' is neither 0 nor 1";
    return std::nullopt;
  }
  flags.trace = values["--trace"] == "1";
  if (values.count("--workers") != 0) {
    if (!ParseUint(values["--workers"], 1024, number) || number == 0) {
      error = "--workers: '" + values["--workers"] + "' is not an integer in [1, 1024]";
      return std::nullopt;
    }
    flags.workers = static_cast<uint32_t>(number);
  }
  if (values.count("--trace-dir") != 0) {
    flags.trace_dir = values["--trace-dir"];
  }
  if (flags.trace != !flags.trace_dir.empty()) {
    error = "--trace-dir is required with --trace 1 and refused with --trace 0";
    return std::nullopt;
  }
  return flags;
}

// ---------------------------------------------------------------------------
// Output helpers.
// ---------------------------------------------------------------------------

std::string JsonString(std::string_view text) {
  std::string out = "\"";
  for (char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string JsonNumber(double value) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

// FNV-1a over the simulated outputs. Doubles fold as hex floats, so the
// checksum moves on any bit of any simulated statistic.
class ModelChecksum {
 public:
  void Add(std::string_view text) {
    for (char c : text) {
      hash_ = (hash_ ^ static_cast<uint8_t>(c)) * 0x100000001B3ull;
    }
    hash_ = (hash_ ^ 0xFF) * 0x100000001B3ull;  // field separator
  }
  void Add(uint64_t value) { Add(std::to_string(value)); }
  void Add(double value) {
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%a", value);
    Add(std::string_view(buf));
  }
  std::string Hex() const {
    char buf[20];
    std::snprintf(buf, sizeof(buf), "%016" PRIx64, hash_);
    return buf;
  }

 private:
  uint64_t hash_ = 0xCBF29CE484222325ull;
};

struct Metric {
  double value = 0.0;
  std::string unit;
  std::string moves;  // the end-to-end metric a change here should move
};

using MetricMap = std::map<std::string, Metric>;

std::string MetricsJson(const MetricMap& metrics, bool with_moves) {
  std::string out = "{";
  for (const auto& [name, metric] : metrics) {
    out += (out.size() > 1 ? "," : "") + JsonString(name) + ":{\"value\":" +
           JsonNumber(metric.value) + ",\"unit\":" + JsonString(metric.unit);
    if (with_moves && !metric.moves.empty()) {
      out += ",\"moves\":" + JsonString(metric.moves);
    }
    out += "}";
  }
  return out + "}";
}

std::string CpuModel() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned int regs[12] = {};
  if (__get_cpuid_max(0x80000000u, nullptr) >= 0x80000004u) {
    for (unsigned int leaf = 0; leaf < 3; ++leaf) {
      __get_cpuid(0x80000002u + leaf, &regs[leaf * 4], &regs[leaf * 4 + 1],
                  &regs[leaf * 4 + 2], &regs[leaf * 4 + 3]);
    }
    char brand[49] = {};
    std::memcpy(brand, regs, 48);
    std::string model(brand);
    model.erase(0, model.find_first_not_of(' '));
    return model;
  }
#endif
  return "unknown";
}

uint32_t HostCpus() { return std::max(1u, std::thread::hardware_concurrency()); }

// ---------------------------------------------------------------------------
// Shared building blocks.
// ---------------------------------------------------------------------------

// A booted machine: Machine, hypervisor and (optionally) one VM. Members are
// destroyed in reverse order, so the hypervisor goes before the machine
// whose decoder and memory it references.
struct Booted {
  std::unique_ptr<Machine> machine;
  std::unique_ptr<SilozHypervisor> hypervisor;
  Vm* vm = nullptr;
};

Booted BootOrDie(const MachineConfig& machine_config, const SilozConfig& hv_config,
                 const std::optional<VmConfig>& vm_config) {
  Booted booted;
  booted.machine = std::make_unique<Machine>(machine_config);
  booted.hypervisor = std::make_unique<SilozHypervisor>(
      booted.machine->decoder(), booted.machine->phys_memory(), hv_config);
  const Status boot = booted.hypervisor->Boot();
  SILOZ_CHECK(boot.ok()) << "boot failed: " << boot.error().ToString();
  if (vm_config.has_value()) {
    Result<VmId> id = booted.hypervisor->CreateVm(*vm_config);
    SILOZ_CHECK(id.ok()) << "CreateVm failed: " << id.error().ToString();
    booted.vm = *booted.hypervisor->GetVm(*id);
  }
  return booted;
}

MachineConfig MachineOf(const RunnerConfig& config, bool fault_tracking) {
  MachineConfig machine_config;
  machine_config.geometry = config.geometry;
  machine_config.decoder = config.decoder;
  machine_config.platform = config.platform;
  machine_config.timings = config.timings;
  machine_config.fault_tracking = fault_tracking;
  machine_config.dimm_profiles = config.dimm_profiles;
  return machine_config;
}

// Empties the workload layer's line-stream memo (a FIFO of at most 64
// entries, src/workload/workloads.cc) by streaming more one-access keys
// through it than it holds. Every grid then starts cold, as it does in a
// fresh figure process, so repetitions do identical work.
void FlushStreamMemo(const Booted& booted) {
  WorkloadSpec tiny;
  tiny.accesses = 1;
  tiny.footprint_bytes = kCacheLineBytes;
  for (uint64_t i = 0; i < 256; ++i) {
    TraceStreamer(tiny, booted.machine->decoder(), booted.vm->regions(), 0, ~i);
  }
}

// Times one call into a layer: records a "bench" span around it (seen by
// trace_fold.py when tracing is on) and returns host nanoseconds.
template <typename Fn>
double TimedNs(const char* span_name, Fn&& fn) {
  obs::TraceSpan span(span_name, "bench");
  const Clock::time_point start = Clock::now();
  fn();
  return std::chrono::duration<double, std::nano>(Clock::now() - start).count();
}

// Placeholder for a result a timed lambda assigns.
template <typename T>
Result<T> NotRun() {
  return MakeError(ErrorCode::kFailedPrecondition, "not run");
}

// What one repetition of a workload's timed section produced.
struct RepOutcome {
  double work = 0.0;     // simulated work units (see Workload::work_unit)
  double seconds = 0.0;  // host seconds spent in the timed calls
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::string checksum;  // model checksum of the simulated outputs
  // The workload's named end-to-end rates for this repetition.
  std::map<std::string, Metric> rates;
};

// Counts one operation and reports it on stderr when it broke a check.
void CountOp(RepOutcome& rep, bool ok, const std::string& what) {
  ++rep.attempted;
  if (!ok) {
    ++rep.failed;
    std::fprintf(stderr, "perfbench: operation failed: %s\n", what.c_str());
  }
}

class Workload {
 public:
  virtual ~Workload() = default;
  virtual const char* platform() const = 0;
  virtual const char* work_unit() const = 0;
  // Workload-specific inputs and model knobs, as a JSON object body.
  virtual std::string Knobs() const = 0;
  // Builds the Machine(s), boots the hypervisor(s) and creates the VM the
  // timed section needs. Timed as setup_s, outside the timed section.
  virtual void Setup() = 0;
  virtual RepOutcome Rep() = 0;
};

// ---------------------------------------------------------------------------
// perf_grid: the Fig 4 and Fig 5 workload sets under baseline and
// Siloz-1024 on skylake, through RunWorkloadGrid in timing mode.
// ---------------------------------------------------------------------------

constexpr uint32_t kGridTrials = 5;

SilozConfig BaselineKernel() {
  SilozConfig config;
  config.enabled = false;
  return config;
}

SilozConfig SilozKernel() { return SilozConfig{}; }  // 1024-row subarrays

RunnerConfig GridRunner(const SilozConfig& hypervisor, uint64_t seed) {
  RunnerConfig runner;
  runner.hypervisor = hypervisor;
  runner.trials = kGridTrials;
  runner.seed = seed;
  runner.channels_per_shard = kChannelsPerShard;
  runner.bank_groups_per_queue = kBankGroupsPerQueue;
  const Status applied = ApplyPlatform(runner, "skylake", hypervisor.rows_per_subarray);
  SILOZ_CHECK(applied.ok()) << applied.error().ToString();
  return runner;
}

struct FigureSet {
  const char* name;
  const std::vector<WorkloadSpec>* workloads;
};

std::vector<FigureSet> FigureSets() {
  return {{"fig4", &ExecutionTimeWorkloads()}, {"fig5", &ThroughputWorkloads()}};
}

// Grid points in the figure benches' order: baseline first, workload-major.
std::vector<GridPoint> FigurePoints(const FigureSet& set, uint64_t seed) {
  std::vector<GridPoint> points;
  for (const SilozConfig& hypervisor : {BaselineKernel(), SilozKernel()}) {
    const RunnerConfig runner = GridRunner(hypervisor, seed);
    for (const WorkloadSpec& spec : *set.workloads) {
      points.push_back(GridPoint{runner, spec});
    }
  }
  return points;
}

class PerfGrid final : public Workload {
 public:
  PerfGrid(uint64_t seed, uint32_t workers) : seed_(seed), workers_(workers) {}

  const char* platform() const override { return "skylake"; }
  const char* work_unit() const override { return "simulated requests"; }
  std::string Knobs() const override {
    return "\"variants\":[\"baseline\",\"siloz-1024\"],\"sets\":[\"fig4\",\"fig5\"],"
           "\"trials_per_point\":" +
           std::to_string(kGridTrials) + ",\"mode\":\"timing\"";
  }

  void Setup() override {
    booted_.clear();
    for (const SilozConfig& hypervisor : {BaselineKernel(), SilozKernel()}) {
      const RunnerConfig runner = GridRunner(hypervisor, seed_);
      booted_.push_back(BootOrDie(MachineOf(runner, false), runner.hypervisor, runner.vm));
    }
  }

  RepOutcome Rep() override {
    RepOutcome rep;
    ModelChecksum checksum;
    for (const FigureSet& set : FigureSets()) {
      FlushStreamMemo(booted_.back());
      const std::vector<GridPoint> points = FigurePoints(set, seed_);
      Result<std::vector<RunMeasurement>> grid = NotRun<std::vector<RunMeasurement>>();
      rep.seconds += 1e-9 * TimedNs("bench.sim.RunWorkloadGrid", [&] {
        grid = RunWorkloadGrid(points, workers_);
      });
      for (size_t i = 0; i < points.size(); ++i) {
        const GridPoint& point = points[i];
        const uint64_t expected = uint64_t{point.config.trials} * point.workload.accesses;
        rep.work += static_cast<double>(expected);
        uint64_t served = 0;
        if (grid.ok()) {
          const RunMeasurement& m = (*grid)[i];
          for (uint64_t requests : m.shard_requests) {
            served += requests;
          }
          checksum.Add(std::string(set.name) + "/" + point.workload.name);
          checksum.Add(uint64_t{point.config.hypervisor.enabled});
          for (const RunningStat* stat : {&m.elapsed_ns, &m.bandwidth_gibs}) {
            checksum.Add(uint64_t{stat->count()});
            checksum.Add(stat->mean());
            checksum.Add(stat->stddev());
            checksum.Add(stat->min());
            checksum.Add(stat->max());
          }
          checksum.Add(m.row_hit_rate);
          for (uint64_t requests : m.shard_requests) {
            checksum.Add(requests);
          }
        }
        // Every grid trial is one operation; a point's trials fail together
        // when its shard requests do not add up to trials x accesses.
        for (uint32_t trial = 0; trial < point.config.trials; ++trial) {
          CountOp(rep, grid.ok() && served == expected,
                  std::string(set.name) + "/" + point.workload.name + ": " +
                      (grid.ok() ? "shard requests " + std::to_string(served) + " != " +
                                       std::to_string(expected)
                                 : grid.error().ToString()));
        }
      }
    }
    rep.checksum = checksum.Hex();
    rep.rates["grid_mreq_per_s"] = {rep.work / rep.seconds / 1e6, "Mreq/s", ""};
    return rep;
  }

 private:
  uint64_t seed_;
  uint32_t workers_;
  std::vector<Booted> booted_;  // [baseline, siloz]; the siloz one flushes the memo
};

// ---------------------------------------------------------------------------
// hammer: the Table-3 campaign on skylake plus fault-mode RunWorkload trials
// on zen.
// ---------------------------------------------------------------------------

constexpr uint32_t kFaultTrials = 4;
constexpr uint64_t kFaultAccesses = 200'000;
constexpr const char* kFaultSpecs[] = {"redis-a", "terasort", "mlc-1:1"};
constexpr uint64_t kSoakNs = 24ull * 3600 * 1'000'000'000;

// Six DIMM personalities ("A".."F"): the Table 3 bench's thresholds, spreads
// and remap behaviour (bench/bench_table3_containment.cc).
std::vector<DimmProfile> TableThreeDimms() {
  const struct {
    const char* name;
    double threshold;
    double spread;
    bool scrambling;
  } specs[] = {
      {"A", 2400.0, 0.15, false}, {"B", 3000.0, 0.20, false}, {"C", 2100.0, 0.10, true},
      {"D", 2800.0, 0.25, false}, {"E", 2500.0, 0.15, true},  {"F", 3300.0, 0.20, false},
  };
  std::vector<DimmProfile> dimms;
  for (const auto& spec : specs) {
    DimmProfile dimm;
    dimm.name = spec.name;
    dimm.disturbance.threshold_mean = spec.threshold;
    dimm.disturbance.threshold_spread = spec.spread;
    dimm.disturbance.seed = 0x51102 + static_cast<uint64_t>(dimm.name[0]);
    dimm.remap.vendor_scrambling = spec.scrambling;
    dimm.trr.enabled = true;
    dimm.trr.act_threshold = 400;
    dimms.push_back(dimm);
  }
  return dimms;
}

MachineConfig CampaignMachine() {
  MachineConfig machine_config;
  machine_config.fault_tracking = true;
  machine_config.dimm_profiles = TableThreeDimms();
  return machine_config;
}

const VmConfig kAttackerVm{.name = "blacksmith", .memory_bytes = 6_GiB};

// The Table 3 bench's campaign, with its committed fuzzer seed: containment
// (inside > 0, outside == 0) is asserted for this campaign, and --seed
// varies the zen fault trials instead.
BlacksmithConfig CampaignFuzz() {
  BlacksmithConfig fuzz;
  fuzz.patterns = 36;
  fuzz.rounds = 1500;
  fuzz.min_pairs = 8;
  fuzz.max_pairs = 16;
  return fuzz;
}

std::vector<PhysRange> PinnedRanges(const Booted& booted) {
  std::vector<PhysRange> pinned;
  for (uint32_t group : booted.vm->guest_groups()) {
    for (const PhysRange& range : booted.hypervisor->group_map().RangesOf(group)) {
      pinned.push_back(range);
    }
  }
  return pinned;
}

RunnerConfig ZenFaultRunner(uint64_t seed, uint32_t workers) {
  RunnerConfig runner;
  runner.trials = kFaultTrials;
  runner.seed = seed;
  runner.threads = workers;
  runner.channels_per_shard = kChannelsPerShard;
  runner.bank_groups_per_queue = kBankGroupsPerQueue;
  runner.fault_tracking = true;
  const Status applied = ApplyPlatform(runner, "zen");
  SILOZ_CHECK(applied.ok()) << applied.error().ToString();
  return runner;
}

WorkloadSpec FaultSpec(const char* name) {
  Result<WorkloadSpec> spec = FindWorkload(name);
  SILOZ_CHECK(spec.ok()) << spec.error().ToString();
  spec->accesses = kFaultAccesses;
  return *spec;
}

class Hammer final : public Workload {
 public:
  Hammer(uint64_t seed, uint32_t workers) : seed_(seed), workers_(workers) {}

  const char* platform() const override { return "skylake (campaign), zen (fault trials)"; }
  const char* work_unit() const override {
    return "simulated requests (fault trials) + activations (campaign)";
  }
  std::string Knobs() const override {
    const BlacksmithConfig fuzz = CampaignFuzz();
    std::string specs;
    for (const char* name : kFaultSpecs) {
      specs += (specs.empty() ? "\"" : ",\"") + std::string(name) + "\"";
    }
    return "\"dimms\":6,\"patterns\":" + std::to_string(fuzz.patterns) +
           ",\"rounds\":" + std::to_string(fuzz.rounds) + ",\"pairs\":[" +
           std::to_string(fuzz.min_pairs) + "," + std::to_string(fuzz.max_pairs) +
           "],\"fuzz_seed\":" + std::to_string(fuzz.seed) +
           ",\"soak_h\":24,\"fault_specs\":[" + specs +
           "],\"fault_trials\":" + std::to_string(kFaultTrials) +
           ",\"fault_accesses\":" + std::to_string(kFaultAccesses);
  }

  void Setup() override {
    booted_.reset();  // release the previous campaign machine first
    booted_ = std::make_unique<Booted>(BootOrDie(CampaignMachine(), SilozConfig{}, kAttackerVm));
  }

  RepOutcome Rep() override {
    RepOutcome rep;
    ModelChecksum checksum;

    // The campaign: fuzz inside the attacker's groups, soak 24 h, scrub.
    Machine& machine = *booted_->machine;
    const std::vector<PhysRange> pinned = PinnedRanges(*booted_);
    FuzzReport report;
    uint64_t scrubbed = 0;
    FlipCensus census;
    const double campaign_s = 1e-9 * TimedNs("bench.attack.Campaign", [&] {
      report = BlacksmithFuzzer(CampaignFuzz()).Run(machine, pinned);
      machine.AdvanceClock(kSoakNs);
      scrubbed = machine.PatrolScrubAll();
      std::vector<PhysFlip> late = machine.DrainFlips();
      report.flips.insert(report.flips.end(), late.begin(), late.end());
      census = ClassifyFlips(report.flips, booted_->hypervisor->group_map(), pinned);
    });
    checksum.Add(uint64_t{report.patterns_run});
    checksum.Add(report.activations);
    checksum.Add(scrubbed);
    checksum.Add(census.inside);
    checksum.Add(census.outside);
    for (const auto& [dimm, flips] : census.per_dimm) {
      checksum.Add(dimm);
      checksum.Add(flips);
    }
    for (uint32_t group : census.groups_hit) {
      checksum.Add(uint64_t{group});
    }
    CountOp(rep, census.outside == 0 && census.inside > 0,
            "Table-3 campaign: " + std::to_string(census.inside) + " flips inside, " +
                std::to_string(census.outside) + " outside");

    // Fault-mode trials on zen.
    double fault_s = 0.0;
    double fault_requests = 0.0;
    for (const char* name : kFaultSpecs) {
      const WorkloadSpec spec = FaultSpec(name);
      const RunnerConfig runner = ZenFaultRunner(seed_, workers_);
      Result<RunMeasurement> run = NotRun<RunMeasurement>();
      fault_s += 1e-9 * TimedNs("bench.sim.RunWorkload", [&] { run = RunWorkload(runner, spec); });
      const uint64_t expected = uint64_t{runner.trials} * spec.accesses;
      fault_requests += static_cast<double>(expected);
      uint64_t served = 0;
      if (run.ok()) {
        for (uint64_t requests : run->shard_requests) {
          served += requests;
        }
        checksum.Add(std::string(name));
        checksum.Add(run->elapsed_ns.mean());
        checksum.Add(run->elapsed_ns.stddev());
        checksum.Add(run->bandwidth_gibs.mean());
        checksum.Add(run->row_hit_rate);
        checksum.Add(uint64_t{run->flip_phys.size()});
        for (uint64_t phys : run->flip_phys) {
          checksum.Add(phys);
        }
      }
      for (uint32_t trial = 0; trial < runner.trials; ++trial) {
        CountOp(rep, run.ok() && served == expected,
                std::string("zen fault trial ") + name + ": " +
                    (run.ok() ? "shard requests " + std::to_string(served) + " != " +
                                    std::to_string(expected)
                              : run.error().ToString()));
      }
    }

    rep.work = fault_requests + static_cast<double>(report.activations);
    rep.seconds = campaign_s + fault_s;
    rep.checksum = checksum.Hex();
    rep.rates["fault_mreq_per_s"] = {fault_requests / fault_s / 1e6, "Mreq/s", ""};
    rep.rates["campaign_kacts_per_s"] = {
        static_cast<double>(report.activations) / campaign_s / 1e3, "kact/s", ""};
    return rep;
  }

 private:
  uint64_t seed_;
  uint32_t workers_;
  std::unique_ptr<Booted> booted_;  // the campaign machine; fresh per repetition
};

// ---------------------------------------------------------------------------
// Fleet churn: RunFleetChurn with the defrag policy on FleetGeometry(). Per-
// layer suite only: as an end-to-end workload its replay rate spread 0.13-0.17
// between runs on a shared host (see README.md).
// ---------------------------------------------------------------------------

// The fleet bench's trace shape (bench/bench_fleet_churn.cc): ~4000 arrivals
// and ~2500 concurrent VMs, enough to exhaust sockets so defrag migrates.
// silozctl fleet's shorter default trace never migrates at all.
FleetConfig ChurnConfig(uint64_t seed, uint32_t workers) {
  FleetConfig config;
  config.seed = seed;
  config.duration_s = 200.0;
  config.arrivals_per_s = 20.0;
  config.min_lifetime_s = 60.0;
  config.max_lifetime_s = 240.0;
  config.policy = AdmissionPolicy::kDefrag;
  config.threads = workers;
  return config;
}

// The boot RunFleetChurn performs first, on its own: decoder, sparse memory
// and a Siloz hypervisor over the 8-socket fleet geometry.
double FleetBootSeconds() {
  const DramGeometry geometry = FleetGeometry();
  const SkylakeDecoder decoder(geometry);
  FlatPhysMemory memory;
  SilozConfig hv_config;
  hv_config.rows_per_subarray = geometry.rows_per_subarray;
  SilozHypervisor hypervisor(decoder, memory, hv_config);
  const Clock::time_point start = Clock::now();
  const Status boot = hypervisor.Boot();
  const double seconds = SecondsSince(start);
  SILOZ_CHECK(boot.ok()) << "fleet boot failed: " << boot.error().ToString();
  return seconds;
}

// ---------------------------------------------------------------------------
// The four-invariant audit on every registered platform. Per-layer suite
// only: as an end-to-end workload its rate swung by up to 1.8x between
// repetitions on a shared host (see README.md).
// ---------------------------------------------------------------------------

struct AuditTarget {
  const PlatformInfo* info = nullptr;
  std::unique_ptr<AddressDecoder> decoder;
  std::unique_ptr<FlatPhysMemory> memory;
  std::unique_ptr<SilozHypervisor> hypervisor;
};

// Boots `name` the way siloz_audit --platform does: platform geometry and
// decoder, subarray size and DDR-generation semantics from the registry.
AuditTarget BootAuditTarget(const std::string& name) {
  AuditTarget target;
  target.info = FindPlatform(name);
  SILOZ_CHECK(target.info != nullptr) << name;
  Result<std::unique_ptr<AddressDecoder>> decoder = target.info->make(target.info->geometry);
  SILOZ_CHECK(decoder.ok()) << decoder.error().ToString();
  target.decoder = std::move(*decoder);
  target.memory = std::make_unique<FlatPhysMemory>();
  SilozConfig config;
  config.rows_per_subarray = target.info->geometry.rows_per_subarray;
  config.uniform_internal_addressing = target.info->uniform_internal_addressing;
  target.hypervisor = std::make_unique<SilozHypervisor>(*target.decoder, *target.memory, config);
  const Status boot = target.hypervisor->Boot();
  SILOZ_CHECK(boot.ok()) << name << " boot failed: " << boot.error().ToString();
  return target;
}

audit::Options AuditOptions(uint64_t seed, uint32_t workers) {
  audit::Options options;
  options.seed = seed ^ 0xA0D17;
  options.threads = workers;
  return options;
}

// N: the fixed worker count of every workload and suite section, clamped to
// the host.
uint32_t DefaultWorkers() { return std::min(4u, HostCpus()); }

std::unique_ptr<Workload> MakeWorkload(const std::string& name, uint64_t seed,
                                       uint32_t workers) {
  if (name == "perf_grid") {
    return std::make_unique<PerfGrid>(seed, workers);
  }
  SILOZ_CHECK(name == "hammer") << name;
  return std::make_unique<Hammer>(seed, workers);
}

// ---------------------------------------------------------------------------
// Repetition loop and summaries.
// ---------------------------------------------------------------------------

struct RepSample {
  double setup_s = 0.0;
  double cpu_s = 0.0;  // process CPU time of the repetition's timed section
  RepOutcome outcome;
};

// Set-up plus timed section, repeated until `budget_s` has passed (and at
// least `min_reps` times).
std::vector<RepSample> RunReps(Workload& workload, double budget_s, int min_reps) {
  std::vector<RepSample> samples;
  const Clock::time_point start = Clock::now();
  while (static_cast<int>(samples.size()) < min_reps || SecondsSince(start) < budget_s) {
    RepSample sample;
    const Clock::time_point setup_start = Clock::now();
    {
      obs::TraceSpan span("bench.Setup", "bench");
      workload.Setup();
    }
    sample.setup_s = SecondsSince(setup_start);
    const double cpu0 = CpuSeconds();
    sample.outcome = workload.Rep();
    sample.cpu_s = CpuSeconds() - cpu0;
    samples.push_back(std::move(sample));
  }
  return samples;
}

double MedianRate(const std::vector<RepSample>& samples) {
  std::vector<double> rates;
  for (const RepSample& sample : samples) {
    rates.push_back(sample.outcome.work / sample.outcome.seconds);
  }
  return Median(rates);
}

// Failed operations over all repetitions; a repetition whose model checksum
// differs from `reference` fails every one of its operations.
uint64_t FailedOps(const std::vector<RepSample>& samples, const std::string& reference) {
  uint64_t failed = 0;
  for (const RepSample& sample : samples) {
    if (sample.outcome.checksum != reference) {
      std::fprintf(stderr, "perfbench: model checksum %s != %s\n",
                   sample.outcome.checksum.c_str(), reference.c_str());
      failed += sample.outcome.attempted;
    } else {
      failed += sample.outcome.failed;
    }
  }
  return failed;
}

uint64_t AttemptedOps(const std::vector<RepSample>& samples) {
  uint64_t attempted = 0;
  for (const RepSample& sample : samples) {
    attempted += sample.outcome.attempted;
  }
  return attempted;
}

void PrintManifest(const Flags& flags, const Workload& workload, uint32_t workers,
                   const std::string& checksum) {
  std::printf(
      "{\"manifest\":{\"host\":{\"nproc\":%u,\"cpu_model\":%s,\"compiler\":%s,"
      "\"build_type\":%s},\"workload\":%s,\"seed\":%" PRIu64
      ",\"workers\":%u,\"platform\":%s,\"trace\":%d,\"model_knobs\":{\"channels_per_shard\":%u,"
      "\"bank_groups_per_queue\":%u,%s},\"work_unit\":%s,\"model_checksum\":%s}}\n",
      HostCpus(), JsonString(CpuModel()).c_str(), JsonString(PERFBENCH_COMPILER).c_str(),
      JsonString(PERFBENCH_BUILD_TYPE).c_str(), JsonString(flags.workload).c_str(), flags.seed,
      workers, JsonString(workload.platform()).c_str(), flags.trace ? 1 : 0, kChannelsPerShard,
      kBankGroupsPerQueue, workload.Knobs().c_str(), JsonString(workload.work_unit()).c_str(),
      JsonString(checksum).c_str());
}

void PrintResult(uint64_t attempted, uint64_t failed, const MetricMap& metrics) {
  std::printf("{\"correct\":%s,\"attempted\":%" PRIu64 ",\"failed\":%" PRIu64
              ",\"metrics\":%s}\n",
              failed == 0 ? "true" : "false", attempted, failed,
              MetricsJson(metrics, false).c_str());
  std::fflush(stdout);
}

int RunEndToEnd(const Flags& flags, uint32_t workers) {
  std::unique_ptr<Workload> workload = MakeWorkload(flags.workload, flags.seed, workers);
  const std::vector<RepSample> samples = RunReps(*workload, flags.seconds, kMinReps);
  const std::string checksum = samples.front().outcome.checksum;

  MetricMap metrics;
  std::vector<double> setups;
  for (const RepSample& sample : samples) {
    setups.push_back(sample.setup_s);
  }
  metrics["setup_s"] = {Median(setups), "s", ""};
  metrics["work_per_s"] = {MedianRate(samples), "1/s", ""};
  metrics["peak_rss_mib"] = {PeakRssMiB(), "MiB", ""};

  // The workload's named rates, each a median over repetitions.
  MetricMap named;
  for (const auto& [name, first] : samples.front().outcome.rates) {
    std::vector<double> values;
    for (const RepSample& sample : samples) {
      values.push_back(sample.outcome.rates.at(name).value);
    }
    named[name] = {Median(values), first.unit, ""};
  }
  // Every repetition's work rate, set-up time and CPU time, so the spread
  // behind each median is visible.
  std::string rep_rates;
  std::string rep_setups;
  std::string rep_cpu;
  for (const RepSample& sample : samples) {
    const char* comma = rep_rates.empty() ? "" : ",";
    rep_rates += comma + JsonNumber(sample.outcome.work / sample.outcome.seconds);
    rep_setups += comma + JsonNumber(sample.setup_s);
    rep_cpu += comma + JsonNumber(sample.cpu_s);
  }
  std::printf("{\"report\":{\"workload\":%s,\"reps\":%zu,\"named_metrics\":%s,"
              "\"rep_work_per_s\":[%s],\"rep_setup_s\":[%s],\"rep_cpu_s\":[%s]}}\n",
              JsonString(flags.workload).c_str(), samples.size(),
              MetricsJson(named, false).c_str(), rep_rates.c_str(), rep_setups.c_str(),
              rep_cpu.c_str());
  PrintManifest(flags, *workload, workers, checksum);
  PrintResult(AttemptedOps(samples), FailedOps(samples, checksum), metrics);
  return 0;
}

// ---------------------------------------------------------------------------
// Per-layer suite (--trace 1). Each section times calls into one workload's
// layers and writes its own Chrome trace.
// ---------------------------------------------------------------------------

struct SuiteContext {
  uint64_t seed = 0;
  uint32_t workers = 1;
  MetricMap metrics;
  uint64_t failed = 0;
  uint64_t attempted = 0;

  void Put(const std::string& name, double value, const char* unit, const char* moves) {
    metrics[name] = {value, unit, moves};
  }
  void Check(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
      ++failed;
      std::fprintf(stderr, "perfbench: layer check failed: %s\n", what.c_str());
    }
  }
};

// The sharded engine configuration a trial serves `spec` with: the pinned
// model knobs and one worker, as inside the experiment runner's trials.
ShardedEngineConfig ServeConfig(const WorkloadSpec& spec) {
  ShardedEngineConfig sharded;
  sharded.engine.max_outstanding = spec.mlp;
  sharded.engine.compute_ns_per_access = spec.compute_ns_per_access;
  sharded.channels_per_shard = kChannelsPerShard;
  sharded.bank_groups_per_queue = kBankGroupsPerQueue;
  sharded.threads = 1;
  return sharded;
}

// Fresh per-socket controllers, with the pointer view the engines take.
struct Controllers {
  explicit Controllers(const DramGeometry& geometry) {
    for (uint32_t socket = 0; socket < geometry.sockets; ++socket) {
      owned.push_back(std::make_unique<MemoryController>(geometry, socket, DdrTimings{}));
      view.push_back(owned.back().get());
    }
  }
  std::vector<std::unique_ptr<MemoryController>> owned;
  std::vector<MemoryController*> view;
};

// perf_grid layers: one trial per grid point, split into its public stages.
void PerfGridLayers(SuiteContext& ctx) {
  std::vector<Booted> platforms;
  for (const SilozConfig& hypervisor : {BaselineKernel(), SilozKernel()}) {
    const RunnerConfig runner = GridRunner(hypervisor, ctx.seed);
    platforms.push_back(BootOrDie(MachineOf(runner, false), runner.hypervisor, runner.vm));
  }

  for (const FigureSet& set : FigureSets()) {
    const std::string suffix = std::string(".") + set.name;
    double ops_ns = 0.0;
    double decode_ns = 0.0;
    double serve_ns = 0.0;
    double setup_merge_ns = 0.0;
    double requests = 0.0;
    uint64_t row_hits = 0;
    uint64_t served = 0;
    size_t merges = 0;
    const uint32_t socket = GridRunner(SilozKernel(), ctx.seed).vm.socket;
    for (const Booted& booted : platforms) {
      for (const WorkloadSpec& spec : *set.workloads) {
        const uint64_t trace_seed = ctx.seed;  // trial 0's trace seed
        FlushStreamMemo(platforms.back());
        std::optional<TraceStreamer> stream;
        ops_ns += TimedNs("bench.workload.TraceStreamer", [&] {
          stream.emplace(spec, booted.machine->decoder(), booted.vm->regions(), socket,
                         trace_seed);
        });
        uint64_t sink = 0;
        decode_ns += TimedNs("bench.addr.ForEachDecoded", [&] {
          stream->ForEachDecoded([&sink](const DecodedCmd& cmd, uint32_t cmd_socket) {
            sink += cmd.row ^ (uint64_t{cmd.bank_index} << 20) ^ cmd_socket;
          });
        });
        ctx.Check(sink != 0, "decode sink of " + spec.name + " is empty");

        // The serve stage over a pre-decoded command vector (warm memo; the
        // decode pass that fills the vector is not timed).
        std::vector<std::pair<DecodedCmd, uint32_t>> cmds;
        cmds.reserve(spec.accesses);
        TraceStreamer(spec, booted.machine->decoder(), booted.vm->regions(), socket, trace_seed)
            .ForEachDecoded([&cmds](const DecodedCmd& cmd, uint32_t cmd_socket) {
              cmds.emplace_back(cmd, cmd_socket);
            });
        const DramGeometry& geometry = booted.machine->decoder().geometry();
        const ShardedEngineConfig sharded = ServeConfig(spec);
        const Controllers controllers(geometry);
        Result<ShardedEngineResult> result = NotRun<ShardedEngineResult>();
        serve_ns += TimedNs("bench.memctl.RunShardedFused", [&] {
          result = RunShardedFused(
              cmds.size(),
              [&cmds](auto&& feed) {
                for (const auto& [cmd, cmd_socket] : cmds) {
                  feed(cmd, cmd_socket);
                }
              },
              controllers.view, sharded);
        });
        ctx.Check(result.ok() && result->requests == spec.accesses,
                  "serve of " + spec.name + " lost requests");
        row_hits += controllers.view[socket]->stats().row_hits;
        served += controllers.view[socket]->stats().requests;
        requests += static_cast<double>(spec.accesses);

        // Shard controllers plus MergeShards alone: an empty stream.
        const Controllers empty(geometry);
        setup_merge_ns += TimedNs("bench.memctl.ShardSetupMerge", [&] {
          (void)RunShardedFused(0, [](auto&&) {}, empty.view, sharded);
        });
        ++merges;
      }
    }
    ctx.Put("workload.ops_ns_per_req" + suffix, ops_ns / requests, "ns/req", "grid_mreq_per_s");
    ctx.Put("addr.decode_ns_per_req" + suffix, decode_ns / requests, "ns/req",
            "grid_mreq_per_s");
    ctx.Put("memctl.serve_ns_per_req" + suffix, serve_ns / requests, "ns/req",
            "grid_mreq_per_s");
    ctx.Put("memctl.shard_setup_merge_us" + suffix,
            setup_merge_ns / 1e3 / static_cast<double>(merges), "us", "grid_mreq_per_s");
    ctx.Put("memctl.row_hit_rate" + suffix,
            static_cast<double>(row_hits) / static_cast<double>(served), "ratio",
            "none (simulated, exact)");

    // Scheduler behaviour of the whole grid at the workload's worker count.
    FlushStreamMemo(platforms.back());
    PoolPhaseMetrics phase;
    Result<std::vector<RunMeasurement>> grid =
        RunWorkloadGrid(FigurePoints(set, ctx.seed), ctx.workers, &phase);
    ctx.Check(grid.ok(), std::string("grid ") + set.name);
    const double workers = static_cast<double>(phase.pool.workers);
    ctx.Put("sim.grid_idle_frac" + suffix, 1.0 - phase.cpu_ms / (phase.wall_ms * workers),
            "ratio", "grid_mreq_per_s");
    ctx.Put("sim.grid_steal_frac" + suffix,
            static_cast<double>(phase.pool.steals) /
                static_cast<double>(std::max<uint64_t>(1, phase.pool.tasks)),
            "ratio", "grid_mreq_per_s");
  }
}

// hammer layers: the zen fault trial's stages, then the campaign's.
void HammerLayers(SuiteContext& ctx) {
  double materialize_ns = 0.0;
  double serve_ns = 0.0;
  double replay_ns = 0.0;
  double requests = 0.0;
  uint64_t acts = 0;
  const RunnerConfig zen = ZenFaultRunner(ctx.seed, 1);
  for (const char* name : kFaultSpecs) {
    const WorkloadSpec spec = FaultSpec(name);
    Booted booted = BootOrDie(MachineOf(zen, true), zen.hypervisor, zen.vm);
    FlushStreamMemo(booted);
    std::vector<MemRequest> trace;
    materialize_ns += TimedNs("bench.workload.GenerateTrace", [&] {
      trace = GenerateTrace(spec, booted.machine->decoder(), booted.vm->regions(),
                            zen.vm.socket, zen.seed);
    });
    const std::vector<MemoryController*> controllers = booted.machine->controllers();
    uint64_t misses_before = 0;
    for (const MemoryController* controller : controllers) {
      misses_before += controller->stats().row_misses;
    }
    Result<ShardedEngineResult> served = NotRun<ShardedEngineResult>();
    serve_ns += TimedNs("bench.memctl.RunShardedClosedLoop", [&] {
      served = RunShardedClosedLoop(trace, controllers, ServeConfig(spec));
    });
    ctx.Check(served.ok() && served->requests == trace.size(),
              std::string("zen serve of ") + name);
    for (const MemoryController* controller : controllers) {
      acts += controller->stats().row_misses;
    }
    acts -= misses_before;
    replay_ns += TimedNs("bench.dram.ReplayDisturbance", [&] {
      ReplayDisturbance(*booted.machine, trace, kChannelsPerShard, 1);
    });
    requests += static_cast<double>(trace.size());
  }
  ctx.Put("workload.materialize_ns_per_req", materialize_ns / requests, "ns/req",
          "fault_mreq_per_s");
  ctx.Put("memctl.serve_trace_ns_per_req", serve_ns / requests, "ns/req", "fault_mreq_per_s");
  ctx.Put("dram.replay_ns_per_req", replay_ns / requests, "ns/req", "fault_mreq_per_s");
  ctx.Put("dram.replay_acts", static_cast<double>(acts), "count", "none (simulated, exact)");

  // A fixed double-sided pair inside the attacker VM: rows r-1 and r+1 of
  // the bank under the first page of its first pinned range.
  double hammer_ns_per_act = 0.0;
  {
    Booted booted = BootOrDie(CampaignMachine(), SilozConfig{}, kAttackerVm);
    const std::vector<PhysRange> pinned = PinnedRanges(booted);
    const AddressDecoder& decoder = booted.machine->decoder();
    MediaAddress media = *decoder.PhysToMedia(pinned.front().begin + 64 * kCacheLineBytes);
    media.row = std::max<uint32_t>(media.row, 1);
    std::vector<uint64_t> pair;
    for (uint32_t row : {media.row - 1, media.row + 1}) {
      MediaAddress aggressor = media;
      aggressor.row = row;
      Result<uint64_t> phys = decoder.MediaToPhys(aggressor);
      SILOZ_CHECK(phys.ok()) << phys.error().ToString();
      pair.push_back(*phys);
    }
    constexpr uint32_t kRounds = 200'000;
    uint64_t hammered = 0;
    const double ns = TimedNs("bench.attack.HammerPhysAddresses", [&] {
      hammered = HammerPhysAddresses(*booted.machine, pair, kRounds);
    });
    hammer_ns_per_act = ns / static_cast<double>(hammered);
  }
  ctx.Put("dram.hammer_ns_per_act", hammer_ns_per_act, "ns/act", "campaign_kacts_per_s");

  Booted booted = BootOrDie(CampaignMachine(), SilozConfig{}, kAttackerVm);
  Machine& machine = *booted.machine;
  const std::vector<PhysRange> pinned = PinnedRanges(booted);
  FuzzReport report;
  const double fuzz_ns = TimedNs("bench.attack.BlacksmithFuzzer.Run", [&] {
    report = BlacksmithFuzzer(CampaignFuzz()).Run(machine, pinned);
  });
  machine.AdvanceClock(kSoakNs);
  const double scrub_ns =
      TimedNs("bench.dram.PatrolScrubAll", [&] { (void)machine.PatrolScrubAll(); });
  std::vector<PhysFlip> late = machine.DrainFlips();
  report.flips.insert(report.flips.end(), late.begin(), late.end());
  const FlipCensus census = ClassifyFlips(report.flips, booted.hypervisor->group_map(), pinned);
  ctx.Check(census.outside == 0 && census.inside > 0, "layer-suite campaign containment");
  ctx.Put("attack.pattern_ms", fuzz_ns / 1e6 / std::max(1u, report.patterns_run), "ms",
          "campaign_kacts_per_s");
  ctx.Put("attack.non_act_frac",
          1.0 - static_cast<double>(report.activations) * hammer_ns_per_act / fuzz_ns, "ratio",
          "campaign_kacts_per_s");
  ctx.Put("dram.scrub_ms", scrub_ns / 1e6, "ms", "campaign_kacts_per_s");
  ctx.Put("attack.flips_per_mact",
          static_cast<double>(report.flips.size()) /
              (static_cast<double>(report.activations) / 1e6),
          "flips/Mact", "none (simulated, exact)");
  ctx.Put("attack.flips_outside", static_cast<double>(census.outside), "count",
          "none (must be 0)");
}

// The fleet layers move no end-to-end metric of a kept workload.
constexpr const char* kNoFleetWorkload = "none (the fleet_churn workload was dropped; README.md)";

// fleet layers: replay rate and CPU use at N workers, and the existing
// sched-domain latency histograms (which include hypervisor lock wait).
void FleetLayers(SuiteContext& ctx) {
  ctx.Put("siloz.boot_ms", FleetBootSeconds() * 1e3, "ms", "setup_s");
  obs::Registry::Global().Reset();  // the fleet.*_ns histograms start empty
  const FleetConfig config = ChurnConfig(ctx.seed, ctx.workers);
  Result<FleetReport> report = NotRun<FleetReport>();
  const double cpu0 = CpuSeconds();
  const double wall_ns =
      TimedNs("bench.sim.RunFleetChurn", [&] { report = RunFleetChurn(config); });
  const double cpu_s = CpuSeconds() - cpu0;
  ctx.Check(report.ok() && report->drained_clean, "layer-suite fleet replay");
  if (!report.ok()) {
    return;
  }
  ctx.Put("fleet.vms_per_s", static_cast<double>(report->trace_vms) / (wall_ns * 1e-9), "VM/s",
          kNoFleetWorkload);
  ctx.Put("fleet.cpu_util", cpu_s / (wall_ns * 1e-9 * ctx.workers), "ratio", kNoFleetWorkload);
  obs::Registry& registry = obs::Registry::Global();
  auto percentile_us = [&](const char* histogram, double quantile) {
    const obs::HistogramSnapshot snapshot =
        registry.GetHistogram(histogram, obs::Domain::kSched).Snapshot();
    return static_cast<double>(obs::HistogramPercentile(snapshot, quantile)) / 1e3;
  };
  ctx.Put("siloz.create_us_p50", percentile_us("fleet.alloc_ns", 0.50), "us", kNoFleetWorkload);
  ctx.Put("siloz.create_us_p99", percentile_us("fleet.alloc_ns", 0.99), "us", kNoFleetWorkload);
  ctx.Put("siloz.destroy_us_p50", percentile_us("fleet.teardown_ns", 0.50), "us",
          kNoFleetWorkload);
  ctx.Put("siloz.destroy_us_p99", percentile_us("fleet.teardown_ns", 0.99), "us",
          kNoFleetWorkload);
  ctx.Put("siloz.migrate_us_p50", percentile_us("fleet.migrate_ns", 0.50), "us",
          kNoFleetWorkload);
  ctx.Put("siloz.migrate_us_p90", percentile_us("fleet.migrate_ns", 0.90), "us",
          kNoFleetWorkload);
  ctx.Put("fleet.admit_frac",
          static_cast<double>(report->admitted) / static_cast<double>(report->trace_vms), "ratio",
          "none (simulated, exact)");
  ctx.Put("fleet.migrations", static_cast<double>(report->migrations), "count",
          "none (simulated, exact)");
}

// The audit layers move no end-to-end metric of a kept workload.
constexpr const char* kNoAuditWorkload = "none (the audit_matrix workload was dropped; README.md)";

// audit layers: each invariant pass alone, per platform.
void AuditLayers(SuiteContext& ctx) {
  double pass_ns[4] = {};
  uint64_t pass_probes[4] = {};
  double scan_cpu_s = 0.0;
  double scan_capacity_s = 0.0;
  uint64_t probes = 0;
  for (const std::string& name : PlatformNames()) {
    AuditTarget target;
    const double boot_ns = TimedNs("bench.siloz.Boot", [&] { target = BootAuditTarget(name); });
    ctx.Put("siloz.boot_ms." + name, boot_ns / 1e6, "ms", kNoAuditWorkload);
    const audit::Auditor auditor(*target.hypervisor, *target.decoder, target.info->remap,
                                 AuditOptions(ctx.seed, ctx.workers));
    audit::Report report;
    const std::pair<audit::Invariant, std::function<void()>> passes[] = {
        {audit::Invariant::kDecoderInvertibility,
         [&] { auditor.CheckDecoderInvertibility(report); }},
        {audit::Invariant::kDomainClosure, [&] { auditor.CheckDomainClosure(report); }},
        {audit::Invariant::kGuardFencing, [&] { auditor.CheckGuardFencing(report); }},
        {audit::Invariant::kBlastRadius, [&] { auditor.CheckBlastRadius(report); }},
    };
    for (const auto& [invariant, pass] : passes) {
      const size_t index = static_cast<size_t>(invariant);
      const double cpu0 = CpuSeconds();
      const std::string span = std::string("bench.audit.") + audit::InvariantName(invariant);
      const double ns = TimedNs(span.c_str(), pass);
      if (invariant == audit::Invariant::kBlastRadius) {
        scan_cpu_s += CpuSeconds() - cpu0;
        scan_capacity_s += report.scan_wall_ms / 1e3 * report.scan_pool.workers;
      }
      pass_ns[index] += ns;
      pass_probes[index] += report.StatsFor(invariant).probes;
      if (invariant == audit::Invariant::kDecoderInvertibility) {
        ctx.Put("audit.invertibility_ns_per_probe." + name,
                ns / static_cast<double>(report.StatsFor(invariant).probes), "ns/probe",
                kNoAuditWorkload);
      }
    }
    ctx.Check(report.ok(), "layer-suite audit on " + name);
    probes += report.total_probes();
  }
  auto per_probe = [&](audit::Invariant invariant) {
    const size_t index = static_cast<size_t>(invariant);
    return pass_ns[index] / static_cast<double>(pass_probes[index]);
  };
  ctx.Put("audit.closure_ns_per_probe", per_probe(audit::Invariant::kDomainClosure), "ns/probe",
          kNoAuditWorkload);
  ctx.Put("audit.fencing_ns_per_probe", per_probe(audit::Invariant::kGuardFencing), "ns/probe",
          kNoAuditWorkload);
  ctx.Put("audit.blast_ns_per_probe", per_probe(audit::Invariant::kBlastRadius), "ns/probe",
          kNoAuditWorkload);
  ctx.Put("audit.scan_idle_frac", 1.0 - scan_cpu_s / scan_capacity_s, "ratio",
          kNoAuditWorkload);
  ctx.Put("audit.probes", static_cast<double>(probes), "count", "none (simulated, exact)");
}

int RunTraced(const Flags& flags, uint32_t workers) {
  obs::Tracer& tracer = obs::Tracer::Global();
  SuiteContext ctx;
  ctx.seed = flags.seed;
  ctx.workers = workers;

  // Tracing overhead on the selected workload: alternate untraced and traced
  // repetitions, and check that both produce the same model checksum.
  std::unique_ptr<Workload> workload = MakeWorkload(flags.workload, flags.seed, workers);
  std::vector<RepSample> untraced;
  std::vector<RepSample> traced;
  tracer.Reset();
  const Clock::time_point start = Clock::now();
  while (traced.size() < 2 || SecondsSince(start) < flags.seconds) {
    tracer.Disable();
    std::vector<RepSample> one = RunReps(*workload, 0.0, 1);
    untraced.push_back(std::move(one.front()));
    tracer.Enable();
    one = RunReps(*workload, 0.0, 1);
    traced.push_back(std::move(one.front()));
  }
  tracer.Disable();
  if (!obs::WriteTraceJson(flags.trace_dir + "/workload.json")) {
    return 1;
  }
  const std::string checksum = untraced.front().outcome.checksum;
  ctx.attempted += AttemptedOps(untraced) + AttemptedOps(traced);
  ctx.failed += FailedOps(untraced, checksum) + FailedOps(traced, checksum);
  ctx.Put("trace.overhead_frac", 1.0 - MedianRate(traced) / MedianRate(untraced), "ratio",
          "none (traced vs untraced work_per_s)");

  const std::pair<const char*, void (*)(SuiteContext&)> sections[] = {
      {"perf_grid", &PerfGridLayers},
      {"hammer", &HammerLayers},
      {"fleet", &FleetLayers},
      {"audit", &AuditLayers},
  };
  for (const auto& [section, run] : sections) {
    tracer.Reset();
    tracer.Enable();
    run(ctx);
    tracer.Disable();
    if (!obs::WriteTraceJson(flags.trace_dir + "/" + section + ".json")) {
      return 1;
    }
  }

  std::printf("{\"report\":{\"workload\":%s,\"reps_untraced\":%zu,\"reps_traced\":%zu,"
              "\"layers\":%s}}\n",
              JsonString(flags.workload).c_str(), untraced.size(), traced.size(),
              MetricsJson(ctx.metrics, true).c_str());
  PrintManifest(flags, *workload, workers, checksum);
  PrintResult(ctx.attempted, ctx.failed, ctx.metrics);
  return 0;
}

int Main(int argc, char** argv) {
  std::string error;
  const std::optional<Flags> flags = ParseFlags(argc, argv, error);
  if (!flags.has_value()) {
    std::fprintf(stderr, "siloz_perfbench: %s\n", error.c_str());
    return 2;
  }
  const uint32_t workers = flags->workers != 0 ? flags->workers : DefaultWorkers();
  return flags->trace ? RunTraced(*flags, workers) : RunEndToEnd(*flags, workers);
}

}  // namespace
}  // namespace siloz::perfbench

int main(int argc, char** argv) { return siloz::perfbench::Main(argc, argv); }
