// silozctl: command-line front end over the simulated platform — inspect
// topology, run attack campaigns, compare kernels, and audit isolation.
//
// Usage: silozctl <command> [options]; `silozctl <command> --help` lists a
// command's flags:
//   topology  boot a platform and print its groups, nodes and EPT block
//   attack    run a Blacksmith campaign from one VM against another
//   audit     audit a live VM's isolation (--flip-ept corrupts its EPT)
//   run       serve one workload through the memory controllers
//   fleet     replay VM churn on the 8-socket fleet platform
//   groupof   decode a physical address to its subarray group
//
// --platform selects a registered platform (skylake, cascadelake, zen,
// ddr5): decoder family, geometry, and DDR-generation semantics together.
// It replaces the legacy --snc/--ddr5 geometry toggles; combining them is an
// error.
//
// Every command additionally accepts --metrics-out FILE and --trace-out FILE
// (observability exports; written after the command completes, never mixed
// into stdout). --threads 0 (the default) auto-detects: $SILOZ_THREADS if
// set, else the hardware concurrency.
#include <algorithm>
#include <cstdio>
#include <iterator>
#include <string>
#include <vector>

#include "src/addr/platform.h"
#include "src/attack/blacksmith.h"
#include "src/audit/auditor.h"
#include "src/base/flags.h"
#include "src/base/units.h"
#include "src/ept/phys_memory.h"
#include "src/obs/trace.h"
#include "src/sim/experiment.h"
#include "src/sim/fleet.h"
#include "src/sim/machine.h"
#include "src/siloz/hypervisor.h"
#include "src/workload/workloads.h"

using namespace siloz;

namespace {

int CmdTopology(FlagSet& flags, int argc, char** argv) {
  std::string platform;
  bool snc = false;
  bool ddr5 = false;
  uint32_t subarray_rows = 0;  // 0 = the geometry's own
  flags.Add("--platform", &platform, "registered platform (excludes --snc/--ddr5)",
            {.choices = PlatformNames()});
  flags.Add("--snc", &snc, "sub-NUMA clustering decoder (2 clusters)");
  flags.Add("--ddr5", &ddr5, "DDR5 geometry");
  flags.Add("--subarray-rows", &subarray_rows, "presumed rows per subarray", {.min = 1});
  flags.ParseOrExit(argc, argv, 1);
  if (!platform.empty() && (snc || ddr5)) {
    std::fprintf(stderr, "silozctl topology: --platform and %s are exclusive\n",
                 snc ? "--snc" : "--ddr5");
    return 1;
  }
  DramGeometry geometry = ddr5 ? Ddr5Geometry() : DramGeometry{};
  SilozConfig config;
  std::unique_ptr<AddressDecoder> decoder;
  if (!platform.empty()) {
    const PlatformInfo* info = FindPlatform(platform);
    geometry = info->geometry;
    if (subarray_rows != 0) {
      geometry.rows_per_subarray = subarray_rows;
    }
    config.uniform_internal_addressing = info->uniform_internal_addressing;
    Result<std::unique_ptr<AddressDecoder>> made = info->make(geometry);
    if (!made.ok()) {
      std::fprintf(stderr, "platform '%s': %s\n", platform.c_str(),
                   made.error().ToString().c_str());
      return 1;
    }
    decoder = std::move(*made);
  } else if (snc) {
    decoder = std::make_unique<SncDecoder>(geometry, 2);
  } else {
    decoder = std::make_unique<SkylakeDecoder>(geometry);
  }
  config.rows_per_subarray = subarray_rows != 0 ? subarray_rows : geometry.rows_per_subarray;
  FlatPhysMemory memory;
  SilozHypervisor hypervisor(*decoder, memory, config);
  if (Status status = hypervisor.Boot(); !status.ok()) {
    std::fprintf(stderr, "boot: %s\n", status.error().ToString().c_str());
    return 1;
  }
  std::printf("platform : %s\n", geometry.ToString().c_str());
  std::printf("decoder  : %s\n", decoder->name().c_str());
  std::printf("groups   : %u/socket x %lu MiB%s\n", hypervisor.group_map().groups_per_socket(),
              static_cast<unsigned long>(hypervisor.group_map().group_bytes() >> 20),
              hypervisor.using_artificial_groups() ? " (artificial)" : "");
  std::printf("nodes    : %zu total (%zu host, %zu guest)\n", hypervisor.nodes().node_count(),
              hypervisor.nodes().NodesOfKind(NodeKind::kHostReserved).size(),
              hypervisor.nodes().NodesOfKind(NodeKind::kGuestReserved).size());
  std::printf("EPT block: %lu KiB reserved (%.4f%% of DRAM), %zu pool pages/socket\n",
              static_cast<unsigned long>(hypervisor.ept_reserved_bytes() >> 10),
              100.0 * static_cast<double>(hypervisor.ept_reserved_bytes()) /
                  static_cast<double>(geometry.total_bytes()),
              hypervisor.ept_pool_free(0));
  for (uint32_t socket = 0; socket < geometry.sockets; ++socket) {
    std::printf("socket %u : %zu guest nodes available\n", socket,
                hypervisor.AvailableGuestNodes(socket).size());
  }
  return 0;
}

int CmdAttack(FlagSet& flags, int argc, char** argv) {
  bool baseline = false;
  BlacksmithConfig fuzz;
  flags.Add("--baseline", &baseline, "boot the baseline kernel instead of Siloz");
  flags.Add("--patterns", &fuzz.patterns, "fuzzing patterns to synthesize");
  flags.Add("--seed", &fuzz.seed, "fuzzer seed");
  flags.Add("--threads", &fuzz.threads, "campaign replay workers, one DIMM per task (0 = auto)");
  flags.ParseOrExit(argc, argv, 1);
  MachineConfig machine_config;
  machine_config.fault_tracking = true;
  DimmProfile profile;
  profile.disturbance.threshold_mean = 2500.0;
  profile.trr.enabled = true;
  profile.trr.act_threshold = 400;
  machine_config.dimm_profiles = {profile};
  Machine machine(machine_config);

  SilozConfig config;
  config.enabled = !baseline;
  SilozHypervisor hypervisor(machine.decoder(), machine.phys_memory(), config);
  SILOZ_CHECK(hypervisor.Boot().ok());
  const VmId attacker = *hypervisor.CreateVm({.name = "attacker", .memory_bytes = 3_GiB});
  const VmId victim = *hypervisor.CreateVm({.name = "victim", .memory_bytes = 3_GiB});
  Vm& attacker_vm = **hypervisor.GetVm(attacker);

  std::vector<PhysRange> reachable;
  for (const VmRegion& region : attacker_vm.regions()) {
    reachable.push_back(PhysRange{region.hpa, region.hpa + region.bytes});
  }
  std::printf("kernel=%s patterns=%u seed=%lu ... ", baseline ? "baseline" : "siloz",
              fuzz.patterns, static_cast<unsigned long>(fuzz.seed));
  std::fflush(stdout);
  const FuzzReport report = BlacksmithFuzzer(fuzz).Run(machine, reachable);

  uint64_t in_victim = 0;
  Vm& victim_vm = **hypervisor.GetVm(victim);
  for (const PhysFlip& flip : report.flips) {
    for (const VmRegion& region : victim_vm.regions()) {
      in_victim += (flip.phys >= region.hpa && flip.phys < region.hpa + region.bytes);
    }
  }
  std::printf("done\n%lu activations, %zu flips, %lu in the victim VM\n",
              static_cast<unsigned long>(report.activations), report.flips.size(),
              static_cast<unsigned long>(in_victim));
  const Status audit_a = hypervisor.AuditVmIsolation(attacker);
  const Status audit_v = hypervisor.AuditVmIsolation(victim);
  std::printf("audits: attacker=%s victim=%s\n", audit_a.ok() ? "PASS" : "FAIL",
              audit_v.ok() ? "PASS" : "FAIL");
  return 0;
}

int CmdAudit(FlagSet& flags, int argc, char** argv) {
  bool flip_ept = false;
  bool json = false;
  audit::Options options;
  options.probe_stride = 4_MiB;
  options.random_probes = 512;
  flags.Add("--flip-ept", &flip_ept, "inject a bit flip into the VM's EPT first");
  flags.Add("--stride BYTES", &options.probe_stride, "physical probe stride", {.min = 1});
  flags.Add("--threads", &options.threads, "blast-radius scan workers (0 = auto)");
  flags.Add("--json", &json, "machine-readable report");
  flags.ParseOrExit(argc, argv, 1);
  DramGeometry geometry;
  SkylakeDecoder decoder(geometry);
  FlatPhysMemory memory;
  SilozHypervisor hypervisor(decoder, memory, SilozConfig{});
  SILOZ_CHECK(hypervisor.Boot().ok());
  const VmId vm = *hypervisor.CreateVm({.name = "tenant", .memory_bytes = 3_GiB});
  if (flip_ept) {
    Vm& tenant = **hypervisor.GetVm(vm);
    memory.FlipBit(tenant.ept()->table_pages().back() + 4, 2);
    std::printf("injected a bit flip into an EPT table page\n");
  }

  // Static pass first: prove the boot-time plan upholds the four isolation
  // invariants, then check this VM's live EPT bytes against it.
  audit::Auditor auditor(hypervisor, RemapConfig{}, options);
  audit::Report report = auditor.Run();
  auditor.CheckVmContainment(**hypervisor.GetVm(vm), report);
  if (json) {
    std::printf("%s\n", report.ToJson().c_str());
  } else {
    std::printf("%s", report.ToText().c_str());
  }
  // Kept out of the report itself so stdout stays identical for every N.
  std::fprintf(stderr, "blast-radius scan: %u workers, %llu tasks, wall %.1f ms\n",
               report.scan_pool.workers, static_cast<unsigned long long>(report.scan_pool.tasks),
               report.scan_wall_ms);

  const Status audit = hypervisor.AuditVmIsolation(vm);
  std::printf("EPT walk audit: %s\n", audit.ok() ? "PASS" : audit.error().ToString().c_str());
  return (audit.ok() && report.ok()) ? 0 : 2;
}

int CmdRun(FlagSet& flags, int argc, char** argv) {
  // The controller-backed experiment path: boots a machine + hypervisor per
  // trial and serves the workload through the memory controllers, so the
  // exported metrics include per-bank-group ACT/PRE/RD/WR/REF counts on top
  // of the hypervisor allocation counters. Model metrics are identical for
  // every --threads N (DESIGN.md §9).
  std::string name = "redis-a";
  uint64_t accesses = 0;  // 0 = the workload's own
  std::string platform;
  bool baseline = false;
  RunnerConfig config;
  flags.Add("workload", &name, "workload to serve (default redis-a)");
  flags.Add("--accesses", &accesses, "accesses per trial", {.min = 1});
  flags.Add("--platform", &platform, "registered platform", {.choices = PlatformNames()});
  flags.Add("--baseline", &baseline, "boot the baseline kernel instead of Siloz");
  flags.Add("--trials", &config.trials, "trials", {.min = 1});
  flags.Add("--seed", &config.seed, "root seed");
  flags.Add("--threads", &config.threads, "trial workers (0 = auto)");
  flags.Add("--faults", &config.fault_tracking, "track disturbance and report bit flips");
  flags.ParseOrExit(argc, argv, 1);
  Result<WorkloadSpec> spec = FindWorkload(name);
  if (!spec.ok()) {
    std::fprintf(stderr, "unknown workload '%s'\n", name.c_str());
    return 1;
  }
  if (accesses != 0) {
    spec->accesses = accesses;
  }
  if (!platform.empty()) {
    if (Status applied = ApplyPlatform(config, platform); !applied.ok()) {
      std::fprintf(stderr, "--platform: %s\n", applied.error().ToString().c_str());
      return 1;
    }
  }
  config.hypervisor.enabled = !baseline;
  Result<RunMeasurement> run = RunWorkload(config, *spec);
  if (!run.ok()) {
    std::fprintf(stderr, "run: %s\n", run.error().ToString().c_str());
    return 1;
  }
  std::printf("workload=%s kernel=%s platform=%s trials=%u\n", spec->name.c_str(),
              config.hypervisor.enabled ? "siloz" : "baseline",
              config.platform.empty() ? "skylake" : config.platform.c_str(), config.trials);
  std::printf("elapsed   : %.3f ms/trial (stddev %.3f)\n", run->elapsed_ns.mean() / 1e6,
              run->elapsed_ns.stddev() / 1e6);
  std::printf("bandwidth : %.3f GiB/s\n", run->bandwidth_gibs.mean());
  std::printf("row hits  : %.1f%%\n", 100.0 * run->row_hit_rate);
  if (config.fault_tracking) {
    std::printf("bit flips : %zu\n", run->flip_phys.size());
  }
  return 0;
}

int CmdFleet(FlagSet& flags, int argc, char** argv) {
  // Fleet churn on the 8-socket fleet platform (§7 operational costs).
  // Model output (stdout) is bit-identical for every --threads N; the
  // wall-clock latency tails go to stderr so stdout stays comparable.
  FleetConfig config;
  std::string policy = AdmissionPolicyName(config.policy);
  bool json = false;
  flags.Add("--policy", &policy, "admission policy at capacity",
            {.choices = {"reject", "queue", "defrag"}});
  flags.Add("--seed", &config.seed, "root seed of the arrival trace");
  flags.Add("--threads", &config.threads, "trace-synthesis workers (0 = auto)");
  flags.Add("--duration S", &config.duration_s, "simulated seconds of arrivals");
  flags.Add("--rate R", &config.arrivals_per_s, "mean arrivals per second");
  flags.Add("--burst A", &config.burst_amplitude, "diurnal modulation amplitude");
  flags.Add("--epoch S", &config.epoch_s, "seconds between defrag/census barriers");
  flags.Add("--timeout S", &config.queue_timeout_s, "queue abandonment deadline");
  flags.Add("--json", &json, "machine-readable report");
  flags.ParseOrExit(argc, argv, 1);
  config.policy = ParseAdmissionPolicy(policy).value();
  Result<FleetReport> report = RunFleetChurn(config);
  if (!report.ok()) {
    std::fprintf(stderr, "fleet: %s\n", report.error().ToString().c_str());
    return 1;
  }
  if (json) {
    std::printf("%s\n", report->ModelJson().c_str());
  } else {
    std::printf("%s", report->ModelText().c_str());
  }
  std::fprintf(stderr, "%s", FleetReport::LatencyText().c_str());
  return report->drained_clean ? 0 : 2;
}

int CmdGroupOf(FlagSet& flags, int argc, char** argv) {
  uint64_t phys = 0;
  std::string platform;
  flags.Add("phys-address", &phys, "physical address, decimal or 0x hex", {.required = true});
  flags.Add("--platform", &platform, "registered platform", {.choices = PlatformNames()});
  flags.ParseOrExit(argc, argv, 1);
  DramGeometry geometry;
  std::unique_ptr<AddressDecoder> decoder;
  if (platform.empty()) {
    decoder = std::make_unique<SkylakeDecoder>(geometry);
  } else {
    geometry = FindPlatform(platform)->geometry;
    decoder = MakePlatformDecoder(platform).value();  // registry parts always build
  }
  SubarrayGroupMap map = *SubarrayGroupMap::Build(*decoder, geometry.rows_per_subarray);
  Result<uint32_t> group = map.GroupOfPhys(phys);
  if (!group.ok()) {
    std::fprintf(stderr, "%s\n", group.error().ToString().c_str());
    return 1;
  }
  const MediaAddress media = *decoder->PhysToMedia(phys);
  std::printf("phys 0x%lx -> %s -> subarray group %u (socket %u, subarray %u)\n",
              static_cast<unsigned long>(phys), media.ToString().c_str(), *group,
              map.SocketOfGroup(*group), map.IndexInCluster(*group));
  return 0;
}

struct Command {
  const char* name;
  int (*run)(FlagSet& flags, int argc, char** argv);
};

constexpr Command kCommands[] = {
    {"topology", CmdTopology}, {"attack", CmdAttack}, {"audit", CmdAudit},
    {"run", CmdRun},           {"fleet", CmdFleet},   {"groupof", CmdGroupOf},
};

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> names;
  for (const Command& command : kCommands) {
    names.emplace_back(command.name);
  }
  std::string name;
  FlagSet flags("silozctl");
  flags.Add("command", &name, "'silozctl <command> --help' lists its flags",
            {.choices = names, .required = true});
  flags.ParseOrExit(std::min(argc, 2), argv, 1);  // the command parses the rest
  const Command& command = *std::find_if(std::begin(kCommands), std::end(kCommands),
                                         [&](const Command& c) { return name == c.name; });
  // Each command declares its own flags into `command_flags`, then parses.
  // Commands keep all simulated objects function-local, so their destructors
  // have flushed every model counter by the time they return.
  obs::ExportFiles exports;
  FlagSet command_flags("silozctl " + name);
  command_flags.AddExports(&exports);
  const int status = command.run(command_flags, argc - 1, argv + 1);
  return exports.Write() ? status : 1;
}
