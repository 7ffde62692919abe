// siloz_audit: stand-alone static isolation-domain analyzer.
//
// Proves the four Siloz isolation invariants (decoder invertibility, domain
// closure, guard fencing, blast-radius containment) for a machine
// configuration without running any workload. Exit codes: 0 = all invariants
// hold, 2 = findings, 1 = usage/boot error. CI runs this on the default
// dual-socket Skylake platform and fails on any finding.
//
// Usage: siloz_audit [options]; `siloz_audit --help` lists them.
#include <cstdio>
#include <memory>
#include <string>

#include "src/addr/decoder.h"
#include "src/addr/platform.h"
#include "src/audit/auditor.h"
#include "src/audit/corrupt_decoder.h"
#include "src/base/flags.h"
#include "src/base/units.h"
#include "src/dram/remap.h"
#include "src/ept/phys_memory.h"
#include "src/obs/trace.h"
#include "src/siloz/conservation.h"
#include "src/siloz/hypervisor.h"

using namespace siloz;

namespace {

// Lifecycle mode: proves every CreateVm and MigrateVm error path conserves
// resources (DESIGN.md §11) on this platform configuration. Returns the exit
// code: 0 = every path conserved, 2 = a leak, 1 = boot failure.
int RunFaultSweeps(const AddressDecoder& decoder, const SilozConfig& config,
                   const DramGeometry& geometry) {
  FlatPhysMemory memory;
  SilozHypervisor hypervisor(decoder, memory, config);
  Status boot = hypervisor.Boot();
  if (!boot.ok()) {
    std::fprintf(stderr, "boot failed: %s\n", boot.error().ToString().c_str());
    return 1;
  }
  // A VM touching every reservation class: multi-run RAM, ROM, an MMIO
  // window, and EPT table pages.
  VmConfig vm;
  vm.name = "fault-sweep";
  vm.memory_bytes = 8_MiB;
  vm.rom_bytes = 2_MiB;
  vm.mmio_bytes = 64_KiB;
  vm.socket = 0;
  Result<FaultSweepReport> sweep = RunCreateVmFaultSweep(hypervisor, vm);
  if (!sweep.ok()) {
    std::fprintf(stderr, "fault sweep FAILED: %s\n", sweep.error().ToString().c_str());
    return 2;
  }
  std::printf(
      "fault sweep PASS: %llu points probed, %llu faults injected "
      "(%llu failed the create, %llu tolerated); all error paths conserved\n",
      static_cast<unsigned long long>(sweep->points_probed),
      static_cast<unsigned long long>(sweep->faults_injected),
      static_cast<unsigned long long>(sweep->creates_failed),
      static_cast<unsigned long long>(sweep->creates_survived));
  // The same treatment for MigrateVm: fail each allocation point of the
  // cross-socket move and verify the VM stays intact on its source (or,
  // when the fault is tolerated, passes the isolation audit on its target).
  // Needs a second socket to migrate to.
  if (geometry.sockets < 2) {
    std::printf("migrate sweep SKIPPED: platform has %u socket(s)\n", geometry.sockets);
    return 0;
  }
  Result<FaultSweepReport> migrate_sweep =
      RunMigrateVmFaultSweep(hypervisor, vm, /*target_socket=*/1);
  if (!migrate_sweep.ok()) {
    std::fprintf(stderr, "migrate sweep FAILED: %s\n", migrate_sweep.error().ToString().c_str());
    return 2;
  }
  std::printf(
      "migrate sweep PASS: %llu points probed, %llu faults injected "
      "(%llu failed the migration, %llu tolerated); all error paths conserved\n",
      static_cast<unsigned long long>(migrate_sweep->points_probed),
      static_cast<unsigned long long>(migrate_sweep->faults_injected),
      static_cast<unsigned long long>(migrate_sweep->creates_failed),
      static_cast<unsigned long long>(migrate_sweep->creates_survived));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string platform;
  std::string decoder_name;  // empty = skylake; set only by an explicit --decoder
  std::string corrupt = "none";
  bool ddr5 = false;
  bool scrambling = false;
  bool fault_sweep = false;
  bool json = false;
  uint32_t subarray_rows = 0;  // 0 = the geometry's own
  SilozConfig config;
  audit::Options options;
  obs::ExportFiles exports;
  FlagSet flags("siloz_audit");
  flags.Add("--platform", &platform,
            "registered platform: decoder family,\n"
            "geometry, and remap semantics; excludes\n"
            "--decoder/--ddr5",
            {.choices = PlatformNames()});
  flags.Add("--decoder", &decoder_name, "platform decoder (default skylake)",
            {.choices = {"skylake", "snc2"}});
  flags.Add("--ddr5", &ddr5, "DDR5 geometry + remap semantics");
  flags.Add("--subarray-rows", &subarray_rows, "boot parameter (default 1024)", {.min = 1});
  flags.Add("--silicon-rows", &options.silicon_rows_per_subarray,
            "silicon ground truth (default = boot value)");
  flags.Add("--host-groups", &config.host_groups_per_socket, "host groups per socket (default 2)");
  flags.Add("--ept-block", &config.ept_block_row_groups, "guard-row block size (default 32)");
  flags.Add("--ept-offset", &config.ept_row_group_offset, "guard-row block offset (default 12)");
  flags.Add("--stride BYTES", &options.probe_stride, "physical probe stride (default 256 KiB)",
            {.min = 1});
  flags.Add("--random-probes", &options.random_probes, "extra seeded probes (default 4096)");
  flags.Add("--exhaustive", &options.exhaustive, "probe every 4 KiB page");
  flags.Add("--max-findings", &options.max_findings_per_invariant,
            "findings kept per invariant (default 16)");
  flags.Add("--corrupt", &corrupt, "audit against a deliberately wrong decoder",
            {.choices = {"none", "shifted-jump", "broken-inverse"}});
  flags.Add("--scrambling", &scrambling, "model vendor row-bit scrambling");
  flags.Add("--threads", &options.threads,
            "blast-radius scan workers (0 = auto,\n1 = serial; findings identical for all N)");
  flags.Add("--fault-sweep", &fault_sweep,
            "instead of the static audit, fail each\n"
            "CreateVm/MigrateVm allocation point once\n"
            "and verify the lifecycle conservation\n"
            "invariants (migration needs >= 2 sockets)");
  flags.Add("--json", &json, "machine-readable report");
  flags.AddExports(&exports);
  flags.ParseOrExit(argc, argv, 1);
  if (!platform.empty() && (ddr5 || !decoder_name.empty())) {
    std::fprintf(stderr, "siloz_audit: --platform and %s are exclusive\n",
                 ddr5 ? "--ddr5" : "--decoder");
    return 1;
  }

  const PlatformInfo* platform_info = platform.empty() ? nullptr : FindPlatform(platform);
  DramGeometry geometry = platform_info != nullptr ? platform_info->geometry
                          : ddr5                   ? Ddr5Geometry()
                                                   : DramGeometry{};

  config.rows_per_subarray = subarray_rows != 0 ? subarray_rows : geometry.rows_per_subarray;
  config.uniform_internal_addressing =
      ddr5 || (platform_info != nullptr && platform_info->uniform_internal_addressing);
  geometry.rows_per_subarray = config.rows_per_subarray;

  std::unique_ptr<AddressDecoder> decoder;
  if (platform_info != nullptr) {
    Result<std::unique_ptr<AddressDecoder>> made = platform_info->make(geometry);
    if (!made.ok()) {
      std::fprintf(stderr, "platform '%s': %s\n", platform.c_str(),
                   made.error().ToString().c_str());
      return 1;
    }
    decoder = std::move(*made);
  } else if (decoder_name.empty() || decoder_name == "skylake") {
    decoder = std::make_unique<SkylakeDecoder>(geometry);
  } else {
    decoder = std::make_unique<SncDecoder>(geometry, 2);
  }

  RemapConfig remap = platform_info != nullptr ? platform_info->remap
                      : ddr5                   ? Ddr5RemapConfig()
                                               : RemapConfig{};
  remap.vendor_scrambling = scrambling;

  if (fault_sweep) {
    const int exit_code = RunFaultSweeps(*decoder, config, geometry);
    return exports.Write() ? exit_code : 1;
  }

  // Optional negative mode: the machine's "real" mapping deviates from the
  // decoder the hypervisor boots with, so the audit should FAIL.
  std::unique_ptr<audit::CorruptedDecoder> corrupted;
  const AddressDecoder* truth = decoder.get();
  if (corrupt != "none") {
    // The mapping-jump period to shift by: the platform's own for --platform
    // runs (XOR-matrix decoders have no skx region), the skx region otherwise.
    const uint64_t region = platform_info != nullptr
                                ? ShiftedJumpPeriod(*platform_info, geometry)
                                : SkylakeDecoder(geometry).region_bytes();
    corrupted = std::make_unique<audit::CorruptedDecoder>(
        *decoder,
        corrupt == "shifted-jump" ? audit::Corruption::kShiftedJump
                                  : audit::Corruption::kBrokenInverse,
        region);
    truth = corrupted.get();
  }

  Result<audit::Report> report =
      audit::AuditProvisioningPlan(*decoder, *truth, config, remap, options);
  if (!report.ok()) {
    std::fprintf(stderr, "audit setup failed: %s\n", report.error().ToString().c_str());
    return 1;
  }
  if (json) {
    std::printf("%s\n", report->ToJson().c_str());
  } else {
    std::printf("platform: %s, decoder %s (audited against %s)\n", geometry.ToString().c_str(),
                decoder->name().c_str(), truth->name().c_str());
    std::printf("%s", report->ToText().c_str());
  }
  // Scheduler/timing metrics go to stderr so the report on stdout (and the
  // JSON) stays byte-identical across thread counts.
  std::fprintf(stderr, "blast-radius scan: %u workers, %llu tasks, wall %.1f ms\n",
               report->scan_pool.workers,
               static_cast<unsigned long long>(report->scan_pool.tasks), report->scan_wall_ms);
  // AuditProvisioningPlan keeps its hypervisor function-local, so every
  // model counter has been flushed by now.
  if (!exports.Write()) {
    return 1;
  }
  return report->ok() ? 0 : 2;
}
