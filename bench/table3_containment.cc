// Regenerates Table 3 (§7.1): Siloz contains Blacksmith-induced bit flips to
// the hammering domain's subarray group(s), across DIMMs A-F.
//
// Method, mirroring the paper: an attacker VM runs the Blacksmith-style
// fuzzer pinned (by Siloz placement) to its subarray groups. Because every
// subarray group spans all of the socket's DIMMs, flips are expected in all
// six DIMM models, across ranks and banks — but never outside the group.
// The system then idles for 24 simulated hours and an ECC patrol scrub
// sweeps for any latent flips.
#include <cstdio>

#include "bench/bench_util.h"
#include "src/attack/blacksmith.h"
#include "src/base/units.h"
#include "src/sim/machine.h"
#include "src/siloz/hypervisor.h"

namespace siloz {
namespace {

// Six DIMM personalities: thresholds and remap behaviour vary by vendor.
std::vector<DimmProfile> TableThreeDimms() {
  std::vector<DimmProfile> dimms;
  const struct {
    const char* name;
    double threshold;
    double spread;
    bool scrambling;
  } specs[] = {
      {"A", 2400.0, 0.15, false}, {"B", 3000.0, 0.20, false}, {"C", 2100.0, 0.10, true},
      {"D", 2800.0, 0.25, false}, {"E", 2500.0, 0.15, true},  {"F", 3300.0, 0.20, false},
  };
  for (const auto& spec : specs) {
    DimmProfile dimm;
    dimm.name = spec.name;
    dimm.disturbance.threshold_mean = spec.threshold;
    dimm.disturbance.threshold_spread = spec.spread;
    dimm.disturbance.seed = 0x51102 + dimm.name[0];
    dimm.remap.vendor_scrambling = spec.scrambling;
    dimm.trr.enabled = true;
    dimm.trr.act_threshold = 400;
    dimms.push_back(dimm);
  }
  return dimms;
}

// Runs the campaign and prints the table; the simulated objects are local,
// so their counters are flushed by the time the exports are written.
int Run(const BlacksmithConfig& fuzz) {
  MachineConfig machine_config;
  machine_config.fault_tracking = true;
  machine_config.dimm_profiles = TableThreeDimms();
  Machine machine(machine_config);
  bench::PrintHeader("Table 3: bit-flip containment to subarray groups (§7.1)",
                     machine_config.geometry);
  std::printf("Note: Rowhammer thresholds are scaled down (~2.5K ACTs) so the\n"
              "simulated campaign finishes in seconds; containment is a\n"
              "topological property and is unaffected by the scale.\n\n");

  SilozHypervisor hypervisor(machine.decoder(), machine.phys_memory(), SilozConfig{});
  Status boot = hypervisor.Boot();
  if (!boot.ok()) {
    std::fprintf(stderr, "boot failed: %s\n", boot.error().ToString().c_str());
    return 1;
  }
  Result<VmId> attacker = hypervisor.CreateVm({.name = "blacksmith", .memory_bytes = 6_GiB});
  if (!attacker.ok()) {
    std::fprintf(stderr, "CreateVm failed: %s\n", attacker.error().ToString().c_str());
    return 1;
  }
  Vm& vm = **hypervisor.GetVm(*attacker);
  std::vector<PhysRange> pinned;
  for (uint32_t group : vm.guest_groups()) {
    for (const PhysRange& range : hypervisor.group_map().RangesOf(group)) {
      pinned.push_back(range);
    }
  }
  std::printf("Attacker VM pinned to %zu subarray group(s); fuzzing...\n\n", vm.guest_groups().size());

  FuzzReport report = BlacksmithFuzzer(fuzz).Run(machine, pinned);

  // The paper's 24-hour soak: patrol scrubbing surfaces undetected flips.
  machine.AdvanceClock(24ull * 3600 * 1'000'000'000);
  const uint64_t scrubbed = machine.PatrolScrubAll();
  std::vector<PhysFlip> late = machine.DrainFlips();
  report.flips.insert(report.flips.end(), late.begin(), late.end());

  const FlipCensus census = ClassifyFlips(report.flips, hypervisor.group_map(), pinned);

  std::printf("Patterns run: %u   Activations: %lu   Total flips: %zu   Scrub-corrected: %lu\n\n",
              report.patterns_run, static_cast<unsigned long>(report.activations),
              report.flips.size(), static_cast<unsigned long>(scrubbed));

  // Table 3 layout.
  std::printf("%-28s", "Observed Bit Flips?");
  for (const char* dimm : {"A", "B", "C", "D", "E", "F"}) {
    std::printf(" %6s", dimm);
  }
  std::printf("\n");
  bench::PrintRule();
  std::printf("%-28s", "Inside Subarray Group");
  std::map<std::string, uint64_t> inside_per_dimm;
  std::map<std::string, uint64_t> outside_per_dimm;
  for (const PhysFlip& flip : report.flips) {
    bool inside = false;
    for (const PhysRange& range : pinned) {
      inside |= range.Contains(flip.phys);
    }
    (inside ? inside_per_dimm : outside_per_dimm)[flip.dimm_name]++;
  }
  for (const char* dimm : {"A", "B", "C", "D", "E", "F"}) {
    std::printf(" %6s", inside_per_dimm.count(dimm) ? "yes" : "no");
  }
  std::printf("\n%-28s", "Outside Subarray Group");
  bool contained = true;
  for (const char* dimm : {"A", "B", "C", "D", "E", "F"}) {
    const bool escaped = outside_per_dimm.count(dimm) != 0;
    contained &= !escaped;
    std::printf(" %6s", escaped ? "YES!" : "NO");
  }
  std::printf("\n");
  bench::PrintRule();
  std::printf("Flip counts inside: %lu, outside: %lu; %zu group(s) touched\n",
              static_cast<unsigned long>(census.inside),
              static_cast<unsigned long>(census.outside), census.groups_hit.size());
  std::printf("Result: %s (paper: flips in all DIMMs, none outside the group)\n",
              contained && census.inside > 0 ? "CONTAINED" : "VIOLATION");
  return contained && census.inside > 0 ? 0 : 1;
}

}  // namespace
}  // namespace siloz

int siloz::bench::Table3Containment(FlagSet& flags, int argc, char** argv) {
  BlacksmithConfig fuzz;
  fuzz.patterns = 36;
  fuzz.rounds = 1500;
  fuzz.min_pairs = 8;
  fuzz.max_pairs = 16;
  obs::ExportFiles exports;
  flags.Add("--threads", &fuzz.threads, "campaign replay workers, one DIMM per task (0 = auto)");
  flags.AddExports(&exports);
  flags.ParseOrExit(argc, argv, 2);
  const int status = Run(fuzz);
  return exports.Write() ? status : 1;
}
