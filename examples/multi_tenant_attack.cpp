// Multi-tenant attack scenario: a malicious VM runs a Blacksmith-grade
// Rowhammer campaign against a co-located victim, once on the unmodified
// Linux/KVM baseline and once under Siloz — the paper's motivating story
// played end to end through the simulator.
//
// Run: ./build/examples/multi_tenant_attack
#include <cstdio>
#include <vector>

#include "src/attack/blacksmith.h"
#include "src/base/units.h"
#include "src/sim/machine.h"
#include "src/siloz/hypervisor.h"

using namespace siloz;

namespace {

MachineConfig FaultMachine() {
  MachineConfig config;
  config.fault_tracking = true;
  DimmProfile profile;
  profile.disturbance.threshold_mean = 2500.0;  // scaled threshold: fast demo
  profile.disturbance.threshold_spread = 0.15;
  profile.trr.enabled = true;  // deployed mitigations stay on; the fuzzer
  profile.trr.act_threshold = 400;  // must defeat them, as on real DIMMs
  config.dimm_profiles = {profile};
  return config;
}

struct ScenarioResult {
  uint64_t flips_total = 0;
  uint64_t flips_in_victim = 0;
  bool ept_intact = true;
};

ScenarioResult RunScenario(bool siloz_enabled) {
  Machine machine(FaultMachine());
  SilozConfig config;
  config.enabled = siloz_enabled;
  SilozHypervisor hypervisor(machine.decoder(), machine.phys_memory(), config);
  SILOZ_CHECK(hypervisor.Boot().ok());

  // 2 GiB VMs: on the baseline, contiguous placement puts the tenant
  // boundary mid-subarray; under Siloz each VM gets whole groups.
  const VmId attacker = *hypervisor.CreateVm({.name = "attacker", .memory_bytes = 2_GiB});
  const VmId victim = *hypervisor.CreateVm({.name = "victim", .memory_bytes = 2_GiB});
  Vm& attacker_vm = **hypervisor.GetVm(attacker);
  Vm& victim_vm = **hypervisor.GetVm(victim);

  // The attacker can only touch memory its EPT maps: its own regions.
  std::vector<PhysRange> reachable;
  for (const VmRegion& region : attacker_vm.regions()) {
    reachable.push_back(PhysRange{region.hpa, region.hpa + region.bytes});
  }

  BlacksmithConfig fuzz;
  fuzz.patterns = 16;
  fuzz.rounds = 1500;
  fuzz.min_pairs = 8;
  fuzz.max_pairs = 16;
  FuzzReport report = BlacksmithFuzzer(fuzz).Run(machine, reachable);

  // A targeted follow-up, Flip-Feng-Shui style: the attacker knows its
  // memory is physically contiguous and hammers its own edge rows, whose
  // neighbours belong to whoever is placed next. (Under Siloz the "edge" is
  // a subarray-group boundary: electrically isolated.)
  const VmRegion& last = attacker_vm.regions().back();
  const uint64_t edge_phys = last.hpa + last.bytes - kCacheLineBytes;
  const MediaAddress edge = *machine.decoder().PhysToMedia(edge_phys);
  std::vector<uint64_t> targeted = {edge_phys};
  // Decoy rows (all the attacker's own) flush the TRR tracker while the
  // edge row hammers single-sided across the tenant boundary.
  for (uint32_t i = 0; i < 13; ++i) {
    MediaAddress decoy = edge;
    decoy.row = edge.row - 16 - i * 8;
    targeted.push_back(*machine.decoder().MediaToPhys(decoy));
  }
  HammerPhysAddresses(machine, {targeted.data(), targeted.size()}, 15000);
  std::vector<PhysFlip> targeted_flips = machine.DrainFlips();
  report.flips.insert(report.flips.end(), targeted_flips.begin(), targeted_flips.end());

  ScenarioResult result;
  result.flips_total = report.flips.size();
  for (const PhysFlip& flip : report.flips) {
    for (const VmRegion& region : victim_vm.regions()) {
      if (flip.phys >= region.hpa && flip.phys < region.hpa + region.bytes) {
        ++result.flips_in_victim;
      }
    }
  }
  result.ept_intact = hypervisor.AuditVmIsolation(attacker).ok() &&
                      hypervisor.AuditVmIsolation(victim).ok();
  return result;
}

}  // namespace

int main() {
  std::printf("Two tenants, same socket. 'attacker' runs a TRR-bypassing\n"
              "Rowhammer fuzzer against everything it can reach.\n\n");

  std::printf("%-22s | %12s | %16s | %10s\n", "kernel", "total flips", "flips in victim",
              "EPTs OK?");
  std::printf("--------------------------------------------------------------------\n");
  const ScenarioResult baseline = RunScenario(/*siloz_enabled=*/false);
  std::printf("%-22s | %12lu | %16lu | %10s\n", "baseline Linux/KVM",
              static_cast<unsigned long>(baseline.flips_total),
              static_cast<unsigned long>(baseline.flips_in_victim),
              baseline.ept_intact ? "yes" : "CORRUPTED");
  const ScenarioResult siloz = RunScenario(/*siloz_enabled=*/true);
  std::printf("%-22s | %12lu | %16lu | %10s\n", "Siloz",
              static_cast<unsigned long>(siloz.flips_total),
              static_cast<unsigned long>(siloz.flips_in_victim),
              siloz.ept_intact ? "yes" : "CORRUPTED");
  std::printf("--------------------------------------------------------------------\n\n");

  if (siloz.flips_in_victim == 0 && siloz.ept_intact) {
    std::printf("Siloz: the attacker still flips bits — but only in its own\n"
                "subarray groups. The victim and all EPTs are untouched.\n");
  } else {
    std::printf("UNEXPECTED: Siloz failed to contain the attack.\n");
    return 1;
  }
  if (baseline.flips_in_victim > 0) {
    std::printf("Baseline: %lu bit flips landed inside the victim's memory.\n",
                static_cast<unsigned long>(baseline.flips_in_victim));
  } else {
    std::printf("Baseline: no victim flips this run (placement luck) — the\n"
                "attacker still flipped %lu bits in co-located rows; see\n"
                "bench_artifacts a6 for the deterministic boundary attack.\n",
                static_cast<unsigned long>(baseline.flips_total));
  }
  return 0;
}
