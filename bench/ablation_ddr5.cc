// Ablation A8 (§8.2): Siloz on DDR5-generation platforms.
//
// Three effects the paper predicts, measured on the model:
//  1. More banks per rank -> proportionally larger subarray groups
//     (coarser provisioning granularity, offsettable with SNC).
//  2. DDR5 undoes mirroring/inversion at each device, so non-power-of-2
//     subarray sizes are managed natively — no artificial groups, no guard
//     overhead.
//  3. Containment works identically (the silicon isolation argument is
//     unchanged).
#include <cstdio>

#include "bench/bench_util.h"
#include "src/attack/blacksmith.h"
#include "src/base/units.h"
#include "src/sim/machine.h"
#include "src/siloz/hypervisor.h"

int siloz::bench::Ddr5(FlagSet& flags, int argc, char** argv) {
  flags.ParseOrExit(argc, argv, 2);
  const DramGeometry ddr4;
  const DramGeometry ddr5 = Ddr5Geometry();
  bench::PrintHeader("Ablation A8: DDR5 platform effects (§8.2)", ddr5);

  // --- 1. Group-size scaling ---
  std::printf("[1] Subarray-group size vs platform generation:\n\n");
  std::printf("%-26s | %10s | %12s | %12s\n", "platform", "banks/node", "group size",
              "with SNC-2");
  bench::PrintRule();
  for (const auto* entry : {&ddr4, &ddr5}) {
    SkylakeDecoder flat(*entry);
    SncDecoder snc(*entry, 2);
    SubarrayGroupMap flat_map = *SubarrayGroupMap::Build(flat, 1024);
    SubarrayGroupMap snc_map = *SubarrayGroupMap::Build(snc, 1024);
    std::printf("%-26s | %10u | %9lu MiB | %9lu MiB\n",
                entry == &ddr4 ? "DDR4 (16 banks/rank)" : "DDR5 (32 banks/rank)",
                entry->banks_per_socket(),
                static_cast<unsigned long>(flat_map.group_bytes() >> 20),
                static_cast<unsigned long>(snc_map.group_bytes() >> 20));
  }
  bench::PrintRule();

  // --- 2. Non-power-of-2 sizes without artificial groups ---
  DramGeometry odd = ddr5;
  odd.rows_per_bank = 86016;  // divisible by 768
  odd.rows_per_subarray = 768;
  SkylakeDecoder odd_decoder(odd);
  FlatPhysMemory memory;
  SilozConfig native;
  native.rows_per_subarray = 768;
  native.uniform_internal_addressing = true;
  SilozHypervisor hypervisor(odd_decoder, memory, native);
  if (!hypervisor.Boot().ok()) {
    return 1;
  }
  std::printf("\n[2] 768-row subarrays on DDR5: managed %s, guard overhead %lu bytes\n"
              "    (DDR4 would round to 1024-row artificial groups at 0.78%% of DRAM).\n",
              hypervisor.using_artificial_groups() ? "with ARTIFICIAL groups (?)" : "natively",
              static_cast<unsigned long>(hypervisor.artificial_guard_bytes()));

  // --- 3. Containment on the DDR5 fault model ---
  MachineConfig machine_config;
  machine_config.geometry = ddr5;
  machine_config.fault_tracking = true;
  DimmProfile profile;
  profile.remap = Ddr5RemapConfig();
  profile.disturbance.threshold_mean = 2500.0;
  profile.disturbance.threshold_spread = 0.15;
  profile.trr.enabled = true;
  profile.trr.act_threshold = 400;
  machine_config.dimm_profiles = {profile};
  Machine machine(machine_config);
  SilozHypervisor ddr5_hypervisor(machine.decoder(), machine.phys_memory(), SilozConfig{});
  if (!ddr5_hypervisor.Boot().ok()) {
    return 1;
  }
  Result<VmId> vm = ddr5_hypervisor.CreateVm({.name = "attacker", .memory_bytes = 6_GiB});
  if (!vm.ok()) {
    return 1;
  }
  std::vector<PhysRange> pinned;
  for (uint32_t group : (*ddr5_hypervisor.GetVm(*vm))->guest_groups()) {
    for (const PhysRange& range : ddr5_hypervisor.group_map().RangesOf(group)) {
      pinned.push_back(range);
    }
  }
  BlacksmithConfig fuzz;
  fuzz.patterns = 12;
  fuzz.rounds = 1500;
  fuzz.min_pairs = 8;
  fuzz.max_pairs = 16;
  const FuzzReport report = BlacksmithFuzzer(fuzz).Run(machine, pinned);
  const FlipCensus census = ClassifyFlips(report.flips, ddr5_hypervisor.group_map(), pinned);
  std::printf("\n[3] Blacksmith on DDR5: %zu flips, %lu inside / %lu outside the\n"
              "    attacker's groups => containment %s.\n",
              report.flips.size(), static_cast<unsigned long>(census.inside),
              static_cast<unsigned long>(census.outside),
              census.outside == 0 && census.inside > 0 ? "HOLDS" : "FAILS");

  const bool ok = !hypervisor.using_artificial_groups() && census.outside == 0 &&
                  census.inside > 0;
  std::printf("\nResult: %s\n", ok ? "REPRODUCED" : "MISMATCH");
  return ok ? 0 : 1;
}
