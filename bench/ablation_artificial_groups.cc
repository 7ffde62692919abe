// Ablation A7 (§6): handling media-to-internal mappings for arbitrary
// subarray sizes.
//
// Three results from §6, demonstrated on the implementation:
//  1. Soundness table: which subarray sizes keep isolation under DDR4
//     mirroring/inversion (and vendor scrambling) without extra measures.
//  2. Presuming a smaller-than-true subarray size (Siloz-512 on 1024-row
//     silicon) silently BREAKS containment — artificial groups give
//     management granularity, not security (§7.4's caveat).
//  3. Artificial groups with boundary guard rows restore containment for a
//     non-power-of-2 silicon size, at the measured DRAM cost.
#include <cstdio>

#include "bench/bench_util.h"
#include "src/attack/blacksmith.h"
#include "src/base/units.h"
#include "src/sim/machine.h"
#include "src/siloz/hypervisor.h"

namespace {

siloz::MachineConfig FaultConfig() {
  using namespace siloz;
  MachineConfig config;
  config.fault_tracking = true;
  DimmProfile profile;
  profile.disturbance.threshold_mean = 2500.0;
  profile.disturbance.threshold_spread = 0.15;
  profile.trr.enabled = false;
  config.dimm_profiles = {profile};
  return config;
}

// Hammers the top edge of `group` and reports whether any flip landed
// outside it.
bool EdgeHammerEscapes(siloz::Machine& machine, siloz::SilozHypervisor& hypervisor,
                       uint32_t group) {
  using namespace siloz;
  const PhysRange range = hypervisor.group_map().RangesOf(group)[0];
  const uint32_t rows = hypervisor.effective_rows_per_subarray();
  const uint32_t top_row = hypervisor.group_map().IndexInCluster(group) * rows + rows - 1;
  const MediaAddress base = *machine.decoder().PhysToMedia(range.begin);
  MediaAddress edge = base;
  edge.row = top_row;
  MediaAddress decoy = base;
  decoy.row = top_row - 30;
  const uint64_t aggressors[] = {*machine.decoder().MediaToPhys(edge),
                                 *machine.decoder().MediaToPhys(decoy)};
  HammerPhysAddresses(machine, aggressors, 15000);
  bool escaped = false;
  for (const PhysFlip& flip : machine.DrainFlips()) {
    bool inside = false;
    for (const PhysRange& r : hypervisor.group_map().RangesOf(group)) {
      inside |= r.Contains(flip.phys);
    }
    escaped |= !inside;
  }
  return escaped;
}

}  // namespace

int siloz::bench::ArtificialGroups(FlagSet& flags, int argc, char** argv) {
  flags.ParseOrExit(argc, argv, 2);
  bench::PrintHeader("Ablation A7: artificial subarray groups and remap soundness (§6)",
                     DramGeometry{});

  // --- 1. Soundness table ---
  std::printf("[1] Transform soundness (mirroring+inversion; 'scr' adds vendor\n"
              "    scrambling). 'yes' = media subarrays map onto whole internal\n"
              "    subarrays, isolation holds with zero overhead:\n\n");
  std::printf("%-8s | %-10s | %-10s\n", "rows", "std", "std+scr");
  bench::PrintRule();
  DramGeometry probe;
  probe.rows_per_bank = 129024;  // divisible by all probed sizes
  for (uint32_t rows : {512u, 768u, 1024u, 1344u, 1536u, 2048u}) {
    RemapConfig std_cfg;
    RemapConfig scr_cfg;
    scr_cfg.vendor_scrambling = true;
    std::printf("%-8u | %-10s | %-10s\n", rows,
                TransformsPreserveSubarrayBlocks(probe, std_cfg, rows) ? "yes" : "NO",
                TransformsPreserveSubarrayBlocks(probe, scr_cfg, rows) ? "yes" : "NO");
  }
  bench::PrintRule();

  // --- 2. Mispresumed (too small) subarray size breaks containment ---
  bool small_breaks = false;
  {
    Machine machine(FaultConfig());  // silicon truth: 1024-row subarrays
    SilozConfig config;
    config.rows_per_subarray = 512;
    SilozHypervisor hypervisor(machine.decoder(), machine.phys_memory(), config);
    if (!hypervisor.Boot().ok()) {
      return 1;
    }
    small_breaks = EdgeHammerEscapes(machine, hypervisor, /*group=*/2);
  }
  std::printf("\n[2] Siloz-512 presumed on 1024-row silicon: edge hammering escapes\n"
              "    the presumed group: %s (paper §7.4: artificial groups do not\n"
              "    provide security without further measures)\n",
              small_breaks ? "YES" : "no");

  // --- 3. Rounding UP to artificial groups on true non-power-of-2 silicon:
  // guards are load-bearing. Silicon: 768-row subarrays (rows_per_bank
  // adjusted so both 768 and the 1024-row artificial groups divide it).
  // Artificial boundary 2048 does not coincide with a silicon boundary, so
  // hammering near it crosses in internal space; the boundary guard rows
  // (and their B-side inversion images) must absorb every such flip.
  auto run_rounded = [&](uint32_t guard_rows, uint64_t* guard_cost) {
    MachineConfig machine_config = FaultConfig();
    machine_config.geometry.rows_per_bank = 129024;
    machine_config.geometry.rows_per_subarray = 768;  // silicon truth
    Machine machine(machine_config);
    SilozConfig config;
    config.rows_per_subarray = 768;  // rounds up to 1024 artificial groups
    config.artificial_boundary_guard_rows = guard_rows;
    SilozHypervisor hypervisor(machine.decoder(), machine.phys_memory(), config);
    if (Status boot = hypervisor.Boot(); !boot.ok()) {
      std::fprintf(stderr, "boot: %s\n", boot.error().ToString().c_str());
      return false;  // treated as escape
    }
    *guard_cost = hypervisor.artificial_guard_bytes();
    // Aggressors whose internal rows sit just below the artificial boundary
    // at internal row 2048, on both half-row sides: media 2047 (A side) and
    // media 2047^0x3F8 = 1031 (B side image), each paired with a decoy.
    const uint32_t group = 1;  // artificial group rows [1024, 2048)
    const PhysRange range = hypervisor.group_map().RangesOf(group)[0];
    const MediaAddress base = *machine.decoder().PhysToMedia(range.begin);
    std::vector<uint64_t> aggressors;
    for (uint32_t row : {2047u, 2017u, 1031u, 1061u}) {
      MediaAddress media = base;
      media.row = row;
      aggressors.push_back(*machine.decoder().MediaToPhys(media));
    }
    HammerPhysAddresses(machine, {aggressors.data(), aggressors.size()}, 15000);

    // A flip is harmful if it lands in a *usable* row outside group 1:
    // offlined guard rows (offsets {0..3} and their inversion images
    // {1016..1019} in each group) hold no data.
    bool harmful_escape = false;
    for (const PhysFlip& flip : machine.DrainFlips()) {
      bool inside = false;
      for (const PhysRange& r : hypervisor.group_map().RangesOf(group)) {
        inside |= r.Contains(flip.phys);
      }
      if (inside) {
        continue;
      }
      const uint32_t offset = flip.media.row % 1024;
      const bool in_guard_row =
          guard_rows > 0 && (offset < guard_rows || (offset >= 1016 && offset < 1016 + guard_rows));
      harmful_escape |= !in_guard_row;
    }
    return !harmful_escape;
  };

  uint64_t guard_cost = 0;
  const bool rounded_contained = run_rounded(4, &guard_cost);
  std::printf("\n[3] 768-row silicon, presumed 768 -> 1024-row artificial groups with\n"
              "    n=4 boundary guards (+B-side images, %.2f%% of DRAM):\n"
              "    boundary hammering contained to guards: %s\n",
              100.0 * static_cast<double>(guard_cost) /
                  static_cast<double>(192ull * 129024 * 8192 * 2),
              rounded_contained ? "yes" : "NO");

  uint64_t no_guard_cost = 0;
  const bool unguarded_contained = run_rounded(0, &no_guard_cost);
  std::printf("\n[4] Same silicon, artificial groups WITHOUT boundary guards:\n"
              "    usable-row escape observed: %s (guards are load-bearing)\n",
              unguarded_contained ? "no (?)" : "YES");

  const bool reproduced = small_breaks && rounded_contained && !unguarded_contained;
  std::printf("\nResult: %s\n", reproduced ? "REPRODUCED" : "MISMATCH");
  return reproduced ? 0 : 1;
}
