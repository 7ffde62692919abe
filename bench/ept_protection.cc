// Regenerates the §7.1 "EPT Bit Flip Prevention" experiment: rows protected
// by Siloz's b=32/o=12 guard-row scheme do not flip under hammering, while
// unprotected 32-row blocks in the same subarray do.
//
// Mirrors the paper's method: Blacksmith-style hammering runs against (a)
// the protected block (only its closest allocatable neighbours are
// reachable) and (b) disjoint unprotected 32-row blocks elsewhere in the
// same subarray group.
#include <cstdio>

#include "bench/bench_util.h"
#include "src/attack/blacksmith.h"
#include "src/base/units.h"
#include "src/sim/machine.h"
#include "src/siloz/hypervisor.h"

namespace siloz {
namespace {

MachineConfig FaultConfig() {
  MachineConfig config;
  config.fault_tracking = true;
  DimmProfile profile;
  profile.disturbance.threshold_mean = 2500.0;
  profile.disturbance.threshold_spread = 0.15;
  profile.trr.enabled = false;  // attacker presumed to have bypassed TRR
  config.dimm_profiles = {profile};
  return config;
}

// Hammers the two rows adjacent to each side of [first_row, last_row] that
// the attacker can reach, plus rows inside if `rows_reachable`.
uint64_t HammerAround(Machine& machine, const MediaAddress& base, uint32_t first_row,
                      uint32_t last_row, bool interior_reachable, uint32_t rounds) {
  std::vector<uint64_t> aggressors;
  auto add = [&](int64_t row) {
    if (row < 0 || row >= static_cast<int64_t>(machine.decoder().geometry().rows_per_bank)) {
      return;
    }
    MediaAddress media = base;
    media.row = static_cast<uint32_t>(row);
    aggressors.push_back(*machine.decoder().MediaToPhys(media));
  };
  if (interior_reachable) {
    // Double-sided pairs walking the block interior.
    for (uint32_t row = first_row + 1; row + 1 <= last_row; row += 4) {
      add(row - 1);
      add(row + 1);
    }
  } else {
    // Only the closest allocatable rows outside the block.
    add(static_cast<int64_t>(first_row) - 1);
    add(static_cast<int64_t>(first_row) - 3);
    add(last_row + 1);
    add(last_row + 3);
  }
  return HammerPhysAddresses(machine, aggressors, rounds);
}

}  // namespace
}  // namespace siloz

int siloz::bench::EptProtection(FlagSet& flags, int argc, char** argv) {
  flags.ParseOrExit(argc, argv, 2);
  MachineConfig machine_config = FaultConfig();
  Machine machine(machine_config);
  bench::PrintHeader("§7.1 EPT bit flip prevention: guarded vs unguarded 32-row blocks",
                     machine_config.geometry);

  SilozHypervisor hypervisor(machine.decoder(), machine.phys_memory(), SilozConfig{});
  if (Status boot = hypervisor.Boot(); !boot.ok()) {
    std::fprintf(stderr, "boot failed: %s\n", boot.error().ToString().c_str());
    return 1;
  }
  Result<VmId> vm = hypervisor.CreateVm({.name = "tenant", .memory_bytes = 1536_MiB});
  if (!vm.ok()) {
    std::fprintf(stderr, "CreateVm: %s\n", vm.error().ToString().c_str());
    return 1;
  }

  // --- (a) The protected block: rows [0,32) of the first host group, EPT
  // row group at offset 12. Guard rows are offline, so the attacker's
  // nearest reachable rows are 32+.
  const PhysRange ept_range = hypervisor.ept_pool_ranges(0)[0];
  const MediaAddress ept_media = *machine.decoder().PhysToMedia(ept_range.begin);
  const uint32_t ept_row = ept_media.row;
  HammerAround(machine, ept_media, /*first_row=*/0, /*last_row=*/31,
               /*interior_reachable=*/false, 20000);
  uint64_t protected_flips = 0;
  for (const PhysFlip& flip : machine.DrainFlips()) {
    protected_flips += (flip.record.media_row == ept_row &&
                        flip.media.channel == ept_media.channel &&
                        flip.media.rank == ept_media.rank && flip.media.bank == ept_media.bank);
  }

  // --- (b) Unprotected 32-row blocks in the same subarray group: interior
  // rows are ordinary memory the attacker can hammer double-sided.
  uint64_t unprotected_flips = 0;
  for (uint32_t block_start : {64u, 128u, 256u}) {
    MediaAddress base = ept_media;
    HammerAround(machine, base, block_start, block_start + 31,
                 /*interior_reachable=*/true, 6000);
    for (const PhysFlip& flip : machine.DrainFlips()) {
      unprotected_flips += (flip.record.media_row >= block_start &&
                            flip.record.media_row < block_start + 32);
    }
  }

  std::printf("%-42s | %10s\n", "target", "bit flips");
  bench::PrintRule();
  std::printf("%-42s | %10lu\n", "EPT row group (guard-protected, b=32,o=12)",
              static_cast<unsigned long>(protected_flips));
  std::printf("%-42s | %10lu\n", "unprotected 32-row blocks, same subarray",
              static_cast<unsigned long>(unprotected_flips));
  bench::PrintRule();

  Status audit = hypervisor.AuditVmIsolation(*vm);
  std::printf("Isolation audit after attack: %s\n", audit.ok() ? "PASS" : "FAIL");
  const bool reproduced = protected_flips == 0 && unprotected_flips > 0 && audit.ok();
  std::printf("Result: %s (paper: no flips in protected rows, flips in unprotected)\n",
              reproduced ? "REPRODUCED" : "MISMATCH");
  return reproduced ? 0 : 1;
}
