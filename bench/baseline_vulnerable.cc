// Ablation A6: the baseline (unmodified Linux/KVM placement, unprotected
// EPTs) is vulnerable to exactly the attacks Siloz prevents.
//
// Two demonstrations, end-to-end through the full stack:
//  1. Inter-VM data corruption: an attacker VM hammers its own edge rows;
//     bit flips land in the adjacent VM's memory (impossible under Siloz,
//     see bench_table3_containment).
//  2. EPT corruption: hammering rows neighbouring an EPT table page flips
//     mapping bits; the corrupted walk resolves to a host physical address
//     the VM was never given — a subarray-group escape the audit flags.
#include <cstdio>
#include <set>
#include <string>
#include <vector>

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
  profile.trr.enabled = false;  // attacker presumed past TRR (Blacksmith)
  config.dimm_profiles = {profile};
  return config;
}

}  // namespace

int siloz::bench::BaselineVulnerable(FlagSet& flags, int argc, char** argv) {
  flags.ParseOrExit(argc, argv, 2);
  bench::PrintHeader("Ablation A6: baseline Linux/KVM is vulnerable", DramGeometry{});

  // --- 1. Inter-VM flips ---
  bool cross_vm_corruption = false;
  {
    Machine machine(FaultConfig());
    SilozConfig baseline;
    baseline.enabled = false;
    SilozHypervisor hypervisor(machine.decoder(), machine.phys_memory(), baseline);
    if (!hypervisor.Boot().ok()) {
      return 1;
    }
    VmId attacker = *hypervisor.CreateVm({.name = "attacker", .memory_bytes = 2_GiB});
    VmId victim = *hypervisor.CreateVm({.name = "victim", .memory_bytes = 2_GiB});
    Vm& attacker_vm = **hypervisor.GetVm(attacker);
    Vm& victim_vm = **hypervisor.GetVm(victim);
    const uint64_t attacker_end =
        attacker_vm.regions()[0].hpa + attacker_vm.regions()[0].bytes;

    // Hammer the attacker's topmost row (its neighbour row belongs to other
    // tenants), alternating with another own row to force ACTs.
    const MediaAddress edge = *machine.decoder().PhysToMedia(attacker_end - kCacheLineBytes);
    MediaAddress decoy = edge;
    decoy.row = edge.row - 20;
    const uint64_t aggressors[] = {attacker_end - kCacheLineBytes,
                                   *machine.decoder().MediaToPhys(decoy)};
    const uint64_t acts = HammerPhysAddresses(machine, aggressors, 15000);

    uint64_t flips_in_victim = 0;
    uint64_t flips_elsewhere = 0;
    const uint64_t victim_begin = victim_vm.regions()[0].hpa;
    const uint64_t victim_end = victim_begin + victim_vm.regions()[0].bytes;
    for (const PhysFlip& flip : machine.DrainFlips()) {
      if (flip.phys >= victim_begin && flip.phys < victim_end) {
        ++flips_in_victim;
      } else if (flip.phys >= attacker_end) {
        ++flips_elsewhere;
      }
    }
    cross_vm_corruption = flips_in_victim > 0 || flips_elsewhere > 0;
    std::printf("[1] Inter-VM hammering (%lu ACTs at the VM boundary):\n",
                static_cast<unsigned long>(acts));
    std::printf("    flips inside the victim VM: %lu; in other non-attacker memory: %lu\n",
                static_cast<unsigned long>(flips_in_victim),
                static_cast<unsigned long>(flips_elsewhere));
    std::printf("    => cross-domain corruption: %s\n\n",
                cross_vm_corruption ? "YES (vulnerable)" : "no");
  }

  // --- 2. EPT corruption and escape ---
  bool ept_escape_detected = false;
  {
    Machine machine(FaultConfig());
    SilozConfig config;          // Siloz placement but EPTs unprotected,
    config.ept_protection = EptProtection::kNone;  // isolating the EPT threat
    SilozHypervisor hypervisor(machine.decoder(), machine.phys_memory(), config);
    if (!hypervisor.Boot().ok()) {
      return 1;
    }
    VmId tenant = *hypervisor.CreateVm({.name = "tenant", .memory_bytes = 1536_MiB});
    Vm& vm = **hypervisor.GetVm(tenant);

    // A 4 KiB page interleaves across many banks; the attacker hammers the
    // page's row above and below in every bank it touches. At a bank's edge
    // the EPT row has one neighbour; the attacker pairs it with the row
    // beyond (the EPT row's distance-2 neighbour), so every access is still
    // a real ACT and both aggressors disturb the EPT row.
    const uint64_t ept_page = vm.ept()->table_pages().back();
    const MediaAddress ept_media = *machine.decoder().PhysToMedia(ept_page);
    const int64_t rows_per_bank = machine.config().geometry.rows_per_bank;
    std::vector<uint64_t> aggressors;
    std::set<std::string> seen_banks;
    for (uint64_t offset = 0; offset < kPage4K; offset += kCacheLineBytes) {
      MediaAddress line = *machine.decoder().PhysToMedia(ept_page + offset);
      line.column = 0;
      MediaAddress key = line;
      key.row = 0;
      if (!seen_banks.insert(key.ToString()).second) {
        continue;
      }
      std::vector<int64_t> rows;
      for (int64_t delta : {-1, +1}) {
        const int64_t row = static_cast<int64_t>(line.row) + delta;
        if (row >= 0 && row < rows_per_bank) {
          rows.push_back(row);
        }
      }
      if (rows.size() == 1) {
        rows.push_back(rows[0] + (rows[0] > line.row ? 1 : -1));
      }
      for (int64_t row : rows) {
        MediaAddress aggressor = line;
        aggressor.row = static_cast<uint32_t>(row);
        aggressors.push_back(*machine.decoder().MediaToPhys(aggressor));
      }
    }
    // Long campaign: ECC corrects isolated single-bit flips on read, so the
    // attacker needs multi-flip words (exactly the ECC-escape regime of
    // Cojocar et al. the paper cites).
    HammerPhysAddresses(machine, {aggressors.data(), aggressors.size()}, 60000);

    uint64_t flips_in_ept_row = 0;
    for (const PhysFlip& flip : machine.DrainFlips()) {
      flips_in_ept_row += (flip.record.media_row == ept_media.row);
    }
    // Sweep the EPT table pages through ECC and tally outcomes.
    uint64_t corrected = 0;
    uint64_t uncorrectable = 0;
    uint64_t silent = 0;
    for (uint64_t table_page : vm.ept()->table_pages()) {
      for (uint64_t offset = 0; offset < kPage4K; offset += kCacheLineBytes) {
        const MediaAddress line = *machine.decoder().PhysToMedia(table_page + offset);
        uint8_t buffer[kCacheLineBytes];
        const ReadResult read =
            machine.device(line.socket, line.channel, line.dimm)
                .Read(line.rank, line.bank, line.row, line.column, buffer, machine.clock_ns());
        corrected += read.corrected_words;
        uncorrectable += read.uncorrectable_words;
        silent += read.silently_corrupt_words;
      }
    }
    const Status audit = hypervisor.AuditVmIsolation(tenant);
    ept_escape_detected = flips_in_ept_row > 0 && (uncorrectable + silent > 0 || !audit.ok());
    std::printf("[2] EPT hammering with unprotected EPT rows:\n");
    std::printf("    flips in the EPT row: %lu\n", static_cast<unsigned long>(flips_in_ept_row));
    std::printf("    ECC outcomes across EPT pages: %lu corrected (leaky, RAMBleed-style),\n"
                "      %lu uncorrectable (MCE / DoS), %lu silent corruptions\n",
                static_cast<unsigned long>(corrected), static_cast<unsigned long>(uncorrectable),
                static_cast<unsigned long>(silent));
    std::printf("    isolation audit: %s\n",
                audit.ok() ? "pass (surviving mappings intact)" : audit.error().ToString().c_str());
    std::printf("    => EPT integrity lost: %s\n\n",
                ept_escape_detected ? "YES (vulnerable)" : "no");
  }

  const bool confirmed = cross_vm_corruption && ept_escape_detected;
  std::printf("Result: baseline exhibits both attack classes Siloz eliminates: %s\n",
              confirmed ? "CONFIRMED" : "NOT CONFIRMED");
  return confirmed ? 0 : 1;
}
