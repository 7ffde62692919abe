// Ablation A2 (§3, §5.4, §6): DRAM reserved by guard-row schemes.
//
// Regenerates the paper's overhead comparison:
//  - ZebRAM-style whole-memory guarding: 1 guard row per normal row = 50%
//    of DRAM, rising to 80% at the modern requirement of 4 guard rows.
//  - Siloz's EPT-only guard block: b=32 8 KiB rows per 1 GiB bank ~ 0.024%.
//  - Artificial subarray groups (§6): n=4 boundary guard rows per group,
//    ~1.56% of DRAM at 512-row groups down to ~0.39% at 2048-row groups.
#include <algorithm>
#include <cstdio>

#include "bench/bench_util.h"
#include "src/base/units.h"
#include "src/ept/phys_memory.h"
#include "src/siloz/hypervisor.h"
#include "src/sim/machine.h"

namespace {

double Pct(uint64_t part, uint64_t whole) {
  return 100.0 * static_cast<double>(part) / static_cast<double>(whole);
}

}  // namespace

int siloz::bench::GuardOverhead(FlagSet& flags, int argc, char** argv) {
  flags.ParseOrExit(argc, argv, 2);
  const DramGeometry geometry;
  bench::PrintHeader("Ablation A2: DRAM reserved for guard-row protection", geometry);

  std::printf("%-46s | %10s\n", "scheme", "DRAM cost");
  bench::PrintRule();
  // Whole-memory guard schemes: g guard rows per normal row waste g/(g+1).
  for (uint32_t guards : {1u, 4u}) {
    std::printf("ZebRAM-style, %u guard row(s) per normal row     | %9.1f%%\n", guards,
                100.0 * guards / (guards + 1.0));
  }

  // Siloz: measured from an actual boot, not assumed.
  {
    SkylakeDecoder decoder(geometry);
    FlatPhysMemory memory;
    SilozHypervisor hypervisor(decoder, memory, SilozConfig{});
    if (!hypervisor.Boot().ok()) {
      return 1;
    }
    std::printf("%-46s | %9.4f%%\n", "Siloz EPT block (b=32, o=12), measured",
                Pct(hypervisor.ept_reserved_bytes(), geometry.total_bytes()));
    // Per-bank view, the unit the paper quotes: 32 rows of a 1 GiB bank.
    std::printf("%-46s | %9.4f%%\n", "  ...as a fraction of each 1 GiB bank",
                Pct(32 * geometry.row_bytes, geometry.bank_bytes()));
  }

  // Artificial groups: boundary guards, measured from boots with
  // non-power-of-2 presumed sizes (§6 quotes 1.56%..0.39% for (512,2048)).
  double max_guard_pct = 0.0;
  for (uint32_t rows : {300u, 600u, 1200u}) {
    SkylakeDecoder decoder(geometry);
    FlatPhysMemory memory;
    SilozConfig config;
    config.rows_per_subarray = rows;  // rounded up to 512/1024/2048
    SilozHypervisor hypervisor(decoder, memory, config);
    if (!hypervisor.Boot().ok()) {
      return 1;
    }
    const double guard_pct = Pct(hypervisor.artificial_guard_bytes(), geometry.total_bytes());
    max_guard_pct = std::max(max_guard_pct, guard_pct);
    std::printf("artificial groups (%4u->%4u rows), 4 guards    | %9.2f%%\n", rows,
                hypervisor.effective_rows_per_subarray(), guard_pct);
  }
  // Row-repair quarantine (§6): the paper reports ~0.15% of rows repaired in
  // the field; worst case all are inter-subarray and must be offlined at
  // 4 KiB-page granularity, which amplifies the cost 64x under cache-line
  // interleaving (each 8 KiB row's lines touch 128 distinct pages).
  {
    SkylakeDecoder decoder(geometry);
    FlatPhysMemory memory;
    SilozConfig config;
    for (uint32_t i = 0; i < 64; ++i) {  // a 64-repair DIMM population
      MediaAddress row;
      row.channel = i % geometry.channels_per_socket;
      row.bank = (i / 6) % geometry.banks_per_rank;
      row.row = 3000 + i * 1537;
      config.quarantined_rows.push_back(row);
    }
    SilozHypervisor hypervisor(decoder, memory, config);
    if (!hypervisor.Boot().ok()) {
      return 1;
    }
    std::printf("quarantine of 64 inter-subarray repairs          | %9.4f%%  (64x page amplification)\n",
                Pct(hypervisor.quarantined_bytes(), geometry.total_bytes()));
  }
  bench::PrintRule();
  // The worst case is the smallest artificial group, whose guards cost most.
  std::printf("Normal-row capacity under Siloz: %.2f%%-100%% of DRAM (paper: ~98.5%%-100%%)\n",
              100.0 - max_guard_pct);
  return 0;
}
