// Ablation A11 (§1, §2.5): do workloads activate rows at Rowhammer-relevant
// rates?
//
// The paper's motivation cites MOESI-prime: malicious AND some commodity
// access patterns reach per-row activation rates above modern thresholds
// (which are dropping toward ~10K ACTs/window on newer DRAM [24, 74, 129]).
// This bench profiles per-row ACTs per 64 ms refresh window for the workload
// catalog and for a double-sided hammer, against two threshold levels.
#include <cstdio>

#include "bench/bench_util.h"
#include "src/addr/decoder.h"
#include "src/base/units.h"
#include "src/memctl/act_profile.h"
#include "src/memctl/controller.h"
#include "src/sim/experiment.h"
#include "src/workload/workloads.h"

int siloz::bench::ActRates(FlagSet& flags, int argc, char** argv) {
  flags.ParseOrExit(argc, argv, 2);
  const DramGeometry geometry;
  bench::PrintHeader("Ablation A11: per-row activation rates vs Rowhammer thresholds",
                     geometry);
  constexpr uint64_t kLegacyThreshold = 50000;  // older DDR4
  constexpr uint64_t kModernThreshold = 10000;  // scaled server parts

  std::printf("%-12s | %14s | %16s | %10s | %10s\n", "workload", "activations",
              "max row ACTs/win", ">10K rows", "verdict");
  bench::PrintRule();

  SkylakeDecoder decoder(geometry);
  const std::vector<VmRegion> regions = {
      VmRegion{MemoryType::kGuestRam, 0, 3_GiB, 3_GiB, PageSize::k2M}};

  bool any_commodity_over = false;
  // A representative subset run long enough to span multiple full refresh
  // windows (per-window counts need full windows to be meaningful).
  std::vector<WorkloadSpec> catalog;
  for (const char* name : {"redis-a", "redis-d", "memcached", "mysql", "spec17", "mlc-stream"}) {
    catalog.push_back(*FindWorkload(name));
  }
  for (WorkloadSpec spec : catalog) {
    spec.accesses = 5'000'000;
    // Hot-key workloads concentrate on few rows; shrink footprints to the
    // hot working set a cache would NOT absorb (worst realistic case).
    if (spec.zipf_theta > 0.0) {
      spec.footprint_bytes = 64_MiB;
    }
    const auto trace = GenerateTrace(spec, decoder, regions, 0, 99);
    MemoryController controller(geometry, 0);
    RowActivationProfiler profiler(geometry, kModernThreshold);
    double cursor = 0.0;
    for (const MemRequest& request : trace) {
      profiler.Observe(request, cursor);
      cursor = controller.Serve(request, cursor);
    }
    const ActProfile profile = profiler.Finish();
    const bool over = profile.max_row_acts_per_window > kModernThreshold;
    any_commodity_over |= over;
    std::printf("%-12s | %14lu | %16lu | %10lu | %s\n", spec.name.c_str(),
                static_cast<unsigned long>(profile.total_activations),
                static_cast<unsigned long>(profile.max_row_acts_per_window),
                static_cast<unsigned long>(profile.rows_over_threshold),
                over ? "OVER modern threshold" : "under");
  }

  // The attack, for scale: a double-sided hammer in the same harness.
  {
    MemoryController controller(geometry, 0);
    RowActivationProfiler profiler(geometry, kModernThreshold);
    const uint64_t row_stride = geometry.row_group_bytes() * 32;
    double cursor = 0.0;
    for (int i = 0; i < 5'000'000; ++i) {
      MemRequest request;
      request.address = *decoder.PhysToMedia((i % 2) * row_stride);
      profiler.Observe(request, cursor);
      cursor = controller.Serve(request, cursor);
    }
    const ActProfile profile = profiler.Finish();
    std::printf("%-12s | %14lu | %16lu | %10lu | %s\n", "hammer",
                static_cast<unsigned long>(profile.total_activations),
                static_cast<unsigned long>(profile.max_row_acts_per_window),
                static_cast<unsigned long>(profile.rows_over_threshold),
                profile.max_row_acts_per_window > kLegacyThreshold
                    ? "OVER even legacy threshold"
                    : "over modern threshold");
  }
  bench::PrintRule();
  std::printf("Thresholds: modern ~%luK, legacy ~%luK ACTs/64ms window.\n",
              static_cast<unsigned long>(kModernThreshold / 1000),
              static_cast<unsigned long>(kLegacyThreshold / 1000));
  std::printf("Hot-key commodity workloads %s reach modern-threshold rates (the\n"
              "paper's premise that deployed mitigations — not rarity — are what\n"
              "stands between commodity traffic and bit flips).\n",
              any_commodity_over ? "DO" : "do not");
  return 0;
}
