// Ablation A10 (§1, §2.2, §8.4): memory interference between co-located
// tenants — what Siloz does and does not change.
//
// A latency-sensitive tenant (redis-a) runs next to neighbours of varying
// aggressiveness. Measured victim slowdown vs running alone:
//  - interference is real and driven by shared channels/banks,
//  - Siloz's placement does not change it (groups share banks by design),
//  - a cross-socket neighbour does not interfere (disjoint memory system).
//
// The whole (victim regime x kernel x neighbour) grid runs as one parallel
// colocated sweep (`--threads N`; results identical for every N).
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <iterator>

#include "bench/bench_util.h"
#include "src/base/check.h"
#include "src/sim/colocated.h"

int siloz::bench::Interference(FlagSet& flags, int argc, char** argv) {
  uint32_t threads = 0;
  flags.Add("--threads", &threads, "sweep workers (0 = auto)");
  flags.ParseOrExit(argc, argv, 2);
  bench::PrintHeader("Ablation A10: co-located tenant interference", DramGeometry{});

  // Two victim regimes: latency-bound (low MLP, no compute to hide misses)
  // and compute-bound (the stock redis-a profile).
  WorkloadSpec latency_victim = *FindWorkload("redis-a");
  latency_victim.accesses = 150000;
  latency_victim.mlp = 4;
  latency_victim.compute_ns_per_access = 2.0;
  WorkloadSpec compute_victim = *FindWorkload("redis-a");
  compute_victim.accesses = 150000;

  struct Case {
    const char* label;
    const char* workload;
    uint32_t socket;
  } cases[] = {
      {"none (alone)", nullptr, 0},
      {"mysql, same socket", "mysql", 0},
      {"mlc-3:1, same socket", "mlc-3:1", 0},
      {"mlc-stream, same socket", "mlc-stream", 0},
      {"mlc-stream, other socket", "mlc-stream", 1},
  };

  // Scenario grid in a fixed order: victim regime major, then kernel, then
  // neighbour case — index arithmetic below depends on it.
  const WorkloadSpec* victims[] = {&latency_victim, &compute_victim};
  std::vector<ColocatedScenario> scenarios;
  for (const WorkloadSpec* victim : victims) {
    for (bool siloz_enabled : {false, true}) {
      for (const Case& c : cases) {
        ColocatedScenario scenario;
        scenario.name = std::string(victim == &latency_victim ? "lat/" : "cpu/") +
                        (siloz_enabled ? "siloz/" : "base/") + c.label;
        scenario.config.hypervisor.enabled = siloz_enabled;
        scenario.tenants = {{.vm_name = "victim", .memory_bytes = 3ull << 30, .socket = 0,
                             .workload = *victim}};
        if (c.workload != nullptr) {
          WorkloadSpec hog = *FindWorkload(c.workload);
          hog.accesses = 100000;
          scenario.tenants.push_back({.vm_name = "hog", .memory_bytes = 3ull << 30,
                                      .socket = c.socket, .workload = hog,
                                      .background = true});
        }
        scenarios.push_back(std::move(scenario));
      }
    }
  }

  PoolPhaseMetrics metrics;
  Result<std::vector<std::vector<TenantResult>>> sweep =
      RunColocatedSweep(scenarios, threads, &metrics);
  SILOZ_CHECK(sweep.ok()) << sweep.error().ToString();
  std::fprintf(stderr, "%s\n", metrics.ToText().c_str());

  const size_t per_case = std::size(cases);
  // victim regime v, kernel k (0 = baseline, 1 = siloz), case c.
  auto victim_elapsed = [&](size_t v, size_t k, size_t c) {
    return (*sweep)[(v * 2 + k) * per_case + c][0].elapsed_ns;
  };

  std::printf("victim = redis-a; numbers are victim slowdown vs running alone.\n\n");
  std::printf("%-34s | %23s | %23s\n", "", "latency-bound victim", "compute-bound victim");
  std::printf("%-34s | %10s | %10s | %10s | %10s\n", "neighbour", "baseline", "siloz",
              "baseline", "siloz");
  bench::PrintRule();
  double max_divergence = 0.0;
  for (size_t c = 0; c < per_case; ++c) {
    const double lat_base = victim_elapsed(0, 0, c) / victim_elapsed(0, 0, 0);
    const double lat_siloz = victim_elapsed(0, 1, c) / victim_elapsed(0, 1, 0);
    const double cpu_base = victim_elapsed(1, 0, c) / victim_elapsed(1, 0, 0);
    const double cpu_siloz = victim_elapsed(1, 1, c) / victim_elapsed(1, 1, 0);
    std::printf("%-34s | %9.3fx | %9.3fx | %9.3fx | %9.3fx\n", cases[c].label, lat_base,
                lat_siloz, cpu_base, cpu_siloz);
    max_divergence = std::max(max_divergence, std::abs(lat_siloz / lat_base - 1.0));
    max_divergence = std::max(max_divergence, std::abs(cpu_siloz / cpu_base - 1.0));
  }
  bench::PrintRule();
  std::printf("Interference profile identical under Siloz (max divergence %.2f%%):\n"
              "subarray groups isolate *disturbance*, not bandwidth — per §8.4,\n"
              "performance isolation needs bank/rank/channel-level logical nodes.\n",
              max_divergence * 100.0);
  return max_divergence < 0.02 ? 0 : 1;
}
