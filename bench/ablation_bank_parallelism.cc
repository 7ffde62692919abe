// Ablation A1 (§4.1): why subarray *groups* rather than single subarrays.
//
// The paper motivates subarray groups by the cost of losing bank-level
// parallelism: interleaving-friendly placement is worth >18% execution time
// for some workloads. We compare three placements for the same workloads:
//  - skylake interleave (what both baseline and Siloz use),
//  - SNC-2 (half the banks per page, §8.1),
//  - linear (a page confined to a single bank: the single-subarray
//    strawman's access pattern).
#include <cstdio>

#include "bench/bench_util.h"
#include "src/sim/experiment.h"
#include "src/workload/workloads.h"

int siloz::bench::BankParallelism(FlagSet& flags, int argc, char** argv) {
  flags.ParseOrExit(argc, argv, 2);
  bench::PrintHeader("Ablation A1: value of bank-level parallelism (§4.1)", DramGeometry{});
  std::printf("Execution time normalized to the full skylake interleave.\n"
              "Paper: single-subarray placement is impractical; bank parallelism\n"
              "is worth >18%% for some workloads.\n\n");

  const WorkloadSpec workloads[] = {
      *FindWorkload("mlc-stream"), *FindWorkload("mlc-reads"), *FindWorkload("terasort"),
      *FindWorkload("redis-a"),    *FindWorkload("spec17"),
  };
  const struct {
    const char* label;
    DecoderKind decoder;
  } placements[] = {
      {"skylake (192 banks/page)", DecoderKind::kSkylake},
      {"snc-2   ( 96 banks/page)", DecoderKind::kSnc2},
      {"linear  (  1 bank /page)", DecoderKind::kLinear},
  };

  std::printf("%-12s", "workload");
  for (const auto& placement : placements) {
    std::printf(" | %-26s", placement.label);
  }
  std::printf("\n");
  bench::PrintRule();

  bool saw_big_penalty = false;
  for (const WorkloadSpec& workload : workloads) {
    double base_elapsed = 0.0;
    std::printf("%-12s", workload.name.c_str());
    for (const auto& placement : placements) {
      RunnerConfig runner;
      runner.decoder = placement.decoder;
      runner.trials = 3;
      runner.hypervisor.enabled = placement.decoder != DecoderKind::kLinear;
      Result<RunMeasurement> run = RunWorkload(runner, workload);
      if (!run.ok()) {
        std::fprintf(stderr, "\n%s failed: %s\n", workload.name.c_str(),
                     run.error().ToString().c_str());
        return 1;
      }
      const double elapsed = run->elapsed_ns.mean();
      if (placement.decoder == DecoderKind::kSkylake) {
        base_elapsed = elapsed;
        std::printf(" | %11.2f ms (1.00x)   ", elapsed / 1e6);
      } else {
        const double slowdown = elapsed / base_elapsed;
        std::printf(" | %11.2f ms (%.2fx)   ", elapsed / 1e6, slowdown);
        if (placement.decoder == DecoderKind::kLinear && slowdown > 1.18) {
          saw_big_penalty = true;
        }
      }
    }
    std::printf("\n");
  }
  bench::PrintRule();
  std::printf("Siloz's subarray groups keep the skylake column; a single-subarray\n"
              "design would live in the linear column. >18%% penalty observed: %s\n",
              saw_big_penalty ? "yes" : "NO");
  return saw_big_penalty ? 0 : 1;
}
