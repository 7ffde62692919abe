// Regenerates one of the paper's performance figures (§7.2-§7.4):
//
//   fig4     baseline-normalized execution time: redis+YCSB A-F, Hadoop
//            terasort, SPEC CPU 2017, PARSEC 3.0
//   fig4ext  the individual SPEC and PARSEC benchmarks behind fig4's suite
//            bars, so the null result is not an averaging artifact
//   fig5     baseline-normalized throughput: memcached, SysBench mySQL, and
//            the Intel MLC variants (reads, 3:1, 2:1, 1:1, stream)
//   fig6/7   Siloz-1024-normalized time/throughput with the presumed
//            subarray size varied to 512 (twice the nodes) and 2048 (half)
//
// Expected shape (paper): every workload within noise of its baseline,
// geometric means within 0.5%, no trend across subarray sizes. Siloz only
// changes *where* boot-time allocations land and subarray groups preserve
// bank-level parallelism, so the timing model produces the same null result
// mechanistically. With SILOZ_RESULTS_DIR set, each figure also appends CSV
// rows per (variant, workload).
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/addr/platform.h"
#include "src/base/thread_pool.h"
#include "src/obs/metrics.h"
#include "src/sim/experiment.h"
#include "src/sim/report.h"
#include "src/workload/workloads.h"

namespace siloz {
namespace {

// A hypervisor configuration under test.
struct Kernel {
  const char* label;
  SilozConfig config;
};

// One set of overhead tables: `heading` (may be empty) is printed first, and
// `experiment` names the CSV file and the stderr telemetry.
struct Section {
  const char* heading;
  const std::vector<WorkloadSpec>& (*workloads)();
  const char* experiment;
  uint32_t trials;
};

struct FigureSpec {
  const char* name;
  const char* title;
  const char* blurb;             // printed under the header; may be empty
  std::vector<Kernel> kernels;   // [0] is the baseline the others normalize to
  std::vector<Section> sections;
  uint64_t seed;
};

const std::vector<FigureSpec>& Figures() {
  const std::vector<Kernel> siloz_vs_linux = {{"baseline", {.enabled = false}},
                                              {"siloz", {.rows_per_subarray = 1024}}};
  const std::vector<Kernel> size_sweep = {{"siloz-1024", {.rows_per_subarray = 1024}},
                                          {"siloz-512", {.rows_per_subarray = 512}},
                                          {"siloz-2048", {.rows_per_subarray = 2048}}};
  static const std::vector<FigureSpec> figures = {
      {"fig4", "Figure 4: baseline-normalized execution time (Siloz vs Linux/KVM)",
       "Workload models replay memory-access traces with each suite's\n"
       "locality/mix/MLP profile; 5 trials per point (see DESIGN.md).\n\n",
       siloz_vs_linux, {{"", ExecutionTimeWorkloads, "fig4_exec_time", 5}}, 42},
      {"fig4ext", "Figure 4 (extended): per-benchmark execution time, Siloz vs baseline", "",
       siloz_vs_linux,
       {{"SPEC CPU 2017 subset:\n\n", SpecCpuWorkloads, "fig4ext_spec", 3},
        {"PARSEC 3.0 subset:\n\n", ParsecWorkloads, "fig4ext_parsec", 3}},
       42},
      {"fig5", "Figure 5: baseline-normalized throughput (Siloz vs Linux/KVM)",
       "MLC variants are saturated bandwidth probes (64 outstanding, no\n"
       "compute gap); 5 trials per point.\n\n",
       siloz_vs_linux, {{"", ThroughputWorkloads, "fig5_throughput", 5}}, 42},
      {"fig6", "Figure 6: Siloz-1024-normalized execution time, subarray size sweep",
       "Siloz-512 manages 2x the logical NUMA nodes of Siloz-1024;\n"
       "Siloz-2048 half. 5 trials per point.\n\n",
       size_sweep, {{"", ExecutionTimeWorkloads, "fig6_size_time", 5}}, 42},
      {"fig7", "Figure 7: Siloz-1024-normalized throughput, subarray size sweep", "",
       size_sweep, {{"", ThroughputWorkloads, "fig7_size_tput", 5}}, 42},
  };
  return figures;
}

// Runs one section's workloads under every kernel of the figure and prints
// one overhead table per non-baseline kernel. Returns false if a run failed.
//
// `runner` carries the command line's model knobs and --threads. A non-empty
// `platform` gives every grid point the registry platform's geometry,
// decoder family, and DDR-generation semantics, with each kernel keeping its
// own subarray size. The whole (kernel x workload x trial) space runs on one
// fork-join ParallelFor; tables on stdout are byte-identical for every thread
// count, and the scheduler/timing telemetry goes to stderr.
bool RunFigure(const FigureSpec& figure, const Section& section, RunnerConfig runner,
               const std::string& platform) {
  const std::vector<WorkloadSpec>& workloads = section.workloads();
  const std::vector<Kernel>& kernels = figure.kernels;
  const char* experiment = section.experiment;
  runner.trials = section.trials;
  runner.seed = figure.seed;

  // The wall-clock depends on what --threads resolves to even though the
  // tables never do, so the count is resolved once, reported up front, and
  // forwarded to RunWorkloadGrid.
  const uint32_t threads = ResolveThreads(runner.threads);
  std::fprintf(stderr,
               "%s: %u worker threads (--threads %u%s), --channels-per-shard %u, "
               "--bank-groups-per-queue %u\n",
               experiment, threads, runner.threads, runner.threads == 0 ? " = auto" : "",
               runner.channels_per_shard, runner.bank_groups_per_queue);

  // Grid points are kernel-major: point k * |workloads| + w.
  std::vector<GridPoint> points;
  for (const Kernel& kernel : kernels) {
    runner.hypervisor = kernel.config;
    if (!platform.empty()) {
      const Status applied = ApplyPlatform(runner, platform, runner.hypervisor.rows_per_subarray);
      if (!applied.ok()) {
        std::fprintf(stderr, "--platform %s: %s\n", platform.c_str(),
                     applied.error().ToString().c_str());
        return false;
      }
    }
    for (const WorkloadSpec& workload : workloads) {
      points.push_back(GridPoint{runner, workload});
    }
  }
  PoolPhaseMetrics grid_metrics;
  Result<std::vector<RunMeasurement>> grid = RunWorkloadGrid(points, threads, &grid_metrics);
  if (!grid.ok()) {
    std::fprintf(stderr, "figure grid failed: %s\n", grid.error().ToString().c_str());
    return false;
  }
  std::fprintf(stderr, "%s\n", grid_metrics.ToText().c_str());

  // Host throughput of the run, on stderr with the rest of the scheduler
  // telemetry. Counted in the sched domain: wall-clock facts, legitimately
  // variable run to run, excluded from the determinism diffs.
  uint64_t simulated_requests = 0;
  for (const GridPoint& point : points) {
    simulated_requests += static_cast<uint64_t>(point.config.trials) * point.workload.accesses;
  }
  obs::Registry::Global()
      .GetCounter("bench.simulated_requests", obs::Domain::kSched)
      .Add(simulated_requests);
  const double wall_s = grid_metrics.wall_ms / 1000.0;
  std::fprintf(stderr, "%s: %llu simulated requests in %.2f s wall (%.2f Mreq/s)\n",
               experiment, static_cast<unsigned long long>(simulated_requests), wall_s,
               wall_s > 0.0 ? static_cast<double>(simulated_requests) / wall_s / 1e6 : 0.0);

  // Per-shard throughput telemetry: requests served by each channel shard,
  // summed over the whole grid in shard-plan order, and the host-side rate
  // that shard sustained. Sched-domain facts, so stderr.
  std::vector<uint64_t> shard_totals;
  for (const RunMeasurement& measurement : *grid) {
    shard_totals.resize(measurement.shard_requests.size(), 0);
    for (size_t shard = 0; shard < measurement.shard_requests.size(); ++shard) {
      shard_totals[shard] += measurement.shard_requests[shard];
    }
  }
  for (size_t shard = 0; shard < shard_totals.size(); ++shard) {
    obs::Registry::Global()
        .GetCounter("bench.shard" + std::to_string(shard) + ".requests", obs::Domain::kSched)
        .Add(shard_totals[shard]);
    std::fprintf(stderr, "%s: shard%zu served %llu requests (%.2f Mreq/s)\n", experiment, shard,
                 static_cast<unsigned long long>(shard_totals[shard]),
                 wall_s > 0.0 ? static_cast<double>(shard_totals[shard]) / wall_s / 1e6 : 0.0);
  }
  std::printf("\n");

  const bool throughput = workloads[0].metric == MetricKind::kThroughput;
  for (size_t v = 1; v < kernels.size(); ++v) {
    std::printf("%s-normalized %s for %s (positive = overhead; error bars 95%% CI):\n",
                kernels[0].label, throughput ? "throughput loss" : "execution time",
                kernels[v].label);
    std::vector<bench::OverheadRow> rows;
    std::vector<double> ratios;
    for (size_t w = 0; w < workloads.size(); ++w) {
      const RunMeasurement& base = (*grid)[w];
      const RunMeasurement& variant = (*grid)[v * workloads.size() + w];
      rows.push_back(bench::Normalize(
          workloads[w].name, throughput ? base.bandwidth_gibs : base.elapsed_ns,
          throughput ? variant.bandwidth_gibs : variant.elapsed_ns, throughput));
      ratios.push_back(1.0 + rows.back().mean_pct / 100.0);
    }
    bench::OverheadRow geomean;
    geomean.name = "geomean";
    geomean.mean_pct = (GeometricMean(ratios) - 1.0) * 100.0;
    rows.push_back(geomean);
    bench::PrintOverheadTable(throughput ? "tput loss" : "time ovh", rows);
    CsvReporter csv(experiment);
    for (size_t w = 0; w < workloads.size(); ++w) {
      (void)csv.Append({"variant", "workload", "overhead_pct", "ci95_pct"},
                       {kernels[v].label, workloads[w].name, CsvNumber(rows[w].mean_pct),
                        CsvNumber(rows[w].ci_pct)});
    }
    std::printf("geomean |%s overhead| = %.3f%% — paper reports within +/-0.5%%\n\n",
                kernels[v].label, std::abs(geomean.mean_pct));
  }
  return true;
}

}  // namespace
}  // namespace siloz

int siloz::bench::Figure(FlagSet& flags, int argc, char** argv) {
  const std::string name = argv[0];
  RunnerConfig base;
  std::string platform;  // empty = the Table 2 Skylake server
  obs::ExportFiles exports;
  flags.Add("--threads", &base.threads,
            "grid workers (0 = auto: $SILOZ_THREADS,\n"
            "else hardware concurrency); tables are\n"
            "identical for every N");
  flags.Add("--channels-per-shard", &base.channels_per_shard,
            "channels per command-queue shard (model knob)", {.min = 1});
  flags.Add("--bank-groups-per-queue", &base.bank_groups_per_queue,
            "bank groups per command queue (model knob)", {.min = 1});
  flags.Add("--platform", &platform, "registered platform (default: the Table 2 server)",
            {.choices = PlatformNames()});
  flags.AddExports(&exports);
  flags.ParseOrExit(argc, argv, 2);

  const FigureSpec& figure = *std::find_if(
      Figures().begin(), Figures().end(), [&](const FigureSpec& f) { return f.name == name; });
  bench::PrintHeader(figure.title,
                     platform.empty() ? DramGeometry{} : FindPlatform(platform)->geometry,
                     platform);
  std::printf("%s", figure.blurb);
  bool ok = true;
  for (const Section& section : figure.sections) {
    std::printf("%s", section.heading);
    ok = RunFigure(figure, section, base, platform) && ok;
  }
  return (exports.Write() && ok) ? 0 : 1;
}
