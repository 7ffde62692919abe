// Regression battery for the determinism contract (DESIGN.md §8): every
// parallel phase — the trial loop, the sweep grids, the colocated sweep, and
// the auditor's blast-radius scan — must produce bit-identical results for
// every thread count, including the legacy serial path (threads = 1).
//
// Each test runs the same seeded configuration at threads = 1, 2, and 8 and
// compares outputs exactly (EXPECT_EQ on doubles — no tolerance): statistics,
// fault-model flip sets, and serialized audit reports.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/addr/decoder.h"
#include "src/audit/auditor.h"
#include "src/base/units.h"
#include "src/dram/remap.h"
#include "src/obs/metrics.h"
#include "src/sim/colocated.h"
#include "src/sim/experiment.h"
#include "src/workload/workloads.h"

namespace siloz {
namespace {

constexpr uint32_t kThreadCounts[] = {1, 2, 8};

WorkloadSpec SmallWorkload(const char* name = "redis-a") {
  WorkloadSpec spec = *FindWorkload(name);
  spec.accesses = 20000;
  return spec;
}

RunnerConfig SmallConfig() {
  RunnerConfig config;
  config.trials = 6;
  config.seed = 1234;
  return config;
}

void ExpectSameStat(const RunningStat& a, const RunningStat& b, const char* what) {
  EXPECT_EQ(a.count(), b.count()) << what;
  EXPECT_EQ(a.mean(), b.mean()) << what;
  EXPECT_EQ(a.stddev(), b.stddev()) << what;
  EXPECT_EQ(a.ci95_halfwidth(), b.ci95_halfwidth()) << what;
  EXPECT_EQ(a.min(), b.min()) << what;
  EXPECT_EQ(a.max(), b.max()) << what;
}

void ExpectSameMeasurement(const RunMeasurement& a, const RunMeasurement& b) {
  ExpectSameStat(a.elapsed_ns, b.elapsed_ns, "elapsed_ns");
  ExpectSameStat(a.bandwidth_gibs, b.bandwidth_gibs, "bandwidth_gibs");
  EXPECT_EQ(a.row_hit_rate, b.row_hit_rate);
  EXPECT_EQ(a.flip_phys, b.flip_phys);
}

TEST(ParallelDeterminismTest, RunWorkloadIdenticalAcrossThreadCounts) {
  const WorkloadSpec spec = SmallWorkload();
  RunnerConfig config = SmallConfig();
  config.threads = 1;
  Result<RunMeasurement> serial = RunWorkload(config, spec);
  ASSERT_TRUE(serial.ok()) << serial.error().ToString();
  EXPECT_EQ(serial->pool.pool.workers, 1u);
  EXPECT_EQ(serial->pool.pool.tasks, config.trials);
  for (const uint32_t threads : kThreadCounts) {
    config.threads = threads;
    Result<RunMeasurement> run = RunWorkload(config, spec);
    ASSERT_TRUE(run.ok()) << run.error().ToString();
    EXPECT_EQ(run->pool.pool.workers, threads);
    EXPECT_EQ(run->pool.pool.tasks, config.trials);
    ExpectSameMeasurement(*serial, *run);
  }
}

TEST(ParallelDeterminismTest, FaultModeFlipSetsIdenticalAcrossThreadCounts) {
  // A hammer-shaped workload: a small footprint spanning a few rows per
  // bank with no sequential locality maximizes row conflicts (= device
  // ACTs), and the weak DIMM flips after a few dozen of them.
  WorkloadSpec spec = SmallWorkload("mlc-stream");
  spec.accesses = 40000;
  spec.footprint_bytes = 4ull << 20;
  spec.sequential_locality = 0.0;
  RunnerConfig config = SmallConfig();
  config.trials = 4;
  config.fault_tracking = true;
  // The flip *sets* (per trial, sorted) are part of the contract, not just
  // the timing stats.
  DimmProfile weak;
  weak.disturbance.threshold_mean = 50.0;
  weak.disturbance.threshold_spread = 0.1;
  weak.trr.enabled = false;
  config.dimm_profiles = {weak};

  config.threads = 1;
  Result<RunMeasurement> serial = RunWorkload(config, spec);
  ASSERT_TRUE(serial.ok()) << serial.error().ToString();
  ASSERT_FALSE(serial->flip_phys.empty())
      << "profile too strong to flip anything; the test would be vacuous";
  for (const uint32_t threads : kThreadCounts) {
    config.threads = threads;
    Result<RunMeasurement> run = RunWorkload(config, spec);
    ASSERT_TRUE(run.ok()) << run.error().ToString();
    ExpectSameMeasurement(*serial, *run);
  }
}

TEST(ParallelDeterminismTest, GridMatchesPointwiseSerialRuns) {
  // Grid parallelism must change nothing: each grid point equals its own
  // standalone serial RunWorkload, in point order.
  std::vector<GridPoint> points;
  for (const char* name : {"redis-a", "mysql"}) {
    for (const bool siloz_enabled : {false, true}) {
      GridPoint point;
      point.config = SmallConfig();
      point.config.trials = 3;
      point.config.hypervisor.enabled = siloz_enabled;
      point.workload = SmallWorkload(name);
      points.push_back(point);
    }
  }
  std::vector<RunMeasurement> expected;
  for (const GridPoint& point : points) {
    RunnerConfig serial = point.config;
    serial.threads = 1;
    Result<RunMeasurement> run = RunWorkload(serial, point.workload);
    ASSERT_TRUE(run.ok()) << run.error().ToString();
    expected.push_back(std::move(*run));
  }
  for (const uint32_t threads : kThreadCounts) {
    PoolPhaseMetrics metrics;
    Result<std::vector<RunMeasurement>> grid = RunWorkloadGrid(points, threads, &metrics);
    ASSERT_TRUE(grid.ok()) << grid.error().ToString();
    ASSERT_EQ(grid->size(), points.size());
    EXPECT_EQ(metrics.phase, "grid");
    // The flattened schedule runs every (point, trial) pair as its own pool
    // task; every point here carries config.trials == 3 trials.
    uint64_t expected_tasks = 0;
    for (const GridPoint& point : points) {
      expected_tasks += point.config.trials;
    }
    EXPECT_EQ(metrics.pool.tasks, expected_tasks);
    for (size_t i = 0; i < points.size(); ++i) {
      ExpectSameMeasurement(expected[i], (*grid)[i]);
    }
  }
}

TEST(ParallelDeterminismTest, ColocatedSweepMatchesSerialScenarioRuns) {
  std::vector<ColocatedScenario> scenarios;
  for (const bool siloz_enabled : {false, true}) {
    ColocatedScenario scenario;
    scenario.name = siloz_enabled ? "siloz" : "base";
    scenario.config.hypervisor.enabled = siloz_enabled;
    WorkloadSpec victim = SmallWorkload();
    scenario.tenants.push_back({.vm_name = "victim", .workload = victim});
    WorkloadSpec hog = SmallWorkload("mlc-3:1");
    scenario.tenants.push_back({.vm_name = "hog", .workload = hog, .background = true});
    scenarios.push_back(std::move(scenario));
  }
  std::vector<std::vector<TenantResult>> expected;
  for (const ColocatedScenario& scenario : scenarios) {
    Result<std::vector<TenantResult>> run = RunColocated(scenario.config, scenario.tenants);
    ASSERT_TRUE(run.ok()) << run.error().ToString();
    expected.push_back(std::move(*run));
  }
  for (const uint32_t threads : kThreadCounts) {
    Result<std::vector<std::vector<TenantResult>>> sweep = RunColocatedSweep(scenarios, threads);
    ASSERT_TRUE(sweep.ok()) << sweep.error().ToString();
    ASSERT_EQ(sweep->size(), expected.size());
    for (size_t s = 0; s < expected.size(); ++s) {
      ASSERT_EQ((*sweep)[s].size(), expected[s].size());
      for (size_t t = 0; t < expected[s].size(); ++t) {
        EXPECT_EQ((*sweep)[s][t].vm_name, expected[s][t].vm_name);
        EXPECT_EQ((*sweep)[s][t].elapsed_ns, expected[s][t].elapsed_ns);
        EXPECT_EQ((*sweep)[s][t].bandwidth_gibs, expected[s][t].bandwidth_gibs);
        EXPECT_EQ((*sweep)[s][t].requests, expected[s][t].requests);
      }
    }
  }
}

audit::Options AuditOptions(uint32_t threads) {
  audit::Options options;
  options.probe_stride = 16_MiB;
  options.random_probes = 256;
  options.threads = threads;
  return options;
}

TEST(ParallelDeterminismTest, AuditReportBytesIdenticalAcrossThreadCounts) {
  DramGeometry geometry;
  SkylakeDecoder decoder(geometry);
  Result<audit::Report> serial =
      audit::AuditPlatform(decoder, SilozConfig{}, RemapConfig{}, AuditOptions(1));
  ASSERT_TRUE(serial.ok()) << serial.error().ToString();
  EXPECT_TRUE(serial->ok()) << serial->ToText();
  for (const uint32_t threads : kThreadCounts) {
    Result<audit::Report> report =
        audit::AuditPlatform(decoder, SilozConfig{}, RemapConfig{}, AuditOptions(threads));
    ASSERT_TRUE(report.ok()) << report.error().ToString();
    // The full serialized report — findings, counters, suppression counts —
    // must not depend on how the scan was sharded or scheduled.
    EXPECT_EQ(serial->ToJson(), report->ToJson()) << "threads=" << threads;
    EXPECT_EQ(serial->ToText(), report->ToText()) << "threads=" << threads;
  }
}

// --- Metrics determinism (DESIGN.md §9) ------------------------------------
//
// Model-domain metric *values* join the contract: flush points are
// deterministic program points and integer addition commutes across shards,
// so the serialized model section must be byte-identical for every thread
// count. (The sched section — pool task counts — measures the host and is
// exempt.) The registry is process-global and Reset() is value-only, so the
// key set can only grow; resetting before each run makes the captures
// comparable whatever ran earlier in this binary.

TEST(ParallelDeterminismTest, RunWorkloadModelMetricsIdenticalAcrossThreadCounts) {
  // Fault tracking on, so the capture spans every instrumented layer:
  // memctl per-bank-group commands, dram disturbance probes and flips,
  // hypervisor allocations, and the pool task count.
  WorkloadSpec spec = SmallWorkload("mlc-stream");
  spec.accesses = 40000;
  spec.footprint_bytes = 4ull << 20;
  spec.sequential_locality = 0.0;
  RunnerConfig config = SmallConfig();
  config.trials = 4;
  config.fault_tracking = true;
  DimmProfile weak;
  weak.disturbance.threshold_mean = 50.0;
  weak.disturbance.threshold_spread = 0.1;
  weak.trr.enabled = false;
  config.dimm_profiles = {weak};

  std::string serial_metrics;
  for (const uint32_t threads : kThreadCounts) {
    config.threads = threads;
    obs::Registry::Global().Reset();
    Result<RunMeasurement> run = RunWorkload(config, spec);
    ASSERT_TRUE(run.ok()) << run.error().ToString();
    const std::string metrics = obs::Registry::Global().SectionJson(obs::Domain::kModel);
    if (threads == 1) {
      serial_metrics = metrics;
      // Guard against vacuity: the capture must actually contain the
      // instrumented layers, not an empty section.
      EXPECT_NE(metrics.find("memctl.s0.bg0.act"), std::string::npos) << metrics;
      EXPECT_NE(metrics.find("dram."), std::string::npos) << metrics;
      // Scheduler counters (pool.*) live in the sched domain and must not
      // leak into the model census: whether a pool even exists depends on
      // the thread budget (the fused sharded path builds none).
      EXPECT_EQ(metrics.find("pool."), std::string::npos) << metrics;
    } else {
      EXPECT_EQ(metrics, serial_metrics) << "threads=" << threads;
    }
  }
}

TEST(ParallelDeterminismTest, AuditModelMetricsIdenticalAcrossThreadCounts) {
  DramGeometry geometry;
  SkylakeDecoder decoder(geometry);
  std::string serial_metrics;
  for (const uint32_t threads : kThreadCounts) {
    obs::Registry::Global().Reset();
    Result<audit::Report> report =
        audit::AuditPlatform(decoder, SilozConfig{}, RemapConfig{}, AuditOptions(threads));
    ASSERT_TRUE(report.ok()) << report.error().ToString();
    const std::string metrics = obs::Registry::Global().SectionJson(obs::Domain::kModel);
    if (threads == 1) {
      serial_metrics = metrics;
      EXPECT_NE(metrics.find("audit.probes.blast-radius"), std::string::npos) << metrics;
      // The probes-per-shard histogram merges shard-local reports in shard
      // order; its buckets are part of the model section and must hold.
      EXPECT_NE(metrics.find("audit.blast_radius.probes_per_shard"), std::string::npos)
          << metrics;
    } else {
      EXPECT_EQ(metrics, serial_metrics) << "threads=" << threads;
    }
  }
}

TEST(ParallelDeterminismTest, AuditFindingsIdenticalAcrossThreadCountsWhenViolating) {
  // A wrong boot parameter produces blast-radius findings; the retained
  // findings list (first N in scan order) and the suppressed count must be
  // identical however the scan is sharded.
  DramGeometry geometry;
  geometry.rows_per_subarray = 512;
  SkylakeDecoder decoder(geometry);
  SilozConfig config;
  config.rows_per_subarray = 512;
  std::string serial_json;
  for (const uint32_t threads : kThreadCounts) {
    audit::Options options = AuditOptions(threads);
    options.silicon_rows_per_subarray = 1024;  // silicon is twice the boot value
    options.max_findings_per_invariant = 4;    // force suppression accounting
    Result<audit::Report> report =
        audit::AuditPlatform(decoder, config, RemapConfig{}, options);
    ASSERT_TRUE(report.ok()) << report.error().ToString();
    EXPECT_FALSE(report->ok());
    if (threads == 1) {
      serial_json = report->ToJson();
      EXPECT_GT(report->suppressed, 0u);
    } else {
      EXPECT_EQ(serial_json, report->ToJson()) << "threads=" << threads;
    }
  }
}

}  // namespace
}  // namespace siloz
