// Fleet churn: the §7 operational costs of subarray-grouped placement under
// a realistic arrival/departure stream. Sustains thousands of concurrent VMs
// on the full 8-socket fleet platform, compares the three admission policies
// head to head (rejections, queueing, abandonment, exhaustion events), and
// quantifies what the defrag loop buys: migrations performed and stranded
// bytes recovered. The model table on stdout must be byte-identical for any
// --threads value; the run ends with a hard self-check at 1/2/8 workers and
// exits nonzero on any divergence, leak, or failed drain.
#include <cstdio>
#include <string>

#include "bench/bench_util.h"
#include "src/sim/fleet.h"
#include "src/sim/report.h"

int siloz::bench::FleetChurn(FlagSet& flags, int argc, char** argv) {
  FleetConfig base;
  flags.Add("--threads", &base.threads, "trace-synthesis workers (0 = auto)");
  flags.ParseOrExit(argc, argv, 2);
  base.duration_s = 200.0;
  base.arrivals_per_s = 20.0;  // ~4000 arrivals, ~2500 concurrent at steady state
  base.min_lifetime_s = 60.0;
  base.max_lifetime_s = 240.0;

  bench::PrintHeader("Fleet churn: admission policies and defrag recovery (§7)",
                     base.geometry);
  std::printf("%-8s | %8s | %7s | %8s | %9s | %8s | %10s | %14s | %9s | %16s | %s\n",
              "policy", "admitted", "queued", "rejected", "abandoned", "exhaust",
              "migrations", "recovered", "peak VMs", "peak stranded", "drain");
  bench::PrintRule();

  CsvReporter csv("fleet_churn");
  bool ok = true;
  for (AdmissionPolicy policy :
       {AdmissionPolicy::kReject, AdmissionPolicy::kQueue, AdmissionPolicy::kDefrag}) {
    FleetConfig config = base;
    config.policy = policy;
    const Result<FleetReport> report = RunFleetChurn(config);
    if (!report.ok()) {
      std::fprintf(stderr, "fleet churn (%s) failed: %s\n", AdmissionPolicyName(policy),
                   report.error().ToString().c_str());
      return 1;
    }
    std::printf("%-8s | %8llu | %7llu | %8llu | %9llu | %8llu | %10llu | %12llu B | %9llu | %14llu B | %s\n",
                AdmissionPolicyName(policy),
                static_cast<unsigned long long>(report->admitted),
                static_cast<unsigned long long>(report->queued_admits),
                static_cast<unsigned long long>(report->rejected),
                static_cast<unsigned long long>(report->abandoned),
                static_cast<unsigned long long>(report->exhaustion_events),
                static_cast<unsigned long long>(report->migrations),
                static_cast<unsigned long long>(report->recovered_bytes),
                static_cast<unsigned long long>(report->peak_concurrency),
                static_cast<unsigned long long>(report->peak_stranded_bytes),
                report->drained_clean ? "clean" : "LEAK");
    (void)csv.Append(
        {"policy", "admitted", "queued_admits", "rejected", "abandoned",
         "exhaustion_events", "migrations", "recovered_bytes", "peak_concurrency",
         "peak_stranded_bytes", "drained_clean"},
        {AdmissionPolicyName(policy), CsvNumber(static_cast<double>(report->admitted)),
         CsvNumber(static_cast<double>(report->queued_admits)),
         CsvNumber(static_cast<double>(report->rejected)),
         CsvNumber(static_cast<double>(report->abandoned)),
         CsvNumber(static_cast<double>(report->exhaustion_events)),
         CsvNumber(static_cast<double>(report->migrations)),
         CsvNumber(static_cast<double>(report->recovered_bytes)),
         CsvNumber(static_cast<double>(report->peak_concurrency)),
         CsvNumber(static_cast<double>(report->peak_stranded_bytes)),
         report->drained_clean ? "1" : "0"});
    if (!report->drained_clean) {
      std::fprintf(stderr, "fleet churn (%s): drain diff:\n%s", AdmissionPolicyName(policy),
                   report->drain_diff.c_str());
      ok = false;
    }
    if (policy == AdmissionPolicy::kDefrag &&
        (report->migrations == 0 || report->recovered_bytes == 0)) {
      std::fprintf(stderr, "fleet churn (defrag): expected the defrag loop to recover "
                           "capacity, got %llu migrations / %llu bytes\n",
                   static_cast<unsigned long long>(report->migrations),
                   static_cast<unsigned long long>(report->recovered_bytes));
      ok = false;
    }
  }

  // Alloc/teardown/migrate tails from the runs above — host-clock facts, so
  // stderr with the rest of the scheduler telemetry.
  std::fprintf(stderr, "%s", FleetReport::LatencyText().c_str());

  // Determinism self-check: the defrag model output, bit for bit, at 1, 2,
  // and 8 workers. A shorter trace keeps the three extra runs cheap — what
  // matters is that defrag migrations and epoch-boundary accounting happen,
  // not how long they run.
  FleetConfig identity = base;
  identity.policy = AdmissionPolicy::kDefrag;
  identity.duration_s = 100.0;
  identity.threads = 1;
  const Result<FleetReport> reference = RunFleetChurn(identity);
  if (!reference.ok()) {
    std::fprintf(stderr, "identity reference run failed: %s\n",
                 reference.error().ToString().c_str());
    return 1;
  }
  for (uint32_t threads : {2u, 8u}) {
    identity.threads = threads;
    const Result<FleetReport> candidate = RunFleetChurn(identity);
    if (!candidate.ok()) {
      std::fprintf(stderr, "identity run (--threads %u) failed: %s\n", threads,
                   candidate.error().ToString().c_str());
      return 1;
    }
    if (candidate->ModelText() != reference->ModelText() ||
        candidate->ModelJson() != reference->ModelJson()) {
      std::fprintf(stderr,
                   "DETERMINISM FAILURE: --threads %u model output diverges from "
                   "--threads 1\n--- threads 1 ---\n%s--- threads %u ---\n%s",
                   threads, reference->ModelText().c_str(), threads,
                   candidate->ModelText().c_str());
      ok = false;
    }
  }
  if (ok) {
    std::printf("\nfleet: model output bit-identical for --threads 1/2/8; all drains clean\n");
  }
  return ok ? 0 : 1;
}
