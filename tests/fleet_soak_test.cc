// Fleet-churn soak (ctest -L slow / -L fleet): ten thousand VMs through the
// full 8-socket fleet platform, sustained multi-thousand concurrency, clean
// drain. Built with sanitizers in the CI soak leg, this is the leak check
// for the whole CreateVm/MigrateVm/DestroyVm churn path.
#include <gtest/gtest.h>

#include "src/sim/fleet.h"

namespace siloz {
namespace {

TEST(FleetSoak, TenThousandVmChurnSustainsThousandsAndDrainsClean) {
  FleetConfig config;
  config.policy = AdmissionPolicy::kDefrag;
  config.threads = 0;              // auto: hardware concurrency
  config.duration_s = 400.0;
  config.arrivals_per_s = 25.0;    // ~10k arrivals
  config.min_lifetime_s = 60.0;
  config.max_lifetime_s = 300.0;
  const Result<FleetReport> report = RunFleetChurn(config);
  ASSERT_TRUE(report.ok()) << report.error().ToString();
  EXPECT_GE(report->trace_vms, 9000u);
  EXPECT_GE(report->peak_concurrency, 2000u);
  EXPECT_TRUE(report->drained_clean) << report->drain_diff;
  ASSERT_EQ(report->sockets.size(), 8u);
  uint64_t admitted = 0;
  for (const FleetSocketStats& socket : report->sockets) {
    admitted += socket.admitted;
  }
  EXPECT_EQ(admitted, report->admitted);
}

}  // namespace
}  // namespace siloz
