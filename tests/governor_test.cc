// Tests for the mediated-access governor (§5.1) and the controller's
// refresh-overhead model (§2.3).
#include <gtest/gtest.h>

#include "src/addr/decoder.h"
#include "src/base/units.h"
#include "src/memctl/controller.h"
#include "src/siloz/mediated_governor.h"
#include "tests/support/serial_engine.h"

namespace siloz {
namespace {

// --- MediatedAccessGovernor ---

TEST(GovernorTest, OrdinaryRatesPass) {
  // A virtio-style guest causing ~1K exit accesses per window is untouched.
  MediatedAccessGovernor governor(GovernorConfig{});
  uint64_t t = 0;
  for (int window = 0; window < 5; ++window) {
    for (int i = 0; i < 1000; ++i) {
      EXPECT_TRUE(governor.Charge(1, t).ok());
      t += kRefreshWindowNs / 2000;
    }
  }
  EXPECT_EQ(governor.throttled(1), 0u);
  EXPECT_EQ(governor.admitted(1), 5000u);
}

TEST(GovernorTest, HammeringRateThrottled) {
  // A confused-deputy attacker needs tens of thousands of ACTs per window;
  // the budget cuts it off three orders of magnitude short.
  MediatedAccessGovernor governor(GovernorConfig{});
  uint64_t t = 0;
  uint64_t admitted_in_window = 0;
  for (int i = 0; i < 100000; ++i) {
    admitted_in_window += governor.Charge(1, t).ok();
    t += 50;  // hammering pace
  }
  EXPECT_EQ(admitted_in_window, governor.max_acts_per_window());
  EXPECT_GT(governor.throttled(1), 90000u);
  // The permitted rate is far below any modern Rowhammer threshold.
  EXPECT_LT(governor.max_acts_per_window(), 10000u);
}

TEST(GovernorTest, BudgetResetsEachRefreshWindow) {
  MediatedAccessGovernor governor(GovernorConfig{.acts_per_refresh_window = 10});
  uint64_t t = 0;
  for (int i = 0; i < 10; ++i) {
    EXPECT_TRUE(governor.Charge(1, t).ok());
  }
  EXPECT_FALSE(governor.Charge(1, t).ok());
  // Next window: fresh budget (the hammered rows were refreshed meanwhile).
  t += kRefreshWindowNs;
  EXPECT_TRUE(governor.Charge(1, t).ok());
}

TEST(GovernorTest, PerVmIsolation) {
  MediatedAccessGovernor governor(GovernorConfig{.acts_per_refresh_window = 5});
  for (int i = 0; i < 5; ++i) {
    EXPECT_TRUE(governor.Charge(1, 0).ok());
  }
  EXPECT_FALSE(governor.Charge(1, 0).ok());
  // VM 2 is unaffected by VM 1's exhaustion.
  EXPECT_TRUE(governor.Charge(2, 0).ok());
  EXPECT_EQ(governor.throttled(2), 0u);
}

// --- Refresh overhead model ---

TEST(RefreshModelTest, StealsExpectedBandwidthFraction) {
  const DramGeometry geometry;
  SkylakeDecoder decoder(geometry);
  auto bandwidth = [&](bool model_refresh) {
    DdrTimings timings;
    timings.model_refresh = model_refresh;
    MemoryController c0(geometry, 0, timings);
    MemoryController c1(geometry, 1, timings);
    MemoryController* controllers[] = {&c0, &c1};
    std::vector<MemRequest> stream;
    for (int i = 0; i < 40000; ++i) {
      MemRequest request;
      request.address = *decoder.PhysToMedia(static_cast<uint64_t>(i) * 64);
      stream.push_back(request);
    }
    EngineConfig config;
    config.max_outstanding = 64;
    return RunClosedLoop(stream, controllers, config).bandwidth_gib_per_s();
  };
  const double with_refresh = bandwidth(true);
  const double without_refresh = bandwidth(false);
  const double stolen = 1.0 - with_refresh / without_refresh;
  // tRFC / tREFI = 350/7800 ~ 4.5%; staggering and overlap soften it.
  EXPECT_GT(stolen, 0.005);
  EXPECT_LT(stolen, 0.08);
}

TEST(RefreshModelTest, SomeRequestsSeeRefreshTail) {
  // A latency-bound stream must occasionally catch the rank mid-REF and
  // wait up to tRFC extra.
  const DramGeometry geometry;
  SkylakeDecoder decoder(geometry);
  MemoryController controller(geometry, 0);
  double cursor = 0.0;
  double max_latency = 0.0;
  double min_latency = 1e18;
  for (int i = 0; i < 3000; ++i) {
    MemRequest request;
    request.address = *decoder.PhysToMedia(static_cast<uint64_t>(i) * 64 * 193);
    const double done = controller.Serve(request, cursor);
    max_latency = std::max(max_latency, done - cursor);
    min_latency = std::min(min_latency, done - cursor);
    cursor = done;
  }
  EXPECT_GT(max_latency, min_latency + 100.0) << "expected a refresh-induced tail";
  EXPECT_LT(max_latency, min_latency + controller.timings().t_rfc + 50.0);
}

}  // namespace
}  // namespace siloz
