// Tests for the memory controller timing model (src/memctl), including its
// refresh-overhead model (§2.3).
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "src/addr/decoder.h"
#include "src/base/units.h"
#include "src/memctl/controller.h"
#include "tests/support/serial_engine.h"

namespace siloz {
namespace {

DramGeometry Geometry() { return DramGeometry{}; }

// Discards a value while keeping the call (quiet under -Wunused).
inline void benchmark_unused(double) {}

MemRequest At(const AddressDecoder& decoder, uint64_t phys, bool write = false) {
  MemRequest request;
  request.address = *decoder.PhysToMedia(phys);
  request.is_write = write;
  request.source_socket = request.address.socket;
  return request;
}

TEST(ControllerTest, RowHitFasterThanMiss) {
  const DramGeometry geometry = Geometry();
  DdrTimings no_refresh;
  no_refresh.model_refresh = false;  // exact-latency arithmetic below
  MemoryController controller(geometry, 0, no_refresh);
  SkylakeDecoder decoder(geometry);

  // Two accesses to the same cache line: second is a row hit.
  const double first = controller.Serve(At(decoder, 0), 0.0);
  const double second = controller.Serve(At(decoder, 0), first);
  const DdrTimings& t = controller.timings();
  EXPECT_GT(first, t.t_rcd);                      // miss pays ACT+CAS
  EXPECT_NEAR(second - first, t.t_cas + t.t_burst, 1e-9);
  EXPECT_EQ(controller.stats().row_hits, 1u);
  EXPECT_EQ(controller.stats().row_misses, 1u);
}

TEST(ControllerTest, SameBankConflictSerializesOnTrc) {
  const DramGeometry geometry = Geometry();
  MemoryController controller(geometry, 0);
  SkylakeDecoder decoder(geometry);

  // Alternate two rows of the same bank: every access is a row miss gated
  // by tRC.
  const uint64_t row_stride = geometry.row_group_bytes() * 32;  // different chunk slot
  MemRequest a = At(decoder, 0);
  MemRequest b = At(decoder, row_stride);
  ASSERT_EQ(SocketBankIndex(geometry, a.address), SocketBankIndex(geometry, b.address));
  ASSERT_NE(a.address.row, b.address.row);

  for (int i = 0; i < 10; ++i) {
    benchmark_unused(controller.Serve(i % 2 == 0 ? a : b, 0.0));
  }
  // 10 conflicting accesses need at least 9 * tRC of bank time.
  EXPECT_GE(controller.stats().busy_ns, 9 * controller.timings().t_rc());
  EXPECT_EQ(controller.stats().row_hits, 0u);
}

TEST(ControllerTest, DifferentBanksOverlap) {
  const DramGeometry geometry = Geometry();
  SkylakeDecoder decoder(geometry);
  DdrTimings no_refresh;
  no_refresh.model_refresh = false;  // isolate the bank-parallelism effect

  // N row misses to N different banks complete far faster than N misses to
  // one bank: bank-level parallelism (§4.1).
  const int n = 32;
  MemoryController parallel_controller(geometry, 0, no_refresh);
  double parallel_done = 0.0;
  for (int i = 0; i < n; ++i) {
    // Consecutive cache lines hit different banks under the Skylake decoder.
    parallel_done = std::max(
        parallel_done, parallel_controller.Serve(At(decoder, i * kCacheLineBytes * 6), 0.0));
  }

  MemoryController serial_controller(geometry, 0, no_refresh);
  const uint64_t row_stride = geometry.row_group_bytes() * 32;
  double serial_done = 0.0;
  for (int i = 0; i < n; ++i) {
    serial_done =
        std::max(serial_done, serial_controller.Serve(At(decoder, (i % 2) * row_stride), 0.0));
  }
  EXPECT_LT(parallel_done, serial_done / 4);
}

TEST(ControllerTest, RemoteSocketPaysNumaLatency) {
  const DramGeometry geometry = Geometry();
  DdrTimings no_refresh;
  no_refresh.model_refresh = false;  // exact-latency comparison
  MemoryController controller(geometry, 0, no_refresh);
  SkylakeDecoder decoder(geometry);

  MemRequest local = At(decoder, 0);
  const double local_latency = controller.Serve(local, 0.0);

  MemoryController controller2(geometry, 0, no_refresh);
  MemRequest remote = At(decoder, 0);
  remote.source_socket = 1;
  const double remote_latency = controller2.Serve(remote, 0.0);
  EXPECT_NEAR(remote_latency - local_latency, controller.timings().t_remote_numa, 1e-9);
}

TEST(ControllerTest, FawLimitsActivationBursts) {
  const DramGeometry geometry = Geometry();
  MemoryController controller(geometry, 0);
  SkylakeDecoder decoder(geometry);

  // 8 misses to 8 banks of the same rank: the 5th ACT must wait for tFAW.
  // Banks of one rank under the Skylake decoder: same channel, same rank.
  std::vector<MemRequest> requests;
  uint64_t phys = 0;
  while (requests.size() < 8) {
    MemRequest r = At(decoder, phys);
    if (r.address.channel == 0 && r.address.rank == 0 && r.address.dimm == 0) {
      requests.push_back(r);
    }
    phys += kCacheLineBytes;
  }
  double done = 0.0;
  for (const MemRequest& r : requests) {
    done = std::max(done, controller.Serve(r, 0.0));
  }
  EXPECT_GE(done, controller.timings().t_faw);
}

TEST(EngineTest, MorePalallelismMoreBandwidth) {
  const DramGeometry geometry = Geometry();
  SkylakeDecoder decoder(geometry);

  std::vector<MemRequest> stream;
  for (int i = 0; i < 20000; ++i) {
    stream.push_back(At(decoder, static_cast<uint64_t>(i) * kCacheLineBytes));
  }

  auto run = [&](uint32_t mlp) {
    MemoryController c0(geometry, 0);
    MemoryController c1(geometry, 1);
    MemoryController* controllers[] = {&c0, &c1};
    EngineConfig config;
    config.max_outstanding = mlp;
    return RunClosedLoop(stream, controllers, config);
  };

  const EngineResult serial = run(1);
  const EngineResult wide = run(32);
  EXPECT_GT(wide.bandwidth_gib_per_s(), 2.0 * serial.bandwidth_gib_per_s());
  EXPECT_EQ(serial.requests, 20000u);
}

TEST(EngineTest, ComputeGapBoundsBandwidth) {
  const DramGeometry geometry = Geometry();
  SkylakeDecoder decoder(geometry);
  std::vector<MemRequest> stream;
  for (int i = 0; i < 5000; ++i) {
    stream.push_back(At(decoder, static_cast<uint64_t>(i) * kCacheLineBytes));
  }
  MemoryController c0(geometry, 0);
  MemoryController c1(geometry, 1);
  MemoryController* controllers[] = {&c0, &c1};
  EngineConfig config;
  config.max_outstanding = 16;
  config.compute_ns_per_access = 100.0;  // compute-bound
  const EngineResult result = RunClosedLoop(stream, controllers, config);
  // Elapsed must be at least requests * gap.
  EXPECT_GE(result.elapsed_ns, 5000 * 100.0 * 0.99);
}

TEST(EngineTest, StatsAccumulate) {
  const DramGeometry geometry = Geometry();
  SkylakeDecoder decoder(geometry);
  MemoryController c0(geometry, 0);
  MemoryController c1(geometry, 1);
  MemoryController* controllers[] = {&c0, &c1};
  std::vector<MemRequest> stream = {At(decoder, 0), At(decoder, geometry.socket_bytes())};
  RunClosedLoop(stream, controllers, EngineConfig{});
  EXPECT_EQ(c0.stats().requests, 1u);
  EXPECT_EQ(c1.stats().requests, 1u);
  c0.ResetStats();
  EXPECT_EQ(c0.stats().requests, 0u);
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
