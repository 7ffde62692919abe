// Property tests for the memory-controller timing model.
#include <gtest/gtest.h>

#include <vector>

#include "src/addr/decoder.h"
#include "src/base/rng.h"
#include "src/base/units.h"
#include "src/memctl/controller.h"
#include "tests/support/serial_engine.h"

namespace siloz {
namespace {

MemRequest At(const AddressDecoder& decoder, uint64_t phys) {
  MemRequest request;
  request.address = *decoder.PhysToMedia(phys);
  request.source_socket = request.address.socket;
  return request;
}

// P1: completion times are monotone in request order for a dependent chain,
// and every request takes at least tCAS + tBurst.
TEST(ControllerPropertyTest, LatencyBounds) {
  const DramGeometry geometry;
  SkylakeDecoder decoder(geometry);
  MemoryController controller(geometry, 0);
  Rng rng(1);
  double cursor = 0.0;
  for (int i = 0; i < 5000; ++i) {
    const uint64_t phys = rng.NextBelow(geometry.socket_bytes() / 64) * 64;
    const double done = controller.Serve(At(decoder, phys), cursor);
    const double latency = done - cursor;
    ASSERT_GE(latency, controller.timings().t_cas + controller.timings().t_burst - 1e-9);
    // A single miss turnaround bounds a request with no queueing.
    ASSERT_GE(done, cursor);
    cursor = done;
  }
  EXPECT_EQ(controller.stats().requests, 5000u);
  EXPECT_EQ(controller.stats().row_hits + controller.stats().row_misses, 5000u);
}

// P2: a purely sequential stream has a much higher row-hit rate than a
// purely random one.
TEST(ControllerPropertyTest, RowHitRateTracksLocality) {
  const DramGeometry geometry;
  SkylakeDecoder decoder(geometry);

  MemoryController sequential(geometry, 0);
  for (int i = 0; i < 20000; ++i) {
    sequential.Serve(At(decoder, static_cast<uint64_t>(i) * 64), 0.0);
  }
  MemoryController random_controller(geometry, 0);
  Rng rng(2);
  for (int i = 0; i < 20000; ++i) {
    random_controller.Serve(At(decoder, rng.NextBelow(geometry.socket_bytes() / 64) * 64), 0.0);
  }
  EXPECT_GT(sequential.stats().row_hit_rate(), 0.9);
  EXPECT_LT(random_controller.stats().row_hit_rate(), sequential.stats().row_hit_rate());
}

// P3: elapsed time is monotone in request count.
TEST(ControllerPropertyTest, ElapsedMonotoneInWork) {
  const DramGeometry geometry;
  SkylakeDecoder decoder(geometry);
  double previous = 0.0;
  for (uint32_t count : {1000u, 2000u, 4000u, 8000u}) {
    MemoryController c0(geometry, 0);
    MemoryController c1(geometry, 1);
    MemoryController* controllers[] = {&c0, &c1};
    std::vector<MemRequest> stream;
    Rng rng(3);
    for (uint32_t i = 0; i < count; ++i) {
      stream.push_back(At(decoder, rng.NextBelow(geometry.socket_bytes() / 64) * 64));
    }
    const EngineResult result = RunClosedLoop(stream, controllers, EngineConfig{});
    EXPECT_GT(result.elapsed_ns, previous);
    previous = result.elapsed_ns;
  }
}

// P4: bandwidth is monotone (non-decreasing, within noise) in MLP.
TEST(ControllerPropertyTest, BandwidthMonotoneInParallelism) {
  const DramGeometry geometry;
  SkylakeDecoder decoder(geometry);
  std::vector<MemRequest> stream;
  for (int i = 0; i < 20000; ++i) {
    stream.push_back(At(decoder, static_cast<uint64_t>(i) * 64 * 7));
  }
  double previous = 0.0;
  for (uint32_t mlp : {1u, 2u, 4u, 8u, 16u, 32u}) {
    MemoryController c0(geometry, 0);
    MemoryController c1(geometry, 1);
    MemoryController* controllers[] = {&c0, &c1};
    EngineConfig config;
    config.max_outstanding = mlp;
    const EngineResult result = RunClosedLoop(stream, controllers, config);
    EXPECT_GE(result.bandwidth_gib_per_s(), previous * 0.98) << "mlp " << mlp;
    previous = result.bandwidth_gib_per_s();
  }
}

// P5: ResetState makes runs exactly repeatable.
TEST(ControllerPropertyTest, ResetStateRepeatsExactly) {
  const DramGeometry geometry;
  SkylakeDecoder decoder(geometry);
  MemoryController controller(geometry, 0);
  std::vector<MemRequest> stream;
  Rng rng(5);
  for (int i = 0; i < 2000; ++i) {
    stream.push_back(At(decoder, rng.NextBelow(geometry.socket_bytes() / 64) * 64));
  }
  auto run = [&]() {
    controller.ResetState();
    double cursor = 0.0;
    for (const MemRequest& request : stream) {
      cursor = controller.Serve(request, cursor);
    }
    return cursor;
  };
  const double first = run();
  const double second = run();
  EXPECT_DOUBLE_EQ(first, second);
}

// P6: the channel bus bounds peak bandwidth: one socket cannot exceed
// channels * 64B / tBurst.
TEST(ControllerPropertyTest, ChannelBusBoundsBandwidth) {
  const DramGeometry geometry;
  SkylakeDecoder decoder(geometry);
  MemoryController c0(geometry, 0);
  MemoryController c1(geometry, 1);
  MemoryController* controllers[] = {&c0, &c1};
  std::vector<MemRequest> stream;
  for (int i = 0; i < 60000; ++i) {
    stream.push_back(At(decoder, static_cast<uint64_t>(i) * 64));
  }
  EngineConfig config;
  config.max_outstanding = 128;
  const EngineResult result = RunClosedLoop(stream, controllers, config);
  const double peak_bytes_per_ns =
      geometry.channels_per_socket * 64.0 / c0.timings().t_burst;
  const double achieved_bytes_per_ns =
      static_cast<double>(result.requests) * 64.0 / result.elapsed_ns;
  EXPECT_LE(achieved_bytes_per_ns, peak_bytes_per_ns * 1.001);
  // And a saturated sequential stream should get close to the bus bound.
  EXPECT_GT(achieved_bytes_per_ns, peak_bytes_per_ns * 0.5);
}

// P7: FAW makes dense same-rank activation bursts slower than spread ones.
TEST(ControllerPropertyTest, FawPenalizesSameRankBursts) {
  const DramGeometry geometry;
  SkylakeDecoder decoder(geometry);

  // 16 misses confined to rank 0 of channel 0 vs 16 misses spread over all
  // ranks/channels.
  std::vector<MemRequest> same_rank;
  std::vector<MemRequest> spread;
  uint64_t phys = 0;
  while (same_rank.size() < 16) {
    MemRequest request = At(decoder, phys);
    if (request.address.channel == 0 && request.address.rank == 0) {
      same_rank.push_back(request);
    }
    if (spread.size() < 16) {
      spread.push_back(At(decoder, phys * 131));
    }
    phys += 64;
  }
  DdrTimings no_refresh;
  no_refresh.model_refresh = false;  // isolate the FAW effect from REF tails
  auto finish_time = [&](const std::vector<MemRequest>& requests) {
    MemoryController controller(geometry, 0, no_refresh);
    double done = 0.0;
    for (const MemRequest& request : requests) {
      done = std::max(done, controller.Serve(request, 0.0));
    }
    return done;
  };
  EXPECT_GT(finish_time(same_rank), finish_time(spread));
}

}  // namespace
}  // namespace siloz
