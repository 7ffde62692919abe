// Tests for the workload trace generators (src/workload).
#include <gtest/gtest.h>

#include "src/addr/decoder.h"
#include "src/base/units.h"
#include "src/memctl/controller.h"
#include "src/workload/workloads.h"

namespace siloz {
namespace {

std::vector<VmRegion> TwoRegions() {
  // A VM whose 3 GiB of RAM is split across two subarray groups.
  return {
      VmRegion{MemoryType::kGuestRam, 0, 3_GiB, 1536_MiB, PageSize::k2M},
      VmRegion{MemoryType::kGuestRam, 1536_MiB, 6_GiB, 1536_MiB, PageSize::k2M},
  };
}

TEST(WorkloadTest, CatalogsCoverThePaperSets) {
  // Fig 4: six YCSB variants + terasort + SPEC + PARSEC.
  EXPECT_EQ(ExecutionTimeWorkloads().size(), 9u);
  // Fig 5: memcached, mysql, five MLC variants.
  EXPECT_EQ(ThroughputWorkloads().size(), 7u);
  for (const char* name : {"redis-a", "redis-f", "terasort", "spec17", "parsec", "memcached",
                           "mysql", "mlc-reads", "mlc-stream"}) {
    EXPECT_TRUE(FindWorkload(name).ok()) << name;
  }
  EXPECT_FALSE(FindWorkload("nginx").ok());
}

TEST(WorkloadTest, IndividualBenchmarkCatalogs) {
  EXPECT_EQ(SpecCpuWorkloads().size(), 8u);
  EXPECT_EQ(ParsecWorkloads().size(), 6u);
  for (const char* name : {"spec-mcf", "spec-lbm", "parsec-canneal", "parsec-streamcluster"}) {
    ASSERT_TRUE(FindWorkload(name).ok()) << name;
  }
  // The stressors differ meaningfully: canneal jumps, streamcluster streams.
  EXPECT_LT(FindWorkload("parsec-canneal")->sequential_locality, 0.3);
  EXPECT_GT(FindWorkload("parsec-streamcluster")->sequential_locality, 0.8);
}

TEST(WorkloadTest, TraceStaysWithinRegions) {
  const DramGeometry geometry;
  SkylakeDecoder decoder(geometry);
  WorkloadSpec spec = *FindWorkload("redis-a");
  spec.accesses = 20000;
  const auto regions = TwoRegions();
  const auto trace = GenerateTrace(spec, decoder, regions, 0, 1);
  ASSERT_EQ(trace.size(), 20000u);
  for (const MemRequest& request : trace) {
    const uint64_t phys = *decoder.MediaToPhys(request.address);
    const bool inside = (phys >= 3_GiB && phys < 3_GiB + 1536_MiB) ||
                        (phys >= 6_GiB && phys < 6_GiB + 1536_MiB);
    EXPECT_TRUE(inside) << "trace escaped VM regions at " << phys;
    EXPECT_EQ(request.source_socket, 0u);
  }
}

TEST(WorkloadTest, ReadFractionApproximatelyHonored) {
  const DramGeometry geometry;
  SkylakeDecoder decoder(geometry);
  WorkloadSpec spec = *FindWorkload("mlc-3:1");
  spec.accesses = 40000;
  const auto trace = GenerateTrace(spec, decoder, TwoRegions(), 0, 2);
  uint64_t writes = 0;
  for (const MemRequest& request : trace) {
    writes += request.is_write;
  }
  EXPECT_NEAR(static_cast<double>(writes) / static_cast<double>(trace.size()), 0.25, 0.02);
}

TEST(WorkloadTest, LocalityControlsSequentiality) {
  const DramGeometry geometry;
  SkylakeDecoder decoder(geometry);
  auto sequential_fraction = [&](const char* name) {
    WorkloadSpec spec = *FindWorkload(name);
    spec.accesses = 20000;
    const auto trace = GenerateTrace(spec, decoder, TwoRegions(), 0, 3);
    uint64_t sequential = 0;
    for (size_t i = 1; i < trace.size(); ++i) {
      const uint64_t prev = *decoder.MediaToPhys(trace[i - 1].address);
      const uint64_t curr = *decoder.MediaToPhys(trace[i].address);
      sequential += (curr == prev + kCacheLineBytes);
    }
    return static_cast<double>(sequential) / static_cast<double>(trace.size());
  };
  // mlc-stream is fully sequential in GPA space; redis-a is mostly random.
  // (GPA-sequential lines are usually phys-sequential under 2 MiB regions.)
  EXPECT_GT(sequential_fraction("mlc-stream"), 0.95);
  EXPECT_LT(sequential_fraction("redis-a"), 0.45);
}

TEST(WorkloadTest, FootprintClampedToRam) {
  const DramGeometry geometry;
  SkylakeDecoder decoder(geometry);
  WorkloadSpec spec = *FindWorkload("terasort");
  spec.footprint_bytes = 1_GiB << 10;  // absurdly larger than RAM
  spec.accesses = 5000;
  const std::vector<VmRegion> regions = {
      VmRegion{MemoryType::kGuestRam, 0, 3_GiB, 256_MiB, PageSize::k2M}};
  const auto trace = GenerateTrace(spec, decoder, regions, 0, 4);
  for (const MemRequest& request : trace) {
    const uint64_t phys = *decoder.MediaToPhys(request.address);
    EXPECT_GE(phys, 3_GiB);
    EXPECT_LT(phys, 3_GiB + 256_MiB);
  }
}

TEST(WorkloadTest, DeterministicPerSeed) {
  const DramGeometry geometry;
  SkylakeDecoder decoder(geometry);
  WorkloadSpec spec = *FindWorkload("mysql");
  spec.accesses = 1000;
  const auto a = GenerateTrace(spec, decoder, TwoRegions(), 0, 9);
  const auto b = GenerateTrace(spec, decoder, TwoRegions(), 0, 9);
  const auto c = GenerateTrace(spec, decoder, TwoRegions(), 0, 10);
  ASSERT_EQ(a.size(), b.size());
  bool same = true;
  bool differs_from_c = false;
  for (size_t i = 0; i < a.size(); ++i) {
    same &= (a[i].address == b[i].address);
    differs_from_c |= !(a[i].address == c[i].address);
  }
  EXPECT_TRUE(same);
  EXPECT_TRUE(differs_from_c);
}

// The fused decode pass and the materialized trace are one stream
// (workloads.h): ForEachDecoded must emit DecodeMediaCmd over GenerateTrace
// element-for-element — including across the LineCursor's carry, wrap and
// reset transitions — for both the cursor-accelerated Skylake path and the
// generic-decoder fallback.
TEST(WorkloadTest, StreamerMatchesGeneratedTraceElementForElement) {
  const DramGeometry geometry;
  const SkylakeDecoder skylake(geometry);
  const LinearDecoder linear(geometry);
  const auto regions = TwoRegions();
  for (const AddressDecoder* decoder :
       std::initializer_list<const AddressDecoder*>{&skylake, &linear}) {
    // mlc-stream is near-fully sequential (cursor fast path), redis-a is
    // zipfian-jumpy (cursor resets), terasort mixes the two. Source socket 1
    // makes every socket-0 command remote.
    for (const char* name : {"mlc-stream", "redis-a", "terasort"}) {
      WorkloadSpec spec = *FindWorkload(name);
      spec.accesses = 30000;
      const auto trace = GenerateTrace(spec, *decoder, regions, 1, 77);
      TraceStreamer stream(spec, *decoder, regions, 1, 77);
      ASSERT_EQ(stream.size(), trace.size()) << decoder->name() << "/" << name;
      size_t i = 0;
      size_t mismatches = 0;
      stream.ForEachDecoded([&](const DecodedCmd& cmd, uint32_t socket) {
        ASSERT_LT(i, trace.size());
        const MemRequest& request = trace[i];
        const auto flags = static_cast<uint8_t>(
            (request.is_write ? kDecodedWrite : 0) |
            (request.source_socket != request.address.socket ? kDecodedRemote : 0));
        const DecodedCmd expected = DecodeMediaCmd(geometry, request.address, flags);
        const bool same = socket == request.address.socket && cmd.row == expected.row &&
                          cmd.bank_index == expected.bank_index &&
                          cmd.rank_index == expected.rank_index &&
                          cmd.channel == expected.channel && cmd.flags == expected.flags;
        if (!same && mismatches++ == 0) {
          ADD_FAILURE() << decoder->name() << "/" << name << " first mismatch at element "
                        << i;
        }
        ++i;
      });
      EXPECT_EQ(i, trace.size()) << decoder->name() << "/" << name;
      EXPECT_EQ(mismatches, 0u) << decoder->name() << "/" << name;
    }
  }
}

}  // namespace
}  // namespace siloz
