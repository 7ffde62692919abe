// Tests for the co-located multi-tenant runner (src/sim/colocated.h).
#include <gtest/gtest.h>

#include <cmath>

#include "src/sim/colocated.h"

namespace siloz {
namespace {

WorkloadSpec SmallSpec(const char* base, uint64_t accesses = 50000) {
  WorkloadSpec spec = *FindWorkload(base);
  spec.accesses = accesses;
  return spec;
}

TEST(ColocatedTest, SingleTenantMatchesSoloShape) {
  RunnerConfig config;
  const std::vector<TenantSpec> tenants = {
      {.vm_name = "solo", .memory_bytes = 3ull << 30, .socket = 0,
       .workload = SmallSpec("redis-a")}};
  Result<std::vector<TenantResult>> results = RunColocated(config, tenants);
  ASSERT_TRUE(results.ok()) << results.error().ToString();
  ASSERT_EQ(results->size(), 1u);
  EXPECT_EQ((*results)[0].requests, 50000u);
  EXPECT_GT((*results)[0].bandwidth_gibs, 0.0);
}

TEST(ColocatedTest, NoisyNeighbourSlowsVictim) {
  // The §1 motivation: a bandwidth-saturating neighbour on the same socket
  // steals bank/bus time — and trashes row buffers — of a latency-bound
  // tenant. (Compute-bound tenants hide the added latency behind their
  // compute; see the interference bench for both regimes.)
  RunnerConfig config;
  WorkloadSpec victim_spec = SmallSpec("redis-a");
  victim_spec.mlp = 4;                     // latency-bound
  victim_spec.compute_ns_per_access = 2.0;
  auto run_victim_elapsed = [&](bool with_neighbour) {
    std::vector<TenantSpec> tenants = {
        {.vm_name = "victim", .memory_bytes = 3ull << 30, .socket = 0,
         .workload = victim_spec}};
    if (with_neighbour) {
      tenants.push_back({.vm_name = "hog", .memory_bytes = 3ull << 30, .socket = 0,
                         .workload = SmallSpec("mlc-stream", 100000), .background = true});
    }
    Result<std::vector<TenantResult>> results = RunColocated(config, tenants);
    SILOZ_CHECK(results.ok());
    return (*results)[0].elapsed_ns;
  };
  const double alone = run_victim_elapsed(false);
  const double contended = run_victim_elapsed(true);
  EXPECT_GT(contended, alone * 1.02) << "expected measurable interference";
}

TEST(ColocatedTest, CrossSocketTenantsDoNotInterfere) {
  RunnerConfig config;
  WorkloadSpec victim_spec = SmallSpec("redis-a");
  victim_spec.mlp = 4;
  victim_spec.compute_ns_per_access = 2.0;
  auto run_victim_elapsed = [&](uint32_t neighbour_socket) {
    std::vector<TenantSpec> tenants = {
        {.vm_name = "victim", .memory_bytes = 3ull << 30, .socket = 0,
         .workload = victim_spec},
        {.vm_name = "hog", .memory_bytes = 3ull << 30, .socket = neighbour_socket,
         .workload = SmallSpec("mlc-stream", 100000), .background = true}};
    Result<std::vector<TenantResult>> results = RunColocated(config, tenants);
    SILOZ_CHECK(results.ok());
    return (*results)[0].elapsed_ns;
  };
  const double same_socket = run_victim_elapsed(0);
  const double other_socket = run_victim_elapsed(1);
  EXPECT_LT(other_socket, same_socket);
}

TEST(ColocatedTest, SilozDoesNotChangeInterference) {
  // The null result extended to contention: Siloz placement leaves the
  // interference profile of co-located tenants unchanged (within ~1%).
  auto victim_elapsed = [&](bool siloz_enabled) {
    RunnerConfig config;
    config.hypervisor.enabled = siloz_enabled;
    const std::vector<TenantSpec> tenants = {
        {.vm_name = "victim", .memory_bytes = 3ull << 30, .socket = 0,
         .workload = SmallSpec("mysql")},
        {.vm_name = "hog", .memory_bytes = 3ull << 30, .socket = 0,
         .workload = SmallSpec("mlc-3:1", 100000), .background = true}};
    Result<std::vector<TenantResult>> results = RunColocated(config, tenants);
    SILOZ_CHECK(results.ok());
    return (*results)[0].elapsed_ns;
  };
  const double baseline = victim_elapsed(false);
  const double siloz = victim_elapsed(true);
  EXPECT_LT(std::abs(siloz / baseline - 1.0), 0.01);
}

TEST(ColocatedTest, BootsTheConfiguredPlatformDecoder) {
  // RunColocated must boot config.platform's decoder, not the legacy
  // Skylake decoder over the platform's geometry: zen's XOR mapping spreads
  // the tenant's lines differently, so its timing differs from the same run
  // with the platform name cleared.
  RunnerConfig zen;
  ASSERT_TRUE(ApplyPlatform(zen, "zen").ok());
  RunnerConfig cleared = zen;
  cleared.platform.clear();
  const std::vector<TenantSpec> tenants = {
      {.vm_name = "solo", .memory_bytes = 3ull << 30, .socket = 0,
       .workload = SmallSpec("redis-a")}};
  Result<std::vector<TenantResult>> on_zen = RunColocated(zen, tenants);
  Result<std::vector<TenantResult>> on_cleared = RunColocated(cleared, tenants);
  ASSERT_TRUE(on_zen.ok()) << on_zen.error().ToString();
  ASSERT_TRUE(on_cleared.ok()) << on_cleared.error().ToString();
  EXPECT_EQ((*on_zen)[0].requests, (*on_cleared)[0].requests);
  EXPECT_NE((*on_zen)[0].elapsed_ns, (*on_cleared)[0].elapsed_ns);
}

TEST(ColocatedTest, FailsCleanlyWhenTenantsDoNotFit) {
  RunnerConfig config;
  const std::vector<TenantSpec> tenants = {
      {.vm_name = "huge", .memory_bytes = 200ull << 30, .socket = 0,
       .workload = SmallSpec("redis-a")}};
  Result<std::vector<TenantResult>> results = RunColocated(config, tenants);
  ASSERT_FALSE(results.ok());
  EXPECT_EQ(results.error().code, ErrorCode::kNoMemory);
  EXPECT_FALSE(RunColocated(config, {}).ok());
}

}  // namespace
}  // namespace siloz
