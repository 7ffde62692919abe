// Isolation audit and Table-3 containment across the platform matrix.
//
// Every platform in the PlatformDecoder registry must (a) pass the full
// four-invariant audit on a correctly booted plan, (b) FAIL the audit when
// the machine's true mapping is deliberately corrupted (the negative
// controls: a shifted mapping jump breaks domain closure without breaking
// the bijection, a broken inverse breaks invertibility), and (c) contain
// every Blacksmith-induced flip to the attacker's own subarray groups on a
// fault-tracking machine — the paper's Table 3, parameterized over the
// matrix instead of one Skylake box.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/addr/platform.h"
#include "src/addr/subarray_group.h"
#include "src/attack/blacksmith.h"
#include "src/audit/auditor.h"
#include "src/audit/corrupt_decoder.h"
#include "src/base/units.h"
#include "src/sim/machine.h"
#include "src/siloz/hypervisor.h"

namespace siloz {
namespace {

using audit::AuditPlatform;
using audit::AuditProvisioningPlan;
using audit::Invariant;
using audit::Report;

// Stratified probing at 1 MiB (default 256 KiB) keeps the 4-platform sweep
// inside a test budget; endpoints and seeded random probes are unaffected,
// so every range boundary is still checked exactly.
audit::Options FastOptions() {
  audit::Options options;
  options.probe_stride = 1 * kMiB;
  options.random_probes = 1024;
  options.threads = 1;
  return options;
}

// The Siloz boot parameters ApplyPlatform would install (sim/experiment.h):
// the platform's default subarray size and DDR-generation semantics.
SilozConfig ConfigFor(const PlatformInfo& info) {
  SilozConfig config;
  config.rows_per_subarray = info.geometry.rows_per_subarray;
  config.uniform_internal_addressing = info.uniform_internal_addressing;
  return config;
}

std::unique_ptr<AddressDecoder> BuildDecoder(const PlatformInfo& info) {
  Result<std::unique_ptr<AddressDecoder>> made = info.make(info.geometry);
  EXPECT_TRUE(made.ok()) << info.name;
  return std::move(*made);
}

TEST(PlatformAuditTest, FullAuditPassesOnEveryPlatform) {
  for (const auto& [name, info] : PlatformRegistry()) {
    const std::unique_ptr<AddressDecoder> decoder = BuildDecoder(info);
    Result<Report> report = AuditPlatform(*decoder, ConfigFor(info), info.remap, FastOptions());
    ASSERT_TRUE(report.ok()) << name << ": " << report.error().ToString();
    EXPECT_TRUE(report->ok()) << name << ":\n" << report->ToText();
    for (Invariant invariant :
         {Invariant::kDecoderInvertibility, Invariant::kDomainClosure,
          Invariant::kGuardFencing, Invariant::kBlastRadius}) {
      const audit::InvariantStats& stats = report->StatsFor(invariant);
      EXPECT_TRUE(stats.ran) << name << " " << audit::InvariantName(invariant);
      EXPECT_GT(stats.probes, 0u) << name << " " << audit::InvariantName(invariant);
      EXPECT_EQ(stats.violations, 0u) << name << " " << audit::InvariantName(invariant);
    }
  }
}

// Negative control 1: the machine's real mapping has a rotated mapping jump
// the boot decoder doesn't know about. The corrupted decoder is still a
// bijection, so invertibility must stay clean — the audit has to catch this
// through domain closure, per platform.
TEST(PlatformAuditTest, ShiftedJumpCorruptionFailsClosureOnEveryPlatform) {
  for (const auto& [name, info] : PlatformRegistry()) {
    const std::unique_ptr<AddressDecoder> decoder = BuildDecoder(info);
    audit::CorruptedDecoder truth(*decoder, audit::Corruption::kShiftedJump,
                                  ShiftedJumpPeriod(info, info.geometry));
    Result<Report> report =
        AuditProvisioningPlan(*decoder, truth, ConfigFor(info), info.remap, FastOptions());
    ASSERT_TRUE(report.ok()) << name << ": " << report.error().ToString();
    EXPECT_FALSE(report->ok()) << name << ": shifted-jump corruption went undetected";
    EXPECT_EQ(report->StatsFor(Invariant::kDecoderInvertibility).violations, 0u)
        << name << ": the shifted decoder is a bijection; invertibility should hold";
    EXPECT_GT(report->StatsFor(Invariant::kDomainClosure).violations, 0u)
        << name << ":\n" << report->ToText();
  }
}

// Negative control 2: the decode direction is fine but the inverse is wrong
// (MediaToPhys lands on a different page). Invertibility must flag it on
// every platform.
TEST(PlatformAuditTest, BrokenInverseCorruptionFailsInvertibilityOnEveryPlatform) {
  for (const auto& [name, info] : PlatformRegistry()) {
    const std::unique_ptr<AddressDecoder> decoder = BuildDecoder(info);
    audit::CorruptedDecoder truth(*decoder, audit::Corruption::kBrokenInverse,
                                  ShiftedJumpPeriod(info, info.geometry));
    Result<Report> report =
        AuditProvisioningPlan(*decoder, truth, ConfigFor(info), info.remap, FastOptions());
    ASSERT_TRUE(report.ok()) << name << ": " << report.error().ToString();
    EXPECT_FALSE(report->ok()) << name << ": broken-inverse corruption went undetected";
    EXPECT_GT(report->StatsFor(Invariant::kDecoderInvertibility).violations, 0u)
        << name << ":\n" << report->ToText();
  }
}

// Table 3 (§7.1) across the matrix: an attacker VM fuzzes its own memory on
// a fault-tracking machine built from the platform's decoder, remap chain,
// and TRR generation defaults. Flips must land — and land ONLY — inside the
// attacker's subarray groups.
TEST(PlatformAuditTest, TableThreeContainmentOnEveryPlatform) {
  for (const auto& [name, info] : PlatformRegistry()) {
    MachineConfig machine_config;
    machine_config.geometry = info.geometry;
    machine_config.platform = name;
    machine_config.fault_tracking = true;
    // Three DIMM personalities (thresholds scaled as in bench/table3_containment.cc) with
    // the platform's remap chain and TRR generation defaults on each.
    machine_config.dimm_profiles.clear();
    const struct {
      const char* dimm;
      double threshold;
      bool scrambling;
    } specs[] = {{"A", 2400.0, false}, {"C", 2100.0, true}, {"E", 2500.0, true}};
    for (const auto& spec : specs) {
      DimmProfile dimm;
      dimm.name = spec.dimm;
      dimm.disturbance.threshold_mean = spec.threshold;
      dimm.disturbance.threshold_spread = 0.15;
      dimm.disturbance.seed = 0x51102 + spec.dimm[0];
      dimm.remap = info.remap;
      dimm.remap.vendor_scrambling = spec.scrambling;
      dimm.trr = info.trr;
      dimm.trr.enabled = true;
      machine_config.dimm_profiles.push_back(dimm);
    }
    Machine machine(machine_config);

    SilozHypervisor hypervisor(machine.decoder(), machine.phys_memory(), ConfigFor(info));
    ASSERT_TRUE(hypervisor.Boot().ok()) << name;
    Result<VmId> attacker = hypervisor.CreateVm({.name = "blacksmith", .memory_bytes = 6_GiB});
    ASSERT_TRUE(attacker.ok()) << name << ": " << attacker.error().ToString();
    Vm& vm = **hypervisor.GetVm(*attacker);

    std::vector<PhysRange> pinned;
    for (uint32_t group : vm.guest_groups()) {
      for (const PhysRange& range : hypervisor.group_map().RangesOf(group)) {
        pinned.push_back(range);
      }
    }
    ASSERT_FALSE(pinned.empty()) << name;

    BlacksmithConfig fuzz;
    fuzz.patterns = 12;
    fuzz.rounds = 1200;
    fuzz.min_pairs = 6;
    fuzz.max_pairs = 16;
    FuzzReport report = BlacksmithFuzzer(fuzz).Run(machine, pinned);

    // The 24-hour soak + patrol scrub from the paper's method.
    machine.AdvanceClock(24ull * 3600 * 1'000'000'000);
    machine.PatrolScrubAll();
    std::vector<PhysFlip> late = machine.DrainFlips();
    report.flips.insert(report.flips.end(), late.begin(), late.end());

    const FlipCensus census = ClassifyFlips(report.flips, hypervisor.group_map(), pinned);
    EXPECT_GT(census.inside, 0u)
        << name << ": the campaign produced no flips; containment is vacuous"
        << " (activations=" << report.activations << ")";
    EXPECT_EQ(census.outside, 0u)
        << name << ": " << census.outside << " flip(s) escaped the attacker's groups";
    for (uint32_t group : census.groups_hit) {
      EXPECT_NE(std::find(vm.guest_groups().begin(), vm.guest_groups().end(), group),
                vm.guest_groups().end())
          << name << ": flips touched group " << group << " outside the attacker VM";
    }
  }
}

}  // namespace
}  // namespace siloz
