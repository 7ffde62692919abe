// Serial oracle for Machine::ReplayActs: the one-ACT-at-a-time
// ActivatePhys / AdvanceClock loop that BlacksmithFuzzer::Run and
// HammerPhysAddresses are defined by. ReplayActs must leave the identical
// machine — flips, device counters and clock — for every thread count.
#ifndef SILOZ_TESTS_SUPPORT_ACT_ORACLE_H_
#define SILOZ_TESTS_SUPPORT_ACT_ORACLE_H_

#include <cstdint>
#include <span>
#include <vector>

#include "src/attack/blacksmith.h"
#include "src/sim/machine.h"

namespace siloz {

inline uint64_t ReplayActsSerially(Machine& machine, std::span<const ActBurst> bursts) {
  uint64_t activations = 0;
  for (const ActBurst& burst : bursts) {
    for (uint32_t round = 0; round < burst.rounds; ++round) {
      for (uint64_t phys : burst.schedule) {
        machine.ActivatePhys(phys);
        ++activations;
      }
    }
    if (burst.settle_ns.has_value()) {
      machine.AdvanceClock(*burst.settle_ns);
    }
  }
  return activations;
}

// BlacksmithFuzzer::Run with its plan replayed by the serial loop.
inline FuzzReport RunFuzzerSerially(BlacksmithFuzzer& fuzzer, Machine& machine,
                                    std::span<const PhysRange> accessible) {
  const std::vector<ActBurst> bursts = fuzzer.Plan(machine.decoder(), accessible);
  FuzzReport report;
  report.patterns_run = static_cast<uint32_t>(bursts.size());
  report.activations = ReplayActsSerially(machine, bursts);
  report.flips = machine.DrainFlips();
  return report;
}

}  // namespace siloz

#endif  // SILOZ_TESTS_SUPPORT_ACT_ORACLE_H_
