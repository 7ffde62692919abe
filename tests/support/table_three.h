// The six Table-3 DIMM personalities (bench/table3_containment.cc) as a
// fault-tracking MachineConfig: TRR on, C and E vendor-scrambled.
#ifndef SILOZ_TESTS_SUPPORT_TABLE_THREE_H_
#define SILOZ_TESTS_SUPPORT_TABLE_THREE_H_

#include <cstdint>

#include "src/sim/machine.h"

namespace siloz {

inline MachineConfig TableThreeConfig() {
  const struct {
    const char* name;
    double threshold;
    double spread;
    bool scrambling;
  } specs[] = {
      {"A", 2400.0, 0.15, false}, {"B", 3000.0, 0.20, false}, {"C", 2100.0, 0.10, true},
      {"D", 2800.0, 0.25, false}, {"E", 2500.0, 0.15, true},  {"F", 3300.0, 0.20, false},
  };
  MachineConfig config;
  config.fault_tracking = true;
  config.dimm_profiles.clear();
  for (const auto& spec : specs) {
    DimmProfile dimm;
    dimm.name = spec.name;
    dimm.disturbance.threshold_mean = spec.threshold;
    dimm.disturbance.threshold_spread = spec.spread;
    dimm.disturbance.seed = 0x51102 + static_cast<uint64_t>(dimm.name[0]);
    dimm.remap.vendor_scrambling = spec.scrambling;
    dimm.trr.enabled = true;
    dimm.trr.act_threshold = 400;
    config.dimm_profiles.push_back(dimm);
  }
  return config;
}

}  // namespace siloz

#endif  // SILOZ_TESTS_SUPPORT_TABLE_THREE_H_
