// Blacksmith-style Rowhammer fuzzer (§7, Table 3).
//
// The paper evaluates Siloz by running an extended Blacksmith fuzzer — a
// fuzzer that searches for non-uniform, frequency-weighted many-sided
// hammering patterns that defeat in-DRAM TRR — pinned to a subarray group,
// and checking that every observed flip stays inside the group.
//
// This module reproduces that attacker against the simulated DIMMs: patterns
// are synthesized per bank from rows reachable inside the attacker's
// accessible physical ranges (a VM only reaches its own subarray groups
// through its EPT mappings), scheduled with weighted round-robin so distinct
// intensities interleave (real ACTs, no row-buffer hits), and executed
// through Machine::ReplayActs so TRR, refresh, and the disturbance model
// all engage.
#ifndef SILOZ_SRC_ATTACK_BLACKSMITH_H_
#define SILOZ_SRC_ATTACK_BLACKSMITH_H_

#include <cstdint>
#include <map>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "src/addr/subarray_group.h"
#include "src/base/rng.h"
#include "src/sim/machine.h"

namespace siloz {

struct BlacksmithConfig {
  // Distinct fuzzing patterns to synthesize per Run().
  uint32_t patterns = 12;
  // Aggressor pairs per pattern (sampled uniformly in range). Enough pairs
  // exhaust the TRR tracker (many-sided).
  uint32_t min_pairs = 4;
  uint32_t max_pairs = 16;
  // Per-aggressor intensity (ACTs per round), sampled in [1, max_intensity].
  uint32_t max_intensity = 4;
  // Rounds each pattern is hammered for.
  uint32_t rounds = 3000;
  // Rows around the probe point considered for victim placement.
  uint32_t row_span = 96;
  uint64_t seed = 0xB1AC5;
  // Replay workers, one DIMM per task (0 = ResolveThreads). The report is
  // bit-identical for every value.
  uint32_t threads = 0;
};

struct FuzzReport {
  uint64_t activations = 0;
  uint32_t patterns_run = 0;
  std::vector<PhysFlip> flips;
};

// Classification of flips against a target region (Table 3's
// inside/outside-subarray-group census).
struct FlipCensus {
  uint64_t inside = 0;
  uint64_t outside = 0;
  std::map<std::string, uint64_t> per_dimm;
  std::set<uint32_t> groups_hit;  // global subarray group ids
};

FlipCensus ClassifyFlips(std::span<const PhysFlip> flips, const SubarrayGroupMap& map,
                         std::span<const PhysRange> inside_ranges);

class BlacksmithFuzzer {
 public:
  explicit BlacksmithFuzzer(BlacksmithConfig config) : config_(config), rng_(config.seed) {}

  // Fuzz within `accessible` physical ranges (the attacker VM's memory).
  // Requires a fault-tracking machine. Plans the campaign, replays it with
  // Machine::ReplayActs on config.threads workers, and drains the flips.
  FuzzReport Run(Machine& machine, std::span<const PhysRange> accessible);

  // The campaign Run() replays: one burst per pattern (its schedule, for
  // config.rounds rounds, then a refresh window of idle time). Synthesis
  // reads only the decoder and the fuzzer's RNG, never device state.
  std::vector<ActBurst> Plan(const AddressDecoder& decoder, std::span<const PhysRange> accessible);

  // RowPress variant (§2.5): few ACTs, long row-open times.
  FuzzReport RunRowPress(Machine& machine, std::span<const PhysRange> accessible,
                         uint64_t open_ns = 200'000, uint32_t holds = 4000);

 private:
  struct Aggressor {
    uint64_t phys;
    uint32_t intensity;
  };

  // Builds a weighted round-robin schedule so no aggressor self-conflicts in
  // the row buffer and intensities realize Blacksmith-style frequencies.
  static std::vector<uint64_t> Schedule(const std::vector<Aggressor>& aggressors);

  // Picks a hammerable bank inside `accessible` and synthesizes aggressors
  // for it; empty if the probe failed (retry with a different sample).
  std::vector<Aggressor> SynthesizePattern(const AddressDecoder& decoder,
                                           std::span<const PhysRange> accessible);

  BlacksmithConfig config_;
  Rng rng_;
};

// Deterministic double-sided hammer of explicit aggressor addresses
// (used by the EPT-protection experiment, §7.1). Returns ACT count. The
// aggressors may span DIMMs; the replay runs one DIMM per worker.
uint64_t HammerPhysAddresses(Machine& machine, std::span<const uint64_t> aggressors,
                             uint32_t rounds);

}  // namespace siloz

#endif  // SILOZ_SRC_ATTACK_BLACKSMITH_H_
