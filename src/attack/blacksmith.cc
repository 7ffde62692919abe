#include "src/attack/blacksmith.h"

#include <algorithm>

#include "src/base/check.h"

namespace siloz {

FlipCensus ClassifyFlips(std::span<const PhysFlip> flips, const SubarrayGroupMap& map,
                         std::span<const PhysRange> inside_ranges) {
  FlipCensus census;
  for (const PhysFlip& flip : flips) {
    bool inside = false;
    for (const PhysRange& range : inside_ranges) {
      inside |= range.Contains(flip.phys);
    }
    if (inside) {
      ++census.inside;
    } else {
      ++census.outside;
    }
    ++census.per_dimm[flip.dimm_name];
    Result<uint32_t> group = map.GroupOfPhys(flip.phys);
    if (group.ok()) {
      census.groups_hit.insert(*group);
    }
  }
  return census;
}

std::vector<uint64_t> BlacksmithFuzzer::Schedule(const std::vector<Aggressor>& aggressors) {
  // Weighted round-robin: every slot picks the aggressor with the highest
  // credit, then charges it the total weight. Distinct rows interleave, so
  // every scheduled access precharges the previous aggressor's row — real
  // ACTs, which is what disturbs victims.
  uint32_t total = 0;
  for (const Aggressor& aggressor : aggressors) {
    total += aggressor.intensity;
  }
  std::vector<int64_t> credit(aggressors.size(), 0);
  std::vector<uint64_t> schedule;
  schedule.reserve(total);
  for (uint32_t slot = 0; slot < total; ++slot) {
    size_t best = 0;
    for (size_t i = 0; i < aggressors.size(); ++i) {
      credit[i] += aggressors[i].intensity;
      if (credit[i] > credit[best]) {
        best = i;
      }
    }
    credit[best] -= total;
    schedule.push_back(aggressors[best].phys);
  }
  return schedule;
}

std::vector<BlacksmithFuzzer::Aggressor> BlacksmithFuzzer::SynthesizePattern(
    const AddressDecoder& decoder, std::span<const PhysRange> accessible) {
  SILOZ_CHECK(!accessible.empty());
  const DramGeometry& geometry = decoder.geometry();

  // Probe a random accessible address; its (socket, channel, dimm, rank,
  // bank) is the pattern's bank.
  const PhysRange& range = accessible[rng_.NextBelow(accessible.size())];
  const uint64_t probe = range.begin + rng_.NextBelow(range.size() / 64) * 64;
  const MediaAddress base = *decoder.PhysToMedia(probe);

  // Enumerate nearby rows of this bank that the attacker can reach: a row is
  // usable if its bytes fall inside the accessible ranges.
  auto row_phys = [&](uint32_t row) -> Result<uint64_t> {
    MediaAddress media = base;
    media.row = row;
    return decoder.MediaToPhys(media);
  };
  auto reachable = [&](uint64_t phys) {
    for (const PhysRange& r : accessible) {
      if (r.Contains(phys)) {
        return true;
      }
    }
    return false;
  };

  const uint32_t span = config_.row_span;
  const uint32_t low = base.row > span ? base.row - span : 0;
  const uint32_t high =
      std::min(base.row + span, geometry.rows_per_bank - 1);
  std::vector<uint32_t> rows;
  for (uint32_t row = low; row <= high; ++row) {
    Result<uint64_t> phys = row_phys(row);
    if (phys.ok() && reachable(*phys)) {
      rows.push_back(row);
    }
  }
  if (rows.size() < 8) {
    return {};  // not enough material near this probe; caller retries
  }

  // Aggressor pairs around sampled victims: rows v-1 and v+1 with a shared
  // random intensity (the "frequency" of Blacksmith's frequency domain).
  const uint32_t pairs = static_cast<uint32_t>(
      rng_.NextInRange(config_.min_pairs, config_.max_pairs));
  std::vector<Aggressor> aggressors;
  std::set<uint32_t> used;
  for (uint32_t p = 0; p < pairs; ++p) {
    const uint32_t victim = rows[rng_.NextBelow(rows.size())];
    const uint32_t intensity = static_cast<uint32_t>(rng_.NextInRange(1, config_.max_intensity));
    for (int32_t delta : {-1, +1}) {
      const int64_t row = static_cast<int64_t>(victim) + delta;
      if (row < 0 || row >= static_cast<int64_t>(geometry.rows_per_bank) ||
          used.count(static_cast<uint32_t>(row)) != 0) {
        continue;
      }
      Result<uint64_t> phys = row_phys(static_cast<uint32_t>(row));
      if (!phys.ok() || !reachable(*phys)) {
        continue;
      }
      used.insert(static_cast<uint32_t>(row));
      aggressors.push_back(Aggressor{*phys, intensity});
    }
  }
  if (aggressors.size() < 2) {
    return {};
  }
  return aggressors;
}

std::vector<ActBurst> BlacksmithFuzzer::Plan(const AddressDecoder& decoder,
                                             std::span<const PhysRange> accessible) {
  std::vector<ActBurst> bursts;
  uint32_t attempts = 0;
  while (bursts.size() < config_.patterns && attempts < config_.patterns * 4) {
    ++attempts;
    const std::vector<Aggressor> aggressors = SynthesizePattern(decoder, accessible);
    if (aggressors.empty()) {
      continue;
    }
    // Let a full refresh window elapse between patterns, as the real fuzzer's
    // sweep phases do.
    bursts.push_back(ActBurst{Schedule(aggressors), config_.rounds, kRefreshWindowNs});
  }
  return bursts;
}

FuzzReport BlacksmithFuzzer::Run(Machine& machine, std::span<const PhysRange> accessible) {
  SILOZ_CHECK(machine.fault_tracking()) << "fuzzing requires a fault-tracking machine";
  const std::vector<ActBurst> bursts = Plan(machine.decoder(), accessible);
  FuzzReport report;
  report.patterns_run = static_cast<uint32_t>(bursts.size());
  report.activations = machine.ReplayActs(bursts, config_.threads);
  report.flips = machine.DrainFlips();
  return report;
}

FuzzReport BlacksmithFuzzer::RunRowPress(Machine& machine,
                                         std::span<const PhysRange> accessible,
                                         uint64_t open_ns, uint32_t holds) {
  SILOZ_CHECK(machine.fault_tracking());
  FuzzReport report;
  std::vector<Aggressor> aggressors = SynthesizePattern(machine.decoder(), accessible);
  if (aggressors.empty()) {
    return report;
  }
  // RowPress presses few rows for long intervals: open time per hold is
  // bounded by the controller's refresh-postponement limit, so concentrating
  // on a couple of aggressors maximizes per-victim accumulation per window.
  if (aggressors.size() > 2) {
    aggressors.resize(2);
  }
  for (uint32_t i = 0; i < holds; ++i) {
    const Aggressor& aggressor = aggressors[i % aggressors.size()];
    machine.ActivatePhysHold(aggressor.phys, open_ns);
    ++report.activations;
  }
  report.patterns_run = 1;
  std::vector<PhysFlip> flips = machine.DrainFlips();
  report.flips.insert(report.flips.end(), flips.begin(), flips.end());
  return report;
}

uint64_t HammerPhysAddresses(Machine& machine, std::span<const uint64_t> aggressors,
                             uint32_t rounds) {
  const ActBurst burst{{aggressors.begin(), aggressors.end()}, rounds, std::nullopt};
  return machine.ReplayActs({&burst, 1}, /*threads=*/0);
}

}  // namespace siloz
