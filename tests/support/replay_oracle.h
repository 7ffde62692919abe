// Trace-order oracle for the sharded disturbance replay (ReplayDisturbance,
// src/sim/experiment.h), plus a machine shape and trace that make its flip
// census non-empty.
#ifndef SILOZ_TESTS_SUPPORT_REPLAY_ORACLE_H_
#define SILOZ_TESTS_SUPPORT_REPLAY_ORACLE_H_

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "src/base/rng.h"
#include "src/sim/machine.h"

namespace siloz {

// Replays `trace` in trace order — one open-row tracker over the whole
// machine, no partition, one thread — with the ACT timestamps
// ReplayDisturbance assigns (machine clock + global trace index *
// act_cost). ReplayDisturbance must leave the identical flip census for
// every channels_per_shard and thread count.
inline void ReplayInTraceOrder(Machine& machine, std::span<const MemRequest> trace) {
  const DramGeometry& geometry = machine.config().geometry;
  const uint64_t clock0 = machine.clock_ns();
  std::vector<int64_t> open_rows(geometry.total_banks(), -1);
  for (uint64_t index = 0; index < trace.size(); ++index) {
    const MediaAddress& media = trace[index].address;
    int64_t& open_row =
        open_rows[media.socket * geometry.banks_per_socket() + SocketBankIndex(geometry, media)];
    if (open_row == static_cast<int64_t>(media.row)) {
      continue;
    }
    open_row = media.row;
    machine.device(media.socket, media.channel, media.dimm)
        .Activate(media.rank, media.bank, media.row,
                  clock0 + index * machine.config().act_cost_ns);
  }
}

// The machine's flips as physical addresses, in DrainFlips order (device
// order, then occurrence order within a device). Clears the flip log.
inline std::vector<uint64_t> DrainFlipPhys(Machine& machine) {
  std::vector<uint64_t> phys;
  for (const PhysFlip& flip : machine.DrainFlips()) {
    phys.push_back(flip.phys);
  }
  return phys;
}

// `config` in fault mode with DIMMs that flip within a short trace: low
// Rowhammer thresholds and TRR off, so replay differentials compare
// non-empty flip censuses (TrrFaultMachine below turns TRR back on).
inline MachineConfig FragileFaultMachine(MachineConfig config) {
  config.fault_tracking = true;
  for (DimmProfile& profile : config.dimm_profiles) {
    profile.disturbance.threshold_mean = 2000.0;
    profile.trr.enabled = false;
  }
  return config;
}

// FragileFaultMachine with TRR on. HammerTrace activates each aggressor
// 3000 times in 6000 rounds, so an act_threshold of 1200 makes the trackers
// select targets twice per aggressor, while the victim between the pair
// still takes up to 2400 ACTs between refreshes, past many rows' flip
// thresholds: a replay differential on this machine runs the tracker and
// still compares a non-empty flip census.
inline MachineConfig TrrFaultMachine(MachineConfig config) {
  config = FragileFaultMachine(std::move(config));
  for (DimmProfile& profile : config.dimm_profiles) {
    profile.trr.enabled = true;
    profile.trr.act_threshold = 1200;
  }
  return config;
}

// Every device's counters, socket-major, then channel, then DIMM.
inline std::vector<DeviceCounters> AllDeviceCounters(Machine& machine) {
  const DramGeometry& geometry = machine.config().geometry;
  std::vector<DeviceCounters> counters;
  for (uint32_t socket = 0; socket < geometry.sockets; ++socket) {
    for (uint32_t channel = 0; channel < geometry.channels_per_socket; ++channel) {
      for (uint32_t dimm = 0; dimm < geometry.dimms_per_channel; ++dimm) {
        counters.push_back(machine.device(socket, channel, dimm).counters());
      }
    }
  }
  return counters;
}

// A double-sided hammer pair on one bank of every (socket, channel), visited
// round-robin and interleaved with background requests to a 64-row window
// of a neighbouring bank; deterministic in `seed`. Every channel shard
// replays ACTs, and each aggressor is activated rounds / 2 times. The
// footprint stays small: the fault model allocates state per touched row.
inline std::vector<MemRequest> HammerTrace(const DramGeometry& geometry, uint64_t seed,
                                           uint32_t rounds) {
  const uint32_t victim_row = geometry.rows_per_bank / 2;
  Rng rng(seed);
  std::vector<MemRequest> trace;
  trace.reserve(static_cast<size_t>(rounds) * geometry.sockets * geometry.channels_per_socket * 2);
  for (uint32_t round = 0; round < rounds; ++round) {
    for (uint32_t socket = 0; socket < geometry.sockets; ++socket) {
      for (uint32_t channel = 0; channel < geometry.channels_per_socket; ++channel) {
        MemRequest background;
        background.address.socket = socket;
        background.address.channel = channel;
        background.address.bank = (channel + 1) % geometry.banks_per_rank;
        background.address.row = static_cast<uint32_t>(rng.NextBelow(64));
        background.is_write = rng.NextBernoulli(0.3);
        trace.push_back(background);
        MemRequest aggressor;
        aggressor.address.socket = socket;
        aggressor.address.channel = channel;
        aggressor.address.bank = channel % geometry.banks_per_rank;
        aggressor.address.row = (round % 2 == 0) ? victim_row - 1 : victim_row + 1;
        trace.push_back(aggressor);
      }
    }
  }
  return trace;
}

}  // namespace siloz

#endif  // SILOZ_TESTS_SUPPORT_REPLAY_ORACLE_H_
