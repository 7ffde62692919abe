// Machine: composes the substrates into the evaluation platform (Table 2).
//
// A Machine owns the address decoder, per-socket memory controllers (timing
// mode), and — when fault tracking is on — one DramDevice per DIMM plus a
// PhysMemory implementation routed through those devices, so that software
// bytes (including EPT pages) live in hammerable DRAM.
//
// Two fidelities (DESIGN.md §4):
//  - timing mode (fault_tracking=false): workload traces run through the
//    MemoryController model; no per-ACT fault bookkeeping. Used by Figs 4-7.
//  - fault mode (fault_tracking=true): every activation reaches the
//    DramDevice disturbance model. Used by Table 3 / §7.1 experiments.
#ifndef SILOZ_SRC_SIM_MACHINE_H_
#define SILOZ_SRC_SIM_MACHINE_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "src/addr/decoder.h"
#include "src/addr/platform.h"
#include "src/addr/subarray_group.h"
#include "src/dram/device.h"
#include "src/ept/phys_memory.h"
#include "src/memctl/controller.h"

namespace siloz {

enum class DecoderKind : uint8_t { kSkylake, kLinear, kSnc2 };

// Fault-model personality of one DIMM model ("A".."F" in Table 3).
struct DimmProfile {
  std::string name = "A";
  RemapConfig remap;
  DisturbanceProfile disturbance;
  TrrConfig trr;
};

struct MachineConfig {
  DramGeometry geometry;
  DecoderKind decoder = DecoderKind::kSkylake;
  // Named platform from the PlatformDecoder registry (src/addr/platform.h).
  // When non-empty it overrides `decoder`: the machine's mapping comes from
  // the platform's decoder family applied to `geometry` (the caller is
  // expected to have seeded `geometry` from the platform's default — see
  // ApplyPlatform in sim/experiment.h).
  std::string platform;
  DdrTimings timings;
  bool fault_tracking = false;
  // One profile per DIMM, channel-major within socket ("DIMM A" in channel 0
  // of both sockets, etc.). Cycled if shorter than the DIMM count.
  std::vector<DimmProfile> dimm_profiles = {DimmProfile{}};
  // Wall-clock cost charged per activation in fault mode (uncached access +
  // flush round trip).
  uint64_t act_cost_ns = 50;
};

// One burst of an ACT replay (Machine::ReplayActs): `schedule` activated in
// order, `rounds` times over, then — when `settle_ns` is set — the clock
// advanced by it, as AdvanceClock does.
struct ActBurst {
  std::vector<uint64_t> schedule;  // physical addresses
  uint32_t rounds = 1;
  std::optional<uint64_t> settle_ns;
};

// A bit flip resolved to physical-address coordinates.
struct PhysFlip {
  uint64_t phys = 0;
  MediaAddress media;
  FlipRecord record;
  std::string dimm_name;

  bool operator==(const PhysFlip&) const = default;
};

class Machine {
 public:
  explicit Machine(MachineConfig config);

  const MachineConfig& config() const { return config_; }
  const AddressDecoder& decoder() const { return *decoder_; }
  MemoryController& controller(uint32_t socket) { return *controllers_[socket]; }
  std::vector<MemoryController*> controllers();

  // Physical-byte store: DRAM-backed in fault mode, flat otherwise.
  PhysMemory& phys_memory() { return *phys_memory_; }

  // --- Fault-mode operations ---

  bool fault_tracking() const { return config_.fault_tracking; }
  DramDevice& device(uint32_t socket, uint32_t channel, uint32_t dimm);

  // Activate the row containing `phys` (attacker-style uncached access +
  // flush). Advances the machine clock by act_cost_ns.
  void ActivatePhys(uint64_t phys);
  // Activate and leave the row open for `open_ns` (RowPress-style).
  void ActivatePhysHold(uint64_t phys, uint64_t open_ns);

  uint64_t clock_ns() const { return clock_ns_; }
  void AdvanceClock(uint64_t delta_ns);

  // Replays `bursts` with the result of the serial loop
  //   for each burst: `rounds` x ActivatePhys(every schedule address),
  //                   then AdvanceClock(settle_ns) if set,
  // bit-identically, but with each DIMM's share on its own pool task
  // (`threads` as in ResolveThreads). Returns the ACTs issued.
  uint64_t ReplayActs(std::span<const ActBurst> bursts, uint32_t threads);

  // Run ECC patrol scrub on every DIMM (the 24-hour check of §7.1).
  uint64_t PatrolScrubAll();

  // Collect and clear all flips observed so far, resolved to physical
  // addresses via the decoder inverse.
  std::vector<PhysFlip> DrainFlips();

 private:
  class DramBackedMemory;

  size_t DeviceIndex(uint32_t socket, uint32_t channel, uint32_t dimm) const;

  MachineConfig config_;
  std::unique_ptr<AddressDecoder> decoder_;
  std::vector<std::unique_ptr<MemoryController>> controllers_;
  std::vector<std::unique_ptr<DramDevice>> devices_;  // fault mode only
  std::unique_ptr<PhysMemory> phys_memory_;
  uint64_t clock_ns_ = 0;
};

}  // namespace siloz

#endif  // SILOZ_SRC_SIM_MACHINE_H_
