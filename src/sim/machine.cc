#include "src/sim/machine.h"

#include <algorithm>

#include "src/base/check.h"
#include "src/base/thread_pool.h"
#include "src/base/units.h"
#include "src/obs/trace.h"

namespace siloz {

// Routes byte reads/writes through the decoder to the owning DramDevice, so
// stored software state (EPT pages, guest data) is subject to the DRAM fault
// model.
class Machine::DramBackedMemory final : public PhysMemory {
 public:
  explicit DramBackedMemory(Machine& machine) : machine_(machine) {}

  void ReadPhys(uint64_t phys, std::span<uint8_t> out) override {
    Access(phys, out.size(), [&](DramDevice& device, const MediaAddress& media, size_t offset,
                                 size_t chunk) {
      device.Read(media.rank, media.bank, media.row, media.column,
                  out.subspan(offset, chunk), machine_.clock_ns());
    });
  }

  void WritePhys(uint64_t phys, std::span<const uint8_t> data) override {
    Access(phys, data.size(), [&](DramDevice& device, const MediaAddress& media, size_t offset,
                                  size_t chunk) {
      device.Write(media.rank, media.bank, media.row, media.column,
                   data.subspan(offset, chunk), machine_.clock_ns());
    });
  }

  bool AccessesActivateRows() const override { return true; }

 private:
  // Splits [phys, phys+len) into cache-line pieces that each live in one
  // device row and applies `op`.
  template <typename Op>
  void Access(uint64_t phys, size_t len, Op&& op) {
    size_t done = 0;
    while (done < len) {
      const uint64_t address = phys + done;
      const size_t line_remaining = kCacheLineBytes - (address % kCacheLineBytes);
      const size_t chunk = std::min(len - done, line_remaining);
      const MediaAddress media = *machine_.decoder().PhysToMedia(address);
      DramDevice& device = machine_.device(media.socket, media.channel, media.dimm);
      op(device, media, done, chunk);
      done += chunk;
    }
    machine_.AdvanceClock(machine_.config().act_cost_ns / 2);
  }

  Machine& machine_;
};

Machine::Machine(MachineConfig config) : config_(std::move(config)) {
  SILOZ_CHECK(config_.geometry.Validate().ok());
  if (!config_.platform.empty()) {
    Result<std::unique_ptr<AddressDecoder>> made =
        MakePlatformDecoder(config_.platform, config_.geometry);
    SILOZ_CHECK(made.ok()) << "platform '" << config_.platform
                           << "': " << made.error().ToString();
    decoder_ = std::move(*made);
  } else {
    switch (config_.decoder) {
      case DecoderKind::kSkylake:
        decoder_ = std::make_unique<SkylakeDecoder>(config_.geometry);
        break;
      case DecoderKind::kLinear:
        decoder_ = std::make_unique<LinearDecoder>(config_.geometry);
        break;
      case DecoderKind::kSnc2:
        decoder_ = std::make_unique<SncDecoder>(config_.geometry, 2);
        break;
    }
  }
  for (uint32_t socket = 0; socket < config_.geometry.sockets; ++socket) {
    controllers_.push_back(
        std::make_unique<MemoryController>(config_.geometry, socket, config_.timings));
  }
  if (config_.fault_tracking) {
    SILOZ_CHECK(!config_.dimm_profiles.empty());
    const size_t dimm_count = static_cast<size_t>(config_.geometry.sockets) *
                              config_.geometry.channels_per_socket *
                              config_.geometry.dimms_per_channel;
    for (size_t i = 0; i < dimm_count; ++i) {
      const DimmProfile& profile = config_.dimm_profiles[i % config_.dimm_profiles.size()];
      devices_.push_back(std::make_unique<DramDevice>(config_.geometry, profile.remap,
                                                      profile.disturbance, profile.trr,
                                                      profile.name));
    }
    phys_memory_ = std::make_unique<DramBackedMemory>(*this);
  } else {
    phys_memory_ = std::make_unique<FlatPhysMemory>();
  }
}

std::vector<MemoryController*> Machine::controllers() {
  std::vector<MemoryController*> result;
  for (const auto& controller : controllers_) {
    result.push_back(controller.get());
  }
  return result;
}

size_t Machine::DeviceIndex(uint32_t socket, uint32_t channel, uint32_t dimm) const {
  return (static_cast<size_t>(socket) * config_.geometry.channels_per_socket + channel) *
             config_.geometry.dimms_per_channel +
         dimm;
}

DramDevice& Machine::device(uint32_t socket, uint32_t channel, uint32_t dimm) {
  SILOZ_CHECK(config_.fault_tracking) << "devices exist only in fault mode";
  // siloz-lint: allow(map-bracket-probe): devices_ here is the sim Machine's
  // std::vector (index checked by DeviceIndex), not the hypervisor's map.
  return *devices_[DeviceIndex(socket, channel, dimm)];
}

void Machine::ActivatePhys(uint64_t phys) {
  const MediaAddress media = *decoder_->PhysToMedia(phys);
  device(media.socket, media.channel, media.dimm)
      .Activate(media.rank, media.bank, media.row, clock_ns_);
  clock_ns_ += config_.act_cost_ns;
}

void Machine::ActivatePhysHold(uint64_t phys, uint64_t open_ns) {
  const MediaAddress media = *decoder_->PhysToMedia(phys);
  DramDevice& dram = device(media.socket, media.channel, media.dimm);
  dram.Activate(media.rank, media.bank, media.row, clock_ns_);
  clock_ns_ += open_ns;
  dram.Precharge(media.rank, media.bank, clock_ns_);
  clock_ns_ += config_.act_cost_ns;
}

void Machine::AdvanceClock(uint64_t delta_ns) {
  clock_ns_ += delta_ns;
  for (const auto& device : devices_) {
    device->AdvanceTo(clock_ns_);
  }
}

uint64_t Machine::ReplayActs(std::span<const ActBurst> bursts, uint32_t threads) {
  SILOZ_CHECK(config_.fault_tracking) << "devices exist only in fault mode";
  obs::TraceSpan span("machine.ReplayActs");
  const uint64_t act_cost = config_.act_cost_ns;

  // Plan serially. The serial loop gives the k-th ACT of burst b the time
  // starts[b] + k * act_cost, and burst b ends at starts[b + 1] (after its
  // settle). Each schedule address is decoded once per burst into its
  // device's slot list.
  struct Slot {
    uint32_t burst;
    uint32_t position;  // within the burst's schedule
    uint32_t rank;
    uint32_t bank;
    uint32_t row;
  };
  std::vector<std::vector<Slot>> slots(devices_.size());
  std::vector<uint64_t> starts = {clock_ns_};
  uint64_t acts = 0;
  bool settles = false;
  for (uint32_t b = 0; b < bursts.size(); ++b) {
    const ActBurst& burst = bursts[b];
    for (uint32_t position = 0; position < burst.schedule.size(); ++position) {
      const MediaAddress media = *decoder_->PhysToMedia(burst.schedule[position]);
      slots[DeviceIndex(media.socket, media.channel, media.dimm)].push_back(
          Slot{b, position, media.rank, media.bank, media.row});
    }
    const uint64_t burst_acts = uint64_t{burst.rounds} * burst.schedule.size();
    acts += burst_acts;
    settles |= burst.settle_ns.has_value();
    starts.push_back(starts.back() + burst_acts * act_cost + burst.settle_ns.value_or(0));
  }

  // Replay per device. A device's state depends only on its own command
  // stream, so each device walks every burst in order: it issues its own
  // slots at the serial timestamps and calls AdvanceTo wherever the serial
  // AdvanceClock would — also after bursts that ran on other devices, since
  // AdvanceTo caps the TRR ticks it processes per call.
  auto replay_device = [&](uint32_t index) {
    obs::TraceSpan device_span("machine.ReplayActs.dimm" + std::to_string(index));
    DramDevice& dram = *devices_.at(index);
    const std::vector<Slot>& mine = slots[index];
    size_t next = 0;
    for (uint32_t b = 0; b < bursts.size(); ++b) {
      const size_t begin = next;
      while (next < mine.size() && mine[next].burst == b) {
        ++next;
      }
      const uint64_t round_ns = bursts[b].schedule.size() * act_cost;
      for (uint32_t round = 0; round < bursts[b].rounds && next > begin; ++round) {
        const uint64_t round_start = starts[b] + round * round_ns;
        for (size_t i = begin; i < next; ++i) {
          dram.Activate(mine[i].rank, mine[i].bank, mine[i].row,
                        round_start + mine[i].position * act_cost);
        }
      }
      if (bursts[b].settle_ns.has_value()) {
        dram.AdvanceTo(starts[b + 1]);
      }
    }
  };
  std::vector<uint32_t> busy;
  for (uint32_t index = 0; index < devices_.size(); ++index) {
    if (settles || !slots[index].empty()) {
      busy.push_back(index);
    }
  }
  ParallelFor(threads, busy.size(), [&](uint64_t t) { replay_device(busy[t]); });
  clock_ns_ = starts.back();
  return acts;
}

uint64_t Machine::PatrolScrubAll() {
  uint64_t corrected = 0;
  for (const auto& device : devices_) {
    corrected += device->PatrolScrub(clock_ns_);
  }
  return corrected;
}

std::vector<PhysFlip> Machine::DrainFlips() {
  std::vector<PhysFlip> flips;
  for (size_t index = 0; index < devices_.size(); ++index) {
    // siloz-lint: allow(map-bracket-probe): std::vector indexing, see device().
  DramDevice& dram = *devices_[index];
    const uint32_t socket =
        static_cast<uint32_t>(index / (config_.geometry.channels_per_socket *
                                       config_.geometry.dimms_per_channel));
    const uint32_t within =
        static_cast<uint32_t>(index % (config_.geometry.channels_per_socket *
                                       config_.geometry.dimms_per_channel));
    const uint32_t channel = within / config_.geometry.dimms_per_channel;
    const uint32_t dimm = within % config_.geometry.dimms_per_channel;
    for (const FlipRecord& record : dram.flip_log()) {
      MediaAddress media;
      media.socket = socket;
      media.channel = channel;
      media.dimm = dimm;
      media.rank = record.rank;
      media.bank = record.bank;
      media.row = record.media_row;
      media.column = record.byte_in_row;
      PhysFlip flip;
      flip.phys = *decoder_->MediaToPhys(media);
      flip.media = media;
      flip.record = record;
      flip.dimm_name = dram.name();
      flips.push_back(flip);
    }
    dram.ClearFlipLog();
  }
  return flips;
}

}  // namespace siloz
