// DramDevice: functional + fault model of one server DIMM.
//
// The device executes the controller-visible command stream (activate, read,
// write, refresh ticks) against:
//  - the media-to-internal remap chain (remap.h),
//  - the Rowhammer/RowPress disturbance model in internal coordinates
//    (fault_model.h),
//  - a per-(rank,bank,side) TRR tracker consulted on REF ticks (trr.h),
//  - SEC-DED ECC storage: every stored 64-bit word carries check bits and is
//    decoded on read (ecc.h).
//
// Each 8 KiB media row is split into an A-side half (bytes [0, 4 KiB)) and a
// B-side half (bytes [4 KiB, 8 KiB)) which may live at different internal
// rows (§2.3, §6). Bit flips are recorded in a log with both media and
// internal coordinates so experiments can take a census (Table 3).
#ifndef SILOZ_SRC_DRAM_DEVICE_H_
#define SILOZ_SRC_DRAM_DEVICE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "src/dram/ecc.h"
#include "src/dram/fault_model.h"
#include "src/dram/geometry.h"
#include "src/dram/remap.h"
#include "src/dram/trr.h"

namespace siloz {

// One observed bit flip, in both coordinate systems.
struct FlipRecord {
  uint32_t rank = 0;
  uint32_t bank = 0;
  uint32_t media_row = 0;     // external row the flipped byte belongs to
  uint32_t internal_row = 0;  // wordline that was disturbed
  HalfRowSide side = HalfRowSide::kA;
  uint32_t byte_in_row = 0;   // within the 8 KiB external row
  uint8_t bit_in_byte = 0;
  uint64_t time_ns = 0;

  bool operator==(const FlipRecord&) const = default;
};

// Aggregate outcome of one read through ECC.
struct ReadResult {
  EccOutcome outcome = EccOutcome::kClean;  // worst word in the range
  uint32_t corrected_words = 0;
  uint32_t uncorrectable_words = 0;
  // Words whose "correction" produced wrong data (>=3 aliased flips) or that
  // carry undetected even->even aliasing; instrumentation only — software in
  // the model cannot see this field.
  uint32_t silently_corrupt_words = 0;
};

// Why a bit flipped: aggressor activations (classic Rowhammer), a row held
// open (RowPress), or a test/experiment injection.
enum class FlipCause : uint8_t { kHammer = 0, kRowPress = 1, kInjected = 2 };

struct DeviceCounters {
  uint64_t activates = 0;
  uint64_t reads = 0;
  uint64_t writes = 0;
  uint64_t ref_ticks = 0;
  uint64_t trr_victim_refreshes = 0;
  uint64_t bit_flips = 0;
  uint64_t flips_hammer = 0;    // bit_flips attributed to ACT disturbance
  uint64_t flips_rowpress = 0;  // ... to open-row (RowPress) disturbance
  uint64_t flips_injected = 0;  // ... to InjectFlip
  uint64_t corrected_words = 0;
  uint64_t uncorrectable_words = 0;
  uint64_t silent_corruptions = 0;

  bool operator==(const DeviceCounters&) const = default;
};

class DramDevice {
 public:
  // `name` labels the DIMM in experiment output ("A".."F" in Table 3).
  DramDevice(const DramGeometry& geometry, RemapConfig remap_config,
             DisturbanceProfile disturbance_profile, TrrConfig trr_config, std::string name);
  // Flushes the lifetime counters into the global metrics registry.
  ~DramDevice();

  // Activate `media_row` in (rank, bank) at time `now_ns`, implicitly
  // precharging any open row (whose open interval contributes RowPress
  // disturbance). Advances the refresh clock first.
  void Activate(uint32_t rank, uint32_t bank, uint32_t media_row, uint64_t now_ns);

  // A cache hint with no model effect, issued a few ACTs ahead of
  // Activate(rank, bank, media_row): prefetches the row's disturbance cells
  // on both half-row sides.
  void Prefetch(uint32_t rank, uint32_t bank, uint32_t media_row) {
    for (HalfRowSide side : {HalfRowSide::kA, HalfRowSide::kB}) {
      disturbance_.Prefetch(BankKey(rank, bank), side,
                            remapper_.ToInternal(media_row, rank, bank, side));
    }
  }

  // Close any open row in (rank, bank).
  void Precharge(uint32_t rank, uint32_t bank, uint64_t now_ns);

  // Write bytes at (media_row, column). Activates the row if not open. An
  // empty span counts as a write but touches no word.
  void Write(uint32_t rank, uint32_t bank, uint32_t media_row, uint32_t column,
             std::span<const uint8_t> data, uint64_t now_ns);

  // Read bytes through ECC. Single-bit errors are corrected in place (as a
  // scrubbing controller would); double-bit errors leave data as-is and
  // report kUncorrectable. A row never stored reads as zero.
  ReadResult Read(uint32_t rank, uint32_t bank, uint32_t media_row, uint32_t column,
                  std::span<uint8_t> out, uint64_t now_ns);

  // Advance the device clock, processing REF ticks (auto-refresh epochs are
  // handled lazily by the fault model; TRR victim refreshes happen here).
  void AdvanceTo(uint64_t now_ns);

  // Walk all stored rows through ECC in (rank, bank, row) order, correcting
  // single-bit errors — the patrol scrub the paper relies on to surface
  // undetected flips (§7.1). Returns the number of corrected words.
  uint64_t PatrolScrub(uint64_t now_ns);

  // Force a bit flip (tests; EPT-corruption experiments).
  void InjectFlip(uint32_t rank, uint32_t bank, uint32_t media_row, uint32_t byte_in_row,
                  uint8_t bit_in_byte, uint64_t now_ns);

  // Refresh one media row ahead of schedule on both half-row sides (the
  // primitive a SoftTRR-style software defense drives, §8.3).
  void RefreshRow(uint32_t rank, uint32_t bank, uint32_t media_row, uint64_t now_ns);

  const std::vector<FlipRecord>& flip_log() const { return flip_log_; }
  void ClearFlipLog() { flip_log_.clear(); }
  const DeviceCounters& counters() const { return counters_; }
  const DramGeometry& geometry() const { return geometry_; }
  const RowRemapper& remapper() const { return remapper_; }
  DisturbanceModel& disturbance_model() { return disturbance_; }
  const std::string& name() const { return name_; }

 private:
  // A stored row's buffer holds its data bytes, flip-mask bytes, and ECC
  // check bytes contiguously.
  struct RowRef {
    uint8_t* data = nullptr;       // geometry_.row_bytes
    uint8_t* flip_mask = nullptr;  // geometry_.row_bytes
    uint8_t* check = nullptr;      // geometry_.row_bytes / 8
  };
  struct BankState {
    int64_t open_row = -1;  // media row, -1 = precharged
    uint64_t open_since_ns = 0;
  };

  uint32_t BankKey(uint32_t rank, uint32_t bank) const {
    return rank * geometry_.banks_per_rank + bank;
  }
  // Orders rows by (rank, bank, media row).
  uint64_t RowKey(uint32_t rank, uint32_t bank, uint32_t media_row) const {
    return (static_cast<uint64_t>(BankKey(rank, bank)) << 32) | media_row;
  }
  RowRef RowAt(uint8_t* buffer) const;
  RowRef GetOrCreateRow(uint32_t rank, uint32_t bank, uint32_t media_row);

  // Map internal-space flips back to media coordinates and apply them.
  void ApplyInternalFlips(uint32_t rank, uint32_t bank, HalfRowSide side,
                          std::span<const InternalFlip> flips, uint64_t now_ns, FlipCause cause);
  void ApplyFlipBit(uint32_t rank, uint32_t bank, uint32_t media_row, uint32_t internal_row,
                    HalfRowSide side, uint32_t byte_in_row, uint8_t bit_in_byte, uint64_t now_ns,
                    FlipCause cause);
  void CloseOpenRow(uint32_t rank, uint32_t bank, uint64_t now_ns);
  TrrTracker& Tracker(uint32_t rank, uint32_t bank, HalfRowSide side);

  DramGeometry geometry_;
  RowRemapper remapper_;
  DisturbanceModel disturbance_;
  TrrConfig trr_config_;
  std::string name_;

  std::vector<BankState> bank_state_;          // indexed by BankKey
  std::vector<TrrTracker> trr_trackers_;       // indexed by BankKey*2 + side
  // Number of trackers currently armed (holding a count at act_threshold).
  // Zero means a REF tick has no TRR work anywhere on the device, letting
  // AdvanceTo() take whole idle windows in O(1).
  uint32_t trr_armed_ = 0;
  // Stored rows by RowKey, so iteration is in (rank, bank, row) order. Only
  // rows that were written or flipped are here; each buffer is allocated
  // zeroed on the row's first store, which is exactly the never-written row
  // state (EccEncode(0) == 0). Map nodes and buffers never move, so a RowRef
  // stays valid for the device's lifetime.
  std::map<uint64_t, std::unique_ptr<uint8_t[]>> rows_;
  FlipSink flip_scratch_;  // reused across ACT/row-open deliveries
  std::vector<FlipRecord> flip_log_;
  DeviceCounters counters_;
  uint64_t now_ns_ = 0;
  uint64_t next_ref_ns_ = kRefreshIntervalNs;
};

}  // namespace siloz

#endif  // SILOZ_SRC_DRAM_DEVICE_H_
