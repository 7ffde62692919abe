// Rowhammer / RowPress disturbance fault model (§2.5).
//
// Physics modeled:
//  - Activating (ACT) an aggressor row disturbs charge in nearby rows *in the
//    same subarray*; rows in other subarrays are electrically isolated and
//    unaffected. This containment is the property Siloz builds on.
//  - Disturbance accumulates per victim between refreshes of that victim;
//    when it crosses the victim's (per-row, DIMM-dependent) Rowhammer
//    threshold, bits flip.
//  - An ACT refreshes the activated row itself.
//  - Distance-2 neighbours receive a fraction of the disturbance
//    (Half-Double-style).
//  - RowPress: a row *held open* disturbs neighbours proportionally to its
//    open time.
//
// Adjacency is computed on INTERNAL row addresses (post remap chain, see
// remap.h), and the subarray size used here is the silicon ground truth —
// deliberately independent of the subarray size Siloz *presumes* via its boot
// parameter, so misconfiguration is observable (§7.4).
#ifndef SILOZ_SRC_DRAM_FAULT_MODEL_H_
#define SILOZ_SRC_DRAM_FAULT_MODEL_H_

#include <algorithm>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "src/base/check.h"
#include "src/base/fastdiv.h"
#include "src/base/rng.h"
#include "src/base/units.h"
#include "src/dram/remap.h"

namespace siloz {

// Per-DIMM-model fault characteristics. Thresholds are in units of
// activations within one 64 ms refresh window. The defaults are in the range
// reported for modern server DDR4 (tens of thousands of ACTs).
struct DisturbanceProfile {
  // Mean/spread of the per-row Rowhammer threshold. Per-row values are
  // deterministic in (seed, bank, side, row).
  double threshold_mean = 50000.0;
  double threshold_spread = 0.3;  // rows vary uniformly in mean*(1 +/- spread)
  // Weight of distance-2 aggressors relative to distance-1.
  double distance2_factor = 0.2;
  // RowPress: equivalent ACT count contributed per nanosecond a neighbouring
  // row is held open past tRAS.
  double rowpress_acts_per_ns = 1.0 / 3000.0;
  // Bits flipped per threshold crossing: 1 + Geometric(extra_flip_prob).
  double extra_flip_prob = 0.35;
  // Seed for per-row thresholds and flip positions.
  uint64_t seed = 0x51102;
};

// Maximum internal-row distance over which a profile's disturbance reaches a
// victim. Guard bands and the static isolation audit must fence at least this
// many rows; keeping it derived from the profile ties them to the same
// physics the dynamic model applies.
inline constexpr uint32_t BlastRadiusRows(const DisturbanceProfile& profile) {
  return profile.distance2_factor > 0.0 ? 2 : 1;
}

// A flip in internal coordinates: bit index within one half-row (the device
// maps it back to a media row + byte).
struct InternalFlip {
  uint32_t victim_row = 0;  // internal row
  uint32_t bit = 0;         // bit within the 4 KiB half-row
};

// Caller-owned scratch buffer the disturbance model appends flips into.
//
// The dominant case is an ACT that flips nothing; with the sink reused across
// calls, that case touches no allocator at all (the backing vector keeps its
// capacity across Clear()). Contract: the caller Clear()s before each
// delivery call and consumes flips() before the next one.
class FlipSink {
 public:
  void Clear() { flips_.clear(); }
  void Append(InternalFlip flip) { flips_.push_back(flip); }
  void Reserve(size_t capacity) { flips_.reserve(capacity); }

  bool empty() const { return flips_.empty(); }
  size_t size() const { return flips_.size(); }
  std::span<const InternalFlip> flips() const { return flips_; }

  // Moves the accumulated flips out (convenience-API support).
  std::vector<InternalFlip> Take() { return std::move(flips_); }

 private:
  std::vector<InternalFlip> flips_;
};

// Tracks disturbance accumulation for all victims of one DIMM.
//
// State lives in flat per-(bank, side) subarray slabs indexed directly by
// internal row: an ACT touches the aggressor's slab once and its ≤4 victim
// entries by array index. An entry is 16 bytes, four to a cache line. It
// caches no threshold: a probe compares against the profile's lowest
// possible threshold first and hashes the row's own threshold only past
// that bound. Slabs are allocated lazily per subarray (a zero-initialized
// entry is semantically identical to an untracked victim: the
// epoch-mismatch reset normalizes it on first probe), so commodity access
// patterns that hammer a handful of subarrays stay compact.
class DisturbanceModel {
 public:
  // `half_row_bits` = bits per half-row (4 KiB * 8 by default);
  // `rows_per_subarray` is the silicon ground truth;
  // `rows_per_bank` bounds row indices.
  DisturbanceModel(DisturbanceProfile profile, uint32_t rows_per_bank,
                   uint32_t rows_per_subarray, uint32_t half_row_bits);

  // Record one activation of `internal_row`. Disturbs same-subarray
  // neighbours and refreshes the aggressor itself. Appends flips triggered
  // by this ACT (in victims, never in the aggressor) to `sink`. Defined
  // inline below: the whole delivery chain (decode subarray, slab lookup,
  // four victim probes) flattens into the caller, with only the rare
  // threshold-crossing path (EmitFlips) out of line.
  void OnActivate(uint32_t bank_key, HalfRowSide side, uint32_t internal_row, uint64_t now_ns,
                  FlipSink& sink) {
    SILOZ_DCHECK(internal_row < rows_per_bank_);
    const auto subarray = static_cast<uint32_t>(subarray_div_.Divide(internal_row));
    CheckEpochRange(now_ns);
    VictimState* slab = SlabFor(bank_key, side, subarray);
    // The ACT refreshes the aggressor row itself. (Writing the fresh epoch
    // into a never-probed entry is equivalent to the epoch normalization a
    // future probe would perform.)
    VictimState& self = slab[internal_row - subarray * rows_per_subarray_];
    self.disturbance = 0.0;
    self.crossings = 0;
    self.refresh_epoch = EpochFor(internal_row, now_ns);
    AddDisturbance(bank_key, side, internal_row, subarray, slab, 1.0, now_ns, sink);
  }

  // Record that `internal_row` was held open for `open_ns` beyond nominal
  // tRAS (RowPress, §2.5). Inline for the same reason as OnActivate: every
  // ACT that closes a row delivers one.
  void OnRowOpen(uint32_t bank_key, HalfRowSide side, uint32_t internal_row, uint64_t open_ns,
                 uint64_t now_ns, FlipSink& sink) {
    SILOZ_DCHECK(internal_row < rows_per_bank_);
    CheckEpochRange(now_ns);
    const double equivalent_acts = static_cast<double>(open_ns) * profile_.rowpress_acts_per_ns;
    const auto subarray = static_cast<uint32_t>(subarray_div_.Divide(internal_row));
    VictimState* slab = SlabFor(bank_key, side, subarray);
    AddDisturbance(bank_key, side, internal_row, subarray, slab, equivalent_acts, now_ns, sink);
  }

  // A cache hint with no model effect: prefetches the cells an ACT of
  // `internal_row` touches, its +-2 neighbourhood (at most two cache
  // lines). It may allocate the row's slab early; a zeroed slab already
  // means "untracked".
  void Prefetch(uint32_t bank_key, HalfRowSide side, uint32_t internal_row) {
    const auto subarray = static_cast<uint32_t>(subarray_div_.Divide(internal_row));
    const VictimState* slab = SlabFor(bank_key, side, subarray);
    const uint32_t offset = internal_row - subarray * rows_per_subarray_;
    __builtin_prefetch(slab + (offset >= 2 ? offset - 2 : 0), 1);
    __builtin_prefetch(slab + std::min(offset + 2, rows_per_subarray_ - 1), 1);
  }

  // Vector-returning conveniences (tests, tools); the device hot path uses
  // the FlipSink overloads.
  std::vector<InternalFlip> OnActivate(uint32_t bank_key, HalfRowSide side, uint32_t internal_row,
                                       uint64_t now_ns);
  std::vector<InternalFlip> OnRowOpen(uint32_t bank_key, HalfRowSide side, uint32_t internal_row,
                                      uint64_t open_ns, uint64_t now_ns);

  // Refresh `internal_row` ahead of schedule (TRR or software refresh):
  // clears its accumulated disturbance. Never allocates: untracked rows are
  // a no-op, as with the auto-refresh epochs.
  void RefreshRow(uint32_t bank_key, HalfRowSide side, uint32_t internal_row, uint64_t now_ns);

  // Deterministic per-row threshold (exposed for tests/analysis).
  double ThresholdFor(uint32_t bank_key, HalfRowSide side, uint32_t internal_row) const;

  uint32_t rows_per_subarray() const { return rows_per_subarray_; }
  uint64_t total_flip_events() const { return total_flip_events_; }
  // Victim probes: how many times disturbance was charged to some victim
  // row (one per in-bounds, same-subarray neighbour per ACT / row-open).
  uint64_t disturb_probes() const { return disturb_probes_; }

 private:
  struct VictimState {
    double disturbance = 0.0;    // accumulated since last refresh of this row
    uint32_t refresh_epoch = 0;  // auto-refresh epoch the disturbance belongs to
    uint32_t crossings = 0;      // threshold crossings already converted to flips
  };
  static_assert(sizeof(VictimState) == 16);

  // Epochs are stored in 32 bits. An epoch is at most now_ns /
  // kRefreshWindowNs + 1, so below this bound (about 8.7 simulated years)
  // the truncation is lossless; every entry point that takes a time checks
  // it.
  static constexpr uint64_t kMaxEpochNs = ((uint64_t{1} << 32) - 2) * kRefreshWindowNs;
  static void CheckEpochRange(uint64_t now_ns) {
    SILOZ_CHECK_LT(now_ns, kMaxEpochNs) << "32-bit refresh epochs would alias";
  }

  // Auto-refresh: every row is refreshed once per 64 ms window, staggered by
  // its refresh bin. Returns the current epoch for the row at `now_ns`.
  // kRefreshBins is a power of two and kRefreshWindowNs a constant, so this
  // compiles to a mask, a multiply, and a reciprocal multiply.
  uint32_t EpochFor(uint32_t internal_row, uint64_t now_ns) const {
    const uint64_t phase = (internal_row % kRefreshBins) * kRefreshIntervalNs;
    return static_cast<uint32_t>((now_ns + kRefreshWindowNs - phase) / kRefreshWindowNs);
  }

  // Slab of `rows_per_subarray_` entries for (bank_key, side, subarray),
  // allocated (zeroed) on first use (out-of-line AllocateSlab).
  VictimState* SlabFor(uint32_t bank_key, HalfRowSide side, uint32_t subarray) {
    const size_t slot = static_cast<size_t>(bank_key) * 2 + static_cast<size_t>(side);
    if (slot < slabs_.size()) [[likely]] {
      const std::vector<std::unique_ptr<VictimState[]>>& bank = slabs_[slot];
      if (!bank.empty()) [[likely]] {
        VictimState* slab = bank[subarray].get();
        if (slab != nullptr) [[likely]] {
          return slab;
        }
      }
    }
    return AllocateSlab(slot, subarray);
  }
  VictimState* AllocateSlab(size_t slot, uint32_t subarray);

  void AddDisturbance(uint32_t bank_key, HalfRowSide side, uint32_t aggressor_row,
                      uint32_t subarray, VictimState* slab, double amount, uint64_t now_ns,
                      FlipSink& sink) {
    const uint32_t base = subarray * rows_per_subarray_;
    const uint32_t offset = aggressor_row - base;
    // Distance-1 and distance-2 neighbours, clipped to the aggressor's
    // subarray: cells in other subarrays are electrically isolated (§2.5).
    // Probe order (-1, +1, -2, +2) is part of the determinism contract: the
    // flip RNG is a single sequential stream.
    if (offset >= 2 && offset + 2 < rows_per_subarray_) [[likely]] {
      // Interior aggressor: all four neighbours are in-slab, no clipping.
      disturb_probes_ += 4;
      const double d2 = amount * profile_.distance2_factor;
      DisturbVictim(bank_key, side, aggressor_row - 1, slab[offset - 1], amount, now_ns, sink);
      DisturbVictim(bank_key, side, aggressor_row + 1, slab[offset + 1], amount, now_ns, sink);
      DisturbVictim(bank_key, side, aggressor_row - 2, slab[offset - 2], d2, now_ns, sink);
      DisturbVictim(bank_key, side, aggressor_row + 2, slab[offset + 2], d2, now_ns, sink);
      return;
    }
    AddDisturbanceClipped(bank_key, side, aggressor_row, base, slab, amount, now_ns, sink);
  }
  void AddDisturbanceClipped(uint32_t bank_key, HalfRowSide side, uint32_t aggressor_row,
                             uint32_t base, VictimState* slab, double amount, uint64_t now_ns,
                             FlipSink& sink);
  void DisturbVictim(uint32_t bank_key, HalfRowSide side, uint32_t victim_row,
                     VictimState& state, double amount, uint64_t now_ns, FlipSink& sink) {
    const uint32_t epoch = EpochFor(victim_row, now_ns);
    if (epoch != state.refresh_epoch) {
      // The row's periodic refresh fired since the last probe: charge
      // restored.
      state.disturbance = 0.0;
      state.crossings = 0;
      state.refresh_epoch = epoch;
    }
    state.disturbance += amount;

    // min_threshold_ <= ThresholdFor(row) for every row, and rounding is
    // monotone, so this gate never skips a probe the exact comparison below
    // would flip on. Only rows past the profile's lowest threshold pay the
    // hash.
    const double next_crossing = static_cast<double>(state.crossings + 1);
    if (state.disturbance >= min_threshold_ * next_crossing) [[unlikely]] {
      const double threshold = ThresholdFor(bank_key, side, victim_row);
      if (state.disturbance >= threshold * next_crossing) {
        EmitFlips(victim_row, threshold, state, sink);
      }
    }
  }
  // The threshold-crossing tail of a victim probe: converts crossings into
  // hash-positioned bit flips. Rare (thresholds are tens of thousands of
  // ACTs), so it stays out of line to keep DisturbVictim inlineable.
  void EmitFlips(uint32_t victim_row, double threshold, VictimState& state, FlipSink& sink);

  // The threshold a row with uniform draw `u` in [0, 1) gets; ThresholdFor
  // and min_threshold_ share this one expression.
  double ThresholdAt(double u) const {
    return profile_.threshold_mean * (1.0 + profile_.threshold_spread * (2.0 * u - 1.0));
  }

  DisturbanceProfile profile_;
  uint32_t rows_per_bank_;
  uint32_t rows_per_subarray_;
  uint32_t subarrays_per_bank_;
  uint32_t half_row_bits_;
  FastDivider subarray_div_;  // row -> subarray index
  // min(ThresholdAt(0), ThresholdAt(1)): ThresholdAt is monotone in u (each
  // IEEE operation rounds monotonically), so no row's threshold is lower.
  double min_threshold_;
  // slabs_[bank_key * 2 + side][subarray] -> slab (null until touched).
  // bank_key is open-ended (tests use synthetic keys), so the outer vector
  // grows on demand; the inner one is sized subarrays_per_bank_ on first use.
  std::vector<std::vector<std::unique_ptr<VictimState[]>>> slabs_;
  Rng flip_rng_;
  uint64_t total_flip_events_ = 0;
  uint64_t disturb_probes_ = 0;
};

}  // namespace siloz

#endif  // SILOZ_SRC_DRAM_FAULT_MODEL_H_
