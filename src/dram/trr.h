// Target Row Refresh (TRR) model (§2.5).
//
// Deployed in-DRAM TRR tracks frequently-activated rows with a small amount
// of per-bank state and refreshes a subset of their victims ahead of
// schedule. It stops naive double-sided hammering but — because the tracker
// is tiny — can be evicted by many-sided patterns with decoy rows, which is
// exactly how Blacksmith-class fuzzers (and src/attack here) defeat it.
//
// The tracker is Misra-Gries frequent-item estimation over internal row
// addresses, per (rank, bank, side) as real per-chip TRR would be.
#ifndef SILOZ_SRC_DRAM_TRR_H_
#define SILOZ_SRC_DRAM_TRR_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace siloz {

struct TrrConfig {
  bool enabled = true;
  // Tracker entries per (rank, bank, side). Real devices are believed to
  // track on the order of a dozen rows.
  uint32_t tracker_entries = 12;
  // Aggressors whose neighbourhoods are refreshed per REF tick.
  uint32_t targets_per_ref = 1;
  // Neighbour radius refreshed around a suspected aggressor.
  uint32_t victim_radius = 2;
  // Minimum tracked count before a row is considered worth refreshing.
  uint64_t act_threshold = 512;
};

// Misra-Gries tracker for one (rank, bank, side), in fixed arrays of at most
// kMaxEntries rows: lookups are linear scans, and an eviction is one
// compaction pass. Rows are unique, so an entry's position carries no
// meaning.
//
// SelectTargets picks the highest count, and among equal counts the lowest
// row. Ties are real (hammered rows often carry equal counts), and the rule
// is part of the model: it depends only on the tracked rows and counts,
// never on the order they arrived in.
class TrrTracker {
 public:
  // The bound on the tracker's fixed storage.
  static constexpr uint32_t kMaxEntries = 12;

  // CHECKs config.tracker_entries <= kMaxEntries.
  explicit TrrTracker(const TrrConfig& config);

  // Record an activation of `internal_row`.
  void OnActivate(uint32_t internal_row);

  // Called on each REF tick; returns the aggressor rows whose neighbourhoods
  // the device will proactively refresh (their counters reset).
  std::vector<uint32_t> SelectTargets();

  size_t tracked_rows() const { return size_; }

  // True iff some tracked count has reached act_threshold — i.e. the next
  // SelectTargets() call would pick a target. Maintained exactly across
  // every mutation, so REF ticks can skip banks where SelectTargets() would
  // be a no-op (idle refresh windows between hammer patterns are thousands
  // of such ticks per bank).
  bool armed() const { return armed_; }

 private:
  // Recompute armed_ by scanning the counts (after SelectTargets resets).
  void Rearm();

  TrrConfig config_;
  uint32_t size_ = 0;
  bool armed_ = false;
  // Structure of arrays: the per-ACT lookup scans rows_ alone, one cache
  // line.
  uint32_t rows_[kMaxEntries] = {};
  uint64_t counts_[kMaxEntries] = {};
};

}  // namespace siloz

#endif  // SILOZ_SRC_DRAM_TRR_H_
