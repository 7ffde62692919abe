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
// compaction pass. Rows are unique and insertion stamps are unique, so an
// entry's position carries no meaning.
//
// SelectTargets picks the largest count and breaks ties by a fixed
// recency rule. Ties are real (hammered rows often carry equal counts), and
// the rule is part of the model: entries compare newest first by the time
// their bucket `row % 13` last went from empty to non-empty, then newest
// first by insertion time. That equals libstdc++'s std::unordered_map
// iteration order for this table (13 buckets from the first insert, never
// rehashed at <= 12 entries), the order the model's pinned outputs were
// produced under; the rule itself depends on no standard library.
class TrrTracker {
 public:
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
  // The hash-table bucket count the tie-break rule is defined over.
  static constexpr uint32_t kBuckets = 13;

  // Recompute armed_ by scanning the counts (after SelectTargets resets).
  void Rearm();
  // True iff entry `a` precedes entry `b` in the tie-break order.
  bool Precedes(uint32_t a, uint32_t b) const {
    const uint64_t since_a = bucket_since_[rows_[a] % kBuckets];
    const uint64_t since_b = bucket_since_[rows_[b] % kBuckets];
    return since_a != since_b ? since_a > since_b : inserted_[a] > inserted_[b];
  }

  TrrConfig config_;
  uint32_t size_ = 0;
  bool armed_ = false;
  // Insert sequence number; stamps inserted_ and bucket_since_.
  uint64_t next_stamp_ = 0;
  // Structure of arrays: the per-ACT lookup scans rows_ alone, one cache
  // line.
  uint32_t rows_[kMaxEntries] = {};
  uint64_t counts_[kMaxEntries] = {};
  uint64_t inserted_[kMaxEntries] = {};
  // Per bucket: its live entries, and the stamp of the insert that last
  // made it non-empty (meaningful while bucket_live_ is nonzero).
  uint8_t bucket_live_[kBuckets] = {};
  uint64_t bucket_since_[kBuckets] = {};
};

}  // namespace siloz

#endif  // SILOZ_SRC_DRAM_TRR_H_
