// Closed-loop engine vocabulary: models cores issuing memory requests with
// bounded memory-level parallelism.
//
// EngineConfig is the per-queue closed-loop shape (outstanding misses, compute
// gap between issues), EngineResult what one closed loop reports, and
// CompletionWindow the bounded in-flight multiset every command queue stalls
// on. The one production serve engine built from them is ShardServer
// (sharded_engine.h); the single-window serial loop that predates it lives on
// only as the differential oracle in tests/support/serial_engine.h.
#ifndef SILOZ_SRC_MEMCTL_ENGINE_H_
#define SILOZ_SRC_MEMCTL_ENGINE_H_

#include <bit>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include "src/base/check.h"

namespace siloz {

struct EngineConfig {
  // Outstanding requests the core(s) sustain (MLP). 10 approximates one
  // aggressive core; multi-threaded workloads use higher effective values.
  uint32_t max_outstanding = 10;
  // Nanoseconds of compute between consecutive issues (0 = memory-bound).
  double compute_ns_per_access = 0.0;
};

struct EngineResult {
  double elapsed_ns = 0.0;
  uint64_t requests = 0;

  double bandwidth_gib_per_s(double bytes_per_request = 64.0) const {
    if (elapsed_ns <= 0.0) {
      return 0.0;
    }
    return static_cast<double>(requests) * bytes_per_request / elapsed_ns *
           (1e9 / (1024.0 * 1024.0 * 1024.0));
  }
};

namespace engine_internal {

// The closed loop observes exactly one property of the in-flight multiset:
// its minimum (the oldest completion, which frees the issue slot). For the
// MLP windows real cores sustain (8-16) a linear scan over a flat array is
// fastest: completion times arrive in near-random order, so tree-walk
// comparisons are data-dependent, while the scan compiles to conditional
// moves. The cmov chain is a serial ~2-cycles-per-element dependence though,
// so for the wide windows the MLC-style saturation probes use (64
// outstanding) an O(log n) structure wins decisively — hence the low
// cutover.
inline constexpr uint32_t kLinearWindowLimit = 16;

// Bounded multiset of in-flight completion times exposing its minimum — the
// window structure behind every ShardServer command queue (and the serial
// test oracle). Two representations behind one interface:
//
//  - capacity <= kLinearWindowLimit: a flat array min-scanned per query.
//  - above: a tournament (winner) tree over a power-of-two leaf array padded
//    with +inf. Internal node j caches the leaf index of the minimum in its
//    subtree, so MinSlot() is one array read and Replace() walks one
//    leaf-to-root path of branchless index selections (~log2(capacity)
//    cmovs). A binary heap's replace-min pays the same depth but with
//    data-dependent *layout* movement per level; the tree only rewrites its
//    cached winner indices, and was measured faster on the Fig 5 sweep's
//    64-wide windows.
//
// Either way the window holds the same value multiset and callers observe
// only minimum *values* (ties between equal minima are irrelevant: replacing
// either slot yields the same multiset), so engine results are bit-identical
// across representations and capacities on either side of the cutover
// behave consistently.
class CompletionWindow {
 public:
  explicit CompletionWindow(uint32_t capacity)
      : capacity_(capacity), linear_(capacity <= kLinearWindowLimit) {
    SILOZ_CHECK_GT(capacity, 0u);
    if (linear_) {
      values_.reserve(capacity_);
    } else {
      leaves_ = std::bit_ceil(static_cast<size_t>(capacity_));
      values_.assign(leaves_, std::numeric_limits<double>::infinity());
      winners_.assign(leaves_, 0);
      // Seed every internal node with the leftmost leaf of its subtree —
      // consistent with the all-+inf leaves, where the left child wins every
      // tie.
      for (size_t j = leaves_ - 1; j >= 1; --j) {
        winners_[j] =
            (j >= leaves_ / 2) ? static_cast<uint32_t>(2 * j - leaves_) : winners_[2 * j];
      }
    }
  }

  bool full() const { return size_ >= capacity_; }

  // Slot holding the minimum (only meaningful once full()).
  size_t MinSlot() const {
    if (!linear_) {
      return winners_[1];
    }
    size_t best = 0;
    double bestv = values_[0];
    for (size_t i = 1; i < values_.size(); ++i) {
      const bool lt = values_[i] < bestv;
      best = lt ? i : best;
      bestv = lt ? values_[i] : bestv;
    }
    return best;
  }

  double ValueAt(size_t slot) const { return values_[slot]; }

  void Replace(size_t slot, double value) {
    values_[slot] = value;
    if (!linear_) {
      UpdateFrom(slot);
    }
  }

  // Insert into the next free slot (warmup; callers Push only while !full()).
  void Push(double value) {
    if (linear_) {
      values_.push_back(value);
    } else {
      values_[size_] = value;
      UpdateFrom(size_);
    }
    ++size_;
  }

 private:
  // Replay the matches on the leaf's path to the root. The first level
  // compares the two leaves directly; every level above selects between two
  // cached winner indices.
  void UpdateFrom(size_t leaf) {
    const size_t base = leaf & ~size_t{1};
    size_t j = (leaf + leaves_) >> 1;
    winners_[j] = static_cast<uint32_t>(values_[base + 1] < values_[base] ? base + 1 : base);
    for (j >>= 1; j >= 1; j >>= 1) {
      const uint32_t a = winners_[2 * j];
      const uint32_t b = winners_[2 * j + 1];
      winners_[j] = values_[b] < values_[a] ? b : a;
    }
  }

  uint32_t capacity_;
  bool linear_;
  size_t leaves_ = 0;  // bit_ceil(capacity), tree mode only
  size_t size_ = 0;
  std::vector<double> values_;    // linear: grows to capacity; tree: +inf-padded leaves
  std::vector<uint32_t> winners_;  // tree: internal nodes [1, leaves_), leaf index of min
};

}  // namespace engine_internal

}  // namespace siloz

#endif  // SILOZ_SRC_MEMCTL_ENGINE_H_
