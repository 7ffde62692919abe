#include "src/dram/trr.h"

#include "src/base/check.h"

namespace siloz {

TrrTracker::TrrTracker(const TrrConfig& config) : config_(config) {
  SILOZ_CHECK_LE(config_.tracker_entries, kMaxEntries)
      << "the TRR tracker's fixed storage holds at most " << kMaxEntries << " entries";
}

void TrrTracker::Rearm() {
  armed_ = false;
  for (uint32_t i = 0; i < size_; ++i) {
    if (counts_[i] >= config_.act_threshold) {
      armed_ = true;
      return;
    }
  }
}

void TrrTracker::OnActivate(uint32_t internal_row) {
  for (uint32_t i = 0; i < size_; ++i) {
    if (rows_[i] == internal_row) {
      if (++counts_[i] >= config_.act_threshold) {
        armed_ = true;
      }
      return;
    }
  }
  if (size_ < config_.tracker_entries) {
    rows_[size_] = internal_row;
    counts_[size_] = 1;
    ++size_;
    if (config_.act_threshold <= 1) {
      armed_ = true;
    }
    return;
  }
  // Misra-Gries: a new row with a full table decrements every counter; rows
  // reaching zero are evicted, and so are targets SelectTargets already
  // reset to zero (decrementing those would wrap). Many-sided patterns
  // exploit exactly this to flush true aggressors with decoys. One
  // compaction pass drops them and re-derives armed_: a count sitting
  // exactly at the threshold may just have dropped below it.
  uint32_t kept = 0;
  armed_ = false;
  for (uint32_t i = 0; i < size_; ++i) {
    if (counts_[i] <= 1) {
      continue;
    }
    rows_[kept] = rows_[i];
    counts_[kept] = counts_[i] - 1;
    armed_ = armed_ || counts_[kept] >= config_.act_threshold;
    ++kept;
  }
  size_ = kept;
}

std::vector<uint32_t> TrrTracker::SelectTargets() {
  if (!armed_) {
    return {};
  }
  std::vector<uint32_t> targets;
  for (uint32_t t = 0; t < config_.targets_per_ref; ++t) {
    uint32_t best = size_;
    for (uint32_t i = 0; i < size_; ++i) {
      if (counts_[i] < config_.act_threshold) {
        continue;
      }
      if (best == size_ || counts_[i] > counts_[best] ||
          (counts_[i] == counts_[best] && rows_[i] < rows_[best])) {
        best = i;
      }
    }
    if (best == size_) {
      break;
    }
    targets.push_back(rows_[best]);
    counts_[best] = 0;  // handled; leave the entry so steady hammering re-arms it
  }
  Rearm();
  return targets;
}

}  // namespace siloz
