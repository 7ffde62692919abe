// Ordered-map Misra-Gries tracker: the differential oracle for TrrTracker.
//
// This is the tracker written the plain way, on std::map<row, count>.
// SelectTargets takes the first entry in iteration order among the largest
// counts. A std::map iterates rows in ascending order, so that is the flat
// TrrTracker's rule (src/dram/trr.h): the highest count, and among equal
// counts the lowest row.
#ifndef SILOZ_TESTS_SUPPORT_TRR_ORACLE_H_
#define SILOZ_TESTS_SUPPORT_TRR_ORACLE_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <vector>

#include "src/dram/trr.h"

namespace siloz {

class MapTrrTracker {
 public:
  explicit MapTrrTracker(const TrrConfig& config) : config_(config) {}

  void OnActivate(uint32_t internal_row) {
    auto it = counts_.find(internal_row);
    if (it != counts_.end()) {
      if (++it->second >= config_.act_threshold) {
        armed_ = true;
      }
      return;
    }
    if (counts_.size() < config_.tracker_entries) {
      counts_.emplace(internal_row, 1);
      if (config_.act_threshold <= 1) {
        armed_ = true;
      }
      return;
    }
    for (auto iter = counts_.begin(); iter != counts_.end();) {
      if (iter->second <= 1) {
        iter = counts_.erase(iter);
      } else {
        --iter->second;
        ++iter;
      }
    }
    if (armed_) {
      Rearm();
    }
  }

  std::vector<uint32_t> SelectTargets() {
    if (!armed_) {
      return {};
    }
    std::vector<uint32_t> targets;
    for (uint32_t i = 0; i < config_.targets_per_ref; ++i) {
      // First in iteration order among the largest counts.
      auto best = counts_.end();
      for (auto it = counts_.begin(); it != counts_.end(); ++it) {
        if (it->second >= config_.act_threshold &&
            (best == counts_.end() || it->second > best->second)) {
          best = it;
        }
      }
      if (best == counts_.end()) {
        break;
      }
      targets.push_back(best->first);
      best->second = 0;
    }
    Rearm();
    return targets;
  }

  size_t tracked_rows() const { return counts_.size(); }
  bool armed() const { return armed_; }

 private:
  void Rearm() {
    armed_ = false;
    for (const auto& [row, count] : counts_) {
      if (count >= config_.act_threshold) {
        armed_ = true;
        return;
      }
    }
  }

  TrrConfig config_;
  std::map<uint32_t, uint64_t> counts_;
  bool armed_ = false;
};

}  // namespace siloz

#endif  // SILOZ_TESTS_SUPPORT_TRR_ORACLE_H_
