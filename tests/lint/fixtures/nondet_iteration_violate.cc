// Fixture: unordered iteration leaking hash order into emitted output, a
// float accumulation, and an element selection. Every loop over an
// unordered container here must be reported by nondet-iteration.
#include <cstdint>
#include <cstdio>
#include <unordered_map>
#include <vector>

void EmitPerVm(const std::unordered_map<int, long>& totals_by_vm) {
  for (const auto& entry : totals_by_vm) {
    printf("vm %d: %ld\n", entry.first, entry.second);
  }
}

double SumRates(const std::unordered_map<int, double>& rate_by_vm) {
  double total = 0.0;
  for (const auto& entry : rate_by_vm) {
    total += entry.second;
  }
  return total;
}

// Anti-idiom for the shard merge: folding per-shard latency sums in hash
// order. Double addition is not associative, so the merged total depends on
// the hash seed — the fold order must be pinned (see the clean fixture).
double MergeShardLatencies(const std::unordered_map<int, double>& latency_by_shard) {
  double merged_latency = 0.0;
  for (const auto& entry : latency_by_shard) {
    merged_latency += entry.second;
  }
  return merged_latency;
}

// Anti-idiom for the sub-channel queue fold (DESIGN.md §15): a shard's
// per-bank-group queue tails keyed by queue id in a hash map, folded in
// hash order. The shard elapsed is the max (associative — but the same
// hash-order loop invariably grows a latency sum next to it), and the
// emission leaks queue order into the report. Keep queue state in a vector
// indexed by queue id instead (see the clean fixture).
double FoldQueueTails(const std::unordered_map<int, double>& tail_by_queue) {
  double queue_latency_sum = 0.0;
  for (const auto& entry : tail_by_queue) {
    queue_latency_sum += entry.second;
  }
  return queue_latency_sum;
}

// Anti-idiom for TRR target selection: the hash-map Misra-Gries tracker
// picked the largest count with `best = it`, so among equal counts the row
// the hash order visited first won. It emits nothing and sums no floats, yet
// the chosen row decides which victims get refreshed. The flat tracker in
// src/dram/trr.h states its tie-break rule instead.
class HashTrrTracker {
 public:
  std::vector<uint32_t> SelectTargets() {
    std::vector<uint32_t> targets;
    for (uint32_t i = 0; i < targets_per_ref_; ++i) {
      auto best = counts_.end();
      for (auto it = counts_.begin(); it != counts_.end(); ++it) {
        if (it->second >= act_threshold_ &&
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
    return targets;
  }

 private:
  std::unordered_map<uint32_t, uint64_t> counts_;
  uint64_t act_threshold_ = 512;
  uint32_t targets_per_ref_ = 1;
};
