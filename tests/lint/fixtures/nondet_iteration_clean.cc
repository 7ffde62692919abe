// Fixture: order-safe uses of unordered containers — integer reductions
// (commutative, order-invisible) and emission from a sorted copy. Zero
// findings expected.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <map>
#include <unordered_map>
#include <vector>

long CountEvents(const std::unordered_map<int, long>& totals_by_vm) {
  long event_count = 0;
  for (const auto& entry : totals_by_vm) {
    event_count += entry.second;
  }
  return event_count;
}

// The activation-profile window roll: an integer max is exact and
// commutative, so the hash order cannot show in the result, unlike an
// assignment of the element itself (see the violate fixture's TRR tracker).
uint64_t MaxRowActs(const std::unordered_map<uint64_t, uint64_t>& acts_by_row) {
  uint64_t max_row_acts = 0;
  for (const auto& [row, count] : acts_by_row) {
    max_row_acts = std::max(max_row_acts, count);
  }
  return max_row_acts;
}

void EmitSorted(const std::unordered_map<int, long>& totals_by_vm) {
  std::map<int, long> sorted(totals_by_vm.begin(), totals_by_vm.end());
  for (const auto& entry : sorted) {
    printf("vm %d: %ld\n", entry.first, entry.second);
  }
}

// The shard-merge idiom (DESIGN.md §13): per-shard results live in a vector
// indexed by shard id and are folded in ascending shard order, so the
// non-associative double sum is a pure function of the shard sequence.
double MergeShardLatencies(const std::vector<double>& latency_by_shard) {
  double merged_latency = 0.0;
  for (size_t shard = 0; shard < latency_by_shard.size(); ++shard) {
    merged_latency += latency_by_shard[shard];
  }
  return merged_latency;
}

// The sub-channel queue fold idiom (DESIGN.md §15): a shard's per-bank-group
// queue windows live in a vector indexed by queue id (the queue route is a
// pure function of the bank index, so the id order is pinned by
// construction), and the shard tail folds in ascending queue order — the
// same pinned-order discipline as the shard merge, one level down.
double FoldQueueTails(const std::vector<double>& tail_by_queue) {
  double shard_tail = 0.0;
  for (size_t queue = 0; queue < tail_by_queue.size(); ++queue) {
    shard_tail += tail_by_queue[queue];
  }
  return shard_tail;
}
