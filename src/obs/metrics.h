// Process-wide metrics registry: named counters, gauges, and log2-bucketed
// histograms, lock-free on the hot path and deterministic at snapshot time.
//
// Hot-path writes go to one of a fixed set of cache-line-padded atomic
// shards selected by a thread-local index, so concurrent writers never
// contend on a line. Snapshots sum the shards in shard-index order; integer
// addition commutes, so a quiescent snapshot's totals depend only on *what*
// was counted, never on which thread counted it or in what order — the
// property that lets metric values join the determinism contract
// (DESIGN.md §8/§9): model-domain metrics are bit-identical for every
// `--threads N`.
//
// Two metric domains keep that contract honest:
//  - Domain::kModel: facts about the simulated system (DRAM commands,
//    allocations, flips). Thread-count-invariant by construction; the
//    determinism tests and the CI diff compare only this section.
//  - Domain::kSched: facts about the host execution (task and worker
//    counts). Legitimately vary run to run; excluded from diffs.
//
// Handles returned by Registry::Get* are stable for the registry's lifetime:
// Reset() zeroes every value but never destroys a metric, so callers may
// cache references (e.g. in function-local statics).
//
// This library sits below src/base (the thread pool reports into it), so it
// depends only on the standard library and the header-only check macros.
#ifndef SILOZ_SRC_OBS_METRICS_H_
#define SILOZ_SRC_OBS_METRICS_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/base/mutex.h"

namespace siloz::obs {

enum class Domain : uint8_t {
  kModel = 0,  // deterministic simulated-system facts
  kSched = 1,  // host scheduler behaviour, excluded from determinism diffs
};

const char* DomainName(Domain domain);

// Number of write shards per metric. A power of two so the thread-local
// shard index reduces with a mask; 16 covers typical core counts without
// bloating per-metric memory.
inline constexpr size_t kMetricShards = 16;

// Stable per-thread shard index in [0, kMetricShards).
size_t ThreadShardIndex();

namespace internal {
// One cache line per shard so concurrent writers never false-share.
struct alignas(64) CounterShard {
  std::atomic<uint64_t> value{0};
};
}  // namespace internal

// Monotonic event count. Add() is a single relaxed fetch_add on the calling
// thread's shard.
class Counter {
 public:
  void Add(uint64_t delta) {
    shards_[ThreadShardIndex()].value.fetch_add(delta, std::memory_order_relaxed);
  }
  void Increment() { Add(1); }

  // Sum over shards in shard-index order. Exact once writers are quiescent.
  uint64_t Value() const;
  void Reset();

 private:
  std::array<internal::CounterShard, kMetricShards> shards_;
};

// Last-writer-wins signed level (pool sizes, free-page counts).
class Gauge {
 public:
  void Set(int64_t value) { value_.store(value, std::memory_order_relaxed); }
  void Add(int64_t delta) { value_.fetch_add(delta, std::memory_order_relaxed); }
  int64_t Value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { Set(0); }

 private:
  std::atomic<int64_t> value_{0};
};

// Log2-bucketed distribution of uint64 samples. Bucket 0 holds the value 0;
// bucket i >= 1 holds [2^(i-1), 2^i). 65 buckets cover the full range.
inline constexpr size_t kHistogramBuckets = 65;

size_t HistogramBucketIndex(uint64_t value);
// Inclusive lower bound of a bucket (0 for bucket 0, else 2^(i-1)).
uint64_t HistogramBucketLowerBound(size_t bucket);

struct HistogramSnapshot {
  uint64_t count = 0;
  uint64_t sum = 0;
  std::array<uint64_t, kHistogramBuckets> buckets{};
};

// Percentile estimate from a log2-bucketed snapshot; `quantile` in [0, 1]
// (clamped). The sample ranked ceil(quantile * count) in sorted order lands
// in some bucket; the estimate is that bucket's inclusive lower bound —
// exact for the zero bucket, within 2x elsewhere, which is the resolution a
// log2 layout affords. Returns 0 for an empty histogram. The fleet
// tail-latency report extracts p50/p99/p999 through this.
uint64_t HistogramPercentile(const HistogramSnapshot& snapshot, double quantile);

class Histogram {
 public:
  void Observe(uint64_t value) {
    Shard& shard = shards_[ThreadShardIndex()];
    shard.count.fetch_add(1, std::memory_order_relaxed);
    shard.sum.fetch_add(value, std::memory_order_relaxed);
    shard.buckets[HistogramBucketIndex(value)].fetch_add(1, std::memory_order_relaxed);
  }

  // Merged over shards in shard-index order.
  HistogramSnapshot Snapshot() const;
  void Reset();

 private:
  struct alignas(64) Shard {
    std::atomic<uint64_t> count{0};
    std::atomic<uint64_t> sum{0};
    std::array<std::atomic<uint64_t>, kHistogramBuckets> buckets{};
  };
  std::array<Shard, kMetricShards> shards_;
};

// Named metric store. Registration (Get*) takes a mutex — do it once and
// cache the reference; updates through the returned handles are lock-free.
class Registry {
 public:
  // The process-wide registry every instrumented component reports into.
  static Registry& Global();

  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  // Returns the metric named `name`, creating it on first use. A name is
  // bound to one kind and one domain for the registry's lifetime;
  // re-requesting with a different domain is a programmer error (CHECK).
  Counter& GetCounter(const std::string& name, Domain domain = Domain::kModel);
  Gauge& GetGauge(const std::string& name, Domain domain = Domain::kModel);
  Histogram& GetHistogram(const std::string& name, Domain domain = Domain::kModel);

  // Zeroes every value. Metrics (and handles to them) survive.
  void Reset();

  // Full document: {"schema":1,"model":{...},"sched":{...}}. Names sorted,
  // integers only — byte-stable given equal values.
  std::string ToJson() const;
  // One domain's section alone: {"counters":{...},"gauges":{...},
  // "histograms":{...}}. The determinism tests and the CI metrics diff
  // compare SectionJson(Domain::kModel).
  std::string SectionJson(Domain domain) const;

 private:
  template <typename T>
  struct Entry {
    Domain domain = Domain::kModel;
    std::unique_ptr<T> metric;
  };

  mutable Mutex mutex_;
  // std::map: iteration is name-sorted, which makes serialization order (and
  // the golden-tested schema) deterministic for free. The mutex guards the
  // map structure (registration, serialization walks); the metric objects
  // pointed to are lock-free and updated outside it.
  std::map<std::string, Entry<Counter>> counters_ GUARDED_BY(mutex_);
  std::map<std::string, Entry<Gauge>> gauges_ GUARDED_BY(mutex_);
  std::map<std::string, Entry<Histogram>> histograms_ GUARDED_BY(mutex_);
};

// Shard-local metric staging for fan-out phases (DESIGN.md §13).
//
// A worker task counts into a private ShardMetrics — plain integers, no
// atomics, no registration mutex — and the coordinator folds every shard's
// buffer into the registry *after* the barrier, in fixed shard order. The
// folded values are sums, so they are thread-count-invariant either way;
// what the staged fold adds is (a) a deterministic registration order for
// names first created by worker tasks, and (b) zero registry traffic from
// the hot loops. Entries keep first-touch order; with the shard's metric
// set small (a handful of names), the linear probe beats a map.
class ShardMetrics {
 public:
  void Add(const std::string& name, uint64_t delta, Domain domain = Domain::kModel);

  // Applies every staged delta to `registry` in first-touch order. Call from
  // one thread per fold (the coordinator's merge loop).
  void FoldInto(Registry& registry) const;

 private:
  struct Entry {
    std::string name;
    Domain domain = Domain::kModel;
    uint64_t value = 0;
  };
  std::vector<Entry> entries_;
};

// Serializes Registry::Global() to `path`. Returns false (with a message on
// stderr) if the file cannot be written.
bool WriteMetricsJson(const std::string& path);

}  // namespace siloz::obs

#endif  // SILOZ_SRC_OBS_METRICS_H_
