// Process-wide metrics registry: named counters, gauges, and log2-bucketed
// histograms with atomic cells, deterministic at snapshot time.
//
// Each metric is one set of relaxed atomics. Every write in the simulator
// happens at a flush point — a destructor, a fold on the coordinating thread
// after a ParallelFor join, or a serial replay — so no hot loop writes a
// metric, and flushes that do meet stay exact because every cell is atomic.
// Integer addition commutes, so a quiescent snapshot's totals depend only on
// *what* was counted, never on which thread counted it or in what order —
// the property that lets metric values join the determinism contract
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
#include <string>

#include "src/base/mutex.h"

namespace siloz::obs {

enum class Domain : uint8_t {
  kModel = 0,  // deterministic simulated-system facts
  kSched = 1,  // host scheduler behaviour, excluded from determinism diffs
};

const char* DomainName(Domain domain);

// Monotonic event count. Add() is a single relaxed fetch_add.
class Counter {
 public:
  void Add(uint64_t delta) { value_.fetch_add(delta, std::memory_order_relaxed); }
  void Increment() { Add(1); }
  uint64_t Value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
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
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(value, std::memory_order_relaxed);
    buckets_[HistogramBucketIndex(value)].fetch_add(1, std::memory_order_relaxed);
  }

  // Exact once writers are quiescent.
  HistogramSnapshot Snapshot() const;
  void Reset();

 private:
  std::atomic<uint64_t> count_{0};
  std::atomic<uint64_t> sum_{0};
  std::array<std::atomic<uint64_t>, kHistogramBuckets> buckets_{};
};

// Named metric store. Registration (Get*) takes a mutex; updates through
// the returned handles do not.
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
  // Held by value: std::map nodes never move, so handles stay stable.
  template <typename T>
  struct Entry {
    Domain domain = Domain::kModel;
    T metric;
  };

  mutable Mutex mutex_;
  // std::map: iteration is name-sorted, which makes serialization order (and
  // the golden-tested schema) deterministic for free. The mutex guards the
  // map structure (registration, serialization walks); the metrics in it
  // are atomic and updated outside it.
  std::map<std::string, Entry<Counter>> counters_ GUARDED_BY(mutex_);
  std::map<std::string, Entry<Gauge>> gauges_ GUARDED_BY(mutex_);
  std::map<std::string, Entry<Histogram>> histograms_ GUARDED_BY(mutex_);
};

// Serializes Registry::Global() to `path`. Returns false (with a message on
// stderr) if the file cannot be written.
bool WriteMetricsJson(const std::string& path);

}  // namespace siloz::obs

#endif  // SILOZ_SRC_OBS_METRICS_H_
