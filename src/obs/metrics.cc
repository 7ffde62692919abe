#include "src/obs/metrics.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <sstream>

#include "src/base/check.h"

namespace siloz::obs {

const char* DomainName(Domain domain) {
  return domain == Domain::kModel ? "model" : "sched";
}

size_t HistogramBucketIndex(uint64_t value) {
  return static_cast<size_t>(std::bit_width(value));
}

uint64_t HistogramBucketLowerBound(size_t bucket) {
  return bucket == 0 ? 0 : uint64_t{1} << (bucket - 1);
}

uint64_t HistogramPercentile(const HistogramSnapshot& snapshot, double quantile) {
  if (snapshot.count == 0) {
    return 0;
  }
  if (quantile < 0.0) {
    quantile = 0.0;
  } else if (quantile > 1.0) {
    quantile = 1.0;
  }
  // 1-based rank of the requested sample. ceil() keeps the convention that
  // p100 of n samples is the n-th and p0 is the 1st; the min/max clamps
  // absorb floating-point slop at the ends.
  uint64_t rank =
      static_cast<uint64_t>(std::ceil(quantile * static_cast<double>(snapshot.count)));
  rank = std::max<uint64_t>(1, std::min(rank, snapshot.count));
  uint64_t seen = 0;
  for (size_t b = 0; b < kHistogramBuckets; ++b) {
    seen += snapshot.buckets[b];
    if (seen >= rank) {
      return HistogramBucketLowerBound(b);
    }
  }
  return HistogramBucketLowerBound(kHistogramBuckets - 1);
}

HistogramSnapshot Histogram::Snapshot() const {
  HistogramSnapshot snapshot;
  snapshot.count = count_.load(std::memory_order_relaxed);
  snapshot.sum = sum_.load(std::memory_order_relaxed);
  for (size_t b = 0; b < kHistogramBuckets; ++b) {
    snapshot.buckets[b] = buckets_[b].load(std::memory_order_relaxed);
  }
  return snapshot;
}

void Histogram::Reset() {
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0, std::memory_order_relaxed);
  for (std::atomic<uint64_t>& bucket : buckets_) {
    bucket.store(0, std::memory_order_relaxed);
  }
}

Registry& Registry::Global() {
  static Registry* registry = new Registry();  // leaked: outlives static dtors
  return *registry;
}

namespace {

template <typename Map>
auto& GetOrCreate(Map& map, const std::string& name, Domain domain) {
  auto [it, inserted] = map.try_emplace(name);
  if (inserted) {
    it->second.domain = domain;
  } else {
    SILOZ_CHECK(it->second.domain == domain)
        << "metric '" << name << "' re-registered in domain " << DomainName(domain)
        << ", first registered in " << DomainName(it->second.domain);
  }
  return it->second.metric;
}

// Minimal JSON string escaping; metric names are code-controlled but the
// serializer must never emit an invalid document.
void AppendEscaped(std::ostringstream& out, const std::string& text) {
  for (char c : text) {
    switch (c) {
      case '"':
        out << "\\\"";
        break;
      case '\\':
        out << "\\\\";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buffer[8];
          std::snprintf(buffer, sizeof(buffer), "\\u%04x", c);
          out << buffer;
        } else {
          out << c;
        }
    }
  }
}

void AppendHistogram(std::ostringstream& out, const HistogramSnapshot& snapshot) {
  out << "{\"count\":" << snapshot.count << ",\"sum\":" << snapshot.sum << ",\"buckets\":[";
  bool first = true;
  for (size_t b = 0; b < kHistogramBuckets; ++b) {
    if (snapshot.buckets[b] == 0) {
      continue;  // sparse: empty buckets carry no information
    }
    if (!first) {
      out << ",";
    }
    first = false;
    out << "[" << HistogramBucketLowerBound(b) << "," << snapshot.buckets[b] << "]";
  }
  out << "]}";
}

void AppendValue(std::ostringstream& out, const Counter& counter) { out << counter.Value(); }
void AppendValue(std::ostringstream& out, const Gauge& gauge) { out << gauge.Value(); }
void AppendValue(std::ostringstream& out, const Histogram& histogram) {
  AppendHistogram(out, histogram.Snapshot());
}

// Writes `"key":{"name":value,...}` for the entries of `map` in `domain`.
template <typename Map>
void AppendSection(std::ostringstream& out, const char* key, const Map& map, Domain domain) {
  out << "\"" << key << "\":{";
  bool first = true;
  for (const auto& [name, entry] : map) {
    if (entry.domain != domain) {
      continue;
    }
    if (!first) {
      out << ",";
    }
    first = false;
    out << "\"";
    AppendEscaped(out, name);
    out << "\":";
    AppendValue(out, entry.metric);
  }
  out << "}";
}

}  // namespace

Counter& Registry::GetCounter(const std::string& name, Domain domain) {
  MutexLock lock(mutex_);
  return GetOrCreate(counters_, name, domain);
}

Gauge& Registry::GetGauge(const std::string& name, Domain domain) {
  MutexLock lock(mutex_);
  return GetOrCreate(gauges_, name, domain);
}

Histogram& Registry::GetHistogram(const std::string& name, Domain domain) {
  MutexLock lock(mutex_);
  return GetOrCreate(histograms_, name, domain);
}

void Registry::Reset() {
  MutexLock lock(mutex_);
  for (auto& [name, entry] : counters_) {
    entry.metric.Reset();
  }
  for (auto& [name, entry] : gauges_) {
    entry.metric.Reset();
  }
  for (auto& [name, entry] : histograms_) {
    entry.metric.Reset();
  }
}

std::string Registry::SectionJson(Domain domain) const {
  MutexLock lock(mutex_);
  std::ostringstream out;
  out << "{";
  AppendSection(out, "counters", counters_, domain);
  out << ",";
  AppendSection(out, "gauges", gauges_, domain);
  out << ",";
  AppendSection(out, "histograms", histograms_, domain);
  out << "}";
  return out.str();
}

std::string Registry::ToJson() const {
  std::ostringstream out;
  out << "{\"schema\":1,\"model\":" << SectionJson(Domain::kModel)
      << ",\"sched\":" << SectionJson(Domain::kSched) << "}";
  return out.str();
}

bool WriteMetricsJson(const std::string& path) {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) {
    std::fprintf(stderr, "metrics: cannot open '%s' for writing\n", path.c_str());
    return false;
  }
  const std::string json = Registry::Global().ToJson();
  const bool ok = std::fwrite(json.data(), 1, json.size(), file) == json.size() &&
                  std::fputc('\n', file) != EOF;
  std::fclose(file);
  if (!ok) {
    std::fprintf(stderr, "metrics: short write to '%s'\n", path.c_str());
  }
  return ok;
}

}  // namespace siloz::obs
