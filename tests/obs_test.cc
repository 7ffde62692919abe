// Unit battery for the observability layer (src/obs): counter / gauge /
// histogram semantics, concurrent-write determinism, snapshot idempotence, and
// trace-export well-formedness. The exported JSON is parsed back with a
// minimal recursive-descent parser defined below — the trace file must be
// loadable by chrome://tracing, so "it looks like JSON" is not enough.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/obs/metrics.h"
#include "src/obs/trace.h"

namespace siloz {
namespace {

using obs::Counter;
using obs::Domain;
using obs::Gauge;
using obs::Histogram;
using obs::HistogramSnapshot;
using obs::Registry;
using obs::Tracer;
using obs::TraceSpan;

// --- Minimal JSON parser (tests only) ---------------------------------------
//
// Parses the subset the exporters emit: objects, arrays, strings with \" \\
// and \uXXXX escapes, integers (optionally negative), and the three literals.
// Object members keep insertion order so tests can assert serialization
// order, not just key sets.

struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  bool boolean = false;
  int64_t number = 0;
  std::string string;
  std::vector<JsonValue> array;
  std::vector<std::pair<std::string, JsonValue>> members;

  const JsonValue* Find(const std::string& key) const {
    for (const auto& [name, value] : members) {
      if (name == key) {
        return &value;
      }
    }
    return nullptr;
  }
};

class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : text_(text) {}

  // Parses the whole document; fails the calling test on any syntax error.
  JsonValue Parse() {
    JsonValue value = ParseValue();
    SkipSpace();
    EXPECT_EQ(pos_, text_.size()) << "trailing bytes after JSON document";
    return value;
  }

 private:
  char Peek() {
    if (pos_ >= text_.size()) {
      ADD_FAILURE() << "unexpected end of JSON at offset " << pos_;
      return '\0';
    }
    return text_[pos_];
  }

  void Expect(char c) {
    if (Peek() != c) {
      ADD_FAILURE() << "expected '" << c << "' at offset " << pos_ << ", got '" << Peek() << "'";
    }
    ++pos_;
  }

  void SkipSpace() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  std::string ParseString() {
    Expect('"');
    std::string out;
    while (pos_ < text_.size() && text_[pos_] != '"') {
      char c = text_[pos_++];
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      char escape = text_[pos_++];
      switch (escape) {
        case '"':
        case '\\':
        case '/':
          out.push_back(escape);
          break;
        case 'n':
          out.push_back('\n');
          break;
        case 't':
          out.push_back('\t');
          break;
        case 'u': {
          unsigned code = 0;
          std::sscanf(text_.substr(pos_, 4).c_str(), "%4x", &code);
          pos_ += 4;
          out.push_back(static_cast<char>(code));  // exporters only escape < 0x20
          break;
        }
        default:
          ADD_FAILURE() << "unsupported escape '\\" << escape << "'";
      }
    }
    Expect('"');
    return out;
  }

  JsonValue ParseValue() {
    SkipSpace();
    JsonValue value;
    char c = Peek();
    if (c == '{') {
      ++pos_;
      value.kind = JsonValue::Kind::kObject;
      SkipSpace();
      if (Peek() == '}') {
        ++pos_;
        return value;
      }
      while (true) {
        SkipSpace();
        std::string key = ParseString();
        SkipSpace();
        Expect(':');
        value.members.emplace_back(std::move(key), ParseValue());
        SkipSpace();
        if (Peek() == ',') {
          ++pos_;
          continue;
        }
        Expect('}');
        return value;
      }
    }
    if (c == '[') {
      ++pos_;
      value.kind = JsonValue::Kind::kArray;
      SkipSpace();
      if (Peek() == ']') {
        ++pos_;
        return value;
      }
      while (true) {
        value.array.push_back(ParseValue());
        SkipSpace();
        if (Peek() == ',') {
          ++pos_;
          continue;
        }
        Expect(']');
        return value;
      }
    }
    if (c == '"') {
      value.kind = JsonValue::Kind::kString;
      value.string = ParseString();
      return value;
    }
    if (c == 't' || c == 'f') {
      value.kind = JsonValue::Kind::kBool;
      value.boolean = (c == 't');
      pos_ += value.boolean ? 4 : 5;
      return value;
    }
    if (c == 'n') {
      pos_ += 4;
      return value;
    }
    value.kind = JsonValue::Kind::kNumber;
    bool negative = false;
    if (c == '-') {
      negative = true;
      ++pos_;
    }
    int64_t magnitude = 0;
    bool any_digit = false;
    while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') {
      magnitude = magnitude * 10 + (text_[pos_] - '0');
      ++pos_;
      any_digit = true;
    }
    EXPECT_TRUE(any_digit) << "expected number at offset " << pos_;
    value.number = negative ? -magnitude : magnitude;
    return value;
  }

  const std::string& text_;
  size_t pos_ = 0;
};

JsonValue ParseJson(const std::string& text) { return JsonParser(text).Parse(); }

// --- Counter ----------------------------------------------------------------

TEST(CounterTest, AddAndIncrementAccumulate) {
  Counter counter;
  EXPECT_EQ(counter.Value(), 0u);
  counter.Increment();
  counter.Add(41);
  EXPECT_EQ(counter.Value(), 42u);
  counter.Reset();
  EXPECT_EQ(counter.Value(), 0u);
}

TEST(CounterTest, ConcurrentAddsSumExactly) {
  // Eight threads add to one cell; the total must be exact, not
  // approximate — lost updates would silently break the determinism contract.
  Counter counter;
  constexpr int kThreads = 8;
  constexpr uint64_t kPerThread = 50000;
  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&counter] {
      for (uint64_t i = 0; i < kPerThread; ++i) {
        counter.Increment();
      }
    });
  }
  for (std::thread& writer : writers) {
    writer.join();
  }
  EXPECT_EQ(counter.Value(), kThreads * kPerThread);
}

// --- Gauge ------------------------------------------------------------------

TEST(GaugeTest, SetAddResetAndNegativeValues) {
  Gauge gauge;
  gauge.Set(10);
  EXPECT_EQ(gauge.Value(), 10);
  gauge.Add(-25);
  EXPECT_EQ(gauge.Value(), -15);
  gauge.Reset();
  EXPECT_EQ(gauge.Value(), 0);
}

// --- Histogram --------------------------------------------------------------

TEST(HistogramTest, BucketIndexBoundaries) {
  // Bucket 0 holds exactly the value 0; bucket i >= 1 holds [2^(i-1), 2^i).
  EXPECT_EQ(obs::HistogramBucketIndex(0), 0u);
  EXPECT_EQ(obs::HistogramBucketIndex(1), 1u);
  EXPECT_EQ(obs::HistogramBucketIndex(2), 2u);
  EXPECT_EQ(obs::HistogramBucketIndex(3), 2u);
  EXPECT_EQ(obs::HistogramBucketIndex(4), 3u);
  EXPECT_EQ(obs::HistogramBucketIndex((1ull << 32) - 1), 32u);
  EXPECT_EQ(obs::HistogramBucketIndex(1ull << 32), 33u);
  EXPECT_EQ(obs::HistogramBucketIndex(~0ull), 64u);
  for (size_t bucket = 0; bucket < obs::kHistogramBuckets; ++bucket) {
    // The lower bound of every bucket maps back into that bucket.
    EXPECT_EQ(obs::HistogramBucketIndex(obs::HistogramBucketLowerBound(bucket)), bucket);
  }
}

TEST(HistogramTest, SnapshotCountsSumAndBuckets) {
  Histogram histogram;
  for (uint64_t value : {0ull, 1ull, 5ull, 5ull, 1024ull}) {
    histogram.Observe(value);
  }
  HistogramSnapshot snapshot = histogram.Snapshot();
  EXPECT_EQ(snapshot.count, 5u);
  EXPECT_EQ(snapshot.sum, 1035u);
  EXPECT_EQ(snapshot.buckets[0], 1u);   // value 0
  EXPECT_EQ(snapshot.buckets[1], 1u);   // value 1
  EXPECT_EQ(snapshot.buckets[3], 2u);   // 5 in [4, 8)
  EXPECT_EQ(snapshot.buckets[11], 1u);  // 1024 in [1024, 2048)
  uint64_t total = 0;
  for (uint64_t bucket : snapshot.buckets) {
    total += bucket;
  }
  EXPECT_EQ(total, snapshot.count);
}

TEST(HistogramTest, ConcurrentObservationMatchesSerial) {
  // The same multiset observed from 8 threads and from 1 thread must produce
  // identical snapshots: every cell is a sum, so interleaving cannot show
  // through.
  std::vector<uint64_t> samples;
  for (uint64_t i = 0; i < 4000; ++i) {
    samples.push_back(i * i % 9973);
  }
  Histogram serial;
  for (uint64_t sample : samples) {
    serial.Observe(sample);
  }
  Histogram concurrent;
  constexpr size_t kThreads = 8;
  std::vector<std::thread> writers;
  for (size_t t = 0; t < kThreads; ++t) {
    writers.emplace_back([&concurrent, &samples, t] {
      for (size_t i = t; i < samples.size(); i += kThreads) {
        concurrent.Observe(samples[i]);
      }
    });
  }
  for (std::thread& writer : writers) {
    writer.join();
  }
  const HistogramSnapshot a = serial.Snapshot();
  const HistogramSnapshot b = concurrent.Snapshot();
  EXPECT_EQ(a.count, b.count);
  EXPECT_EQ(a.sum, b.sum);
  for (size_t bucket = 0; bucket < obs::kHistogramBuckets; ++bucket) {
    EXPECT_EQ(a.buckets[bucket], b.buckets[bucket]) << "bucket " << bucket;
  }
}

TEST(HistogramTest, PercentileOfEmptySnapshotIsZero) {
  const HistogramSnapshot empty{};
  for (double quantile : {0.0, 0.5, 0.99, 0.999, 1.0}) {
    EXPECT_EQ(obs::HistogramPercentile(empty, quantile), 0u) << quantile;
  }
}

TEST(HistogramTest, PercentileOfSingleSampleIsItsBucketFloor) {
  // One sample answers every quantile with its bucket's lower bound.
  Histogram histogram;
  histogram.Observe(1000);  // bucket [512, 1024)
  const HistogramSnapshot snapshot = histogram.Snapshot();
  for (double quantile : {0.0, 0.5, 0.99, 0.999, 1.0}) {
    EXPECT_EQ(obs::HistogramPercentile(snapshot, quantile), 512u) << quantile;
  }
}

TEST(HistogramTest, PercentileRanksAreCeilBasedAndClamped) {
  // 100 samples: 50 zeros, 49 fives ([4, 8)), one 1500 ([1024, 2048)).
  // Rank = ceil(q * count), so p50 is the 50th sample (still a zero), and
  // only p-quantiles past 0.99 reach the lone tail sample.
  Histogram histogram;
  for (int i = 0; i < 50; ++i) {
    histogram.Observe(0);
  }
  for (int i = 0; i < 49; ++i) {
    histogram.Observe(5);
  }
  histogram.Observe(1500);
  const HistogramSnapshot snapshot = histogram.Snapshot();
  EXPECT_EQ(obs::HistogramPercentile(snapshot, 0.50), 0u);
  EXPECT_EQ(obs::HistogramPercentile(snapshot, 0.51), 4u);
  EXPECT_EQ(obs::HistogramPercentile(snapshot, 0.99), 4u);
  EXPECT_EQ(obs::HistogramPercentile(snapshot, 0.999), 1024u);  // rank ceil(99.9) = 100
  EXPECT_EQ(obs::HistogramPercentile(snapshot, 1.0), 1024u);
  // Out-of-range quantiles clamp to the first / last sample.
  EXPECT_EQ(obs::HistogramPercentile(snapshot, -0.5), 0u);
  EXPECT_EQ(obs::HistogramPercentile(snapshot, 1.5), 1024u);
}

// --- Registry ---------------------------------------------------------------

TEST(RegistryTest, HandlesAreStableAcrossReset) {
  Registry registry;
  Counter& counter = registry.GetCounter("stable.counter");
  Gauge& gauge = registry.GetGauge("stable.gauge");
  Histogram& histogram = registry.GetHistogram("stable.histogram");
  counter.Add(5);
  gauge.Set(7);
  histogram.Observe(9);
  registry.Reset();
  // Same objects, zeroed values: cached references stay valid forever.
  EXPECT_EQ(&registry.GetCounter("stable.counter"), &counter);
  EXPECT_EQ(&registry.GetGauge("stable.gauge"), &gauge);
  EXPECT_EQ(&registry.GetHistogram("stable.histogram"), &histogram);
  EXPECT_EQ(counter.Value(), 0u);
  EXPECT_EQ(gauge.Value(), 0);
  EXPECT_EQ(histogram.Snapshot().count, 0u);
}

TEST(RegistryTest, SectionJsonFiltersByDomain) {
  Registry registry;
  registry.GetCounter("model.only", Domain::kModel).Add(1);
  registry.GetCounter("sched.only", Domain::kSched).Add(2);
  registry.GetGauge("sched.level", Domain::kSched).Set(3);
  const JsonValue model = ParseJson(registry.SectionJson(Domain::kModel));
  const JsonValue sched = ParseJson(registry.SectionJson(Domain::kSched));
  ASSERT_NE(model.Find("counters"), nullptr);
  EXPECT_NE(model.Find("counters")->Find("model.only"), nullptr);
  EXPECT_EQ(model.Find("counters")->Find("sched.only"), nullptr);
  EXPECT_EQ(model.Find("gauges")->Find("sched.level"), nullptr);
  EXPECT_NE(sched.Find("counters")->Find("sched.only"), nullptr);
  EXPECT_EQ(sched.Find("counters")->Find("model.only"), nullptr);
  EXPECT_EQ(sched.Find("gauges")->Find("sched.level")->number, 3);
}

TEST(RegistryTest, SnapshotIsIdempotentWhenQuiescent) {
  Registry registry;
  registry.GetCounter("idempotent.counter").Add(11);
  registry.GetHistogram("idempotent.histogram").Observe(17);
  const std::string first = registry.ToJson();
  EXPECT_EQ(registry.ToJson(), first);
  EXPECT_EQ(registry.ToJson(), first);  // snapshots never consume state
}

TEST(RegistryTest, SerializationIsNameSorted) {
  Registry registry;
  // Registered out of order; std::map iteration serializes sorted.
  registry.GetCounter("zz.last").Add(1);
  registry.GetCounter("aa.first").Add(1);
  registry.GetCounter("mm.middle").Add(1);
  const JsonValue model = ParseJson(registry.SectionJson(Domain::kModel));
  const auto& counters = model.Find("counters")->members;
  ASSERT_EQ(counters.size(), 3u);
  EXPECT_EQ(counters[0].first, "aa.first");
  EXPECT_EQ(counters[1].first, "mm.middle");
  EXPECT_EQ(counters[2].first, "zz.last");
}

TEST(RegistryTest, HistogramJsonIsSparse) {
  Registry registry;
  Histogram& histogram = registry.GetHistogram("sparse.histogram");
  histogram.Observe(0);
  histogram.Observe(6);
  histogram.Observe(7);
  const JsonValue model = ParseJson(registry.SectionJson(Domain::kModel));
  const JsonValue* entry = model.Find("histograms")->Find("sparse.histogram");
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->Find("count")->number, 3);
  EXPECT_EQ(entry->Find("sum")->number, 13);
  // Only populated buckets are emitted, as [lower_bound, count] pairs.
  const auto& buckets = entry->Find("buckets")->array;
  ASSERT_EQ(buckets.size(), 2u);
  EXPECT_EQ(buckets[0].array[0].number, 0);  // bucket for value 0
  EXPECT_EQ(buckets[0].array[1].number, 1);
  EXPECT_EQ(buckets[1].array[0].number, 4);  // 6 and 7 share [4, 8)
  EXPECT_EQ(buckets[1].array[1].number, 2);
}

TEST(RegistryTest, NamesWithQuotesAreEscaped) {
  Registry registry;
  registry.GetCounter("weird\"name\\here").Add(1);
  const std::string json = registry.SectionJson(Domain::kModel);
  const JsonValue model = ParseJson(json);  // must still parse
  EXPECT_NE(model.Find("counters")->Find("weird\"name\\here"), nullptr);
}

TEST(RegistryDeathTest, DomainMismatchIsAProgrammerError) {
  Registry registry;
  registry.GetCounter("one.name", Domain::kModel);
  EXPECT_DEATH(registry.GetCounter("one.name", Domain::kSched), "re-registered");
}

// --- Tracer -----------------------------------------------------------------

// The global tracer is shared process state; each test leaves it disabled
// and empty so ordering between tests cannot matter.
class TracerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Tracer::Global().Disable();
    Tracer::Global().Reset();
  }
  void TearDown() override {
    Tracer::Global().Disable();
    Tracer::Global().Reset();
  }
};

TEST_F(TracerTest, DisabledTracerRecordsNothing) {
  {
    TraceSpan span("ignored");
  }
  Tracer::Global().RecordSpan("also-ignored", "cat", 0, 1);
  EXPECT_EQ(Tracer::Global().event_count(), 0u);
}

TEST_F(TracerTest, SpanStartedWhileDisabledStaysInert) {
  // Enabling mid-span must not record a half-measured event.
  auto span = std::make_unique<TraceSpan>("straddler");
  Tracer::Global().Enable();
  span.reset();
  EXPECT_EQ(Tracer::Global().event_count(), 0u);
}

TEST_F(TracerTest, SpansRecordCompleteEvents) {
  Tracer::Global().Enable();
  {
    TraceSpan outer("outer");
    TraceSpan inner("inner", "custom-category");
  }
  EXPECT_EQ(Tracer::Global().event_count(), 2u);
}

TEST_F(TracerTest, ResetDropsEventsAndRestartsClock) {
  Tracer::Global().Enable();
  { TraceSpan span("before-reset"); }
  ASSERT_EQ(Tracer::Global().event_count(), 1u);
  Tracer::Global().Reset();
  EXPECT_EQ(Tracer::Global().event_count(), 0u);
  EXPECT_TRUE(Tracer::Global().enabled());  // Reset never flips enablement
}

TEST_F(TracerTest, TraceJsonIsWellFormedChromeFormat) {
  Tracer::Global().Enable();
  {
    TraceSpan outer("phase \"quoted\"");
    TraceSpan inner("inner");
  }
  Tracer::Global().RecordSpan("manual", "siloz", 10, 25);
  const JsonValue doc = ParseJson(Tracer::Global().ToJson());
  ASSERT_EQ(doc.kind, JsonValue::Kind::kObject);
  const JsonValue* events = doc.Find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_EQ(events->kind, JsonValue::Kind::kArray);
  ASSERT_EQ(events->array.size(), 3u);
  std::set<std::string> names;
  for (const JsonValue& event : events->array) {
    // Every key chrome://tracing needs for a complete event must be present.
    for (const char* key : {"name", "cat", "ph", "ts", "dur", "pid", "tid"}) {
      ASSERT_NE(event.Find(key), nullptr) << "missing key " << key;
    }
    EXPECT_EQ(event.Find("ph")->string, "X");
    EXPECT_EQ(event.Find("pid")->number, 1);
    EXPECT_GE(event.Find("tid")->number, 1);
    EXPECT_GE(event.Find("dur")->number, 0);
    names.insert(event.Find("name")->string);
  }
  EXPECT_EQ(names, (std::set<std::string>{"phase \"quoted\"", "inner", "manual"}));
  const JsonValue* unit = doc.Find("displayTimeUnit");
  ASSERT_NE(unit, nullptr);
  EXPECT_EQ(unit->string, "ms");
}

TEST_F(TracerTest, ConcurrentSpansAllRecorded) {
  Tracer::Global().Enable();
  std::vector<std::thread> workers;
  for (int t = 0; t < 4; ++t) {
    workers.emplace_back([] {
      for (int i = 0; i < 25; ++i) {
        TraceSpan span("worker-span");
      }
    });
  }
  for (std::thread& worker : workers) {
    worker.join();
  }
  EXPECT_EQ(Tracer::Global().event_count(), 100u);
  ParseJson(Tracer::Global().ToJson());  // still a valid document
}

// --- File export ------------------------------------------------------------

std::string ReadFile(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

TEST_F(TracerTest, WriteTraceJsonRoundTrips) {
  Tracer::Global().Enable();
  { TraceSpan span("exported"); }
  const std::string path = ::testing::TempDir() + "/obs_test_trace.json";
  ASSERT_TRUE(obs::WriteTraceJson(path));
  const JsonValue doc = ParseJson(ReadFile(path));
  ASSERT_EQ(doc.Find("traceEvents")->array.size(), 1u);
  EXPECT_EQ(doc.Find("traceEvents")->array[0].Find("name")->string, "exported");
  std::remove(path.c_str());
}

TEST(MetricsFileTest, WriteMetricsJsonRoundTrips) {
  obs::Registry::Global().GetCounter("obs_test.file.counter").Add(123);
  const std::string path = ::testing::TempDir() + "/obs_test_metrics.json";
  ASSERT_TRUE(obs::WriteMetricsJson(path));
  const JsonValue doc = ParseJson(ReadFile(path));
  EXPECT_EQ(doc.Find("schema")->number, 1);
  const JsonValue* model = doc.Find("model");
  ASSERT_NE(model, nullptr);
  EXPECT_EQ(model->Find("counters")->Find("obs_test.file.counter")->number, 123);
  ASSERT_NE(doc.Find("sched"), nullptr);
  std::remove(path.c_str());
}

TEST(MetricsFileTest, WriteToUnwritablePathFailsCleanly) {
  EXPECT_FALSE(obs::WriteMetricsJson("/nonexistent-dir/metrics.json"));
  EXPECT_FALSE(obs::WriteTraceJson("/nonexistent-dir/trace.json"));
}

}  // namespace
}  // namespace siloz
