#include "src/obs/trace.h"

#include <cstdio>
#include <sstream>
#include <utility>

#include "src/obs/metrics.h"

namespace siloz::obs {
namespace {

// Small dense thread ids for the "tid" field (std::thread::id is opaque).
uint32_t ThreadTraceId() {
  static std::atomic<uint32_t> next{1};
  thread_local const uint32_t id = next.fetch_add(1, std::memory_order_relaxed);
  return id;
}

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

}  // namespace

Tracer& Tracer::Global() {
  static Tracer* tracer = new Tracer();  // leaked: outlives static dtors
  return *tracer;
}

namespace {

int64_t SteadyNowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

Tracer::Tracer() { epoch_ns_.store(SteadyNowNs(), std::memory_order_relaxed); }

uint64_t Tracer::NowMicros() const {
  const int64_t delta = SteadyNowNs() - epoch_ns_.load(std::memory_order_relaxed);
  return delta <= 0 ? 0 : static_cast<uint64_t>(delta) / 1000;
}

void Tracer::RecordSpan(const std::string& name, const std::string& category, uint64_t start_us,
                        uint64_t duration_us) {
  if (!enabled()) {
    return;
  }
  TraceEvent event;
  event.name = name;
  event.category = category;
  event.start_us = start_us;
  event.duration_us = duration_us;
  event.tid = ThreadTraceId();
  MutexLock lock(mutex_);
  events_.push_back(std::move(event));
}

size_t Tracer::event_count() const {
  MutexLock lock(mutex_);
  return events_.size();
}

std::string Tracer::ToJson() const {
  MutexLock lock(mutex_);
  std::ostringstream out;
  out << "{\"traceEvents\":[";
  for (size_t i = 0; i < events_.size(); ++i) {
    const TraceEvent& event = events_[i];
    if (i > 0) {
      out << ",";
    }
    out << "{\"name\":\"";
    AppendEscaped(out, event.name);
    out << "\",\"cat\":\"";
    AppendEscaped(out, event.category);
    out << "\",\"ph\":\"X\",\"ts\":" << event.start_us << ",\"dur\":" << event.duration_us
        << ",\"pid\":1,\"tid\":" << event.tid << "}";
  }
  out << "],\"displayTimeUnit\":\"ms\"}";
  return out.str();
}

void Tracer::Reset() {
  MutexLock lock(mutex_);
  events_.clear();
  epoch_ns_.store(SteadyNowNs(), std::memory_order_relaxed);
}

TraceSpan::TraceSpan(std::string name, std::string category)
    : name_(std::move(name)), category_(std::move(category)) {
  Tracer& tracer = Tracer::Global();
  if (!tracer.enabled()) {
    return;
  }
  active_ = true;
  start_us_ = tracer.NowMicros();
}

TraceSpan::~TraceSpan() {
  if (!active_) {
    return;
  }
  Tracer& tracer = Tracer::Global();
  const uint64_t end_us = tracer.NowMicros();
  tracer.RecordSpan(name_, category_, start_us_, end_us - start_us_);
}

bool WriteTraceJson(const std::string& path) {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) {
    std::fprintf(stderr, "trace: cannot open '%s' for writing\n", path.c_str());
    return false;
  }
  const std::string json = Tracer::Global().ToJson();
  const bool ok = std::fwrite(json.data(), 1, json.size(), file) == json.size() &&
                  std::fputc('\n', file) != EOF;
  std::fclose(file);
  if (!ok) {
    std::fprintf(stderr, "trace: short write to '%s'\n", path.c_str());
  }
  return ok;
}

bool ExportFiles::Write() const {
  const bool metrics_ok = metrics_out.empty() || WriteMetricsJson(metrics_out);
  const bool trace_ok = trace_out.empty() || WriteTraceJson(trace_out);
  return metrics_ok && trace_ok;
}

}  // namespace siloz::obs
