// Scoped tracing with Chrome trace-event JSON export.
//
// TraceSpan is an RAII marker: construct at the top of a phase, and its
// destructor records one complete ("ph":"X") event with the measured wall
// duration. The global Tracer starts disabled — a span on a disabled tracer
// costs one relaxed atomic load and touches no clock — and is switched on by
// the CLI `--trace-out` flags.
//
// Export is the Trace Event Format's JSON-object form,
//   {"traceEvents":[{"name":...,"cat":...,"ph":"X","ts":...,"dur":...,
//                    "pid":1,"tid":...},...]},
// which chrome://tracing and Perfetto load directly. Timestamps are
// microseconds since the tracer was created (or last Reset). Traces measure
// the host, so they are *not* part of the determinism contract — only
// metric values are (DESIGN.md §9).
#ifndef SILOZ_SRC_OBS_TRACE_H_
#define SILOZ_SRC_OBS_TRACE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "src/base/mutex.h"

namespace siloz::obs {

struct TraceEvent {
  std::string name;
  std::string category;
  uint64_t start_us = 0;
  uint64_t duration_us = 0;
  uint32_t tid = 0;
};

class Tracer {
 public:
  static Tracer& Global();

  Tracer();
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  void Enable() { enabled_.store(true, std::memory_order_relaxed); }
  void Disable() { enabled_.store(false, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  // Records one complete event (no-op while disabled).
  void RecordSpan(const std::string& name, const std::string& category, uint64_t start_us,
                  uint64_t duration_us);

  // Microseconds since construction / last Reset.
  uint64_t NowMicros() const;

  size_t event_count() const;
  // Chrome trace-event JSON document (see file comment).
  std::string ToJson() const;
  // Drops recorded events and restarts the clock; enabled-state unchanged.
  void Reset();

 private:
  std::atomic<bool> enabled_{false};
  mutable Mutex mutex_;
  std::vector<TraceEvent> events_ GUARDED_BY(mutex_);
  // steady_clock time_since_epoch in ns; atomic so Reset() cannot race a
  // concurrent span's clock read.
  std::atomic<int64_t> epoch_ns_{0};
};

// RAII span against the global tracer. When the tracer is disabled at
// construction the span is inert (its end is not recorded even if tracing
// is enabled mid-span, keeping every recorded event well-formed).
class TraceSpan {
 public:
  explicit TraceSpan(std::string name, std::string category = "siloz");
  ~TraceSpan();

  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

 private:
  std::string name_;
  std::string category_;
  uint64_t start_us_ = 0;
  bool active_ = false;
};

// Serializes Tracer::Global() to `path`. Returns false (with a message on
// stderr) if the file cannot be written.
bool WriteTraceJson(const std::string& path);

// The `--metrics-out FILE` / `--trace-out FILE` exports every binary takes
// (FlagSet::AddExports declares both and switches the tracer on). Write()
// writes the requested files after the run, once every simulated object has
// been destroyed and its counters flushed; it never touches stdout and
// returns false (with a message on stderr) if any requested file failed.
struct ExportFiles {
  std::string metrics_out;
  std::string trace_out;

  bool Write() const;
};

}  // namespace siloz::obs

#endif  // SILOZ_SRC_OBS_TRACE_H_
