// Machine-readable experiment output.
//
// Benches print human tables on stdout; when SILOZ_RESULTS_DIR is set (or a
// directory is given explicitly) they additionally append CSV rows, one file
// per experiment, so figures can be regenerated by external plotting
// scripts. Files get their header on first write and are append-only, so a
// sweep across bench invocations accumulates into one table.
#ifndef SILOZ_SRC_SIM_REPORT_H_
#define SILOZ_SRC_SIM_REPORT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/base/mutex.h"
#include "src/base/result.h"
#include "src/base/thread_pool.h"

namespace siloz {

// Cross-thread progress for one parallel phase (trial loop, sweep grid,
// colocated scenarios). Workers call Tick() as tasks complete; the meter
// renders a carriage-return status line to stderr, throttled to whole-percent
// transitions, and only when SILOZ_PROGRESS is set in the environment — so
// test, CI, and golden-file output stays byte-identical with the meter wired
// in. Progress is presentation only: it never feeds metrics or reports, so
// it sits outside the determinism contract by construction.
class ProgressMeter {
 public:
  ProgressMeter(std::string phase, uint64_t total);
  ~ProgressMeter();  // finishes the status line (newline) when enabled

  ProgressMeter(const ProgressMeter&) = delete;
  ProgressMeter& operator=(const ProgressMeter&) = delete;

  // Thread-safe; called from pool workers.
  void Tick(uint64_t completed_delta = 1);

  uint64_t completed() const;

 private:
  void RenderLocked() REQUIRES(mutex_);

  const std::string phase_;
  const uint64_t total_;
  const bool enabled_;

  mutable Mutex mutex_;
  uint64_t completed_ GUARDED_BY(mutex_) = 0;
  // Last whole percent written to stderr; -1 before the first render.
  int last_rendered_pct_ GUARDED_BY(mutex_) = -1;
};

// Scheduler + timing metrics of one parallel phase (trial loop, sweep grid,
// audit scan). wall_ms is elapsed time of the phase; cpu_ms is process CPU
// time over the same span, so cpu_ms/wall_ms approximates the achieved
// parallelism. Formatting is covered by a golden test (report_test.cc) so
// the schema cannot drift silently.
struct PoolPhaseMetrics {
  std::string phase;
  PoolMetrics pool;
  double wall_ms = 0.0;
  double cpu_ms = 0.0;

  // "phase: N workers, M tasks, wall X.X ms, cpu Y.Y ms"
  std::string ToText() const;
};

// Measures one phase: construct before, Finish() after, with the pool's
// metrics. Wall time via steady_clock, CPU time via std::clock (process-wide
// on POSIX, i.e. summed across workers).
class PhaseTimer {
 public:
  explicit PhaseTimer(std::string phase);
  PoolPhaseMetrics Finish(const PoolMetrics& pool) const;

 private:
  std::string phase_;
  int64_t wall_start_ns_ = 0;
  int64_t cpu_start_clocks_ = 0;
};

class CsvReporter {
 public:
  // Uses `directory`, or $SILOZ_RESULTS_DIR when empty. Disabled (all writes
  // no-ops) when neither is set.
  explicit CsvReporter(std::string experiment, std::string directory = "");

  bool enabled() const { return !directory_.empty(); }
  std::string path() const;

  // Appends one row; writes `columns` as the header when creating the file.
  // Fields are escaped per RFC 4180 when needed.
  Status Append(const std::vector<std::string>& columns,
                const std::vector<std::string>& fields);

 private:
  std::string experiment_;
  std::string directory_;
};

// Formats a double compactly for CSV. Integer-valued columns (byte counts,
// request totals) are emitted exactly, digit for digit, up to 2^53; only
// genuine fractional values are rounded (6 significant digits). A plain
// 6-significant-digit format silently corrupted every integer column past
// 1e6 — 12345678 became "1.23457e+07".
std::string CsvNumber(double value);

}  // namespace siloz

#endif  // SILOZ_SRC_SIM_REPORT_H_
