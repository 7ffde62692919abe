#include "src/sim/report.h"

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <fstream>
#include <sstream>

#include "src/base/check.h"

namespace siloz {

std::string PoolPhaseMetrics::ToText() const {
  char line[192];
  std::snprintf(line, sizeof(line),
                "%s: %u workers, %llu tasks, wall %.1f ms, cpu %.1f ms", phase.c_str(),
                pool.workers, static_cast<unsigned long long>(pool.tasks), wall_ms, cpu_ms);
  return line;
}

PhaseTimer::PhaseTimer(std::string phase)
    : phase_(std::move(phase)),
      wall_start_ns_(std::chrono::duration_cast<std::chrono::nanoseconds>(
                         std::chrono::steady_clock::now().time_since_epoch())
                         .count()),
      // siloz-lint: allow(raw-nondeterminism): host CPU time feeding the
      // sched-domain pool metrics, which are outside the determinism contract.
      cpu_start_clocks_(static_cast<int64_t>(std::clock())) {}

PoolPhaseMetrics PhaseTimer::Finish(const PoolMetrics& pool) const {
  PoolPhaseMetrics metrics;
  metrics.phase = phase_;
  metrics.pool = pool;
  const int64_t wall_end_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                                  std::chrono::steady_clock::now().time_since_epoch())
                                  .count();
  metrics.wall_ms = static_cast<double>(wall_end_ns - wall_start_ns_) / 1e6;
  // siloz-lint: allow(raw-nondeterminism): sched-domain CPU time, as above.
  metrics.cpu_ms = static_cast<double>(static_cast<int64_t>(std::clock()) - cpu_start_clocks_) *
                   1000.0 / CLOCKS_PER_SEC;
  return metrics;
}
namespace {

bool NeedsQuoting(const std::string& field) {
  return field.find_first_of(",\"\n") != std::string::npos;
}

std::string Escape(const std::string& field) {
  if (!NeedsQuoting(field)) {
    return field;
  }
  std::string out = "\"";
  for (char c : field) {
    if (c == '"') {
      out += '"';
    }
    out += c;
  }
  out += '"';
  return out;
}

std::string JoinCsv(const std::vector<std::string>& fields) {
  std::string line;
  for (size_t i = 0; i < fields.size(); ++i) {
    if (i > 0) {
      line += ',';
    }
    line += Escape(fields[i]);
  }
  return line;
}

}  // namespace

CsvReporter::CsvReporter(std::string experiment, std::string directory)
    : experiment_(std::move(experiment)), directory_(std::move(directory)) {
  if (directory_.empty()) {
    const char* env = std::getenv("SILOZ_RESULTS_DIR");
    if (env != nullptr && env[0] != '\0') {
      directory_ = env;
    }
  }
}

std::string CsvReporter::path() const {
  return directory_.empty() ? "" : directory_ + "/" + experiment_ + ".csv";
}

Status CsvReporter::Append(const std::vector<std::string>& columns,
                           const std::vector<std::string>& fields) {
  if (!enabled()) {
    return Status::Ok();
  }
  if (fields.size() != columns.size()) {
    return MakeError(ErrorCode::kInvalidArgument, "field count does not match columns");
  }
  const std::string file = path();
  bool fresh = false;
  {
    std::ifstream probe(file);
    fresh = !probe.good();
  }
  std::ofstream out(file, std::ios::app);
  if (!out.good()) {
    return MakeError(ErrorCode::kFailedPrecondition, "cannot open " + file);
  }
  if (fresh) {
    out << JoinCsv(columns) << '\n';
  }
  out << JoinCsv(fields) << '\n';
  return Status::Ok();
}

std::string CsvNumber(double value) {
  // Doubles hold every integer exactly up to 2^53, so an integral value in
  // that range must round-trip digit for digit. Rounding it to 6 significant
  // digits turned large byte counts and request totals into scientific
  // notation ("1.23457e+07"), corrupting the very columns CSV consumers
  // parse as integers.
  constexpr double kExactIntegerLimit = 9007199254740992.0;  // 2^53
  if (std::isfinite(value) && value == std::floor(value) &&
      std::fabs(value) < kExactIntegerLimit) {
    char buffer[32];
    std::snprintf(buffer, sizeof(buffer), "%.0f", value);
    return buffer;
  }
  std::ostringstream out;
  out.precision(6);
  out << value;
  return out.str();
}

}  // namespace siloz
