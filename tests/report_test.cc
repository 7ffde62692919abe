// Tests for the CSV result reporter (src/sim/report.h).
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "src/base/thread_pool.h"
#include "src/sim/report.h"

namespace siloz {
namespace {

std::string ReadAll(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

class ReportTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "siloz_report_test";
    std::string command = "mkdir -p " + dir_;
    ASSERT_EQ(std::system(command.c_str()), 0);
  }
  std::string dir_;
};

TEST_F(ReportTest, DisabledWithoutDirectory) {
  ::unsetenv("SILOZ_RESULTS_DIR");
  CsvReporter reporter("exp");
  EXPECT_FALSE(reporter.enabled());
  EXPECT_TRUE(reporter.Append({"a"}, {"1"}).ok());  // no-op, still ok
  EXPECT_EQ(reporter.path(), "");
}

TEST_F(ReportTest, WritesHeaderOnceAndAppends) {
  const std::string file = dir_ + "/run.csv";
  std::remove(file.c_str());
  CsvReporter reporter("run", dir_);
  ASSERT_TRUE(reporter.enabled());
  ASSERT_TRUE(reporter.Append({"workload", "value"}, {"redis-a", "1.5"}).ok());
  ASSERT_TRUE(reporter.Append({"workload", "value"}, {"mysql", "2.5"}).ok());
  EXPECT_EQ(ReadAll(file), "workload,value\nredis-a,1.5\nmysql,2.5\n");
  // A second reporter instance appends without re-writing the header.
  CsvReporter again("run", dir_);
  ASSERT_TRUE(again.Append({"workload", "value"}, {"parsec", "3"}).ok());
  EXPECT_EQ(ReadAll(file), "workload,value\nredis-a,1.5\nmysql,2.5\nparsec,3\n");
}

TEST_F(ReportTest, EscapesSpecialCharacters) {
  const std::string file = dir_ + "/esc.csv";
  std::remove(file.c_str());
  CsvReporter reporter("esc", dir_);
  ASSERT_TRUE(reporter.Append({"name"}, {"a,b \"quoted\""}).ok());
  EXPECT_EQ(ReadAll(file), "name\n\"a,b \"\"quoted\"\"\"\n");
}

TEST_F(ReportTest, RejectsMismatchedRow) {
  CsvReporter reporter("bad", dir_);
  EXPECT_FALSE(reporter.Append({"a", "b"}, {"1"}).ok());
}

TEST_F(ReportTest, EnvironmentVariableEnables) {
  ::setenv("SILOZ_RESULTS_DIR", dir_.c_str(), 1);
  CsvReporter reporter("env_exp");
  EXPECT_TRUE(reporter.enabled());
  EXPECT_EQ(reporter.path(), dir_ + "/env_exp.csv");
  ::unsetenv("SILOZ_RESULTS_DIR");
}

TEST_F(ReportTest, CsvNumberFormatting) {
  EXPECT_EQ(CsvNumber(1.5), "1.5");
  EXPECT_EQ(CsvNumber(-0.0493236), "-0.0493236");
  EXPECT_EQ(CsvNumber(0.0), "0");
}

TEST_F(ReportTest, CsvNumberEmitsLargeIntegersExactly) {
  // Regression: the old 6-significant-digit format turned every integer
  // column past 1e6 into scientific notation — 12345678 became "1.23457e+07",
  // corrupting byte counts and request totals for CSV consumers.
  EXPECT_EQ(CsvNumber(12345678.0), "12345678");
  EXPECT_EQ(CsvNumber(1000001.0), "1000001");
  EXPECT_EQ(CsvNumber(-987654321.0), "-987654321");
  EXPECT_EQ(CsvNumber(68719476736.0), "68719476736");          // a 64 GiB byte count
  EXPECT_EQ(CsvNumber(9007199254740991.0), "9007199254740991");  // 2^53 - 1
  // Past 2^53 a double no longer holds every integer, so exactness is
  // unattainable and the compact form is correct again.
  EXPECT_EQ(CsvNumber(9007199254740992.0), "9.0072e+15");
  // Genuinely fractional values keep the 6-significant-digit rounding.
  EXPECT_EQ(CsvNumber(12345678.5), "1.23457e+07");
}

// Golden outputs for the pool metrics block: the benches and CLIs print
// these lines verbatim (to stderr), so the format is part of the interface.
PoolPhaseMetrics GoldenMetrics() {
  PoolPhaseMetrics metrics;
  metrics.phase = "trials";
  metrics.pool.workers = 8;
  metrics.pool.tasks = 640;
  metrics.wall_ms = 1234.5678;
  metrics.cpu_ms = 9876.5;
  return metrics;
}

TEST(ProgressMeterTest, ConcurrentTicksSumExactly) {
  // Disabled rendering path (SILOZ_PROGRESS unset in tests): ticking must
  // still count, and must count exactly under concurrency.
  unsetenv("SILOZ_PROGRESS");
  ProgressMeter meter("ticks", 64 * 100);
  ParallelFor(4, 64, [&](uint64_t) {
    for (int i = 0; i < 100; ++i) {
      meter.Tick();
    }
  });
  EXPECT_EQ(meter.completed(), 64u * 100u);
}

TEST(ProgressMeterTest, EnabledRenderingCountsTheSame) {
  // With SILOZ_PROGRESS set the meter writes a status line to stderr;
  // counting semantics are unchanged and Tick stays safe cross-thread.
  setenv("SILOZ_PROGRESS", "1", /*overwrite=*/1);
  {
    ProgressMeter meter("render", 8);
    ParallelFor(2, 8, [&](uint64_t) { meter.Tick(); });
    EXPECT_EQ(meter.completed(), 8u);
  }
  unsetenv("SILOZ_PROGRESS");
}

TEST(PoolPhaseMetricsTest, GoldenText) {
  EXPECT_EQ(GoldenMetrics().ToText(),
            "trials: 8 workers, 640 tasks, wall 1234.6 ms, cpu 9876.5 ms");
}

TEST(PoolPhaseMetricsTest, DefaultConstructedIsSerialAndIdle) {
  PoolPhaseMetrics metrics;
  EXPECT_EQ(metrics.ToText(), ": 1 workers, 0 tasks, wall 0.0 ms, cpu 0.0 ms");
}

TEST(PhaseTimerTest, FinishPropagatesPhaseAndPoolAndMeasuresTime) {
  PhaseTimer timer("scan");
  PoolMetrics pool;
  pool.workers = 2;
  pool.tasks = 10;
  const PoolPhaseMetrics metrics = timer.Finish(pool);
  EXPECT_EQ(metrics.phase, "scan");
  EXPECT_EQ(metrics.pool.workers, 2u);
  EXPECT_EQ(metrics.pool.tasks, 10u);
  EXPECT_GE(metrics.wall_ms, 0.0);
  EXPECT_GE(metrics.cpu_ms, 0.0);
}

}  // namespace
}  // namespace siloz
