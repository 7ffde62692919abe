// Shared output helpers for the experiment benches.
//
// Every bench prints: the Table 2 platform header, then the rows/series of
// the paper artifact it regenerates, in a fixed-width table so runs can be
// diffed. Overheads are reported as mean % with 95% CI half-widths, matching
// the error bars of Figs 4-7.
#ifndef SILOZ_BENCH_BENCH_UTIL_H_
#define SILOZ_BENCH_BENCH_UTIL_H_

#include <cstdio>
#include <string>
#include <vector>

#include "src/base/stats.h"
#include "src/dram/geometry.h"

namespace siloz {
namespace bench {

inline void PrintHeader(const char* artifact, const DramGeometry& geometry,
                        const std::string& platform = std::string()) {
  std::printf("================================================================\n");
  std::printf("%s\n", artifact);
  std::printf("Platform (%s): %s\n", platform.empty() ? "Table 2" : platform.c_str(),
              geometry.ToString().c_str());
  std::printf("================================================================\n");
}

inline void PrintRule() {
  std::printf("----------------------------------------------------------------\n");
}

// One bar of a Fig 4-7 style series: overhead % relative to a baseline.
struct OverheadRow {
  std::string name;
  double mean_pct = 0.0;
  double ci_pct = 0.0;
};

inline void PrintOverheadTable(const char* metric, const std::vector<OverheadRow>& rows) {
  std::printf("%-12s | %10s | %8s\n", "workload", metric, "95% CI");
  PrintRule();
  for (const OverheadRow& row : rows) {
    std::printf("%-12s | %+9.3f%% | +/-%.3f%%\n", row.name.c_str(), row.mean_pct, row.ci_pct);
  }
  PrintRule();
}

// Normalized overhead of `variant` relative to `baseline` in percent, with a
// conservative CI combining both runs' relative CIs.
inline OverheadRow Normalize(const std::string& name, const RunningStat& baseline,
                             const RunningStat& variant, bool higher_is_better = false) {
  OverheadRow row;
  row.name = name;
  const double ratio = variant.mean() / baseline.mean();
  row.mean_pct = (higher_is_better ? (1.0 / ratio) - 1.0 : ratio - 1.0) * 100.0;
  const double rel_ci = baseline.ci95_halfwidth() / baseline.mean() +
                        variant.ci95_halfwidth() / variant.mean();
  row.ci_pct = rel_ci * 100.0;
  return row;
}

}  // namespace bench
}  // namespace siloz

#endif  // SILOZ_BENCH_BENCH_UTIL_H_
