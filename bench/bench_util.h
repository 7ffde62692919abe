// The entry points of the paper artifacts and their shared output helpers.
//
// Every artifact prints: the Table 2 platform header, then the rows/series of
// the paper artifact it regenerates, in a fixed-width table so runs can be
// diffed. Overheads are reported as mean % with 95% CI half-widths, matching
// the error bars of Figs 4-7.
#ifndef SILOZ_BENCH_BENCH_UTIL_H_
#define SILOZ_BENCH_BENCH_UTIL_H_

#include <cstdio>
#include <string>
#include <vector>

#include "src/base/flags.h"
#include "src/base/stats.h"
#include "src/dram/geometry.h"

namespace siloz {
namespace bench {

// One entry point per experiment id of DESIGN.md §3, dispatched by
// bench_artifacts with argv[0] set to the id. Each declares on `flags`
// exactly the flags it reads, parses the rest of the command line (a usage
// error exits 2 with nothing on stdout), prints its report, and returns the
// process exit status.
int Table1Remap(FlagSet& flags, int argc, char** argv);
int Table2Platform(FlagSet& flags, int argc, char** argv);
int Table3Containment(FlagSet& flags, int argc, char** argv);
int EptProtection(FlagSet& flags, int argc, char** argv);
int Figure(FlagSet& flags, int argc, char** argv);  // fig4, fig4ext, fig5, fig6, fig7
int BankParallelism(FlagSet& flags, int argc, char** argv);
int GuardOverhead(FlagSet& flags, int argc, char** argv);
int OneGibPages(FlagSet& flags, int argc, char** argv);
int EptFootprint(FlagSet& flags, int argc, char** argv);
int SoftRefresh(FlagSet& flags, int argc, char** argv);
int BaselineVulnerable(FlagSet& flags, int argc, char** argv);
int ArtificialGroups(FlagSet& flags, int argc, char** argv);
int Ddr5(FlagSet& flags, int argc, char** argv);
int SideChannels(FlagSet& flags, int argc, char** argv);
int Interference(FlagSet& flags, int argc, char** argv);
int ActRates(FlagSet& flags, int argc, char** argv);
int DefenseComparison(FlagSet& flags, int argc, char** argv);
int FleetChurn(FlagSet& flags, int argc, char** argv);

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
