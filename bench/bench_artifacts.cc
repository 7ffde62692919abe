// bench_artifacts: regenerates one paper artifact per run (DESIGN.md §3).
//
// Usage: bench_artifacts <artifact> [flags]; `bench_artifacts <artifact>
// --help` lists the artifact's flags. Ids are the experiment ids of
// DESIGN.md §3, lower-cased:
//   table1 table2 table3   the paper's tables (§6, Table 2, §7.1)
//   ept                    §7.1(b): protected EPT rows never flip
//   fig4 fig4ext fig5 fig6 fig7   the performance figures (§7.2-§7.4)
//   a1 ... a11             the ablations the paper states in prose
//   d1                     the §3 defense landscape head to head
//   fleet                  fleet churn: admission policies and defrag (§7)
//
// Every report goes to stdout and is byte-identical run to run and across
// --threads; bench/golden.txt pins each one by its SHA-256.
#include <algorithm>
#include <iterator>
#include <string>
#include <vector>

#include "bench/bench_util.h"

namespace siloz::bench {
namespace {

struct Artifact {
  const char* id;
  int (*run)(FlagSet& flags, int argc, char** argv);
};

constexpr Artifact kArtifacts[] = {
    {"table1", Table1Remap},       {"table2", Table2Platform},
    {"table3", Table3Containment}, {"ept", EptProtection},
    {"fig4", Figure},              {"fig4ext", Figure},
    {"fig5", Figure},              {"fig6", Figure},
    {"fig7", Figure},              {"a1", BankParallelism},
    {"a2", GuardOverhead},         {"a3", OneGibPages},
    {"a4", EptFootprint},          {"a5", SoftRefresh},
    {"a6", BaselineVulnerable},    {"a7", ArtificialGroups},
    {"a8", Ddr5},                  {"a9", SideChannels},
    {"a10", Interference},         {"a11", ActRates},
    {"d1", DefenseComparison},     {"fleet", FleetChurn},
};

}  // namespace
}  // namespace siloz::bench

int main(int argc, char** argv) {
  using siloz::bench::Artifact;
  using siloz::bench::kArtifacts;
  std::vector<std::string> ids;
  for (const Artifact& artifact : kArtifacts) {
    ids.emplace_back(artifact.id);
  }
  std::string id;
  siloz::FlagSet flags("bench_artifacts");
  flags.Add("artifact", &id, "'bench_artifacts <artifact> --help' lists its flags",
            {.choices = ids, .required = true});
  flags.ParseOrExit(std::min(argc, 2), argv, 2);  // the artifact parses the rest
  const Artifact& artifact = *std::find_if(std::begin(kArtifacts), std::end(kArtifacts),
                                           [&](const Artifact& a) { return id == a.id; });
  siloz::FlagSet artifact_flags("bench_artifacts " + id);
  return artifact.run(artifact_flags, argc - 1, argv + 1);
}
