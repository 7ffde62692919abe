// Ablation A3 (§4.2): how 1 GiB pages interact with subarray groups.
//
// The paper: because of the 768 MiB mapping jump, 1 GiB pages do not
// inherently map to a single subarray group; but with 3 GiB sets of
// consecutive groups, at least 1/3 of 1 GiB ranges map to single sets. This
// bench measures the actual fractions under our decoder (which is slightly
// more benign than real Skylake — see DESIGN.md deviations) and verifies
// the paper's bound holds.
#include <cstdio>

#include "bench/bench_util.h"
#include "src/addr/subarray_group.h"
#include "src/base/units.h"

int siloz::bench::OneGibPages(FlagSet& flags, int argc, char** argv) {
  flags.ParseOrExit(argc, argv, 2);
  const DramGeometry geometry;
  SkylakeDecoder decoder(geometry);
  bench::PrintHeader("Ablation A3: 1 GiB page containment (§4.2)", geometry);

  SubarrayGroupMap map = *SubarrayGroupMap::Build(decoder, geometry.rows_per_subarray);
  uint32_t single_group = 0;
  uint32_t single_set = 0;
  const uint32_t pages = static_cast<uint32_t>(geometry.total_bytes() / kPage1G);
  for (uint32_t i = 0; i < pages; ++i) {
    const uint64_t start = static_cast<uint64_t>(i) * kPage1G;
    const uint32_t first = *map.GroupOfPhys(start);
    const uint32_t last = *map.GroupOfPhys(start + kPage1G - 1);
    single_group += (first == last);
    single_set += (first / 2 == last / 2);  // 2 x 1.5 GiB groups = 3 GiB set
  }

  std::printf("%-52s | %8s\n", "containment of 1 GiB physical ranges", "fraction");
  bench::PrintRule();
  std::printf("%-52s | %7.1f%%\n", "within a single 1.5 GiB subarray group",
              100.0 * single_group / pages);
  std::printf("%-52s | %7.1f%%\n", "within a single 3 GiB set of consecutive groups",
              100.0 * single_set / pages);
  bench::PrintRule();
  const bool bound_holds = single_set * 3 >= pages;
  const bool some_straddle = single_group < pages;
  std::printf("Paper's bound (>= 1/3 in single 3 GiB sets): %s\n",
              bound_holds ? "holds" : "VIOLATED");
  std::printf("Some 1 GiB pages straddle groups (so 2 MiB backing is needed for\n"
              "the remainder, as the paper prescribes): %s\n", some_straddle ? "yes" : "NO");
  std::printf("\n2 MiB pages, for contrast (sampled): ");
  uint32_t contained_2m = 0;
  const uint32_t samples = 512;
  for (uint32_t i = 0; i < samples; ++i) {
    const uint64_t start = (static_cast<uint64_t>(i) * 761) % (geometry.total_bytes() / kPage2M);
    contained_2m += *map.PageIsContained(decoder, start * kPage2M, kPage2M);
  }
  std::printf("%u/%u contained in single groups\n", contained_2m, samples);
  return (bound_holds && some_straddle && contained_2m == samples) ? 0 : 1;
}
