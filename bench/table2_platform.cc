// Regenerates Table 2: the evaluation platform configuration, plus every
// quantity the paper derives from it — completing the "one binary per
// table/figure" inventory (the other benches print the one-line summary).
#include <cstdio>

#include "bench/bench_util.h"
#include "src/addr/subarray_group.h"
#include "src/base/units.h"
#include "src/ept/phys_memory.h"
#include "src/siloz/hypervisor.h"

int siloz::bench::Table2Platform(FlagSet& flags, int argc, char** argv) {
  flags.ParseOrExit(argc, argv, 2);
  const DramGeometry geometry;
  bench::PrintHeader("Table 2: baseline system configuration", geometry);

  std::printf("%-44s | %s\n", "parameter", "value");
  bench::PrintRule();
  std::printf("%-44s | %s\n", "Host machine",
              "dual-socket Skylake-class (Xeon Gold 6230 analogue)");
  std::printf("%-44s | %u x %u GiB DDR4 2Rx4 DIMM(s)/socket\n", "Memory",
              geometry.channels_per_socket * geometry.dimms_per_channel,
              static_cast<uint32_t>((geometry.socket_bytes() >> 30) /
                                    (geometry.channels_per_socket * geometry.dimms_per_channel)));
  std::printf("%-44s | %u\n", "Banks per socket (physical node)", geometry.banks_per_socket());
  std::printf("%-44s | %u x %lu KiB\n", "Rows per subarray x row size",
              geometry.rows_per_subarray, static_cast<unsigned long>(geometry.row_bytes >> 10));
  std::printf("%-44s | %lu GiB\n", "DRAM per socket",
              static_cast<unsigned long>(geometry.socket_bytes() >> 30));
  std::printf("%-44s | %u per bank\n", "Subarrays", geometry.subarrays_per_bank());
  std::printf("%-44s | %lu MiB (= banks x rows/subarray x row)\n", "Subarray group size",
              static_cast<unsigned long>(geometry.subarray_group_bytes() >> 20));
  std::printf("%-44s | %lu MiB (16 row groups, the §4.2 chunk)\n", "A/B interleave chunk",
              static_cast<unsigned long>(16 * geometry.row_group_bytes() >> 20));
  std::printf("%-44s | %s\n", "Host kernel (modeled)",
              "Linux/KVM 5.15-style mm: buddy, NUMA, cgroups");
  std::printf("%-44s | %s\n", "Guest backing",
              "static, pinned, 2 MiB huge pages, no sharing");
  bench::PrintRule();

  // Derived check: boot a Siloz instance and print what it actually builds.
  SkylakeDecoder decoder(geometry);
  FlatPhysMemory memory;
  SilozHypervisor hypervisor(decoder, memory, SilozConfig{});
  if (!hypervisor.Boot().ok()) {
    return 1;
  }
  std::printf("Booted Siloz on this platform: %zu logical nodes (%zu host + %zu guest),\n"
              "EPT block %lu KiB/socket, %zu EPT pool pages/socket.\n",
              hypervisor.nodes().node_count(),
              hypervisor.nodes().NodesOfKind(NodeKind::kHostReserved).size(),
              hypervisor.nodes().NodesOfKind(NodeKind::kGuestReserved).size(),
              static_cast<unsigned long>(hypervisor.ept_reserved_bytes() / 2 >> 10),
              hypervisor.ept_pool_free(0));
  return 0;
}
