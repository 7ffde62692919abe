// Regenerates Table 1: DDR4 address mirroring and inversion of lower-order
// row media address bits as a function of DIMM rank and side (§6).
//
// The paper's table lists, for each of b0..b10, the transformed bit seen by
// (even rank, A side), (even rank, B side), (odd rank, A side),
// (odd rank, B side). We derive the same table from the RowRemapper
// implementation by probing one-hot rows, then print the power-of-2
// subarray-size soundness summary the table supports.
#include <cstdio>
#include <string>

#include "bench/bench_util.h"
#include "src/dram/remap.h"

namespace siloz {
namespace {

// Describes what lands in internal bit `bit` when media rows are probed
// one-hot through mirroring (rank) then inversion (side).
std::string SourceOfBit(unsigned bit, uint32_t rank, HalfRowSide side) {
  // Probe with all-zero input to detect inversion at this position.
  const uint32_t zero_out =
      RowRemapper::ApplyInversion(RowRemapper::ApplyMirroring(0, rank), side);
  const bool inverted = ((zero_out >> bit) & 1u) != 0;
  // Probe one-hot inputs to find which media bit feeds this internal bit.
  for (unsigned src = 0; src <= 10; ++src) {
    const uint32_t out =
        RowRemapper::ApplyInversion(RowRemapper::ApplyMirroring(1u << src, rank), side);
    if ((((out ^ zero_out) >> bit) & 1u) != 0) {
      std::string name = "b" + std::to_string(src);
      return inverted ? "!" + name : name;
    }
  }
  return inverted ? "!0" : "0";
}

}  // namespace
}  // namespace siloz

int siloz::bench::Table1Remap(FlagSet& flags, int argc, char** argv) {
  flags.ParseOrExit(argc, argv, 2);
  DramGeometry geometry;
  bench::PrintHeader(
      "Table 1: DDR4 address mirroring + inversion of row media address bits", geometry);

  std::printf("%-10s", "internal");
  for (int bit = 10; bit >= 0; --bit) {
    std::printf(" %5s", ("b" + std::to_string(bit)).c_str());
  }
  std::printf("\n");
  bench::PrintRule();
  struct Case {
    const char* label;
    uint32_t rank;
    HalfRowSide side;
  };
  const Case cases[] = {
      {"even/A", 0, HalfRowSide::kA},
      {"even/B", 0, HalfRowSide::kB},
      {"odd/A", 1, HalfRowSide::kA},
      {"odd/B", 1, HalfRowSide::kB},
  };
  for (const Case& c : cases) {
    std::printf("%-10s", c.label);
    for (int bit = 10; bit >= 0; --bit) {
      std::printf(" %5s", SourceOfBit(static_cast<unsigned>(bit), c.rank, c.side).c_str());
    }
    std::printf("\n");
  }
  bench::PrintRule();
  std::printf("(paper: odd ranks mirror <b3,b4>,<b5,b6>,<b7,b8>; B sides invert [b3,b9])\n\n");

  std::printf("Subarray-block soundness of the transforms (basis of §6's claim\n"
              "that power-of-2 subarray sizes in [512, 2048] keep isolation):\n");
  std::printf("%-8s | %-10s | %-18s\n", "rows", "pow2?", "blocks preserved?");
  bench::PrintRule();
  DramGeometry probe = geometry;
  probe.rows_per_bank = 129024;  // divisible by every probed size (incl. 768)
  for (uint32_t rows : {512u, 768u, 1024u, 1536u, 2048u}) {
    RemapConfig standard;  // mirroring + inversion
    const bool preserved = TransformsPreserveSubarrayBlocks(probe, standard, rows);
    std::printf("%-8u | %-10s | %-18s\n", rows, (rows & (rows - 1)) == 0 ? "yes" : "NO",
                preserved ? "yes" : "NO (needs artificial groups)");
  }
  bench::PrintRule();
  return 0;
}
