// Addressing explorer: walk one physical address through every translation
// layer the paper describes — physical -> media (§2.4), media -> internal
// per rank/side (§6), and media -> subarray group (§4) — and show how a
// 2 MiB page spreads over the socket's banks while staying in one group.
//
// Run: ./build/examples/addressing_explorer [phys_address]
#include <cstdio>
#include <set>

#include "src/addr/decoder.h"
#include "src/addr/subarray_group.h"
#include "src/base/bitops.h"
#include "src/base/flags.h"
#include "src/base/units.h"
#include "src/dram/remap.h"

using namespace siloz;

int main(int argc, char** argv) {
  uint64_t phys = 5_GiB + 123 * kPage2M + 0x4bc0;  // an arbitrary default
  FlagSet flags("addressing_explorer");
  flags.Add("phys_address", &phys, "physical address, decimal or 0x hex");
  flags.ParseOrExit(argc, argv, 1);
  DramGeometry geometry;
  SkylakeDecoder decoder(geometry);
  SubarrayGroupMap map = *SubarrayGroupMap::Build(decoder, geometry.rows_per_subarray);
  RowRemapper remapper(geometry, RemapConfig{});
  if (phys >= geometry.total_bytes()) {
    std::fprintf(stderr, "address beyond %lu GiB of DRAM\n",
                 static_cast<unsigned long>(geometry.total_bytes() >> 30));
    return 1;
  }

  std::printf("Platform: %s\n\n", geometry.ToString().c_str());

  // Layer 1: physical -> media (the memory controller's fixed mapping).
  const MediaAddress media = *decoder.PhysToMedia(phys);
  std::printf("phys 0x%012lx\n", static_cast<unsigned long>(phys));
  std::printf("  -> media   %s\n", media.ToString().c_str());
  std::printf("     (socket %u, channel %u, DIMM %u, rank %u, bank %u, row %u, col %u)\n",
              media.socket, media.channel, media.dimm, media.rank, media.bank, media.row,
              media.column);

  // Layer 2: media row -> internal rows, per half-row side (§6).
  std::printf("  -> internal rows (DDR4 mirroring%s + inversion):\n",
              media.rank % 2 == 1 ? " [odd rank: active]" : " [even rank: identity]");
  for (HalfRowSide side : {HalfRowSide::kA, HalfRowSide::kB}) {
    const uint32_t internal = remapper.ToInternal(media.row, media.rank, media.bank, side);
    std::printf("     side %s: internal row %6u (silicon subarray %3u)\n", HalfRowSideName(side),
                internal, internal / geometry.rows_per_subarray);
  }

  // Layer 3: subarray group (§4).
  const uint32_t group = *map.GroupOfPhys(phys);
  const PhysRange extent = map.RangesOf(group)[0];
  std::printf("  -> subarray group %u (socket %u, subarray %u of every bank)\n", group,
              map.SocketOfGroup(group), map.IndexInCluster(group));
  std::printf("     extent: phys [0x%012lx, 0x%012lx) = %lu MiB\n",
              static_cast<unsigned long>(extent.begin), static_cast<unsigned long>(extent.end),
              static_cast<unsigned long>(extent.size() >> 20));

  // The §4.2 property: the enclosing 2 MiB page touches every bank of the
  // socket yet stays inside this one group.
  const uint64_t page = AlignDown(phys, kPage2M);
  std::set<uint32_t> banks;
  std::set<uint32_t> groups;
  std::set<uint32_t> rows;
  for (uint64_t offset = 0; offset < kPage2M; offset += kCacheLineBytes) {
    const MediaAddress line = *decoder.PhysToMedia(page + offset);
    banks.insert(SocketBankIndex(geometry, line));
    groups.insert(*map.GroupOfPhys(page + offset));
    rows.insert(line.row);
  }
  std::printf("\nEnclosing 2 MiB page at 0x%012lx:\n", static_cast<unsigned long>(page));
  std::printf("  touches %zu of %u banks, %zu distinct rows, %zu subarray group(s)\n",
              banks.size(), geometry.banks_per_socket(), rows.size(), groups.size());
  std::printf("  => full bank-level parallelism, single isolation domain (§4)\n");

  // Bonus: the neighbouring rows an aggressor at this address could disturb.
  std::printf("\nRowhammer blast radius from media row %u (same bank, same subarray):\n",
              media.row);
  for (int64_t delta = -2; delta <= 2; ++delta) {
    if (delta == 0) {
      continue;
    }
    const int64_t victim = static_cast<int64_t>(media.row) + delta;
    if (victim < 0 || victim >= geometry.rows_per_bank) {
      continue;
    }
    const bool same = static_cast<uint32_t>(victim) / geometry.rows_per_subarray ==
                      media.row / geometry.rows_per_subarray;
    MediaAddress victim_media = media;
    victim_media.row = static_cast<uint32_t>(victim);
    victim_media.column = 0;
    std::printf("  row %+ld -> phys 0x%012lx  %s\n", static_cast<long>(delta),
                static_cast<unsigned long>(*decoder.MediaToPhys(victim_media)),
                same ? "VULNERABLE (same subarray)" : "isolated (different subarray)");
  }
  return 0;
}
