// Boot and placement golden: one FNV-1a digest per boot scenario.
//
// Every registered platform boots in four modes (guard-row EPT protection,
// secure EPT, unprotected, baseline), plus a Skylake boot with artificial
// subarray groups and one with quarantined rows. Each runs a scripted VM
// lifecycle (create, migrate, passthrough attach/detach, destroy, host
// shutdown). The digest folds everything a placement can be observed by:
//   - every node's free, offlined and total bytes, after each step;
//   - IsOfflined over every offlined or EPT-pool row group, page by page, and
//     one page on either side (plus each quarantined page's neighbourhood);
//   - the order EPT-pool pages are drawn (each table's page list, in order);
//   - each VM's regions, nodes, groups and table pages.
// The expected digests were taken from the per-page boot carve that
// BuddyAllocator::TakeRange replaced, so they pin that both place every page
// identically; any allocator change that moves a page moves a digest.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "src/addr/platform.h"
#include "src/base/bitops.h"
#include "src/base/units.h"
#include "src/ept/phys_memory.h"
#include "src/siloz/hypervisor.h"

namespace siloz {
namespace {

class Fnv {
 public:
  void Mix(uint64_t value) {
    for (int byte = 0; byte < 8; ++byte) {
      hash_ = (hash_ ^ ((value >> (8 * byte)) & 0xff)) * 0x100000001b3ull;
    }
  }
  uint64_t value() const { return hash_; }

 private:
  uint64_t hash_ = 0xcbf29ce484222325ull;
};

enum class Mode { kGuardRows, kSecureEpt, kUnprotected, kBaseline, kArtificial, kQuarantine };

struct Scenario {
  std::string platform;
  Mode mode;
  uint64_t digest;
};

void PrintTo(const Scenario& scenario, std::ostream* os) {
  *os << scenario.platform << " mode " << static_cast<int>(scenario.mode);
}

std::string ScenarioName(const ::testing::TestParamInfo<Scenario>& info) {
  static const char* const kModeNames[] = {"guard_rows", "secure_ept", "unprotected",
                                           "baseline",   "artificial", "quarantine"};
  return info.param.platform + "_" + kModeNames[static_cast<int>(info.param.mode)];
}

SilozConfig ConfigFor(const PlatformInfo& info, Mode mode) {
  SilozConfig config;
  config.rows_per_subarray = info.geometry.rows_per_subarray;
  config.uniform_internal_addressing = info.uniform_internal_addressing;
  switch (mode) {
    case Mode::kGuardRows:
      break;
    case Mode::kSecureEpt:
      config.ept_protection = EptProtection::kSecureEpt;
      break;
    case Mode::kUnprotected:
      config.ept_protection = EptProtection::kNone;
      break;
    case Mode::kBaseline:
      config.enabled = false;
      config.ept_protection = EptProtection::kNone;
      break;
    case Mode::kArtificial:
      config.rows_per_subarray = 768;  // rounds up to 1024-row artificial groups
      break;
    case Mode::kQuarantine:
      for (uint32_t row : {2500u, 70001u}) {
        MediaAddress media;
        media.row = row % info.geometry.rows_per_bank;
        media.bank = 3;
        config.quarantined_rows.push_back(media);
      }
      break;
  }
  return config;
}

bool OfflinedAt(SilozHypervisor& hv, uint64_t phys) {
  Result<uint32_t> group = hv.group_map().GroupOfPhys(phys);
  if (!group.ok()) {
    return false;
  }
  Result<uint32_t> node = hv.NodeOfGroup(*group);
  return node.ok() && (*hv.nodes().Get(*node))->allocator().IsOfflined(phys);
}

void FoldNodes(SilozHypervisor& hv, Fnv& fnv) {
  for (uint32_t id = 0; id < hv.nodes().node_count(); ++id) {
    const BuddyAllocator& alloc = (*hv.nodes().Get(id))->allocator();
    fnv.Mix(alloc.free_bytes());
    fnv.Mix(alloc.offlined_bytes());
    fnv.Mix(alloc.total_bytes());
  }
  for (uint32_t socket = 0; socket < hv.decoder().geometry().sockets; ++socket) {
    fnv.Mix(hv.ept_pool_free(socket));
  }
}

// Walks every row group of every subarray group; each one that is offlined
// (probed at its first page) or holds the EPT pool is folded page by page,
// with one page on either side.
void FoldOfflined(SilozHypervisor& hv, Fnv& fnv) {
  const DramGeometry& geometry = hv.decoder().geometry();
  const SubarrayGroupMap& map = hv.group_map();
  const uint64_t row_group_bytes =
      static_cast<uint64_t>(geometry.banks_per_socket() / map.clusters_per_socket()) *
      geometry.row_bytes;
  std::vector<PhysRange> ept_ranges;
  for (uint32_t socket = 0; socket < geometry.sockets; ++socket) {
    const std::vector<PhysRange>& ranges = hv.ept_pool_ranges(socket);
    ept_ranges.insert(ept_ranges.end(), ranges.begin(), ranges.end());
  }
  uint64_t flagged = 0;
  for (uint32_t group = 0; group < map.total_groups(); ++group) {
    for (const PhysRange& range : map.RangesOf(group)) {
      for (uint64_t start = range.begin; start + row_group_bytes <= range.end;
           start += row_group_bytes) {
        bool ept = false;
        for (const PhysRange& pool : ept_ranges) {
          ept |= pool.begin == start;
        }
        if (!ept && !OfflinedAt(hv, start)) {
          continue;
        }
        ++flagged;
        fnv.Mix(start);
        fnv.Mix(ept);
        for (uint64_t page = start - kPage4K; page <= start + row_group_bytes;
             page += kPage4K) {
          fnv.Mix(OfflinedAt(hv, page));
        }
      }
    }
  }
  fnv.Mix(flagged);
  for (const MediaAddress& row : hv.config().quarantined_rows) {
    MediaAddress media = row;
    for (uint32_t column = 0; column < geometry.row_bytes; column += kCacheLineBytes) {
      media.column = column;
      const uint64_t page = AlignDown(*hv.decoder().MediaToPhys(media), kPage4K);
      for (uint64_t probe : {page - kPage4K, page, page + kPage4K}) {
        fnv.Mix(probe);
        fnv.Mix(OfflinedAt(hv, probe));
      }
    }
  }
}

void FoldVm(SilozHypervisor& hv, VmId id, Fnv& fnv) {
  const Vm& vm = **hv.GetVm(id);
  fnv.Mix(vm.config().socket);
  for (const VmRegion& region : vm.regions()) {
    fnv.Mix(static_cast<uint64_t>(region.type));
    fnv.Mix(region.gpa);
    fnv.Mix(region.hpa);
    fnv.Mix(region.bytes);
    fnv.Mix(static_cast<uint64_t>(region.page_size));
  }
  for (uint32_t node : vm.guest_nodes()) {
    fnv.Mix(node);
  }
  for (uint32_t group : vm.guest_groups()) {
    fnv.Mix(group);
  }
  fnv.Mix(vm.ept()->secure());
  for (uint64_t page : vm.ept()->table_pages()) {
    fnv.Mix(page);
  }
}

uint64_t RunScenario(const Scenario& scenario) {
  const PlatformInfo* info = FindPlatform(scenario.platform);
  EXPECT_NE(info, nullptr);
  Result<std::unique_ptr<AddressDecoder>> decoder = info->make(info->geometry);
  EXPECT_TRUE(decoder.ok());
  FlatPhysMemory memory;
  SilozHypervisor hv(**decoder, memory, ConfigFor(*info, scenario.mode));
  Fnv fnv;
  Status booted = hv.Boot();
  EXPECT_TRUE(booted.ok()) << booted.error().ToString();
  fnv.Mix(hv.ept_reserved_bytes());
  fnv.Mix(hv.artificial_guard_bytes());
  fnv.Mix(hv.quarantined_bytes());
  FoldNodes(hv, fnv);
  if (hv.config().enabled) {
    FoldOfflined(hv, fnv);
  }

  Result<VmId> big = hv.CreateVm({.name = "big",
                                  .memory_bytes = 1_GiB,
                                  .rom_bytes = 2_MiB,
                                  .mmio_bytes = 16_MiB,
                                  .socket = 0,
                                  .backing = PageSize::k2M});
  EXPECT_TRUE(big.ok()) << big.error().ToString();
  Result<VmId> small = hv.CreateVm({.name = "small",
                                    .memory_bytes = 64_MiB,
                                    .rom_bytes = 64_KiB,
                                    .mmio_bytes = 1_MiB,
                                    .socket = 0,
                                    .backing = PageSize::k4K});
  EXPECT_TRUE(small.ok()) << small.error().ToString();
  FoldVm(hv, *big, fnv);
  FoldVm(hv, *small, fnv);
  FoldNodes(hv, fnv);

  if (hv.config().enabled && hv.decoder().geometry().sockets > 1) {
    Status migrated = hv.MigrateVm(*big, 1);
    EXPECT_TRUE(migrated.ok()) << migrated.error().ToString();
    FoldVm(hv, *big, fnv);
    FoldNodes(hv, fnv);
  }

  Result<uint32_t> nic = hv.AssignPassthroughDevice(*small, "nic0");
  EXPECT_TRUE(nic.ok()) << nic.error().ToString();
  Result<std::vector<uint64_t>> nic_pages = hv.DeviceTablePages(*nic);
  EXPECT_TRUE(nic_pages.ok());
  for (uint64_t page : *nic_pages) {
    fnv.Mix(page);
  }
  FoldNodes(hv, fnv);
  EXPECT_TRUE(hv.RemovePassthroughDevice(*nic).ok());
  FoldNodes(hv, fnv);

  EXPECT_TRUE(hv.DestroyVm(*big).ok());
  FoldNodes(hv, fnv);
  EXPECT_TRUE(hv.HostShutdown().ok());
  FoldNodes(hv, fnv);
  if (hv.config().enabled) {
    FoldOfflined(hv, fnv);
  }
  return fnv.value();
}

class PlacementGoldenTest : public ::testing::TestWithParam<Scenario> {};

TEST_P(PlacementGoldenTest, DigestMatchesGolden) {
  const uint64_t digest = RunScenario(GetParam());
  EXPECT_EQ(digest, GetParam().digest) << std::hex << "digest 0x" << digest;
}

// Expected digests. Re-baselining one is a deliberate edit, recorded with
// its reason in CHANGES.md. cascadelake and skylake share three: both have
// 192 GiB sockets of 1.5 GiB groups over the same decoder family, so only the
// guard-row block (row groups of 384 vs 192 banks) tells them apart.
INSTANTIATE_TEST_SUITE_P(
    Scenarios, PlacementGoldenTest,
    ::testing::Values(Scenario{"cascadelake", Mode::kGuardRows, 0x42b760121916f11bull},
                      Scenario{"cascadelake", Mode::kSecureEpt, 0x482f3e80ae7c70daull},
                      Scenario{"cascadelake", Mode::kUnprotected, 0x35e751ffe516204bull},
                      Scenario{"cascadelake", Mode::kBaseline, 0x4b86d48a14d2e485ull},
                      Scenario{"ddr5", Mode::kGuardRows, 0x9d817c9e949c3f5dull},
                      Scenario{"ddr5", Mode::kSecureEpt, 0xa746152637665867ull},
                      Scenario{"ddr5", Mode::kUnprotected, 0x77794661de02268eull},
                      Scenario{"ddr5", Mode::kBaseline, 0xe2ccec7f1be182c5ull},
                      Scenario{"skylake", Mode::kGuardRows, 0x46540241b90c8201ull},
                      Scenario{"skylake", Mode::kSecureEpt, 0x482f3e80ae7c70daull},
                      Scenario{"skylake", Mode::kUnprotected, 0x35e751ffe516204bull},
                      Scenario{"skylake", Mode::kBaseline, 0x4b86d48a14d2e485ull},
                      Scenario{"skylake", Mode::kArtificial, 0xcb602c5d5dd6bcbdull},
                      Scenario{"skylake", Mode::kQuarantine, 0x4f3d20aa3ae0f4d8ull},
                      Scenario{"zen", Mode::kGuardRows, 0xf3ef3394c7175bd5ull},
                      Scenario{"zen", Mode::kSecureEpt, 0x3af6486385c6e7d4ull},
                      Scenario{"zen", Mode::kUnprotected, 0x2cd4d68e5fa08930ull},
                      Scenario{"zen", Mode::kBaseline, 0xc8614710edfcf165ull}),
    ScenarioName);

// The registry is the matrix: a newly registered platform must be added to
// the scenarios above.
TEST(PlacementMatrixTest, EveryPlatformHasScenarios) {
  EXPECT_EQ(PlatformNames(), (std::vector<std::string>{"cascadelake", "ddr5", "skylake", "zen"}));
}

}  // namespace
}  // namespace siloz
