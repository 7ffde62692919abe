// Tests for the EPT walker and secure-EPT integrity (src/ept).
#include <gtest/gtest.h>

#include <array>
#include <string>
#include <vector>

#include "src/base/fault_injector.h"
#include "src/base/units.h"
#include "src/ept/ept.h"
#include "src/ept/phys_memory.h"

namespace siloz {
namespace {

// Allocator handing out consecutive 4 KiB frames starting at 1 GiB.
EptPageAllocator BumpAllocator(uint64_t* cursor) {
  return [cursor]() -> Result<uint64_t> {
    const uint64_t page = *cursor;
    *cursor += kPage4K;
    return page;
  };
}

TEST(PhysMemoryTest, ReadWriteRoundTrip) {
  FlatPhysMemory memory;
  const uint8_t data[] = {1, 2, 3, 4};
  memory.WritePhys(12345, data);
  uint8_t out[4] = {};
  memory.ReadPhys(12345, out);
  EXPECT_EQ(out[0], 1);
  EXPECT_EQ(out[3], 4);
}

TEST(PhysMemoryTest, UntouchedReadsZero) {
  FlatPhysMemory memory;
  uint8_t out[8] = {0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF};
  memory.ReadPhys(77_MiB, out);
  for (uint8_t byte : out) {
    EXPECT_EQ(byte, 0);
  }
}

TEST(PhysMemoryTest, CrossFrameAccess) {
  FlatPhysMemory memory;
  std::vector<uint8_t> data(kPage4K + 100, 0xAB);
  memory.WritePhys(kPage4K - 50, data);
  std::vector<uint8_t> out(data.size());
  memory.ReadPhys(kPage4K - 50, out);
  EXPECT_EQ(out, data);
  EXPECT_EQ(memory.frame_count(), 3u);
}

TEST(PhysMemoryTest, U64Helpers) {
  FlatPhysMemory memory;
  memory.WriteU64(640, 0xDEADBEEFCAFEF00Dull);
  EXPECT_EQ(memory.ReadU64(640), 0xDEADBEEFCAFEF00Dull);
}

TEST(EptTest, TranslateUnmappedFails) {
  FlatPhysMemory memory;
  uint64_t cursor = 1_GiB;
  ExtendedPageTable ept(memory, BumpAllocator(&cursor));
  EXPECT_FALSE(ept.Translate(0).ok());
}

TEST(EptTest, Map4KAndTranslate) {
  FlatPhysMemory memory;
  uint64_t cursor = 1_GiB;
  ExtendedPageTable ept(memory, BumpAllocator(&cursor));
  ASSERT_TRUE(ept.Map(0x7000, 0x123456000, PageSize::k4K).ok());
  EXPECT_EQ(*ept.Translate(0x7000), 0x123456000u);
  EXPECT_EQ(*ept.Translate(0x7ABC), 0x123456ABCu);  // offset passes through
  EXPECT_FALSE(ept.Translate(0x8000).ok());
  // 4 table pages: PML4, PDPT, PD, PT.
  EXPECT_EQ(ept.table_page_count(), 4u);
}

TEST(EptTest, Map2MLargePage) {
  FlatPhysMemory memory;
  uint64_t cursor = 1_GiB;
  ExtendedPageTable ept(memory, BumpAllocator(&cursor));
  ASSERT_TRUE(ept.Map(4_MiB, 512_MiB, PageSize::k2M).ok());
  EXPECT_EQ(*ept.Translate(4_MiB), 512_MiB);
  EXPECT_EQ(*ept.Translate(4_MiB + 123456), 512_MiB + 123456);
  // 3 table pages: PML4, PDPT, PD (leaf at PD level).
  EXPECT_EQ(ept.table_page_count(), 3u);
}

TEST(EptTest, Map1GHugePage) {
  FlatPhysMemory memory;
  uint64_t cursor = 1_GiB;
  ExtendedPageTable ept(memory, BumpAllocator(&cursor));
  ASSERT_TRUE(ept.Map(2_GiB, 8_GiB, PageSize::k1G).ok());
  EXPECT_EQ(*ept.Translate(2_GiB + 777), 8_GiB + 777);
  EXPECT_EQ(ept.table_page_count(), 2u);  // PML4, PDPT
}

TEST(EptTest, MisalignedMapRejected) {
  FlatPhysMemory memory;
  uint64_t cursor = 1_GiB;
  ExtendedPageTable ept(memory, BumpAllocator(&cursor));
  EXPECT_FALSE(ept.Map(4_KiB, 0, PageSize::k2M).ok());
  EXPECT_FALSE(ept.Map(2_MiB, 4_KiB, PageSize::k2M).ok());
}

TEST(EptTest, DoubleMapRejected) {
  FlatPhysMemory memory;
  uint64_t cursor = 1_GiB;
  ExtendedPageTable ept(memory, BumpAllocator(&cursor));
  ASSERT_TRUE(ept.Map(0, 2_MiB, PageSize::k2M).ok());
  EXPECT_FALSE(ept.Map(0, 4_MiB, PageSize::k2M).ok());
  EXPECT_FALSE(ept.Map(0, 4_MiB, PageSize::k4K).ok());  // covered by large page
}

TEST(EptTest, SharedIntermediateTables) {
  FlatPhysMemory memory;
  uint64_t cursor = 1_GiB;
  ExtendedPageTable ept(memory, BumpAllocator(&cursor));
  // 512 consecutive 2 MiB mappings share one PD: 3 + 0 extra pages.
  for (uint64_t i = 0; i < 512; ++i) {
    ASSERT_TRUE(ept.Map(i * kPage2M, 8_GiB + i * kPage2M, PageSize::k2M).ok());
  }
  EXPECT_EQ(ept.table_page_count(), 3u);
  EXPECT_EQ(*ept.Translate(511 * kPage2M + 5), 8_GiB + 511 * kPage2M + 5);
}

TEST(EptTest, EptFootprintMatchesPaperBound) {
  // §5.4: with 2 MiB backing and contiguous placement, each last-level EPT
  // page maps ~1 GiB, so a 160 GiB VM needs ~163 table pages (< one row
  // group of 384 pages).
  FlatPhysMemory memory;
  uint64_t cursor = 1_GiB;
  ExtendedPageTable ept(memory, BumpAllocator(&cursor));
  const uint64_t vm_bytes = 160_GiB;
  for (uint64_t gpa = 0; gpa < vm_bytes; gpa += kPage2M) {
    ASSERT_TRUE(ept.Map(gpa, 200_GiB + gpa, PageSize::k2M).ok());
  }
  // 160 PDs + 1 PDPT + 1 PML4 = 162.
  EXPECT_EQ(ept.table_page_count(), 162u);
  EXPECT_LT(ept.table_page_count(), 384u);
}

TEST(EptTest, BitFlipRedirectsTranslation) {
  // The §5.4 threat: a flipped EPT bit silently retargets a mapping.
  FlatPhysMemory memory;
  uint64_t cursor = 1_GiB;
  ExtendedPageTable ept(memory, BumpAllocator(&cursor));
  ASSERT_TRUE(ept.Map(0, 16_GiB, PageSize::k2M).ok());
  const uint64_t before = *ept.Translate(0);
  EXPECT_EQ(before, 16_GiB);

  // Flip frame bit 34 of the PD's first entry (byte 4, bit 2). The PD is the
  // 3rd table page allocated.
  const uint64_t pd_page = ept.table_pages()[2];
  memory.FlipBit(pd_page + 4, 2);

  const Result<uint64_t> after = ept.Translate(0);
  ASSERT_TRUE(after.ok());  // no integrity checking: walk "succeeds"
  EXPECT_NE(*after, before);
  EXPECT_EQ(*after, before ^ (1ull << 34));
}

TEST(SecureEptTest, DetectsCorruption) {
  // §5.4 hardware-based protection: TDX/SNP-style checks detect (not
  // prevent) EPT corruption; software cannot use the corrupted mapping.
  FlatPhysMemory memory;
  uint64_t cursor = 1_GiB;
  ExtendedPageTable ept(memory, BumpAllocator(&cursor), /*secure=*/true);
  ASSERT_TRUE(ept.Map(0, 16_GiB, PageSize::k2M).ok());
  ASSERT_TRUE(ept.Translate(0).ok());  // clean walk passes checks

  const uint64_t pd_page = ept.table_pages()[2];
  memory.FlipBit(pd_page + 4, 2);
  const Result<uint64_t> after = ept.Translate(0);
  ASSERT_FALSE(after.ok());
  EXPECT_EQ(after.error().code, ErrorCode::kIntegrityViolation);
}

TEST(SecureEptTest, LegitimateUpdatesKeepPassing) {
  FlatPhysMemory memory;
  uint64_t cursor = 1_GiB;
  ExtendedPageTable ept(memory, BumpAllocator(&cursor), /*secure=*/true);
  for (uint64_t i = 0; i < 64; ++i) {
    ASSERT_TRUE(ept.Map(i * kPage2M, 32_GiB + i * kPage2M, PageSize::k2M).ok());
    ASSERT_TRUE(ept.Translate(i * kPage2M).ok());
  }
}

TEST(EptTest, AllocatorFailurePropagates) {
  FlatPhysMemory memory;
  uint64_t cursor = 1_GiB;
  int budget = 2;  // root + one level only
  EptPageAllocator limited = [&]() -> Result<uint64_t> {
    if (budget-- <= 0) {
      return MakeError(ErrorCode::kNoMemory, "pool empty");
    }
    const uint64_t page = cursor;
    cursor += kPage4K;
    return page;
  };
  ExtendedPageTable ept(memory, limited);
  const Status status = ept.Map(0, 0, PageSize::k2M);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.error().code, ErrorCode::kNoMemory);
}

// --- MapRange against the per-page Map loop ---

// A table over its own memory and bump allocator: twins fed the same calls
// draw the same table pages.
struct TableTwin {
  explicit TableTwin(bool secure) : ept(memory, BumpAllocator(&cursor), secure) {}

  FlatPhysMemory memory;
  uint64_t cursor = 1_GiB;
  ExtendedPageTable ept;
};

Status MapPageByPage(ExtendedPageTable& ept, uint64_t gpa, uint64_t hpa, uint64_t bytes,
                     PageSize size) {
  for (uint64_t offset = 0; offset < bytes; offset += PageSizeBytes(size)) {
    SILOZ_RETURN_IF_ERROR(ept.Map(gpa + offset, hpa + offset, size));
  }
  return Status::Ok();
}

std::string Leaves(const ExtendedPageTable& ept) {
  std::string text;
  const Status walked = ept.VisitLeafMappings([&text](const ExtendedPageTable::LeafMapping& leaf) {
    text += std::to_string(leaf.gpa) + "->" + std::to_string(leaf.hpa) + "/" +
            std::to_string(static_cast<int>(leaf.size)) + " ";
  });
  return walked.ok() ? text : walked.error().ToString();
}

void ExpectSameTables(TableTwin& ranged, TableTwin& paged) {
  ASSERT_EQ(ranged.ept.table_pages(), paged.ept.table_pages());
  for (uint64_t table : ranged.ept.table_pages()) {
    std::array<uint8_t, kPage4K> a;
    std::array<uint8_t, kPage4K> b;
    ranged.memory.ReadPhys(table, a);
    paged.memory.ReadPhys(table, b);
    ASSERT_EQ(a, b) << "table page " << table;
  }
  EXPECT_EQ(Leaves(ranged.ept), Leaves(paged.ept));
}

struct RangeCase {
  const char* name;
  uint64_t gpa;
  uint64_t hpa;
  uint64_t pages;
  PageSize size;
};

// Runs inside one leaf table, across leaf tables, and across a PML4 entry
// (a new PDPT) for every page size.
constexpr RangeCase kRangeCases[] = {
    {"4k_one_table", 0x7000, 0x123456000, 37, PageSize::k4K},
    {"4k_across_tables", 2_MiB - 5 * kPage4K, 8_GiB, 700, PageSize::k4K},
    {"4k_across_pdpt", 512_GiB - 2 * kPage4K, 8_GiB + 3 * kPage4K, 4, PageSize::k4K},
    {"2m_one_table", 4_MiB, 512_MiB, 100, PageSize::k2M},
    {"2m_across_tables", 1_GiB - 6_MiB, 16_GiB, 1200, PageSize::k2M},
    {"2m_across_pdpt", 512_GiB - 4_MiB, 16_GiB, 4, PageSize::k2M},
    {"1g_one_table", 2_GiB, 8_GiB, 3, PageSize::k1G},
    {"1g_across_pdpt", 510_GiB, 64_GiB, 4, PageSize::k1G},
};

TEST(EptMapRangeTest, MatchesPerPageLoop) {
  for (const RangeCase& range : kRangeCases) {
    for (bool secure : {false, true}) {
      SCOPED_TRACE(std::string(range.name) + (secure ? " secure" : ""));
      TableTwin ranged(secure);
      TableTwin paged(secure);
      const uint64_t bytes = range.pages * PageSizeBytes(range.size);
      ASSERT_TRUE(ranged.ept.MapRange(range.gpa, range.hpa, bytes, range.size).ok());
      ASSERT_TRUE(MapPageByPage(paged.ept, range.gpa, range.hpa, bytes, range.size).ok());
      ASSERT_NO_FATAL_FAILURE(ExpectSameTables(ranged, paged));
      // Every page translates; in secure mode each walk verifies checksums.
      for (uint64_t offset = 0; offset < bytes; offset += PageSizeBytes(range.size)) {
        Result<uint64_t> hpa = ranged.ept.Translate(range.gpa + offset + 8);
        ASSERT_TRUE(hpa.ok()) << hpa.error().ToString();
        ASSERT_EQ(*hpa, range.hpa + offset + 8);
      }
    }
  }
}

TEST(EptMapRangeTest, RejectsWhatMapRejects) {
  TableTwin ranged(false);
  TableTwin paged(false);
  auto expect_same_error = [&](uint64_t gpa, uint64_t hpa, uint64_t bytes, PageSize size,
                               ErrorCode code) {
    const Status from_range = ranged.ept.MapRange(gpa, hpa, bytes, size);
    const Status from_pages = MapPageByPage(paged.ept, gpa, hpa, bytes, size);
    ASSERT_FALSE(from_range.ok());
    ASSERT_FALSE(from_pages.ok());
    EXPECT_EQ(from_range.error().code, code);
    EXPECT_EQ(from_pages.error().code, code);
  };
  expect_same_error(4_KiB, 0, 4_MiB, PageSize::k2M, ErrorCode::kInvalidArgument);
  expect_same_error(2_MiB, 4_KiB, 4_MiB, PageSize::k2M, ErrorCode::kInvalidArgument);
  EXPECT_EQ(ranged.ept.MapRange(0, 0, 3_MiB, PageSize::k2M).error().code,
            ErrorCode::kInvalidArgument);
  // An entry already present inside the range.
  for (TableTwin* twin : {&ranged, &paged}) {
    ASSERT_TRUE(twin->ept.Map(64_MiB + 5 * kPage4K, 1_MiB, PageSize::k4K).ok());
    ASSERT_TRUE(twin->ept.Map(1_GiB, 2_GiB, PageSize::k2M).ok());
    ASSERT_TRUE(twin->ept.Map(8_GiB, 8_GiB, PageSize::k1G).ok());
  }
  expect_same_error(64_MiB, 4_GiB, 16 * kPage4K, PageSize::k4K, ErrorCode::kAlreadyExists);
  // A 2 MiB page above a 4 KiB range, and a 1 GiB page above a 2 MiB one.
  expect_same_error(1_GiB + kPage4K, 4_GiB, 8 * kPage4K, PageSize::k4K,
                    ErrorCode::kAlreadyExists);
  expect_same_error(8_GiB + 4_MiB, 4_GiB, 2 * kPage2M, PageSize::k2M,
                    ErrorCode::kAlreadyExists);
  // A 2 MiB range over a table of 4 KiB entries.
  expect_same_error(64_MiB, 4_GiB, kPage2M, PageSize::k2M, ErrorCode::kAlreadyExists);
}

TEST(EptMapRangeTest, TablePageFaultDrawsWhatPerPageLoopDraws) {
  // 2 MiB pages across a PD boundary and a PML4 entry: five table draws
  // after the root (two PDPTs, three PDs).
  const uint64_t gpa = 511_GiB - 4_MiB;
  const uint64_t bytes = 2_GiB;
  for (uint64_t k = 1; k <= 7; ++k) {
    SCOPED_TRACE("fault at table draw " + std::to_string(k));
    TableTwin ranged(true);
    TableTwin paged(true);
    Status from_range = [&] {
      ScopedFault fault(k, "alloc.ept.table_page");
      return ranged.ept.MapRange(gpa, 16_GiB, bytes, PageSize::k2M);
    }();
    const uint64_t fired = FaultInjector::Global().faults_fired();
    Status from_pages = [&] {
      ScopedFault fault(k, "alloc.ept.table_page");
      return MapPageByPage(paged.ept, gpa, 16_GiB, bytes, PageSize::k2M);
    }();
    ASSERT_EQ(from_range.ok(), from_pages.ok());
    ASSERT_EQ(from_range.ok(), fired == 0);
    EXPECT_EQ(ranged.ept.table_pages(), paged.ept.table_pages());
  }
}

}  // namespace
}  // namespace siloz
