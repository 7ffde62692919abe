// Extended page tables (§2.1, §5.4).
//
// A 4-level x86-64-style EPT mapping guest physical addresses (GPAs) to host
// physical addresses (HPAs): PML4 -> PDPT -> PD -> PT, 512 8-byte entries
// per 4 KiB table page. Large mappings terminate early: 1 GiB at PDPT level,
// 2 MiB at PD level (the backing multiple major cloud providers use, §5.4).
//
// Table pages live in simulated physical memory and every walk re-reads the
// entries from there, so DRAM bit flips genuinely corrupt translations —
// which is why Siloz must protect EPT integrity to enforce subarray-group
// isolation. Optional secure-EPT mode models Intel TDX / AMD SNP (§5.4):
// per-table-page checksums held outside DRAM, verified on every walk;
// corruption is *detected* (integrity error), not prevented.
#ifndef SILOZ_SRC_EPT_EPT_H_
#define SILOZ_SRC_EPT_EPT_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "src/base/result.h"
#include "src/ept/phys_memory.h"

namespace siloz {

enum class PageSize : uint8_t { k4K, k2M, k1G };

uint64_t PageSizeBytes(PageSize size);

// Where EPT table pages come from. Siloz instruments this path with the
// GFP_EPT flag (§5.4) to place tables in guard-protected row groups; the
// baseline draws from ordinary node memory.
using EptPageAllocator = std::function<Result<uint64_t>()>;

// Entry encoding (subset of the Intel layout the model needs).
inline constexpr uint64_t kEptPresent = 1ull << 0;
inline constexpr uint64_t kEptLargePage = 1ull << 7;
inline constexpr uint64_t kEptFrameMask = 0x000FFFFFFFFFF000ull;

class ExtendedPageTable {
 public:
  // `secure` enables TDX/SNP-style integrity checksums on table pages.
  // Aborts if the root table cannot be allocated; prefer Create() when the
  // allocator can legitimately be exhausted.
  ExtendedPageTable(PhysMemory& memory, EptPageAllocator allocator, bool secure = false);

  // Fallible construction: returns the allocator's error instead of aborting
  // when it cannot supply the root page.
  static Result<std::unique_ptr<ExtendedPageTable>> Create(PhysMemory& memory,
                                                           EptPageAllocator allocator,
                                                           bool secure = false);

  // Map [gpa, gpa+size) -> [hpa, hpa+size); both must be size-aligned.
  // The one-page MapRange.
  Status Map(uint64_t gpa, uint64_t hpa, PageSize size);

  // Map [gpa, gpa+bytes) -> [hpa, hpa+bytes) in `size` pages; all three
  // must be page-aligned. Walks to each leaf table once, drawing missing
  // tables in the order a per-page Map loop would, then reads and writes the
  // table's slice of the range in one access each, failing with
  // kAlreadyExists if an entry there is present or a large page covers it.
  // On DRAM-backed memory that is a different command sequence from a
  // per-page Map loop's.
  Status MapRange(uint64_t gpa, uint64_t hpa, uint64_t bytes, PageSize size);

  // Hardware page walk: GPA -> HPA, reading table bytes from physical
  // memory. In secure mode, each visited table page's checksum is verified
  // first; a mismatch returns kIntegrityViolation (detected corruption).
  Result<uint64_t> Translate(uint64_t gpa) const;

  // One present leaf mapping as found by walking the table bytes in memory.
  struct LeafMapping {
    uint64_t gpa = 0;
    uint64_t hpa = 0;
    PageSize size = PageSize::k4K;
  };

  // Enumerates every present leaf mapping by exhaustively walking the table
  // pages (reading entries from physical memory, like Translate does), in
  // ascending GPA order. This reports what the table *bytes* currently say —
  // a hammered entry shows up with its corrupted HPA — which is what the
  // static isolation audit needs to verify containment. In secure mode each
  // visited table page's checksum is verified; the first failure aborts the
  // walk and is returned.
  Status VisitLeafMappings(const std::function<void(const LeafMapping&)>& visit) const;

  uint64_t root_hpa() const { return root_; }
  // HPAs of all table pages (root included): the working set §5.4 bounds.
  const std::vector<uint64_t>& table_pages() const { return table_pages_; }
  size_t table_page_count() const { return table_pages_.size(); }
  bool secure() const { return secure_; }

 private:
  // Non-allocating constructor used by Create(): the caller must follow up
  // with AllocateTablePage() for the root before the table is usable.
  struct DeferRootTag {};
  ExtendedPageTable(DeferRootTag, PhysMemory& memory, EptPageAllocator allocator, bool secure)
      : memory_(memory), allocator_(std::move(allocator)), secure_(secure) {}

  // Index of `gpa` at a given level (0 = PML4 ... 3 = PT).
  static uint32_t LevelIndex(uint64_t gpa, uint32_t level);

  // Walks from the root to the table holding `gpa`'s entry at `leaf_level`,
  // drawing any missing table on the way.
  Result<uint64_t> WalkToLeafTable(uint64_t gpa, uint32_t leaf_level);

  Result<uint64_t> AllocateTablePage();
  void RefreshChecksum(uint64_t table_hpa);
  Status VerifyChecksum(uint64_t table_hpa) const;
  uint64_t ChecksumOf(uint64_t table_hpa) const;

  PhysMemory& memory_;
  EptPageAllocator allocator_;
  bool secure_;
  uint64_t root_ = 0;
  std::vector<uint64_t> table_pages_;
  // Secure-EPT metadata: lives "in the TDX module", not in hammerable DRAM.
  std::unordered_map<uint64_t, uint64_t> checksums_;
};

}  // namespace siloz

#endif  // SILOZ_SRC_EPT_EPT_H_
