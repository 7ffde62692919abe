#include "src/ept/ept.h"

#include <algorithm>
#include <array>
#include <span>

#include "src/base/check.h"
#include "src/base/fault_injector.h"
#include "src/base/units.h"

namespace siloz {

uint64_t PageSizeBytes(PageSize size) {
  switch (size) {
    case PageSize::k4K:
      return kPage4K;
    case PageSize::k2M:
      return kPage2M;
    case PageSize::k1G:
      return kPage1G;
  }
  return 0;
}

ExtendedPageTable::ExtendedPageTable(PhysMemory& memory, EptPageAllocator allocator, bool secure)
    : memory_(memory), allocator_(std::move(allocator)), secure_(secure) {
  Result<uint64_t> root = AllocateTablePage();
  SILOZ_CHECK(root.ok()) << "cannot allocate EPT root: " << root.error().ToString();
  root_ = *root;
}

Result<std::unique_ptr<ExtendedPageTable>> ExtendedPageTable::Create(PhysMemory& memory,
                                                                     EptPageAllocator allocator,
                                                                     bool secure) {
  // Construct without a root, then allocate it fallibly — the aborting
  // constructor is reserved for callers that treat exhaustion as a bug.
  std::unique_ptr<ExtendedPageTable> ept(
      new ExtendedPageTable(DeferRootTag{}, memory, std::move(allocator), secure));
  Result<uint64_t> root = ept->AllocateTablePage();
  SILOZ_RETURN_IF_ERROR(root);
  ept->root_ = *root;
  return ept;
}

uint32_t ExtendedPageTable::LevelIndex(uint64_t gpa, uint32_t level) {
  // Level 0 = PML4 (bits 47:39) ... level 3 = PT (bits 20:12).
  const unsigned shift = 39 - 9 * level;
  return static_cast<uint32_t>((gpa >> shift) & 0x1FF);
}

Result<uint64_t> ExtendedPageTable::AllocateTablePage() {
  SILOZ_FAULT_POINT("alloc.ept.table_page");
  Result<uint64_t> page = allocator_();
  SILOZ_RETURN_IF_ERROR(page);
  SILOZ_CHECK_EQ(*page % kPage4K, 0u);
  const std::array<uint8_t, 64> zeros{};
  for (uint64_t offset = 0; offset < kPage4K; offset += zeros.size()) {
    memory_.WritePhys(*page + offset, zeros);
  }
  table_pages_.push_back(*page);
  if (secure_) {
    RefreshChecksum(*page);
  }
  return *page;
}

uint64_t ExtendedPageTable::ChecksumOf(uint64_t table_hpa) const {
  // FNV-1a over the page, standing in for the TDX module's MAC.
  std::array<uint8_t, kPage4K> bytes;
  memory_.ReadPhys(table_hpa, bytes);
  uint64_t hash = 0xCBF29CE484222325ull;
  for (uint8_t byte : bytes) {
    hash = (hash ^ byte) * 0x100000001B3ull;
  }
  return hash;
}

void ExtendedPageTable::RefreshChecksum(uint64_t table_hpa) {
  checksums_[table_hpa] = ChecksumOf(table_hpa);
}

Status ExtendedPageTable::VerifyChecksum(uint64_t table_hpa) const {
  auto it = checksums_.find(table_hpa);
  if (it == checksums_.end() || it->second != ChecksumOf(table_hpa)) {
    return MakeError(ErrorCode::kIntegrityViolation,
                     "EPT page at " + std::to_string(table_hpa) + " failed integrity check");
  }
  return Status::Ok();
}

Status ExtendedPageTable::Map(uint64_t gpa, uint64_t hpa, PageSize size) {
  return MapRange(gpa, hpa, PageSizeBytes(size), size);
}

Result<uint64_t> ExtendedPageTable::WalkToLeafTable(uint64_t gpa, uint32_t leaf_level) {
  uint64_t table = root_;
  for (uint32_t level = 0; level < leaf_level; ++level) {
    const uint64_t entry_addr = table + LevelIndex(gpa, level) * 8;
    uint64_t entry = memory_.ReadU64(entry_addr);
    if ((entry & kEptPresent) == 0) {
      Result<uint64_t> child = AllocateTablePage();
      SILOZ_RETURN_IF_ERROR(child);
      entry = (*child & kEptFrameMask) | kEptPresent;
      memory_.WriteU64(entry_addr, entry);
      if (secure_) {
        RefreshChecksum(table);
      }
    } else if ((entry & kEptLargePage) != 0) {
      return MakeError(ErrorCode::kAlreadyExists, "large mapping already covers this GPA");
    }
    table = entry & kEptFrameMask;
  }
  return table;
}

Status ExtendedPageTable::MapRange(uint64_t gpa, uint64_t hpa, uint64_t bytes, PageSize size) {
  const uint64_t page = PageSizeBytes(size);
  if (gpa % page != 0 || hpa % page != 0 || bytes % page != 0) {
    return MakeError(ErrorCode::kInvalidArgument, "gpa/hpa/bytes not aligned to page size");
  }
  // Leaf level: PDPT (1) for 1 GiB, PD (2) for 2 MiB, PT (3) for 4 KiB.
  const uint32_t leaf_level = size == PageSize::k1G ? 1 : (size == PageSize::k2M ? 2 : 3);
  const uint64_t leaf_flags = kEptPresent | (size == PageSize::k4K ? 0 : kEptLargePage);
  std::array<uint64_t, 512> entries{};
  for (uint64_t offset = 0; offset < bytes;) {
    Result<uint64_t> table = WalkToLeafTable(gpa + offset, leaf_level);
    SILOZ_RETURN_IF_ERROR(table);
    const uint32_t first = LevelIndex(gpa + offset, leaf_level);
    const size_t count = std::min<uint64_t>(512 - first, (bytes - offset) / page);
    const std::span<uint8_t> slice(reinterpret_cast<uint8_t*>(entries.data()), count * 8);
    memory_.ReadPhys(*table + first * 8, slice);
    for (size_t i = 0; i < count; ++i) {
      if ((entries[i] & kEptPresent) != 0) {
        return MakeError(ErrorCode::kAlreadyExists, "GPA already mapped");
      }
      entries[i] = ((hpa + offset + i * page) & kEptFrameMask) | leaf_flags;
    }
    memory_.WritePhys(*table + first * 8, slice);
    if (secure_) {
      RefreshChecksum(*table);
    }
    offset += count * page;
  }
  return Status::Ok();
}

Status ExtendedPageTable::VisitLeafMappings(
    const std::function<void(const LeafMapping&)>& visit) const {
  // Depth-first over the 4-level radix tree. GPA bits accumulate per level;
  // 512 entries per table keeps the explicit stack tiny.
  struct Frame {
    uint64_t table;
    uint64_t gpa_base;
    uint32_t level;
    uint32_t index;
  };
  std::vector<Frame> stack{{root_, 0, 0, 0}};
  while (!stack.empty()) {
    Frame& frame = stack.back();
    if (frame.index == 0 && secure_) {
      SILOZ_RETURN_IF_ERROR(VerifyChecksum(frame.table));
    }
    if (frame.index == 512) {
      stack.pop_back();
      continue;
    }
    const uint32_t index = frame.index++;
    const unsigned shift = 39 - 9 * frame.level;
    const uint64_t gpa = frame.gpa_base + (static_cast<uint64_t>(index) << shift);
    const uint64_t entry = memory_.ReadU64(frame.table + index * 8);
    if ((entry & kEptPresent) == 0) {
      continue;
    }
    const bool is_leaf = frame.level == 3 || (entry & kEptLargePage) != 0;
    if (is_leaf) {
      const PageSize size =
          frame.level == 3 ? PageSize::k4K : (frame.level == 2 ? PageSize::k2M : PageSize::k1G);
      visit(LeafMapping{gpa, entry & kEptFrameMask, size});
      continue;
    }
    stack.push_back(Frame{entry & kEptFrameMask, gpa, frame.level + 1, 0});
  }
  return Status::Ok();
}

Result<uint64_t> ExtendedPageTable::Translate(uint64_t gpa) const {
  uint64_t table = root_;
  for (uint32_t level = 0; level < 4; ++level) {
    if (secure_) {
      SILOZ_RETURN_IF_ERROR(VerifyChecksum(table));
    }
    const uint64_t entry = memory_.ReadU64(table + LevelIndex(gpa, level) * 8);
    if ((entry & kEptPresent) == 0) {
      return MakeError(ErrorCode::kNotFound, "GPA not mapped");
    }
    const bool is_leaf = level == 3 || (entry & kEptLargePage) != 0;
    if (is_leaf) {
      // Offset bits below the leaf's coverage pass through.
      const unsigned shift = level == 3 ? 12 : (level == 2 ? 21 : 30);
      const uint64_t frame = entry & kEptFrameMask;
      // A corrupted entry can set frame bits below the mapping granularity;
      // hardware would honour them, so the model does too.
      return frame + (gpa & ((1ull << shift) - 1));
    }
    table = entry & kEptFrameMask;
  }
  return MakeError(ErrorCode::kNotFound, "GPA not mapped");
}

}  // namespace siloz
