// Physical memory byte access used by the EPT walker.
//
// EPT pages live at host physical addresses; hardware page walks read their
// bytes from DRAM. Routing the walker through this interface means a bit
// flip in simulated DRAM genuinely redirects translation — the attack §5.4
// defends against. FlatPhysMemory is the fast store for unit tests and for
// performance-mode simulation; sim::DramBackedMemory routes through the full
// DramDevice fault model.
#ifndef SILOZ_SRC_EPT_PHYS_MEMORY_H_
#define SILOZ_SRC_EPT_PHYS_MEMORY_H_

#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

namespace siloz {

class PhysMemory {
 public:
  virtual ~PhysMemory() = default;

  virtual void ReadPhys(uint64_t phys, std::span<uint8_t> out) = 0;
  virtual void WritePhys(uint64_t phys, std::span<const uint8_t> data) = 0;

  // Copies `bytes` from `src` to `dst` (ranges must not overlap). The base
  // implementation streams 4 KiB chunks through ReadPhys/WritePhys, which is
  // correct for any backing; sparse stores override it so copying a region
  // whose frames were never touched stays O(frames actually materialized) —
  // the property VM migration relies on to move multi-GiB backings cheaply.
  virtual void CopyPhys(uint64_t dst, uint64_t src, uint64_t bytes);

  // True when every access is a modeled DRAM command that can activate a
  // hammerable row, so the number and order of accesses is itself model
  // output. False for stores where only the bytes matter.
  virtual bool AccessesActivateRows() const { return false; }

  uint64_t ReadU64(uint64_t phys);
  void WriteU64(uint64_t phys, uint64_t value);
};

// Sparse in-memory frame store (4 KiB frames, zero-filled on first touch).
class FlatPhysMemory final : public PhysMemory {
 public:
  void ReadPhys(uint64_t phys, std::span<uint8_t> out) override;
  void WritePhys(uint64_t phys, std::span<const uint8_t> data) override;
  // Frame-aligned spans copy (or drop, for zero source frames) whole frames
  // without materializing untouched memory; ragged edges fall back to the
  // streaming base implementation.
  void CopyPhys(uint64_t dst, uint64_t src, uint64_t bytes) override;

  // Test helper: flip one bit directly (simulates a Rowhammer hit on a
  // flat-backed configuration).
  void FlipBit(uint64_t phys, uint8_t bit);

  size_t frame_count() const { return frames_.size(); }

 private:
  std::vector<uint8_t>& Frame(uint64_t frame_index);
  std::unordered_map<uint64_t, std::vector<uint8_t>> frames_;
};

}  // namespace siloz

#endif  // SILOZ_SRC_EPT_PHYS_MEMORY_H_
