// Closed-loop engine vocabulary: models cores issuing memory requests with
// bounded memory-level parallelism.
//
// EngineConfig is the per-queue closed-loop shape (outstanding misses, compute
// gap between issues), EngineResult what one closed loop reports, and
// CompletionWindow the bounded in-flight multiset every command queue stalls
// on. The one production serve engine built from them is ShardServer
// (sharded_engine.h); the single-window serial loop that predates it lives on
// only as the differential oracle in tests/support/serial_engine.h.
#ifndef SILOZ_SRC_MEMCTL_ENGINE_H_
#define SILOZ_SRC_MEMCTL_ENGINE_H_

#include <bit>
#include <cstdint>
#include <vector>

#include "src/base/check.h"

namespace siloz {

struct EngineConfig {
  // Outstanding requests the core(s) sustain (MLP). 10 approximates one
  // aggressive core; multi-threaded workloads use higher effective values.
  uint32_t max_outstanding = 10;
  // Nanoseconds of compute between consecutive issues (0 = memory-bound).
  double compute_ns_per_access = 0.0;
};

struct EngineResult {
  double elapsed_ns = 0.0;
  uint64_t requests = 0;

  double bandwidth_gib_per_s(double bytes_per_request = 64.0) const {
    if (elapsed_ns <= 0.0) {
      return 0.0;
    }
    return static_cast<double>(requests) * bytes_per_request / elapsed_ns *
           (1e9 / (1024.0 * 1024.0 * 1024.0));
  }
};

namespace engine_internal {

// Bounded multiset of in-flight completion times, the window behind every
// ShardServer command queue. The closed loop reads only its minimum value (the
// oldest completion, which frees the issue slot), never which entry holds it.
//
// The values sit sorted in a ring, so the head is the minimum and Min() is one
// read. Push inserts from the back, shifting up only the entries larger than
// the new value; ReplaceMin pops the head and inserts. In the shipped shape
// that shift is almost always empty: every command of a bank-group queue uses
// one channel's data bus, and ServeDecoded advances that bus's free time on
// each request, so burst completions within a queue strictly increase. Only
// the refresh tail (at most t_rfc, once per rank per tREFI) lands a value out
// of order, and it moves past just the few entries within t_rfc of it. Any
// other input stays correct at O(capacity) per insert; the worst case is a
// decreasing sequence, which shifts every entry.
class CompletionWindow {
 public:
  explicit CompletionWindow(uint32_t capacity)
      : capacity_(capacity), mask_(std::bit_ceil(capacity) - 1), ring_(mask_ + 1) {
    SILOZ_CHECK_GT(capacity, 0u);
  }

  bool full() const { return size_ >= capacity_; }

  // The oldest completion (only meaningful while non-empty).
  double Min() const { return ring_[head_]; }

  // Retire the minimum and insert `value` in its place (callers only while
  // full()).
  void ReplaceMin(double value) {
    head_ = (head_ + 1) & mask_;
    --size_;
    Push(value);
  }

  // Insert `value` (warmup; callers Push only while !full()).
  void Push(double value) {
    uint32_t pos = size_;
    for (; pos > 0; --pos) {
      const double prev = ring_[(head_ + pos - 1) & mask_];
      if (prev <= value) {
        break;
      }
      ring_[(head_ + pos) & mask_] = prev;
    }
    ring_[(head_ + pos) & mask_] = value;
    ++size_;
  }

 private:
  uint32_t capacity_;
  uint32_t mask_;  // ring length - 1; a power-of-two length wraps with a mask
  uint32_t head_ = 0;
  uint32_t size_ = 0;
  std::vector<double> ring_;  // ring_[(head_ + i) & mask_], i < size_, ascending
};

}  // namespace engine_internal

}  // namespace siloz

#endif  // SILOZ_SRC_MEMCTL_ENGINE_H_
