#include "src/dram/fault_model.h"

#include <algorithm>

#include "src/base/check.h"
#include "src/base/units.h"

namespace siloz {
namespace {

uint64_t VictimKey(uint32_t bank_key, HalfRowSide side, uint32_t row) {
  return (static_cast<uint64_t>(bank_key) << 33) | (static_cast<uint64_t>(side) << 32) | row;
}

// Stateless mixer for deterministic per-row properties.
uint64_t Mix(uint64_t a, uint64_t b) {
  uint64_t z = a * 0x9E3779B97F4A7C15ull + b;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

}  // namespace

DisturbanceModel::DisturbanceModel(DisturbanceProfile profile, uint32_t rows_per_bank,
                                   uint32_t rows_per_subarray, uint32_t half_row_bits)
    : profile_(profile),
      rows_per_bank_(rows_per_bank),
      rows_per_subarray_(rows_per_subarray),
      half_row_bits_(half_row_bits),
      flip_rng_(profile.seed ^ 0xF11Bull) {
  SILOZ_CHECK_GT(rows_per_subarray_, 0u);
  SILOZ_CHECK_EQ(rows_per_bank_ % rows_per_subarray_, 0u);
  SILOZ_CHECK_GT(profile_.threshold_mean, 0.0);
  subarrays_per_bank_ = rows_per_bank_ / rows_per_subarray_;
  subarray_div_ = FastDivider(rows_per_subarray_);
  min_threshold_ = std::min(ThresholdAt(0.0), ThresholdAt(1.0));
}

double DisturbanceModel::ThresholdFor(uint32_t bank_key, HalfRowSide side,
                                      uint32_t internal_row) const {
  const uint64_t h = Mix(profile_.seed, VictimKey(bank_key, side, internal_row));
  // Uniform in mean * [1 - spread, 1 + spread].
  const double u = static_cast<double>(h >> 11) * 0x1.0p-53;
  return ThresholdAt(u);
}

DisturbanceModel::VictimState* DisturbanceModel::AllocateSlab(size_t slot, uint32_t subarray) {
  if (slot >= slabs_.size()) {
    slabs_.resize(slot + 1);
  }
  std::vector<std::unique_ptr<VictimState[]>>& bank = slabs_[slot];
  if (bank.empty()) {
    bank.resize(subarrays_per_bank_);
  }
  std::unique_ptr<VictimState[]>& slab = bank[subarray];
  if (!slab) {
    // Value-initialized: all-zero entries are indistinguishable from
    // never-tracked victims (see DisturbVictim's epoch normalization).
    slab = std::make_unique<VictimState[]>(rows_per_subarray_);
  }
  return slab.get();
}

void DisturbanceModel::EmitFlips(uint32_t victim_row, double threshold, VictimState& state,
                                 FlipSink& sink) {
  // Caller established the first crossing; convert it (and any further ones
  // the same probe earned) into 1 + Geometric(extra_flip_prob) flips each, at
  // hash-determined positions.
  do {
    ++state.crossings;
    ++total_flip_events_;
    uint32_t flip_count = 1;
    while (flip_rng_.NextBernoulli(profile_.extra_flip_prob)) {
      ++flip_count;
    }
    for (uint32_t i = 0; i < flip_count; ++i) {
      // siloz-lint: allow(unchecked-status): FlipSink::Append returns void;
      // the flagged name collides with report.h's Status-returning Append.
      sink.Append(InternalFlip{
          .victim_row = victim_row,
          .bit = static_cast<uint32_t>(flip_rng_.NextBelow(half_row_bits_)),
      });
    }
  } while (state.disturbance >= threshold * static_cast<double>(state.crossings + 1));
}

void DisturbanceModel::AddDisturbanceClipped(uint32_t bank_key, HalfRowSide side,
                                             uint32_t aggressor_row, uint32_t base,
                                             VictimState* slab, double amount, uint64_t now_ns,
                                             FlipSink& sink) {
  struct Neighbour {
    int64_t row;
    double weight;
  };
  const Neighbour neighbours[] = {
      {static_cast<int64_t>(aggressor_row) - 1, 1.0},
      {static_cast<int64_t>(aggressor_row) + 1, 1.0},
      {static_cast<int64_t>(aggressor_row) - 2, profile_.distance2_factor},
      {static_cast<int64_t>(aggressor_row) + 2, profile_.distance2_factor},
  };
  for (const Neighbour& n : neighbours) {
    if (n.row < 0 || n.row >= static_cast<int64_t>(rows_per_bank_)) {
      continue;
    }
    const auto victim = static_cast<uint32_t>(n.row);
    if (victim < base || victim >= base + rows_per_subarray_) {
      continue;  // subarray isolation boundary
    }
    ++disturb_probes_;
    DisturbVictim(bank_key, side, victim, slab[victim - base], amount * n.weight, now_ns, sink);
  }
}

std::vector<InternalFlip> DisturbanceModel::OnActivate(uint32_t bank_key, HalfRowSide side,
                                                       uint32_t internal_row, uint64_t now_ns) {
  FlipSink sink;
  OnActivate(bank_key, side, internal_row, now_ns, sink);
  return sink.Take();
}

std::vector<InternalFlip> DisturbanceModel::OnRowOpen(uint32_t bank_key, HalfRowSide side,
                                                      uint32_t internal_row, uint64_t open_ns,
                                                      uint64_t now_ns) {
  FlipSink sink;
  OnRowOpen(bank_key, side, internal_row, open_ns, now_ns, sink);
  return sink.Take();
}

void DisturbanceModel::RefreshRow(uint32_t bank_key, HalfRowSide side, uint32_t internal_row,
                                  uint64_t now_ns) {
  // Non-allocating: a row whose slab was never created carries no
  // disturbance, so refreshing it is a no-op (matching the auto-refresh
  // epochs, which are also lazy).
  CheckEpochRange(now_ns);
  const size_t slot = static_cast<size_t>(bank_key) * 2 + static_cast<size_t>(side);
  if (slot >= slabs_.size() || slabs_[slot].empty()) {
    return;
  }
  const auto subarray = static_cast<uint32_t>(subarray_div_.Divide(internal_row));
  const std::unique_ptr<VictimState[]>& slab = slabs_[slot][subarray];
  if (!slab) {
    return;
  }
  VictimState& state = slab[internal_row - subarray * rows_per_subarray_];
  state.disturbance = 0.0;
  state.crossings = 0;
  state.refresh_epoch = EpochFor(internal_row, now_ns);
}

}  // namespace siloz
