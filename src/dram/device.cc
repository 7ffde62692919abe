#include "src/dram/device.h"

#include <algorithm>
#include <bit>
#include <cstring>

#include "src/base/check.h"
#include "src/obs/metrics.h"

namespace siloz {
namespace {

uint64_t LoadWord(const uint8_t* bytes, size_t word_index) {
  uint64_t word = 0;
  std::memcpy(&word, bytes + word_index * 8, 8);
  return word;
}

void StoreWord(uint8_t* bytes, size_t word_index, uint64_t word) {
  std::memcpy(bytes + word_index * 8, &word, 8);
}

}  // namespace

DramDevice::DramDevice(const DramGeometry& geometry, RemapConfig remap_config,
                       DisturbanceProfile disturbance_profile, TrrConfig trr_config,
                       std::string name)
    : geometry_(geometry),
      remapper_(geometry, std::move(remap_config)),
      disturbance_(disturbance_profile, geometry.rows_per_bank, geometry.rows_per_subarray,
                   static_cast<uint32_t>(geometry.row_bytes / 2 * 8)),
      trr_config_(trr_config),
      name_(std::move(name)) {
  SILOZ_CHECK(geometry_.Validate().ok());
  SILOZ_CHECK_EQ(geometry_.row_bytes % 16, 0u);  // two 8-byte-aligned halves
  const uint32_t banks = geometry_.banks_per_dimm();
  bank_state_.resize(banks);
  trr_trackers_.reserve(static_cast<size_t>(banks) * 2);
  for (uint32_t i = 0; i < banks * 2; ++i) {
    trr_trackers_.emplace_back(trr_config_);
  }
  // The flip log holds a blast-radius worth of flips per subarray before
  // its first regrowth, which kills mid-soak reallocation storms.
  flip_log_.reserve(static_cast<size_t>(BlastRadiusRows(disturbance_profile)) * 2 *
                    geometry_.rows_per_subarray);
  flip_scratch_.Reserve(64);
}

DramDevice::~DramDevice() {
  // Deterministic flush point: integer totals only, so the registry values
  // depend on the command stream alone, never on host scheduling. Zero
  // counters are skipped; zero-ness is itself deterministic, so the exported
  // key set still matches across thread counts.
  obs::Registry& registry = obs::Registry::Global();
  const std::string prefix = "dram." + name_ + ".";
  const auto flush = [&](const char* key, uint64_t value) {
    if (value > 0) {
      registry.GetCounter(prefix + key).Add(value);
    }
  };
  flush("act", counters_.activates);
  flush("rd", counters_.reads);
  flush("wr", counters_.writes);
  flush("ref_ticks", counters_.ref_ticks);
  flush("trr_victim_refreshes", counters_.trr_victim_refreshes);
  flush("flips", counters_.bit_flips);
  flush("flips.hammer", counters_.flips_hammer);
  flush("flips.rowpress", counters_.flips_rowpress);
  flush("flips.injected", counters_.flips_injected);
  flush("ecc.corrected", counters_.corrected_words);
  flush("ecc.uncorrectable", counters_.uncorrectable_words);
  flush("ecc.silent", counters_.silent_corruptions);
  flush("disturb.probes", disturbance_.disturb_probes());
  flush("disturb.flip_events", disturbance_.total_flip_events());
}

TrrTracker& DramDevice::Tracker(uint32_t rank, uint32_t bank, HalfRowSide side) {
  return trr_trackers_[BankKey(rank, bank) * 2 + static_cast<uint32_t>(side)];
}

DramDevice::RowRef DramDevice::RowAt(uint8_t* buffer) const {
  return RowRef{
      .data = buffer,
      .flip_mask = buffer + geometry_.row_bytes,
      .check = buffer + geometry_.row_bytes * 2,
  };
}

DramDevice::RowRef DramDevice::GetOrCreateRow(uint32_t rank, uint32_t bank, uint32_t media_row) {
  std::unique_ptr<uint8_t[]>& buffer = rows_[RowKey(rank, bank, media_row)];
  if (buffer == nullptr) {
    // make_unique value-initializes: the row is born all-zero, which is the
    // canonical never-written row (zero data, zero check, zero mask).
    buffer = std::make_unique<uint8_t[]>(geometry_.row_bytes * 2 + geometry_.row_bytes / 8);
  }
  return RowAt(buffer.get());
}

void DramDevice::AdvanceTo(uint64_t now_ns) {
  SILOZ_CHECK_GE(now_ns, now_ns_);
  // TRR work only matters while activations are arriving; bound the per-call
  // tick processing so large idle jumps (e.g. a 24-hour scrub interval) cost
  // O(1). Auto-refresh correctness is independent: the disturbance model
  // computes refresh epochs lazily per victim.
  constexpr uint64_t kMaxTrrTicksPerAdvance = 65536;
  if (next_ref_ns_ <= now_ns) {
    const uint64_t pending = (now_ns - next_ref_ns_) / kRefreshIntervalNs + 1;
    if (pending > kMaxTrrTicksPerAdvance) {
      const uint64_t skipped = pending - kMaxTrrTicksPerAdvance;
      counters_.ref_ticks += skipped;
      next_ref_ns_ += skipped * kRefreshIntervalNs;
    }
  }
  while (next_ref_ns_ <= now_ns) {
    if (!trr_config_.enabled || trr_armed_ == 0) {
      // No tracker holds a count at its threshold, so SelectTargets() would
      // return empty for every bank: each remaining tick is a pure REF with
      // no TRR side effects. Take them all at once — idle refresh windows
      // between hammer patterns are thousands of such ticks per device.
      const uint64_t pending = (now_ns - next_ref_ns_) / kRefreshIntervalNs + 1;
      counters_.ref_ticks += pending;
      next_ref_ns_ += pending * kRefreshIntervalNs;
      break;
    }
    ++counters_.ref_ticks;
    // Each REF gives every bank's TRR logic a chance to proactively refresh
    // victims of its hottest tracked aggressors. Unarmed trackers are
    // skipped: SelectTargets() on them returns empty without mutating.
    for (uint32_t bank_key = 0; bank_key < bank_state_.size(); ++bank_key) {
      for (HalfRowSide side : {HalfRowSide::kA, HalfRowSide::kB}) {
        TrrTracker& tracker = trr_trackers_[bank_key * 2 + static_cast<uint32_t>(side)];
        if (!tracker.armed()) {
          continue;
        }
        for (uint32_t aggressor : tracker.SelectTargets()) {
          const auto radius = static_cast<int64_t>(trr_config_.victim_radius);
          for (int64_t delta = -radius; delta <= radius; ++delta) {
            const int64_t victim = static_cast<int64_t>(aggressor) + delta;
            if (victim < 0 || victim >= static_cast<int64_t>(geometry_.rows_per_bank) ||
                delta == 0) {
              continue;
            }
            disturbance_.RefreshRow(bank_key, side, static_cast<uint32_t>(victim),
                                    next_ref_ns_);
            ++counters_.trr_victim_refreshes;
          }
        }
        if (!tracker.armed()) {
          --trr_armed_;
        }
      }
    }
    next_ref_ns_ += kRefreshIntervalNs;
  }
  now_ns_ = now_ns;
}

void DramDevice::CloseOpenRow(uint32_t rank, uint32_t bank, uint64_t now_ns) {
  BankState& state = bank_state_[BankKey(rank, bank)];
  if (state.open_row < 0) {
    return;
  }
  // RowPress: long open intervals disturb neighbours (§2.5). Nominal tRAS-ish
  // open times contribute negligibly through the rowpress_acts_per_ns rate.
  // The charged interval is capped at the longest a controller can hold a
  // row open before mandatory refresh precharges the bank (9*tREFI): a row
  // that idles open in the model beyond that would have been closed by REF.
  const uint64_t open_ns = std::min(now_ns - state.open_since_ns, kMaxRowOpenNs);
  const auto media_row = static_cast<uint32_t>(state.open_row);
  for (HalfRowSide side : {HalfRowSide::kA, HalfRowSide::kB}) {
    const uint32_t internal = remapper_.ToInternal(media_row, rank, bank, side);
    flip_scratch_.Clear();
    disturbance_.OnRowOpen(BankKey(rank, bank), side, internal, open_ns, now_ns, flip_scratch_);
    if (!flip_scratch_.empty()) [[unlikely]] {
      ApplyInternalFlips(rank, bank, side, flip_scratch_.flips(), now_ns, FlipCause::kRowPress);
    }
  }
  state.open_row = -1;
}

void DramDevice::Activate(uint32_t rank, uint32_t bank, uint32_t media_row, uint64_t now_ns) {
  SILOZ_DCHECK(rank < geometry_.ranks_per_dimm);
  SILOZ_DCHECK(bank < geometry_.banks_per_rank);
  SILOZ_DCHECK(media_row < geometry_.rows_per_bank);
  AdvanceTo(now_ns);
  BankState& state = bank_state_[BankKey(rank, bank)];
  if (state.open_row == static_cast<int64_t>(media_row)) {
    return;  // row already open: no new ACT
  }
  CloseOpenRow(rank, bank, now_ns);
  ++counters_.activates;
  for (HalfRowSide side : {HalfRowSide::kA, HalfRowSide::kB}) {
    const uint32_t internal = remapper_.ToInternal(media_row, rank, bank, side);
    if (trr_config_.enabled) {
      TrrTracker& tracker = Tracker(rank, bank, side);
      const bool was_armed = tracker.armed();
      tracker.OnActivate(internal);
      trr_armed_ += static_cast<uint32_t>(tracker.armed()) - static_cast<uint32_t>(was_armed);
    }
    flip_scratch_.Clear();
    disturbance_.OnActivate(BankKey(rank, bank), side, internal, now_ns, flip_scratch_);
    if (!flip_scratch_.empty()) [[unlikely]] {
      ApplyInternalFlips(rank, bank, side, flip_scratch_.flips(), now_ns, FlipCause::kHammer);
    }
  }
  state.open_row = media_row;
  state.open_since_ns = now_ns;
}

void DramDevice::Precharge(uint32_t rank, uint32_t bank, uint64_t now_ns) {
  AdvanceTo(now_ns);
  CloseOpenRow(rank, bank, now_ns);
}

void DramDevice::ApplyInternalFlips(uint32_t rank, uint32_t bank, HalfRowSide side,
                                    std::span<const InternalFlip> flips, uint64_t now_ns,
                                    FlipCause cause) {
  const uint32_t half_bytes = static_cast<uint32_t>(geometry_.row_bytes / 2);
  for (const InternalFlip& flip : flips) {
    const uint32_t media_row = remapper_.ToMedia(flip.victim_row, rank, bank, side);
    const uint32_t byte_in_half = flip.bit / 8;
    const uint32_t byte_in_row =
        (side == HalfRowSide::kA ? 0 : half_bytes) + byte_in_half;
    ApplyFlipBit(rank, bank, media_row, flip.victim_row, side, byte_in_row,
                 static_cast<uint8_t>(flip.bit % 8), now_ns, cause);
  }
}

void DramDevice::ApplyFlipBit(uint32_t rank, uint32_t bank, uint32_t media_row,
                              uint32_t internal_row, HalfRowSide side, uint32_t byte_in_row,
                              uint8_t bit_in_byte, uint64_t now_ns, FlipCause cause) {
  RowRef row = GetOrCreateRow(rank, bank, media_row);
  const uint8_t mask = static_cast<uint8_t>(1u << bit_in_byte);
  row.data[byte_in_row] ^= mask;
  row.flip_mask[byte_in_row] ^= mask;
  ++counters_.bit_flips;
  switch (cause) {
    case FlipCause::kHammer:
      ++counters_.flips_hammer;
      break;
    case FlipCause::kRowPress:
      ++counters_.flips_rowpress;
      break;
    case FlipCause::kInjected:
      ++counters_.flips_injected;
      break;
  }
  flip_log_.push_back(FlipRecord{
      .rank = rank,
      .bank = bank,
      .media_row = media_row,
      .internal_row = internal_row,
      .side = side,
      .byte_in_row = byte_in_row,
      .bit_in_byte = bit_in_byte,
      .time_ns = now_ns,
  });
}

void DramDevice::InjectFlip(uint32_t rank, uint32_t bank, uint32_t media_row,
                            uint32_t byte_in_row, uint8_t bit_in_byte, uint64_t now_ns) {
  SILOZ_CHECK_LT(byte_in_row, geometry_.row_bytes);
  SILOZ_CHECK_LT(bit_in_byte, 8);
  const uint32_t half_bytes = static_cast<uint32_t>(geometry_.row_bytes / 2);
  const HalfRowSide side = byte_in_row < half_bytes ? HalfRowSide::kA : HalfRowSide::kB;
  const uint32_t internal = remapper_.ToInternal(media_row, rank, bank, side);
  ApplyFlipBit(rank, bank, media_row, internal, side, byte_in_row, bit_in_byte, now_ns,
               FlipCause::kInjected);
}

void DramDevice::RefreshRow(uint32_t rank, uint32_t bank, uint32_t media_row, uint64_t now_ns) {
  AdvanceTo(now_ns);
  for (HalfRowSide side : {HalfRowSide::kA, HalfRowSide::kB}) {
    const uint32_t internal = remapper_.ToInternal(media_row, rank, bank, side);
    disturbance_.RefreshRow(BankKey(rank, bank), side, internal, now_ns);
  }
}

void DramDevice::Write(uint32_t rank, uint32_t bank, uint32_t media_row, uint32_t column,
                       std::span<const uint8_t> data, uint64_t now_ns) {
  SILOZ_CHECK_LE(column + data.size(), geometry_.row_bytes);
  Activate(rank, bank, media_row, now_ns);
  ++counters_.writes;
  if (data.empty()) {
    return;  // an empty span touches no word
  }
  RowRef row = GetOrCreateRow(rank, bank, media_row);
  std::memcpy(row.data + column, data.data(), data.size());
  // Writes overwrite any latent flips in the touched bytes...
  std::memset(row.flip_mask + column, 0, data.size());
  // ...and the controller re-encodes check bits for every touched word.
  const size_t first_word = column / 8;
  const size_t last_word = (column + data.size() - 1) / 8;
  for (size_t w = first_word; w <= last_word; ++w) {
    // Partial-word writes leave flips in the untouched bytes of the word;
    // re-encoding would absorb them into "truth", which matches a real
    // read-modify-write through ECC (the flip becomes permanent data).
    std::memset(row.flip_mask + w * 8, 0, 8);
    row.check[w] = EccEncode(LoadWord(row.data, w));
  }
}

ReadResult DramDevice::Read(uint32_t rank, uint32_t bank, uint32_t media_row, uint32_t column,
                            std::span<uint8_t> out, uint64_t now_ns) {
  SILOZ_CHECK_LE(column + out.size(), geometry_.row_bytes);
  Activate(rank, bank, media_row, now_ns);
  ++counters_.reads;
  ReadResult result;
  if (out.empty()) {
    return result;  // an empty span touches no word
  }
  const auto stored = rows_.find(RowKey(rank, bank, media_row));
  if (stored == rows_.end()) {
    std::memset(out.data(), 0, out.size());  // never-written rows read as zero
    return result;
  }
  RowRef row = RowAt(stored->second.get());
  const size_t first_word = column / 8;
  const size_t last_word = (column + out.size() - 1) / 8;
  for (size_t w = first_word; w <= last_word; ++w) {
    const uint64_t raw = LoadWord(row.data, w);
    const uint64_t mask = LoadWord(row.flip_mask, w);
    if (mask == 0) {
      continue;  // fast path: word is clean
    }
    EccDecodeResult decoded = EccDecode(raw, row.check[w]);
    const uint64_t truth = raw ^ mask;
    switch (decoded.outcome) {
      case EccOutcome::kClean:
        // Flips aliased to a valid codeword (even multi-bit aliasing).
        ++result.silently_corrupt_words;
        ++counters_.silent_corruptions;
        break;
      case EccOutcome::kCorrected:
        ++result.corrected_words;
        ++counters_.corrected_words;
        if (decoded.data == truth) {
          // Genuine correction; scrub the word back to health.
          StoreWord(row.data, w, decoded.data);
          StoreWord(row.flip_mask, w, 0);
        } else {
          // Miscorrection (>=3 aliased flips): hardware believes it fixed a
          // single-bit error but the data is wrong.
          StoreWord(row.data, w, decoded.data);
          StoreWord(row.flip_mask, w, decoded.data ^ truth);
          ++result.silently_corrupt_words;
          ++counters_.silent_corruptions;
        }
        if (result.outcome == EccOutcome::kClean) {
          result.outcome = EccOutcome::kCorrected;
        }
        break;
      case EccOutcome::kUncorrectable:
        ++result.uncorrectable_words;
        ++counters_.uncorrectable_words;
        result.outcome = EccOutcome::kUncorrectable;
        break;
    }
  }
  std::memcpy(out.data(), row.data + column, out.size());
  return result;
}

uint64_t DramDevice::PatrolScrub(uint64_t now_ns) {
  AdvanceTo(now_ns);
  // rows_ iterates in (rank, bank, row) order, so the scrub's corrections do
  // not depend on the order rows were first stored.
  const size_t words_per_row = geometry_.row_bytes / 8;
  uint64_t corrected = 0;
  for (const auto& [key, buffer] : rows_) {
    RowRef row = RowAt(buffer.get());
    for (size_t w = 0; w < words_per_row; ++w) {
      const uint64_t mask = LoadWord(row.flip_mask, w);
      if (mask == 0) {
        continue;
      }
      const uint64_t raw = LoadWord(row.data, w);
      EccDecodeResult decoded = EccDecode(raw, row.check[w]);
      if (decoded.outcome == EccOutcome::kCorrected && decoded.data == (raw ^ mask)) {
        StoreWord(row.data, w, decoded.data);
        StoreWord(row.flip_mask, w, 0);
        ++corrected;
        ++counters_.corrected_words;
      }
    }
  }
  return corrected;
}

}  // namespace siloz
