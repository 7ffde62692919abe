#include "src/addr/xor_decoder.h"

#include <array>
#include <bit>
#include <utility>

#include "src/base/bitops.h"
#include "src/base/check.h"
#include "src/base/units.h"

namespace siloz {

namespace {

// Byte-sliced lookup tables for the GF(2) map whose output bit i is
// parity(input & rows[i]). The map is linear, so its image of an input is
// the XOR of the images of the input's bytes: table b, entry v holds the
// image of v << 8b. Built column by column: entry v is entry v-without-its-
// lowest-bit XOR the image of that one input bit.
std::vector<std::array<uint64_t, 256>> ByteTables(const std::vector<uint64_t>& rows,
                                                  uint32_t bits) {
  std::vector<uint64_t> column(bits, 0);  // image of input bit j
  for (size_t i = 0; i < rows.size(); ++i) {
    for (uint32_t j = 0; j < bits; ++j) {
      column[j] |= ((rows[i] >> j) & 1) << i;
    }
  }
  std::vector<std::array<uint64_t, 256>> tables((bits + 7) / 8);
  for (uint32_t b = 0; b < tables.size(); ++b) {
    tables[b][0] = 0;
    for (uint32_t v = 1; v < 256; ++v) {
      const auto low = static_cast<uint32_t>(std::countr_zero(v));
      const uint32_t bit = 8 * b + low;
      tables[b][v] = tables[b][v & (v - 1)] ^ (bit < bits ? column[bit] : 0);
    }
  }
  return tables;
}

// Image of `input` under the map ByteTables() sliced.
inline uint64_t ApplyTables(const std::vector<std::array<uint64_t, 256>>& tables,
                            uint64_t input) {
  uint64_t image = 0;
  for (const std::array<uint64_t, 256>& table : tables) {
    image ^= table[input & 0xFF];
    input >>= 8;
  }
  return image;
}

Status CheckFieldMasks(const char* field, uint64_t extent, const std::vector<uint64_t>& masks,
                       uint32_t bits) {
  if (!IsPowerOfTwo(extent)) {
    return MakeError(ErrorCode::kInvalidArgument,
                     std::string(field) + " extent " + std::to_string(extent) +
                         " is not a power of two");
  }
  if (masks.size() != Log2(extent)) {
    return MakeError(ErrorCode::kInvalidArgument,
                     std::string(field) + " needs " + std::to_string(Log2(extent)) +
                         " masks, got " + std::to_string(masks.size()));
  }
  const uint64_t space = (bits >= 64) ? ~0ull : ((1ull << bits) - 1);
  for (uint64_t mask : masks) {
    if (mask == 0 || (mask & ~space) != 0) {
      return MakeError(ErrorCode::kInvalidArgument,
                       std::string(field) + " mask 0x" + std::to_string(mask) +
                           " is empty or reaches beyond the " + std::to_string(bits) +
                           "-bit address space");
    }
  }
  return Status::Ok();
}

}  // namespace

uint32_t XorMatrixRank(const std::vector<uint64_t>& masks, uint32_t bits) {
  // Row-reduce over GF(2): each mask is one matrix row of `bits` columns.
  std::vector<uint64_t> rows = masks;
  uint32_t rank = 0;
  for (uint32_t col = 0; col < bits && rank < rows.size(); ++col) {
    const uint64_t pivot_bit = 1ull << col;
    size_t pivot = rank;
    while (pivot < rows.size() && (rows[pivot] & pivot_bit) == 0) {
      ++pivot;
    }
    if (pivot == rows.size()) {
      continue;
    }
    std::swap(rows[rank], rows[pivot]);
    for (size_t r = 0; r < rows.size(); ++r) {
      if (r != rank && (rows[r] & pivot_bit) != 0) {
        rows[r] ^= rows[rank];
      }
    }
    ++rank;
  }
  return rank;
}

XorMaskDecoder::XorMaskDecoder(XorMaskSpec spec) : spec_(std::move(spec)) {
  bits_ = Log2(spec_.geometry.total_bytes());
  column_bits_ = static_cast<uint32_t>(spec_.column_masks.size());
  channel_bits_ = static_cast<uint32_t>(spec_.channel_masks.size());
  dimm_bits_ = static_cast<uint32_t>(spec_.dimm_masks.size());
  rank_bits_ = static_cast<uint32_t>(spec_.rank_masks.size());
  bank_bits_ = static_cast<uint32_t>(spec_.bank_masks.size());
  row_bits_ = static_cast<uint32_t>(spec_.row_masks.size());
  socket_bits_ = static_cast<uint32_t>(spec_.socket_masks.size());
  // Packed media-vector order: column, channel, dimm, rank, bank, row,
  // socket. Any fixed order works; this one keeps the hot column/channel
  // bits in the low word positions.
  forward_.reserve(bits_);
  for (const auto* masks : {&spec_.column_masks, &spec_.channel_masks, &spec_.dimm_masks,
                            &spec_.rank_masks, &spec_.bank_masks, &spec_.row_masks,
                            &spec_.socket_masks}) {
    forward_.insert(forward_.end(), masks->begin(), masks->end());
  }
  SILOZ_CHECK_EQ(forward_.size(), bits_);

  // Invert by Gaussian elimination on [M | I]: when M reduces to I, the
  // right half holds M^-1. Build() has already verified full rank.
  std::vector<uint64_t> m = forward_;
  std::vector<uint64_t> inv(bits_, 0);
  for (uint32_t i = 0; i < bits_; ++i) {
    inv[i] = 1ull << i;
  }
  for (uint32_t col = 0; col < bits_; ++col) {
    size_t pivot = col;
    while (pivot < m.size() && (m[pivot] & (1ull << col)) == 0) {
      ++pivot;
    }
    SILOZ_CHECK(pivot < m.size()) << "singular matrix escaped Build()";
    std::swap(m[col], m[pivot]);
    std::swap(inv[col], inv[pivot]);
    for (size_t r = 0; r < m.size(); ++r) {
      if (r != col && (m[r] & (1ull << col)) != 0) {
        m[r] ^= m[col];
        inv[r] ^= inv[col];
      }
    }
  }
  // The left half is now I, so row i of the right half is the media-vector
  // mask producing phys bit i.
  inverse_ = std::move(inv);
  phys_to_media_ = ByteTables(forward_, bits_);
  media_to_phys_ = ByteTables(inverse_, bits_);
}

Result<std::unique_ptr<XorMaskDecoder>> XorMaskDecoder::Build(const XorMaskSpec& spec) {
  SILOZ_RETURN_IF_ERROR(spec.geometry.Validate());
  const DramGeometry& g = spec.geometry;
  if (!IsPowerOfTwo(g.total_bytes())) {
    return MakeError(ErrorCode::kInvalidArgument,
                     "XOR-matrix decoding needs a power-of-two address space, got " +
                         std::to_string(g.total_bytes()) + " bytes");
  }
  const uint32_t bits = Log2(g.total_bytes());
  if (bits > 63) {
    return MakeError(ErrorCode::kInvalidArgument, "address space too large for 64-bit masks");
  }
  SILOZ_RETURN_IF_ERROR(CheckFieldMasks("socket", g.sockets, spec.socket_masks, bits));
  SILOZ_RETURN_IF_ERROR(
      CheckFieldMasks("channel", g.channels_per_socket, spec.channel_masks, bits));
  SILOZ_RETURN_IF_ERROR(CheckFieldMasks("dimm", g.dimms_per_channel, spec.dimm_masks, bits));
  SILOZ_RETURN_IF_ERROR(CheckFieldMasks("rank", g.ranks_per_dimm, spec.rank_masks, bits));
  SILOZ_RETURN_IF_ERROR(CheckFieldMasks("bank", g.banks_per_rank, spec.bank_masks, bits));
  SILOZ_RETURN_IF_ERROR(CheckFieldMasks("row", g.rows_per_bank, spec.row_masks, bits));
  SILOZ_RETURN_IF_ERROR(CheckFieldMasks("column", g.row_bytes, spec.column_masks, bits));

  std::vector<uint64_t> stacked;
  stacked.reserve(bits);
  for (const auto* masks : {&spec.column_masks, &spec.channel_masks, &spec.dimm_masks,
                            &spec.rank_masks, &spec.bank_masks, &spec.row_masks,
                            &spec.socket_masks}) {
    stacked.insert(stacked.end(), masks->begin(), masks->end());
  }
  if (stacked.size() != bits) {
    return MakeError(ErrorCode::kInvalidArgument,
                     "mask count " + std::to_string(stacked.size()) + " != address bits " +
                         std::to_string(bits));
  }
  const uint32_t rank = XorMatrixRank(stacked, bits);
  if (rank != bits) {
    return MakeError(ErrorCode::kInvalidArgument,
                     "mask matrix rank " + std::to_string(rank) + " < " +
                         std::to_string(bits) + ": the mapping aliases " +
                         std::to_string(1ull << (bits - rank)) +
                         " physical addresses onto every media address");
  }
  return std::unique_ptr<XorMaskDecoder>(new XorMaskDecoder(spec));
}

Result<MediaAddress> XorMaskDecoder::PhysToMedia(uint64_t phys) const {
  if (phys >= spec_.geometry.total_bytes()) {
    return MakeError(ErrorCode::kOutOfRange,
                     "phys 0x" + std::to_string(phys) + " beyond DRAM");
  }
  // Unpack the media bit vector field by field, in forward-matrix row order.
  uint64_t vec = ApplyTables(phys_to_media_, phys);
  const auto take = [&vec](uint32_t width) {
    const auto field = static_cast<uint32_t>(vec & ((uint64_t{1} << width) - 1));
    vec >>= width;
    return field;
  };
  MediaAddress media;
  media.column = take(column_bits_);
  media.channel = take(channel_bits_);
  media.dimm = take(dimm_bits_);
  media.rank = take(rank_bits_);
  media.bank = take(bank_bits_);
  media.row = take(row_bits_);
  media.socket = take(socket_bits_);
  return media;
}

Result<uint64_t> XorMaskDecoder::MediaToPhys(const MediaAddress& media) const {
  SILOZ_RETURN_IF_ERROR(ValidateAddress(spec_.geometry, media));
  // Pack the media coordinates into the bit vector in forward-matrix row
  // order, then apply the inverse rows.
  uint64_t vec = 0;
  uint32_t shift = 0;
  vec |= static_cast<uint64_t>(media.column) << shift;
  shift += column_bits_;
  vec |= static_cast<uint64_t>(media.channel) << shift;
  shift += channel_bits_;
  vec |= static_cast<uint64_t>(media.dimm) << shift;
  shift += dimm_bits_;
  vec |= static_cast<uint64_t>(media.rank) << shift;
  shift += rank_bits_;
  vec |= static_cast<uint64_t>(media.bank) << shift;
  shift += bank_bits_;
  vec |= static_cast<uint64_t>(media.row) << shift;
  shift += row_bits_;
  vec |= static_cast<uint64_t>(media.socket) << shift;
  return ApplyTables(media_to_phys_, vec);
}

XorMaskSpec ZenXorSpec() {
  XorMaskSpec spec;
  spec.name = "zen";
  DramGeometry& g = spec.geometry;
  g.sockets = 1;
  g.channels_per_socket = 2;
  g.dimms_per_channel = 1;
  g.ranks_per_dimm = 2;
  g.banks_per_rank = 16;
  g.row_bytes = 8 * kKiB;
  g.rows_per_bank = 65536;
  g.rows_per_subarray = 1024;
  // 32 GiB => 35 address bits: 13 column + 1 channel + 1 rank + 4 bank + 16
  // row. Functions follow the ZenHammer shape: channel and rank hash a
  // spread of bits for uniform interleave, each bank bit XORs a low bit with
  // a row bit (bank swizzling decorrelates row marches from bank conflicts),
  // rows are the direct high bits.
  auto bit = [](unsigned i) { return 1ull << i; };
  for (unsigned i = 0; i < 13; ++i) {
    spec.column_masks.push_back(bit(i));
  }
  spec.channel_masks = {bit(8) ^ bit(14) ^ bit(18) ^ bit(22) ^ bit(26)};
  spec.rank_masks = {bit(13) ^ bit(17) ^ bit(21) ^ bit(25)};
  spec.bank_masks = {bit(14) ^ bit(19), bit(15) ^ bit(20), bit(16) ^ bit(21),
                     bit(17) ^ bit(22)};
  for (unsigned i = 0; i < 16; ++i) {
    spec.row_masks.push_back(bit(19 + i));
  }
  // 1 socket: zero socket bits, no masks.
  return spec;
}

}  // namespace siloz
