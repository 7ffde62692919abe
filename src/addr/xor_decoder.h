// XOR-matrix address decoder: DRAM address functions as GF(2) linear maps.
//
// AMD Zen memory controllers (and most contemporary ones) derive each media
// coordinate bit as the XOR of a subset of physical address bits; reverse-
// engineering tools (DRAMA, ZenHammer's DRAMAddr/dare solver) publish the
// mapping exactly in that form — one 64-bit mask per output bit, the output
// bit being the parity of (phys & mask). This module is the generic engine
// for that family: encoding is mask application, decoding is application of
// the matrix inverse, computed once at construction by Gaussian elimination
// over GF(2). Both directions run byte-sliced: the map is linear, so it is
// the XOR of one 256-entry table lookup per input byte, tabulated at
// construction. A mapping is a bijection iff its bit matrix has full rank,
// which makes invertibility a *checkable property* rather than an assumption
// — the platform test battery asserts it for every registered platform and
// proves a deliberately rank-deficient spec is rejected.
#ifndef SILOZ_SRC_ADDR_XOR_DECODER_H_
#define SILOZ_SRC_ADDR_XOR_DECODER_H_

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/addr/decoder.h"
#include "src/base/result.h"
#include "src/dram/geometry.h"

namespace siloz {

// One platform's DRAM address functions. Field masks are listed LSB-first:
// media.bank bit i = parity(phys & bank_masks[i]), and so on. Every geometry
// field must be a power of two (the matrix is square over log2(total_bytes)
// bits), and each mask list must be exactly log2(field extent) long.
struct XorMaskSpec {
  std::string name = "xor";
  DramGeometry geometry;
  std::vector<uint64_t> socket_masks;
  std::vector<uint64_t> channel_masks;
  std::vector<uint64_t> dimm_masks;
  std::vector<uint64_t> rank_masks;
  std::vector<uint64_t> bank_masks;
  std::vector<uint64_t> row_masks;
  std::vector<uint64_t> column_masks;
};

// Rank of the stacked mask matrix over GF(2), restricted to the low
// `bits` physical-address bits. A spec is invertible iff the rank equals
// both the mask count and `bits`. Exposed for the injectivity property
// tests, which assert full rank for every registered platform and a deficit
// for a deliberately singular spec.
uint32_t XorMatrixRank(const std::vector<uint64_t>& masks, uint32_t bits);

class XorMaskDecoder final : public AddressDecoder {
 public:
  // Validates the spec (power-of-two geometry, mask counts, full rank) and
  // precomputes the inverse matrix. Returns kInvalidArgument with the first
  // offending property otherwise — including a rank deficit, which names the
  // aliased address pair a singular matrix would create.
  static Result<std::unique_ptr<XorMaskDecoder>> Build(const XorMaskSpec& spec);

  const DramGeometry& geometry() const override { return spec_.geometry; }
  Result<MediaAddress> PhysToMedia(uint64_t phys) const override;
  Result<uint64_t> MediaToPhys(const MediaAddress& media) const override;
  std::string name() const override { return spec_.name; }

  // Address-space width: log2(total_bytes); the matrix is n x n.
  uint32_t bits() const { return bits_; }
  // Forward matrix rows in media-bit order (column bits first, then channel,
  // dimm, rank, bank, row, socket) — the order decode packs the media bit
  // vector in. Exposed for the mask-rank/injectivity property tests.
  const std::vector<uint64_t>& forward_masks() const { return forward_; }
  const std::vector<uint64_t>& inverse_masks() const { return inverse_; }

 private:
  explicit XorMaskDecoder(XorMaskSpec spec);

  XorMaskSpec spec_;
  uint32_t bits_ = 0;
  // Bit offsets of each field within the packed media bit vector.
  uint32_t column_bits_ = 0, channel_bits_ = 0, dimm_bits_ = 0, rank_bits_ = 0,
           bank_bits_ = 0, row_bits_ = 0, socket_bits_ = 0;
  std::vector<uint64_t> forward_;  // media bit i = parity(phys & forward_[i])
  std::vector<uint64_t> inverse_;  // phys bit i = parity(media_vec & inverse_[i])
  // Byte-sliced forward_ and inverse_: table b, entry v is the packed media
  // vector of phys v << 8b (resp. the phys of media vector v << 8b).
  std::vector<std::array<uint64_t, 256>> phys_to_media_;
  std::vector<std::array<uint64_t, 256>> media_to_phys_;
};

// The Zen-style reference platform: 1 socket, 2 channels, 2 ranks, 16 banks
// of 64 Ki 8 KiB rows (32 GiB). Channel/rank/bank functions fold row bits in
// (ZenHammer Table-style), column and row bits are direct — the shape the
// dare solver recovers on Zen parts. Row bits sit high enough that every
// 2 MiB page stays inside one subarray group (the §4.2 property Siloz
// needs), while bank/channel functions below 2 MiB preserve bank-level
// parallelism within the page.
XorMaskSpec ZenXorSpec();

}  // namespace siloz

#endif  // SILOZ_SRC_ADDR_XOR_DECODER_H_
