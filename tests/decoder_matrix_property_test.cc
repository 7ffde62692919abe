// Seeded-random round-trip fuzz over the whole platform matrix: one million
// encode/decode round-trips per registered platform, byte-granular physical
// addresses drawn from the full machine range. A decoder that drops, aliases,
// or swaps any address bit fails here within a handful of draws; the first
// failing address is reported with its full bit decomposition so the broken
// bit position is readable straight off the log.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "src/addr/decoder.h"
#include "src/addr/platform.h"
#include "src/addr/xor_decoder.h"
#include "src/base/rng.h"

namespace siloz {
namespace {

constexpr int kRoundTripsPerPlatform = 1'000'000;

std::string Bits(uint64_t value, uint32_t width) {
  std::string out;
  out.reserve(width);
  for (int bit = static_cast<int>(width) - 1; bit >= 0; --bit) {
    out.push_back(((value >> bit) & 1) != 0 ? '1' : '0');
  }
  return out;
}

uint32_t AddressBits(uint64_t total_bytes) {
  uint32_t bits = 0;
  while ((1ull << bits) < total_bytes) {
    ++bits;
  }
  return bits;
}

// Everything a human needs to localize the broken bit: the address in hex
// and binary, the media coordinates both ways, and the XOR of the two
// physical addresses (its set bits are exactly the corrupted positions).
std::string DescribeMismatch(const std::string& platform, uint32_t bits, uint64_t phys,
                             const MediaAddress& media, uint64_t back) {
  char head[160];
  std::snprintf(head, sizeof(head),
                "platform=%s phys=0x%012llx back=0x%012llx diff=0x%012llx\n",
                platform.c_str(), static_cast<unsigned long long>(phys),
                static_cast<unsigned long long>(back),
                static_cast<unsigned long long>(phys ^ back));
  std::string out = head;
  out += "  phys bits " + Bits(phys, bits) + "\n";
  out += "  back bits " + Bits(back, bits) + "\n";
  out += "  diff bits " + Bits(phys ^ back, bits) + "\n";
  out += "  media     " + media.ToString();
  return out;
}

TEST(DecoderMatrixPropertyTest, MillionRandomRoundTripsPerPlatform) {
  for (const auto& [name, info] : PlatformRegistry()) {
    Result<std::unique_ptr<AddressDecoder>> made = info.make(info.geometry);
    ASSERT_TRUE(made.ok()) << name;
    const AddressDecoder& decoder = **made;
    const uint64_t total_bytes = info.geometry.total_bytes();
    const uint32_t bits = AddressBits(total_bytes);

    // One fixed seed per platform name so a failure reproduces standalone.
    Rng rng(0xF00D5EED ^ std::hash<std::string>{}(name));
    for (int i = 0; i < kRoundTripsPerPlatform; ++i) {
      const uint64_t phys = rng.NextBelow(total_bytes);
      Result<MediaAddress> media = decoder.PhysToMedia(phys);
      if (!media.ok()) {
        FAIL() << "decode failed after " << i << " round-trips: platform=" << name
               << " phys=0x" << std::hex << phys << std::dec << ": "
               << media.error().ToString();
      }
      Result<uint64_t> back = decoder.MediaToPhys(*media);
      if (!back.ok()) {
        FAIL() << "encode failed after " << i << " round-trips: "
               << DescribeMismatch(name, bits, phys, *media, 0) << "\n  "
               << back.error().ToString();
      }
      if (*back != phys) {
        FAIL() << "round-trip mismatch after " << i << " round-trips:\n"
               << DescribeMismatch(name, bits, phys, *media, *back);
      }
    }
  }
}

// The same sweep through the registry's string factory entry point, at lower
// volume: guards the plumbing silozctl/siloz_audit actually call.
TEST(DecoderMatrixPropertyTest, FactoryByNameRoundTrips) {
  for (const std::string& name : PlatformNames()) {
    Result<std::unique_ptr<AddressDecoder>> made = MakePlatformDecoder(name);
    ASSERT_TRUE(made.ok()) << name;
    const AddressDecoder& decoder = **made;
    const uint64_t total_bytes = decoder.geometry().total_bytes();
    Rng rng(0x5EED ^ std::hash<std::string>{}(name));
    for (int i = 0; i < 10'000; ++i) {
      const uint64_t phys = rng.NextBelow(total_bytes);
      Result<MediaAddress> media = decoder.PhysToMedia(phys);
      ASSERT_TRUE(media.ok()) << name;
      Result<uint64_t> back = decoder.MediaToPhys(*media);
      ASSERT_TRUE(back.ok()) << name;
      ASSERT_EQ(*back, phys) << name;
    }
  }
}

// Per-mask parity, the definition of an XOR address function: field bit i is
// parity(phys & masks[i]). The byte-sliced tables XorMaskDecoder runs must
// agree with it in both directions.
uint32_t ParityField(uint64_t value, const std::vector<uint64_t>& masks) {
  uint32_t field = 0;
  for (size_t i = 0; i < masks.size(); ++i) {
    field |= static_cast<uint32_t>(std::popcount(value & masks[i]) & 1) << i;
  }
  return field;
}

MediaAddress ParityDecode(const XorMaskSpec& spec, uint64_t phys) {
  MediaAddress media;
  media.socket = ParityField(phys, spec.socket_masks);
  media.channel = ParityField(phys, spec.channel_masks);
  media.dimm = ParityField(phys, spec.dimm_masks);
  media.rank = ParityField(phys, spec.rank_masks);
  media.bank = ParityField(phys, spec.bank_masks);
  media.row = ParityField(phys, spec.row_masks);
  media.column = ParityField(phys, spec.column_masks);
  return media;
}

// Packs `media` in forward-matrix row order (column, channel, dimm, rank,
// bank, row, socket) and applies the inverse rows bit by bit.
uint64_t ParityEncode(const XorMaskSpec& spec, const XorMaskDecoder& decoder,
                      const MediaAddress& media) {
  uint64_t vec = 0;
  uint32_t shift = 0;
  const auto pack = [&](uint32_t field, size_t width) {
    vec |= static_cast<uint64_t>(field) << shift;
    shift += static_cast<uint32_t>(width);
  };
  pack(media.column, spec.column_masks.size());
  pack(media.channel, spec.channel_masks.size());
  pack(media.dimm, spec.dimm_masks.size());
  pack(media.rank, spec.rank_masks.size());
  pack(media.bank, spec.bank_masks.size());
  pack(media.row, spec.row_masks.size());
  pack(media.socket, spec.socket_masks.size());
  uint64_t phys = 0;
  for (uint32_t bit = 0; bit < decoder.bits(); ++bit) {
    phys |= static_cast<uint64_t>(std::popcount(vec & decoder.inverse_masks()[bit]) & 1)
            << bit;
  }
  return phys;
}

// A random full-rank spec over a random power-of-two geometry (29-38
// address bits): random masks, redrawn until the matrix is invertible.
XorMaskSpec RandomFullRankSpec(Rng& rng) {
  XorMaskSpec spec;
  spec.name = "random";
  DramGeometry& g = spec.geometry;
  g.sockets = 1u << rng.NextBelow(2);
  g.channels_per_socket = 1u << rng.NextBelow(3);
  g.dimms_per_channel = 1u << rng.NextBelow(2);
  g.ranks_per_dimm = 1u << rng.NextBelow(2);
  g.banks_per_rank = 1u << rng.NextInRange(2, 4);
  g.rows_per_bank = 1u << rng.NextInRange(10, 16);
  g.row_bytes = uint64_t{1} << rng.NextInRange(10, 13);
  g.rows_per_subarray = 512;
  const uint32_t bits = AddressBits(g.total_bytes());
  const auto draw = [&](uint64_t extent) {
    std::vector<uint64_t> masks(AddressBits(extent));
    for (uint64_t& mask : masks) {
      mask = rng.NextInRange(1, (uint64_t{1} << bits) - 1);
    }
    return masks;
  };
  do {
    spec.socket_masks = draw(g.sockets);
    spec.channel_masks = draw(g.channels_per_socket);
    spec.dimm_masks = draw(g.dimms_per_channel);
    spec.rank_masks = draw(g.ranks_per_dimm);
    spec.bank_masks = draw(g.banks_per_rank);
    spec.row_masks = draw(g.rows_per_bank);
    spec.column_masks = draw(g.row_bytes);
  } while (!XorMaskDecoder::Build(spec).ok());
  return spec;
}

void ExpectTablesMatchParity(const XorMaskSpec& spec, Rng& rng) {
  Result<std::unique_ptr<XorMaskDecoder>> built = XorMaskDecoder::Build(spec);
  ASSERT_TRUE(built.ok()) << built.error().ToString();
  const XorMaskDecoder& decoder = **built;
  const DramGeometry& g = spec.geometry;
  for (int i = 0; i < 20'000; ++i) {
    const uint64_t phys = rng.NextBelow(g.total_bytes());
    Result<MediaAddress> media = decoder.PhysToMedia(phys);
    ASSERT_TRUE(media.ok());
    ASSERT_TRUE(*media == ParityDecode(spec, phys))
        << "phys=0x" << std::hex << phys << ": " << media->ToString();

    MediaAddress drawn;
    drawn.socket = static_cast<uint32_t>(rng.NextBelow(g.sockets));
    drawn.channel = static_cast<uint32_t>(rng.NextBelow(g.channels_per_socket));
    drawn.dimm = static_cast<uint32_t>(rng.NextBelow(g.dimms_per_channel));
    drawn.rank = static_cast<uint32_t>(rng.NextBelow(g.ranks_per_dimm));
    drawn.bank = static_cast<uint32_t>(rng.NextBelow(g.banks_per_rank));
    drawn.row = static_cast<uint32_t>(rng.NextBelow(g.rows_per_bank));
    drawn.column = static_cast<uint32_t>(rng.NextBelow(g.row_bytes));
    Result<uint64_t> encoded = decoder.MediaToPhys(drawn);
    ASSERT_TRUE(encoded.ok());
    ASSERT_EQ(*encoded, ParityEncode(spec, decoder, drawn)) << drawn.ToString();
    // And the parity definition maps it back: the inverse rows are right.
    ASSERT_TRUE(ParityDecode(spec, *encoded) == drawn) << drawn.ToString();
  }
}

TEST(XorDecodeDifferentialTest, ZenTablesMatchPerMaskParity) {
  Rng rng(0x7AB1E5);
  ExpectTablesMatchParity(ZenXorSpec(), rng);
}

TEST(XorDecodeDifferentialTest, RandomFullRankSpecsMatchPerMaskParity) {
  Rng rng(0x5EEDF00D);
  for (int spec = 0; spec < 32; ++spec) {
    SCOPED_TRACE("spec " + std::to_string(spec));
    ExpectTablesMatchParity(RandomFullRankSpec(rng), rng);
    if (HasFatalFailure()) {
      return;
    }
  }
}

}  // namespace
}  // namespace siloz
