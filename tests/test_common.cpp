// Unit tests for src/common: SHA-1, CRC-32, the metadata seal, fingerprints,
// RNG, chunk content generation, measurement helpers.
#include <gtest/gtest.h>

#include <cstdio>
#include <set>
#include <string>

#include "common/byte_io.h"
#include "common/chunk.h"
#include "common/crc32.h"
#include "common/crc32_kernels.h"
#include "common/fingerprint.h"
#include "common/parse.h"
#include "common/rng.h"
#include "common/sha1.h"
#include "common/sha1_blocks.h"
#include "common/stats.h"

namespace hds {
namespace {

// --- SHA-1 against FIPS 180-4 / RFC 3174 vectors ---

TEST(Sha1, EmptyMessage) {
  EXPECT_EQ(Sha1::digest(nullptr, 0).hex(),
            "da39a3ee5e6b4b0d3255bfef95601890afd80709");
}

TEST(Sha1, Abc) {
  EXPECT_EQ(Sha1::digest("abc", 3).hex(),
            "a9993e364706816aba3e25717850c26c9cd0d89d");
}

TEST(Sha1, TwoBlockMessage) {
  const std::string msg =
      "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq";
  EXPECT_EQ(Sha1::digest(msg.data(), msg.size()).hex(),
            "84983e441c3bd26ebaae4aa1f95129e5e54670f1");
}

TEST(Sha1, MillionA) {
  Sha1 h;
  const std::string block(1000, 'a');
  for (int i = 0; i < 1000; ++i) h.update(block.data(), block.size());
  EXPECT_EQ(h.finish().hex(), "34aa973cd4c4daa4f61eeb2bdbad27316534016f");
}

TEST(Sha1, IncrementalMatchesOneShot) {
  std::vector<std::uint8_t> data(10000);
  Xoshiro256ss rng(7);
  for (auto& b : data) b = static_cast<std::uint8_t>(rng.next());

  const auto oneshot = Sha1::digest(data.data(), data.size());
  Sha1 h;
  std::size_t pos = 0;
  std::size_t step = 1;
  while (pos < data.size()) {
    const std::size_t n = std::min(step, data.size() - pos);
    h.update(data.data() + pos, n);
    pos += n;
    step = step * 2 + 1;  // irregular boundaries exercise buffering
  }
  EXPECT_EQ(h.finish(), oneshot);
}

TEST(Sha1, ResetAllowsReuse) {
  Sha1 h;
  h.update("abc", 3);
  (void)h.finish();
  h.reset();
  h.update("abc", 3);
  EXPECT_EQ(h.finish().hex(), "a9993e364706816aba3e25717850c26c9cd0d89d");
}

TEST(Sha1, ExactBlockBoundary) {
  const std::string msg(64, 'x');
  const auto a = Sha1::digest(msg.data(), 64);
  Sha1 h;
  h.update(msg.data(), 32);
  h.update(msg.data() + 32, 32);
  EXPECT_EQ(h.finish(), a);
}

// The vectors above hash through Sha1's default block function. Name it, so
// a log shows which path they covered.
TEST(Sha1, VectorsRanOnDispatchedPath) {
  const std::string path =
      sha1_detail::dispatched_blocks() == sha1_detail::blocks_shani
          ? "shani"
          : "scalar";
  RecordProperty("sha1_path", path);
  std::printf("SHA-1 block function: %s\n", path.c_str());
  EXPECT_EQ(path, sha1_detail::shani_supported() ? "shani" : "scalar");
  EXPECT_EQ(Sha1::digest("abc", 3).hex(),
            "a9993e364706816aba3e25717850c26c9cd0d89d");
}

// --- SHA-1 block functions: SHA-NI against scalar ---

std::vector<std::uint8_t> sha_input(std::size_t n, std::uint64_t seed) {
  std::vector<std::uint8_t> data(n);
  Xoshiro256ss rng(seed);
  for (auto& b : data) b = static_cast<std::uint8_t>(rng.next());
  return data;
}

class Sha1Paths : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!sha1_detail::shani_supported()) {
      GTEST_SKIP() << "CPU has no SHA-NI: every digest uses the scalar path, "
                      "so there is nothing to cross-check";
    }
  }

  static Fingerprint digest(sha1_detail::BlockFn blocks,
                            std::span<const std::uint8_t> data) {
    auto h = sha1_detail::with_blocks(blocks);
    h.update(data);
    return h.finish();
  }
};

TEST_F(Sha1Paths, EveryLengthAtFourMisalignments) {
  const auto data = sha_input(4096 + 3, 40);
  for (std::size_t offset = 0; offset < 4; ++offset) {
    for (std::size_t len = 0; len <= 4096; ++len) {
      const auto in = std::span(data).subspan(offset, len);
      ASSERT_EQ(digest(sha1_detail::blocks_shani, in),
                digest(sha1_detail::blocks_scalar, in))
          << "offset " << offset << " length " << len;
    }
  }
}

TEST_F(Sha1Paths, RandomIncrementalSplits) {
  const auto data = sha_input(64 * 1024, 41);
  Xoshiro256ss rng(42);
  for (int trial = 0; trial < 40; ++trial) {
    const std::size_t len = rng.next_below(data.size() + 1);
    const auto in = std::span(data).first(len);
    auto h = sha1_detail::with_blocks(sha1_detail::blocks_shani);
    std::size_t pos = 0;
    while (pos < len) {
      // Mostly sub-block pieces, some spanning many blocks, some empty.
      const std::size_t cap = rng.chance(0.2) ? 5000 : 130;
      const std::size_t n = std::min<std::size_t>(rng.next_below(cap), len - pos);
      h.update(in.subspan(pos, n));
      pos += n;
    }
    ASSERT_EQ(h.finish(), digest(sha1_detail::blocks_scalar, in))
        << "trial " << trial << " length " << len;
  }
}

TEST_F(Sha1Paths, OneMebibyte) {
  const auto data = sha_input(1 << 20, 43);
  EXPECT_EQ(digest(sha1_detail::blocks_shani, data),
            digest(sha1_detail::blocks_scalar, data));
  // The block functions alone, from a non-initial state.
  std::uint32_t a[5] = {1, 2, 3, 4, 5};
  std::uint32_t b[5] = {1, 2, 3, 4, 5};
  sha1_detail::blocks_shani(a, data.data(), data.size() / 64);
  sha1_detail::blocks_scalar(b, data.data(), data.size() / 64);
  EXPECT_TRUE(std::equal(a, a + 5, b));
}

// --- CRC-32 ---

TEST(Crc32, KnownVector) {
  // The canonical "123456789" check value for CRC-32/IEEE.
  EXPECT_EQ(crc32("123456789", 9), 0xCBF43926u);
}

TEST(Crc32, EmptyIsZero) { EXPECT_EQ(crc32(nullptr, 0), 0u); }

TEST(Crc32, DetectsSingleBitFlip) {
  std::vector<std::uint8_t> data(256);
  Xoshiro256ss rng(9);
  for (auto& b : data) b = static_cast<std::uint8_t>(rng.next());
  const auto before = crc32(data.data(), data.size());
  data[100] ^= 0x10;
  EXPECT_NE(before, crc32(data.data(), data.size()));
}

TEST(Crc32, SeedChaining) {
  const std::string msg = "hello world";
  const auto whole = crc32(msg.data(), msg.size());
  // A seed changes the value deterministically ...
  const auto seeded = crc32(msg.data(), msg.size(), 12345);
  EXPECT_NE(whole, seeded);
  EXPECT_EQ(seeded, crc32(msg.data(), msg.size(), 12345));
  // ... and a CRC seeded with the CRC of a prefix is the CRC of the whole,
  // which the container footer CRC (seeded with the header CRC) relies on.
  EXPECT_EQ(crc32(msg.data() + 5, msg.size() - 5, crc32(msg.data(), 5)), whole);
}

// CRCs of seeded buffers, recorded from the table loop before the fold
// existed (zlib's crc32_z gives the same values). The lengths straddle the
// fold's 16- and 64-byte steps.
TEST(Crc32, GoldenSeededBuffers) {
  struct Golden {
    std::size_t len;
    std::uint32_t seed;
    std::uint32_t crc;
  };
  constexpr Golden kGolden[] = {
      {1, 0x00000000u, 0x1B0ECF0Bu},       {15, 0x00000000u, 0x88E7BC47u},
      {16, 0x00000000u, 0x3D254674u},      {63, 0x00000000u, 0x1D4B19D7u},
      {64, 0x00000000u, 0x74597581u},      {65, 0x00000000u, 0x90463B80u},
      {79, 0xDEADBEEFu, 0x5728AEA6u},      {127, 0x00000000u, 0xE91153FCu},
      {128, 0x00000000u, 0x4A6FD659u},     {255, 0x00000001u, 0xA1E3CB67u},
      {1000, 0x00000000u, 0x3F61097Eu},    {4099, 0x2144DF1Cu, 0x69229ED2u},
      {65549, 0x00000000u, 0xEA9B7615u},   {1u << 20, 0xFFFFFFFFu, 0x08E7AEDFu},
  };
  for (const auto& g : kGolden) {
    std::vector<std::uint8_t> data(g.len);
    Xoshiro256ss rng(60 + g.len);
    for (auto& b : data) b = static_cast<std::uint8_t>(rng.next());
    EXPECT_EQ(crc32(data, g.seed), g.crc) << "length " << g.len;
    EXPECT_EQ(crc32_detail::table(data, g.seed), g.crc) << "length " << g.len;
  }
}

// The tests above checksum through crc32()'s kernel. Name it, so a log
// shows which path they covered.
TEST(Crc32, VectorsRanOnDispatchedPath) {
  const std::string path =
      crc32_detail::dispatched() == crc32_detail::fold ? "pclmul" : "table";
  RecordProperty("crc32_path", path);
  std::printf("CRC-32 kernel: %s\n", path.c_str());
  EXPECT_EQ(path, crc32_detail::fold_supported() ? "pclmul" : "table");
  EXPECT_EQ(crc32("123456789", 9), 0xCBF43926u);
}

// --- CRC-32 kernels: PCLMULQDQ fold against the table loop ---

class Crc32Paths : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!crc32_detail::fold_supported()) {
      GTEST_SKIP() << "CPU has no PCLMULQDQ: every CRC uses the table loop, "
                      "so there is nothing to cross-check";
    }
  }
};

TEST_F(Crc32Paths, EveryLengthAtFourMisalignments) {
  const auto data = sha_input(1100 + 3, 44);
  for (std::size_t offset = 0; offset < 4; ++offset) {
    for (std::size_t len = 0; len <= 1100; ++len) {
      const auto in = std::span(data).subspan(offset, len);
      for (const std::uint32_t seed : {0u, 0xFFFFFFFFu, 0x2144DF1Cu}) {
        ASSERT_EQ(crc32_detail::fold(in, seed), crc32_detail::table(in, seed))
            << "offset " << offset << " length " << len << " seed " << seed;
      }
    }
  }
}

TEST_F(Crc32Paths, SeedChainingAcrossRandomSplits) {
  const auto data = sha_input(64 * 1024, 45);
  Xoshiro256ss rng(46);
  for (int trial = 0; trial < 100; ++trial) {
    const std::size_t len = rng.next_below(data.size() + 1);
    const auto in = std::span(data).first(len);
    const std::uint32_t whole = crc32_detail::table(in, 0);
    for (const auto kernel : {crc32_detail::fold, crc32_detail::table}) {
      std::uint32_t crc = 0;
      std::size_t pos = 0;
      while (pos < len) {
        // Mostly pieces under one fold step, some spanning many, some empty.
        const std::size_t cap = rng.chance(0.2) ? 5000 : 130;
        const std::size_t n =
            std::min<std::size_t>(rng.next_below(cap), len - pos);
        crc = kernel(in.subspan(pos, n), crc);
        pos += n;
      }
      ASSERT_EQ(crc, whole) << "trial " << trial << " length " << len
                            << (kernel == crc32_detail::fold ? " fold"
                                                             : " table");
    }
  }
}

TEST_F(Crc32Paths, OneMebibyte) {
  const auto data = sha_input(1 << 20, 47);
  for (const std::uint32_t seed : {0u, 0x12345678u}) {
    EXPECT_EQ(crc32_detail::fold(data, seed), crc32_detail::table(data, seed));
  }
  // Every fold step plus a 15-byte table tail.
  const auto odd = std::span(data).first(data.size() - 1);
  EXPECT_EQ(crc32_detail::fold(odd, 0), crc32_detail::table(odd, 0));
}

// --- Seal (common/byte_io.h) ---

std::vector<std::uint8_t> sealed(const std::vector<std::uint8_t>& body) {
  ByteWriter writer;
  writer.raw(body);
  writer.seal();
  return writer.take();
}

std::vector<std::uint8_t> seal_body(std::size_t size) {
  std::vector<std::uint8_t> body(size);
  Xoshiro256ss rng(size);
  for (auto& b : body) b = static_cast<std::uint8_t>(rng.next());
  return body;
}

TEST(Seal, RoundTrip) {
  const auto body = seal_body(300);
  const auto bytes = sealed(body);
  ASSERT_EQ(bytes.size(), body.size() + kSealSize);
  // The trailer is the body's CRC-32, little-endian.
  const std::uint32_t crc = crc32(body.data(), body.size());
  for (std::size_t i = 0; i < kSealSize; ++i) {
    EXPECT_EQ(bytes[body.size() + i],
              static_cast<std::uint8_t>(crc >> (8 * i)));
  }
  const auto out = unseal(bytes);
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(out->data(), bytes.data());
  EXPECT_EQ(std::vector<std::uint8_t>(out->begin(), out->end()), body);
  // Every sealed file hashes to the residue, trailer included.
  EXPECT_EQ(crc32(bytes.data(), bytes.size()), kSealResidue);
}

TEST(Seal, EmptyBody) {
  const auto bytes = sealed({});
  ASSERT_EQ(bytes.size(), kSealSize);
  const auto out = unseal(bytes);
  ASSERT_TRUE(out.has_value());
  EXPECT_TRUE(out->empty());
  EXPECT_EQ(crc32(bytes.data(), bytes.size()), kSealResidue);
}

TEST(Seal, EveryTruncationOfTheTrailerIsRefused) {
  const auto bytes = sealed(seal_body(64));
  for (std::size_t cut = 1; cut <= kSealSize; ++cut) {
    const std::span<const std::uint8_t> torn(bytes.data(),
                                             bytes.size() - cut);
    EXPECT_FALSE(unseal(torn).has_value()) << "cut " << cut;
  }
  const auto empty = sealed({});
  for (std::size_t cut = 1; cut <= kSealSize; ++cut) {
    const std::span<const std::uint8_t> torn(empty.data(),
                                             empty.size() - cut);
    EXPECT_FALSE(unseal(torn).has_value()) << "cut " << cut;
  }
}

TEST(Seal, FlippedBitInBodyIsRefused) {
  auto bytes = sealed(seal_body(128));
  bytes[40] ^= 0x04;
  EXPECT_FALSE(unseal(bytes).has_value());
}

TEST(Seal, FlippedBitInTrailerIsRefused) {
  auto bytes = sealed(seal_body(128));
  bytes[bytes.size() - 2] ^= 0x80;
  EXPECT_FALSE(unseal(bytes).has_value());
}

// --- Fingerprint ---

TEST(Fingerprint, HexRoundTrip) {
  const auto fp = Fingerprint::from_seed(42);
  Fingerprint back;
  ASSERT_TRUE(Fingerprint::from_hex(fp.hex(), back));
  EXPECT_EQ(fp, back);
}

TEST(Fingerprint, FromHexRejectsMalformed) {
  Fingerprint out;
  EXPECT_FALSE(Fingerprint::from_hex("zz", out));
  EXPECT_FALSE(Fingerprint::from_hex(std::string(39, 'a'), out));
  EXPECT_FALSE(Fingerprint::from_hex(std::string(41, 'a'), out));
  EXPECT_FALSE(
      Fingerprint::from_hex(std::string(38, 'a') + "g0", out));
  EXPECT_TRUE(Fingerprint::from_hex(std::string(40, 'A'), out));
}

TEST(Fingerprint, FromSeedDeterministicAndDistinct) {
  EXPECT_EQ(Fingerprint::from_seed(1), Fingerprint::from_seed(1));
  std::set<std::string> seen;
  for (std::uint64_t s = 0; s < 1000; ++s) {
    seen.insert(Fingerprint::from_seed(s).hex());
  }
  EXPECT_EQ(seen.size(), 1000u);
}

TEST(Fingerprint, OrderingIsTotal) {
  const auto a = Fingerprint::from_seed(1);
  const auto b = Fingerprint::from_seed(2);
  EXPECT_TRUE((a < b) != (b < a));
  EXPECT_TRUE(a == a);
}

TEST(Fingerprint, Prefix64MatchesBytes) {
  Fingerprint fp;
  for (std::size_t i = 0; i < kFingerprintSize; ++i) {
    fp.bytes[i] = static_cast<std::uint8_t>(i + 1);
  }
  EXPECT_EQ(fp.prefix64(), 0x0807060504030201ULL);
}

// --- RNG ---

TEST(Rng, SplitMix64Deterministic) {
  SplitMix64 a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, XoshiroChanceBounds) {
  Xoshiro256ss rng(5);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_FALSE(rng.chance(0.0));
    const double d = rng.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Rng, ChanceFrequencyApproximatesP) {
  Xoshiro256ss rng(11);
  int hits = 0;
  const int trials = 100000;
  for (int i = 0; i < trials; ++i) hits += rng.chance(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / trials, 0.3, 0.01);
}

TEST(Rng, NextBelowRespectsBound) {
  Xoshiro256ss rng(13);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(rng.next_below(17), 17u);
  EXPECT_EQ(rng.next_below(0), 0u);
}

// --- Chunk content ---

TEST(ChunkContent, DeterministicPerSeed) {
  std::vector<std::uint8_t> a(4096), b(4096);
  generate_chunk_content(99, 4096, a.data());
  generate_chunk_content(99, 4096, b.data());
  EXPECT_EQ(a, b);
  generate_chunk_content(100, 4096, b.data());
  EXPECT_NE(a, b);
}

TEST(ChunkContent, NonMultipleOfEightSize) {
  std::vector<std::uint8_t> a(4093);
  generate_chunk_content(7, 4093, a.data());  // must not overflow
  std::vector<std::uint8_t> b(4093);
  generate_chunk_content(7, 4093, b.data());
  EXPECT_EQ(a, b);
}

TEST(ChunkRecord, MaterializePrefersRealData) {
  ChunkRecord rec;
  rec.size = 4;
  rec.content_seed = 1;
  rec.data = std::make_shared<const std::vector<std::uint8_t>>(
      std::vector<std::uint8_t>{1, 2, 3, 4});
  EXPECT_EQ(rec.materialize(), (std::vector<std::uint8_t>{1, 2, 3, 4}));
}

TEST(ChunkRecord, MaterializeFromSeed) {
  ChunkRecord rec;
  rec.size = 64;
  rec.content_seed = 5;
  const auto a = rec.materialize();
  EXPECT_EQ(a.size(), 64u);
  EXPECT_EQ(a, rec.materialize());
}

TEST(VersionStream, LogicalBytesSumsSizes) {
  VersionStream vs;
  for (std::uint32_t s : {100u, 200u, 300u}) {
    ChunkRecord rec;
    rec.size = s;
    vs.chunks.push_back(rec);
  }
  EXPECT_EQ(vs.logical_bytes(), 600u);
}

// --- Stats helpers ---

TEST(MeanAccumulator, TracksMeanMinMax) {
  MeanAccumulator acc;
  acc.add(1.0);
  acc.add(3.0);
  acc.add(2.0);
  EXPECT_DOUBLE_EQ(acc.mean(), 2.0);
  EXPECT_DOUBLE_EQ(acc.min(), 1.0);
  EXPECT_DOUBLE_EQ(acc.max(), 3.0);
  EXPECT_EQ(acc.count(), 3u);
}

TEST(MeanAccumulator, EmptyIsZero) {
  MeanAccumulator acc;
  EXPECT_DOUBLE_EQ(acc.mean(), 0.0);
  EXPECT_DOUBLE_EQ(acc.min(), 0.0);
  EXPECT_DOUBLE_EQ(acc.sum(), 0.0);
}

TEST(MeanAccumulator, SumAndMerge) {
  MeanAccumulator a;
  a.add(1.0);
  a.add(5.0);
  EXPECT_DOUBLE_EQ(a.sum(), 6.0);

  MeanAccumulator b;
  b.add(-2.0);
  a.merge(b);
  EXPECT_EQ(a.count(), 3u);
  EXPECT_DOUBLE_EQ(a.sum(), 4.0);
  EXPECT_DOUBLE_EQ(a.min(), -2.0);
  EXPECT_DOUBLE_EQ(a.max(), 5.0);

  // Merging an empty accumulator changes nothing.
  a.merge(MeanAccumulator{});
  EXPECT_EQ(a.count(), 3u);
  EXPECT_DOUBLE_EQ(a.min(), -2.0);

  const auto parts = MeanAccumulator::from_parts(10.0, 4, 1.0, 4.0);
  EXPECT_DOUBLE_EQ(parts.mean(), 2.5);
  EXPECT_DOUBLE_EQ(parts.min(), 1.0);
  EXPECT_DOUBLE_EQ(parts.max(), 4.0);
}

TEST(TablePrinter, FormatsWithoutCrashing) {
  TablePrinter t({"a", "b"});
  t.add_row({"1"});
  t.add_row({"22", "333"});
  t.print();  // smoke: padding with missing cells
  EXPECT_EQ(TablePrinter::fmt(1.23456, 2), "1.23");
}

// --- parse_uint: the checked CLI number parser ---

TEST(ParseUint, AcceptsPlainDecimal) {
  EXPECT_EQ(parse_uint("0"), 0u);
  EXPECT_EQ(parse_uint("7"), 7u);
  EXPECT_EQ(parse_uint("65535"), 65535u);
  EXPECT_EQ(parse_uint("18446744073709551615"), UINT64_MAX);
  // Leading zeros are just digits.
  EXPECT_EQ(parse_uint("007"), 7u);
}

TEST(ParseUint, RejectsGarbageThatStrtoulSwallows) {
  // strtoul("abc") silently yields 0; parse_uint refuses.
  EXPECT_FALSE(parse_uint("abc").has_value());
  EXPECT_FALSE(parse_uint("").has_value());
  // Trailing junk after digits.
  EXPECT_FALSE(parse_uint("12abc").has_value());
  EXPECT_FALSE(parse_uint("12 ").has_value());
  EXPECT_FALSE(parse_uint(" 12").has_value());
  // Signs, hex, floats: not plain decimal.
  EXPECT_FALSE(parse_uint("-1").has_value());
  EXPECT_FALSE(parse_uint("+1").has_value());
  EXPECT_FALSE(parse_uint("0x10").has_value());
  EXPECT_FALSE(parse_uint("1.5").has_value());
}

TEST(ParseUint, RejectsOverflowAndOutOfRange) {
  // One past UINT64_MAX.
  EXPECT_FALSE(parse_uint("18446744073709551616").has_value());
  EXPECT_FALSE(parse_uint("99999999999999999999999").has_value());
  // Caller-imposed ceiling: the --port=99999 wraparound bug.
  EXPECT_FALSE(parse_uint("99999", 65535).has_value());
  EXPECT_EQ(parse_uint("65535", 65535), 65535u);
  EXPECT_FALSE(parse_uint("65536", 65535).has_value());
}

}  // namespace
}  // namespace hds
