// Tests for src/chunking: every chunker is a valid partition within size
// bounds, deterministic, and — for the CDC family — resistant to boundary
// shift. Parameterized across all algorithms.
#include <gtest/gtest.h>

#include <numeric>
#include <set>

#include "chunking/chunk_stream.h"
#include "chunking/chunker.h"
#include "chunking/rabin.h"
#include "chunking/tttd.h"
#include "common/rng.h"
#include "common/sha1.h"

namespace hds {
namespace {

std::vector<std::uint8_t> random_bytes(std::size_t n, std::uint64_t seed) {
  std::vector<std::uint8_t> data(n);
  Xoshiro256ss rng(seed);
  for (auto& b : data) b = static_cast<std::uint8_t>(rng.next());
  return data;
}

class ChunkerTest : public ::testing::TestWithParam<ChunkerKind> {
 protected:
  std::unique_ptr<Chunker> chunker_ = make_chunker(GetParam());
};

TEST_P(ChunkerTest, PartitionCoversInput) {
  const auto data = random_bytes(1 << 20, 1);
  std::vector<std::size_t> lengths;
  chunker_->chunk(data, lengths);
  const auto total =
      std::accumulate(lengths.begin(), lengths.end(), std::size_t{0});
  EXPECT_EQ(total, data.size());
  EXPECT_GT(lengths.size(), 1u);
}

TEST_P(ChunkerTest, RespectsSizeBounds) {
  const ChunkerParams params;
  const auto data = random_bytes(1 << 20, 2);
  std::vector<std::size_t> lengths;
  chunker_->chunk(data, lengths);
  for (std::size_t i = 0; i + 1 < lengths.size(); ++i) {
    EXPECT_GE(lengths[i], params.min_size) << "chunk " << i;
    EXPECT_LE(lengths[i], params.max_size) << "chunk " << i;
  }
  // Only the final chunk may undershoot the minimum.
  EXPECT_LE(lengths.back(), params.max_size);
}

TEST_P(ChunkerTest, AverageNearTarget) {
  const ChunkerParams params;
  const auto data = random_bytes(4 << 20, 3);
  std::vector<std::size_t> lengths;
  chunker_->chunk(data, lengths);
  const double avg = static_cast<double>(data.size()) /
                     static_cast<double>(lengths.size());
  // Generous band: algorithms differ in their size distributions, but all
  // must land in the right ballpark of the configured 4 KiB average.
  EXPECT_GT(avg, static_cast<double>(params.avg_size) * 0.5);
  EXPECT_LT(avg, static_cast<double>(params.avg_size) * 2.0);
}

TEST_P(ChunkerTest, Deterministic) {
  const auto data = random_bytes(256 * 1024, 4);
  std::vector<std::size_t> a, b;
  chunker_->chunk(data, a);
  chunker_->chunk(data, b);
  EXPECT_EQ(a, b);
}

TEST_P(ChunkerTest, EmptyInputYieldsNoChunks) {
  std::vector<std::size_t> lengths;
  chunker_->chunk({}, lengths);
  EXPECT_TRUE(lengths.empty());
}

TEST_P(ChunkerTest, TinyInputIsOneChunk) {
  const auto data = random_bytes(100, 5);
  std::vector<std::size_t> lengths;
  chunker_->chunk(data, lengths);
  ASSERT_EQ(lengths.size(), 1u);
  EXPECT_EQ(lengths[0], 100u);
}

TEST_P(ChunkerTest, SplitViewsMatchLengths) {
  const auto data = random_bytes(128 * 1024, 6);
  const auto views = chunker_->split(data);
  std::vector<std::size_t> lengths;
  chunker_->chunk(data, lengths);
  ASSERT_EQ(views.size(), lengths.size());
  const std::uint8_t* expect = data.data();
  for (std::size_t i = 0; i < views.size(); ++i) {
    EXPECT_EQ(views[i].data(), expect);
    EXPECT_EQ(views[i].size(), lengths[i]);
    expect += lengths[i];
  }
}

// The defining CDC property: a small insertion near the front only disturbs
// chunk boundaries locally; most chunks (by fingerprint) are preserved.
TEST_P(ChunkerTest, BoundaryShiftResistance) {
  if (GetParam() == ChunkerKind::kFixed) {
    GTEST_SKIP() << "fixed-size chunking is the negative control";
  }
  auto data = random_bytes(1 << 20, 7);
  const auto before = chunk_bytes(*chunker_, data);

  // Insert 100 bytes at ~5% into the stream.
  const auto insert = random_bytes(100, 8);
  data.insert(data.begin() + (1 << 20) / 20, insert.begin(), insert.end());
  const auto after = chunk_bytes(*chunker_, data);

  std::set<Fingerprint> old_fps;
  for (const auto& c : before.chunks) old_fps.insert(c.fp);
  std::size_t preserved = 0;
  for (const auto& c : after.chunks) preserved += old_fps.contains(c.fp);

  EXPECT_GT(static_cast<double>(preserved) /
                static_cast<double>(after.chunks.size()),
            0.8)
      << "CDC must preserve most chunks across a small insertion";
}

// Negative control: fixed-size chunking loses almost everything after an
// unaligned insertion — the failure CDC exists to prevent.
TEST(FixedChunker, InsertionDestroysAlignment) {
  auto chunker = make_chunker(ChunkerKind::kFixed);
  auto data = random_bytes(1 << 20, 9);
  const auto before = chunk_bytes(*chunker, data);
  data.insert(data.begin() + 333, std::uint8_t{0xAB});
  const auto after = chunk_bytes(*chunker, data);

  std::set<Fingerprint> old_fps;
  for (const auto& c : before.chunks) old_fps.insert(c.fp);
  std::size_t preserved = 0;
  for (const auto& c : after.chunks) preserved += old_fps.contains(c.fp);
  EXPECT_LT(preserved, after.chunks.size() / 10);
}

INSTANTIATE_TEST_SUITE_P(AllChunkers, ChunkerTest,
                         ::testing::Values(ChunkerKind::kFixed,
                                           ChunkerKind::kRabin,
                                           ChunkerKind::kTttd,
                                           ChunkerKind::kFastCdc,
                                           ChunkerKind::kAe),
                         [](const auto& suite_info) {
                           switch (suite_info.param) {
                             case ChunkerKind::kFixed: return "fixed";
                             case ChunkerKind::kRabin: return "rabin";
                             case ChunkerKind::kTttd: return "tttd";
                             case ChunkerKind::kFastCdc: return "fastcdc";
                             case ChunkerKind::kAe: return "ae";
                           }
                           return "unknown";
                         });

// Adversarial inputs: content-defined chunkers historically misbehave on
// low-entropy data (zero runs never hit a divisor boundary, periodic data
// hits it periodically). All algorithms must terminate, partition the
// input, and respect the max bound regardless.
TEST_P(ChunkerTest, AllZerosInput) {
  const std::vector<std::uint8_t> data(1 << 20, 0);
  std::vector<std::size_t> lengths;
  chunker_->chunk(data, lengths);
  std::size_t total = 0;
  for (auto len : lengths) {
    EXPECT_LE(len, ChunkerParams{}.max_size);
    total += len;
  }
  EXPECT_EQ(total, data.size());
}

TEST_P(ChunkerTest, SingleByteRepeated) {
  const std::vector<std::uint8_t> data(256 * 1024, 0xAB);
  std::vector<std::size_t> lengths;
  chunker_->chunk(data, lengths);
  std::size_t total = 0;
  for (auto len : lengths) total += len;
  EXPECT_EQ(total, data.size());
}

TEST_P(ChunkerTest, PeriodicPattern) {
  std::vector<std::uint8_t> data(512 * 1024);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<std::uint8_t>(i % 7);
  }
  std::vector<std::size_t> lengths;
  chunker_->chunk(data, lengths);
  std::size_t total = 0;
  for (auto len : lengths) {
    EXPECT_LE(len, ChunkerParams{}.max_size);
    total += len;
  }
  EXPECT_EQ(total, data.size());
}

TEST_P(ChunkerTest, InputExactlyMinAndMaxSize) {
  const ChunkerParams params;
  for (const std::size_t n : {params.min_size, params.max_size}) {
    const auto data = random_bytes(n, 77);
    std::vector<std::size_t> lengths;
    chunker_->chunk(data, lengths);
    std::size_t total = 0;
    for (auto len : lengths) total += len;
    EXPECT_EQ(total, n);
  }
}

// --- Rabin rolling hash internals ---

TEST(RabinHash, WindowedHashMatchesRecomputation) {
  // After sliding past kWindowSize bytes, the fingerprint must depend only
  // on the window contents: feeding the same window after different
  // prefixes yields the same value.
  const auto window = random_bytes(RabinHash::kWindowSize, 10);
  const auto prefix_a = random_bytes(100, 11);
  const auto prefix_b = random_bytes(333, 12);

  RabinHash a, b;
  for (auto byte : prefix_a) a.roll(byte);
  for (auto byte : prefix_b) b.roll(byte);
  std::uint64_t va = 0, vb = 0;
  for (auto byte : window) va = a.roll(byte);
  for (auto byte : window) vb = b.roll(byte);
  EXPECT_EQ(va, vb);
}

TEST(RabinHash, DifferentWindowsDiffer) {
  RabinHash a, b;
  std::uint64_t va = 0, vb = 0;
  for (int i = 0; i < 64; ++i) va = a.roll(static_cast<std::uint8_t>(i));
  for (int i = 0; i < 64; ++i) vb = b.roll(static_cast<std::uint8_t>(i + 1));
  EXPECT_NE(va, vb);
}

TEST(RabinHash, StaysInField) {
  RabinHash h;
  Xoshiro256ss rng(13);
  for (int i = 0; i < 10000; ++i) {
    const auto v = h.roll(static_cast<std::uint8_t>(rng.next()));
    EXPECT_LT(v, 1ULL << RabinHash::kDegree);
  }
}

// --- TTTD exact scan ---

// The textbook TTTD loop: a fresh RabinHash rolled from each chunk's first
// byte and two modulo tests per byte. TttdChunker must cut exactly here.
std::vector<std::size_t> reference_tttd(std::span<const std::uint8_t> data,
                                        const ChunkerParams& params) {
  const std::uint64_t main =
      params.avg_size > params.min_size ? params.avg_size - params.min_size
                                        : 1;
  const std::uint64_t backup = std::max<std::uint64_t>(1, main / 2);
  std::vector<std::size_t> lengths;
  RabinHash hash;
  std::size_t chunk_start = 0, backup_len = 0, i = 0;
  while (i < data.size()) {
    const std::uint64_t fp = hash.roll(data[i]);
    ++i;
    const std::size_t len = i - chunk_start;
    if (len < params.min_size) continue;
    if (fp % main == main - 1) {
      lengths.push_back(len);
      chunk_start = i;
      backup_len = 0;
      hash.reset();
      continue;
    }
    if (fp % backup == backup - 1) backup_len = len;
    if (len >= params.max_size) {
      const std::size_t cut = backup_len != 0 ? backup_len : len;
      lengths.push_back(cut);
      chunk_start += cut;
      i = chunk_start;
      backup_len = 0;
      hash.reset();
    }
  }
  if (chunk_start < data.size()) lengths.push_back(data.size() - chunk_start);
  return lengths;
}

TEST(TttdChunker, MatchesTextbookScanAcrossParams) {
  const auto noise = random_bytes(200 * 1024, 20);
  const auto periodic = [] {
    std::vector<std::uint8_t> out(64 * 1024);
    for (std::size_t i = 0; i < out.size(); ++i) {
      out[i] = static_cast<std::uint8_t>((i * i) % 251);
    }
    return out;
  }();
  Xoshiro256ss rng(21);
  for (int trial = 0; trial < 120; ++trial) {
    // Minimums on both sides of the 48-byte window, divisors odd and even,
    // and maximums that may fall below the minimum.
    ChunkerParams params;
    params.min_size = rng.next_below(700);
    params.avg_size = params.min_size + 1 + rng.next_below(1500);
    params.max_size = 1 + rng.next_below(4000);
    const TttdChunker chunker(params);
    for (const auto* data : {&noise, &periodic}) {
      std::vector<std::size_t> lengths;
      chunker.chunk(*data, lengths);
      ASSERT_EQ(lengths, reference_tttd(*data, params))
          << "min=" << params.min_size << " avg=" << params.avg_size
          << " max=" << params.max_size;
    }
  }
}

TEST(DivisorTest, AgreesWithModulo) {
  Xoshiro256ss rng(23);
  std::vector<std::uint64_t> divisors = {1, 2, 3, 7, 270, 540, 548, 3072,
                                         1ULL << 40, ~std::uint64_t{0}};
  for (int i = 0; i < 50; ++i) divisors.push_back(1 + rng.next_below(1 << 20));
  for (const auto d : divisors) {
    const DivisorTest test(d);
    for (int i = 0; i < 2000; ++i) {
      // Half the probes are multiples of d or their neighbours (+1, -1),
      // which random 64-bit values would almost never hit.
      constexpr std::uint64_t kNearby[] = {0, 1, ~std::uint64_t{0}};
      std::uint64_t x = rng.next();
      if (i % 2 == 0) x = x / d * d + kNearby[i / 2 % 3];
      EXPECT_EQ(test.divides(x), x % d == 0) << "d=" << d << " x=" << x;
    }
    EXPECT_TRUE(test.divides(0)) << d;
  }
}

// --- Golden outputs ---
//
// Cut points and fingerprints decide which chunks dedup against every
// repository already written, so a faster scan or hash must reproduce them
// bit for bit. These digests were recorded from the textbook per-byte
// implementations and must never be edited to make a change pass.

constexpr std::uint64_t kFnvBasis = 0xcbf29ce484222325ULL;

// FNV-1a over the eight little-endian bytes of `v`.
std::uint64_t fnv1a(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xFF;
    h *= 0x100000001b3ULL;
  }
  return h;
}

// Digest of the cut lengths over seeded buffers of assorted sizes. Each
// buffer is chunked from an odd offset so no path can rely on alignment.
std::uint64_t cut_digest(const Chunker& chunker) {
  static const auto buffers = [] {
    std::vector<std::vector<std::uint8_t>> out;
    for (const std::size_t n : {0, 1, 47, 1000, 100000, 4000000}) {
      out.push_back(random_bytes(n + 1, 500 + n));
    }
    return out;
  }();
  std::uint64_t h = kFnvBasis;
  for (const auto& buf : buffers) {
    std::vector<std::size_t> lengths;
    chunker.chunk(std::span(buf).subspan(1), lengths);
    h = fnv1a(h, lengths.size());
    for (const auto len : lengths) h = fnv1a(h, len);
  }
  return h;
}

struct GoldenCuts {
  const char* name;
  ChunkerParams params;
  std::uint64_t tttd;
  std::uint64_t rabin;
};

constexpr GoldenCuts kGoldenCuts[] = {
    {"default 1K/4K/16K", {1024, 4096, 16384}, 0x28b32ca77f21fb9bULL,
     0x03221b3ed93cf786ULL},
    {"paper 460/1008/2800", {460, 1008, 2800}, 0xdf4d8da107e9f607ULL,
     0x3ae0a04ab4e5cf4dULL},
    {"min below window 16/100/300", {16, 100, 300}, 0x69015e83a3564d78ULL,
     0x4083dcb7628f5fc9ULL},
    {"avg == min+1 1024/1025/16384", {1024, 1025, 16384},
     0x4420522309edcafaULL, 0xf47519e532203204ULL},
};

TEST(GoldenCuts, TttdCutPointsArePinned) {
  for (const auto& c : kGoldenCuts) {
    EXPECT_EQ(cut_digest(TttdChunker(c.params)), c.tttd) << c.name;
  }
}

TEST(GoldenCuts, RabinCutPointsArePinned) {
  for (const auto& c : kGoldenCuts) {
    EXPECT_EQ(cut_digest(RabinChunker(c.params)), c.rabin) << c.name;
  }
}

TEST(GoldenCuts, ChunkBytesFingerprintsArePinned) {
  const auto buf = random_bytes((1 << 20) + 12345 + 1, 600);
  const auto stream =
      chunk_bytes(TttdChunker(), std::span(buf).subspan(1));
  std::uint64_t h = fnv1a(kFnvBasis, stream.chunks.size());
  for (const auto& c : stream.chunks) {
    h = fnv1a(h, c.size);
    for (const auto byte : c.fp.bytes) h = fnv1a(h, byte);
  }
  EXPECT_EQ(stream.chunks.size(), 237u);
  EXPECT_EQ(h, 0x9a12bed9f23a7931ULL);
}

// --- chunk_bytes bridge ---

TEST(ChunkBytes, FingerprintsAreSha1OfContent) {
  auto chunker = make_chunker(ChunkerKind::kTttd);
  const auto data = random_bytes(64 * 1024, 14);
  const auto stream = chunk_bytes(*chunker, data);
  ASSERT_FALSE(stream.chunks.empty());
  EXPECT_EQ(stream.logical_bytes(), data.size());
  for (const auto& c : stream.chunks) {
    ASSERT_TRUE(c.data);  // records view a buffer shared by their batch
    const auto view = c.bytes();
    EXPECT_EQ(view.size(), c.size);
    EXPECT_EQ(c.fp, Sha1::digest(view.data(), view.size()));
  }
}

}  // namespace
}  // namespace hds
