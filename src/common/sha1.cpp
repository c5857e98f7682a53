#include "common/sha1.h"

#include <algorithm>
#include <cstring>

#include "common/sha1_blocks.h"

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#include <immintrin.h>
#define HDS_SHA1_X86 1
#endif

namespace hds {

namespace sha1_detail {

namespace {
constexpr std::uint32_t rotl32(std::uint32_t x, int k) noexcept {
  return (x << k) | (x >> (32 - k));
}

void process_block(std::uint32_t* h, const std::uint8_t* block) noexcept {
  std::uint32_t w[80];
  for (int i = 0; i < 16; ++i) {
    w[i] = (std::uint32_t{block[4 * i]} << 24) |
           (std::uint32_t{block[4 * i + 1]} << 16) |
           (std::uint32_t{block[4 * i + 2]} << 8) |
           std::uint32_t{block[4 * i + 3]};
  }
  for (int i = 16; i < 80; ++i) {
    w[i] = rotl32(w[i - 3] ^ w[i - 8] ^ w[i - 14] ^ w[i - 16], 1);
  }

  std::uint32_t a = h[0], b = h[1], c = h[2], d = h[3], e = h[4];
  for (int i = 0; i < 80; ++i) {
    std::uint32_t f, k;
    if (i < 20) {
      f = (b & c) | (~b & d);
      k = 0x5A827999u;
    } else if (i < 40) {
      f = b ^ c ^ d;
      k = 0x6ED9EBA1u;
    } else if (i < 60) {
      f = (b & c) | (b & d) | (c & d);
      k = 0x8F1BBCDCu;
    } else {
      f = b ^ c ^ d;
      k = 0xCA62C1D6u;
    }
    const std::uint32_t tmp = rotl32(a, 5) + f + e + k + w[i];
    e = d;
    d = c;
    c = rotl32(b, 30);
    b = a;
    a = tmp;
  }
  h[0] += a;
  h[1] += b;
  h[2] += c;
  h[3] += d;
  h[4] += e;
}
}  // namespace

void blocks_scalar(std::uint32_t* state, const std::uint8_t* blocks,
                   std::size_t count) noexcept {
  for (; count > 0; --count, blocks += 64) process_block(state, blocks);
}

#ifdef HDS_SHA1_X86

// Four rounds of group `i` (rounds 4i..4i+3) with the message schedule
// interleaved, after Intel's "New Instructions Supporting the Secure Hash
// Algorithm on Intel Architecture Processors" (2013). m[i % 4] holds words
// 4i..4i+3 when the group starts; words 4(j+4).. are built in m[j % 4] over
// groups j+1 (msg1), j+2 (xor) and j+3 (msg2). e[i % 2] carries E into the
// group's rounds and e[(i + 1) % 2] saves ABCD for the next group's E. The
// function selector i / 5 must be a literal, hence a macro.
#define HDS_SHA1_GROUP(i)                                                 \
  do {                                                                    \
    if ((i) < 4) {                                                        \
      m[(i) % 4] = _mm_shuffle_epi8(                                      \
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(               \
              blocks + static_cast<std::size_t>(16 * (i)))),              \
          kByteSwap);                                                     \
    }                                                                     \
    if ((i) == 0) {                                                       \
      e[0] = _mm_add_epi32(e[0], m[0]);                                   \
    } else {                                                              \
      e[(i) % 2] = _mm_sha1nexte_epu32(e[(i) % 2], m[(i) % 4]);           \
    }                                                                     \
    e[((i) + 1) % 2] = abcd;                                              \
    if ((i) >= 3 && (i) <= 18) {                                          \
      m[((i) + 1) % 4] = _mm_sha1msg2_epu32(m[((i) + 1) % 4], m[(i) % 4]); \
    }                                                                     \
    abcd = _mm_sha1rnds4_epu32(abcd, e[(i) % 2], (i) / 5);                \
    if ((i) >= 1 && (i) <= 16) {                                          \
      m[((i) + 3) % 4] = _mm_sha1msg1_epu32(m[((i) + 3) % 4], m[(i) % 4]); \
    }                                                                     \
    if ((i) >= 2 && (i) <= 17) {                                          \
      m[((i) + 2) % 4] = _mm_xor_si128(m[((i) + 2) % 4], m[(i) % 4]);     \
    }                                                                     \
  } while (0)

__attribute__((target("sha,ssse3,sse4.1"))) void blocks_shani(
    std::uint32_t* state, const std::uint8_t* blocks,
    std::size_t count) noexcept {
  // Reverses all 16 bytes: big-endian words, and word 0 in the high lane.
  const __m128i kByteSwap =
      _mm_set_epi64x(0x0001020304050607LL, 0x08090a0b0c0d0e0fLL);
  __m128i abcd = _mm_shuffle_epi32(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(state)), 0x1B);
  __m128i e0 = _mm_set_epi32(static_cast<int>(state[4]), 0, 0, 0);
  for (; count > 0; --count, blocks += 64) {
    const __m128i abcd_save = abcd;
    const __m128i e_save = e0;
    __m128i m[4];
    __m128i e[2] = {e0, e0};
    HDS_SHA1_GROUP(0);
    HDS_SHA1_GROUP(1);
    HDS_SHA1_GROUP(2);
    HDS_SHA1_GROUP(3);
    HDS_SHA1_GROUP(4);
    HDS_SHA1_GROUP(5);
    HDS_SHA1_GROUP(6);
    HDS_SHA1_GROUP(7);
    HDS_SHA1_GROUP(8);
    HDS_SHA1_GROUP(9);
    HDS_SHA1_GROUP(10);
    HDS_SHA1_GROUP(11);
    HDS_SHA1_GROUP(12);
    HDS_SHA1_GROUP(13);
    HDS_SHA1_GROUP(14);
    HDS_SHA1_GROUP(15);
    HDS_SHA1_GROUP(16);
    HDS_SHA1_GROUP(17);
    HDS_SHA1_GROUP(18);
    HDS_SHA1_GROUP(19);
    e0 = _mm_sha1nexte_epu32(e[0], e_save);
    abcd = _mm_add_epi32(abcd, abcd_save);
  }
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state),
                   _mm_shuffle_epi32(abcd, 0x1B));
  state[4] = static_cast<std::uint32_t>(_mm_extract_epi32(e0, 3));
}

#undef HDS_SHA1_GROUP

bool shani_supported() noexcept {
  unsigned a = 0, b = 0, c = 0, d = 0;
  if (__get_cpuid(1, &a, &b, &c, &d) == 0) return false;
  const bool ssse3 = (c & bit_SSSE3) != 0;
  const bool sse41 = (c & bit_SSE4_1) != 0;
  if (__get_cpuid_count(7, 0, &a, &b, &c, &d) == 0) return false;
  const bool sha = (b & bit_SHA) != 0;
  return sha && ssse3 && sse41;
}

#else

void blocks_shani(std::uint32_t* state, const std::uint8_t* blocks,
                  std::size_t count) noexcept {
  blocks_scalar(state, blocks, count);
}

bool shani_supported() noexcept { return false; }

#endif

BlockFn dispatched_blocks() noexcept {
  static const BlockFn fn = shani_supported() ? blocks_shani : blocks_scalar;
  return fn;
}

Sha1 with_blocks(BlockFn blocks) noexcept { return Sha1(blocks); }

}  // namespace sha1_detail

Sha1::Sha1() noexcept : Sha1(sha1_detail::dispatched_blocks()) {}

Sha1::Sha1(sha1_detail::BlockFn blocks) noexcept : blocks_(blocks) {
  reset();
}

void Sha1::reset() noexcept {
  h_[0] = 0x67452301u;
  h_[1] = 0xEFCDAB89u;
  h_[2] = 0x98BADCFEu;
  h_[3] = 0x10325476u;
  h_[4] = 0xC3D2E1F0u;
  total_len_ = 0;
  buffer_len_ = 0;
}

void Sha1::update(std::span<const std::uint8_t> data) noexcept {
  total_len_ += data.size();
  const std::uint8_t* p = data.data();
  std::size_t n = data.size();

  if (buffer_len_ > 0) {
    const std::size_t take = std::min(n, sizeof(buffer_) - buffer_len_);
    std::memcpy(buffer_ + buffer_len_, p, take);
    buffer_len_ += take;
    p += take;
    n -= take;
    if (buffer_len_ == sizeof(buffer_)) {
      blocks_(h_, buffer_, 1);
      buffer_len_ = 0;
    }
  }
  if (n >= 64) {
    blocks_(h_, p, n / 64);
    p += n / 64 * 64;
    n %= 64;
  }
  if (n > 0) {
    std::memcpy(buffer_, p, n);
    buffer_len_ = n;
  }
}

Fingerprint Sha1::finish() noexcept {
  // Padding: 0x80, zeros to 56 mod 64, then the 64-bit big-endian bit
  // length, spilling into a second block when fewer than 9 bytes are left.
  const std::uint64_t bit_len = total_len_ * 8;
  buffer_[buffer_len_++] = 0x80;
  if (buffer_len_ > 56) {
    std::memset(buffer_ + buffer_len_, 0, sizeof(buffer_) - buffer_len_);
    blocks_(h_, buffer_, 1);
    buffer_len_ = 0;
  }
  std::memset(buffer_ + buffer_len_, 0, 56 - buffer_len_);
  for (int i = 0; i < 8; ++i) {
    buffer_[56 + i] = static_cast<std::uint8_t>(bit_len >> (56 - 8 * i));
  }
  blocks_(h_, buffer_, 1);
  buffer_len_ = 0;

  Fingerprint fp;
  for (int i = 0; i < 5; ++i) {
    fp.bytes[4 * i] = static_cast<std::uint8_t>(h_[i] >> 24);
    fp.bytes[4 * i + 1] = static_cast<std::uint8_t>(h_[i] >> 16);
    fp.bytes[4 * i + 2] = static_cast<std::uint8_t>(h_[i] >> 8);
    fp.bytes[4 * i + 3] = static_cast<std::uint8_t>(h_[i]);
  }
  return fp;
}

}  // namespace hds
