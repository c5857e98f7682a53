#include "common/crc32.h"

#include <array>

#include "common/crc32_kernels.h"

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#include <immintrin.h>
#define HDS_CRC32_X86 1
#endif

namespace hds {

namespace crc32_detail {

namespace {
constexpr std::array<std::uint32_t, 256> make_table() noexcept {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    table[i] = c;
  }
  return table;
}
constexpr auto kTable = make_table();

// Advances the bit-reflected CRC register `c` (the complemented CRC) over
// `data`.
std::uint32_t table_update(std::uint32_t c,
                           std::span<const std::uint8_t> data) noexcept {
  for (std::uint8_t b : data) {
    c = kTable[(c ^ b) & 0xFF] ^ (c >> 8);
  }
  return c;
}
}  // namespace

std::uint32_t table(std::span<const std::uint8_t> data,
                    std::uint32_t seed) noexcept {
  return table_update(seed ^ 0xFFFFFFFFu, data) ^ 0xFFFFFFFFu;
}

#ifdef HDS_CRC32_X86

namespace {
// The paper's constants for the bit-reflected 0xEDB88320 polynomial P, each
// a power of x mod P: k1/k2 fold a lane 512 bits forward, k3/k4 fold 128
// bits, k5 folds 64 bits down to 32. P' and mu = x^64 / P drive the Barrett
// reduction.
constexpr long long kK1 = 0x0154442bd4, kK2 = 0x01c6e41596;
constexpr long long kK3 = 0x01751997d0, kK4 = 0x00ccaa009e;
constexpr long long kK5 = 0x0163cd6124;
constexpr long long kPoly = 0x01db710641, kMu = 0x01f7011641;

// x folded forward by the distance `k` encodes, plus the next block.
__attribute__((target("pclmul,sse4.1"))) inline __m128i fold_into(
    __m128i x, __m128i k, __m128i next) noexcept {
  const __m128i lo = _mm_clmulepi64_si128(x, k, 0x00);
  const __m128i hi = _mm_clmulepi64_si128(x, k, 0x11);
  return _mm_xor_si128(_mm_xor_si128(hi, lo), next);
}

__attribute__((target("pclmul,sse4.1"))) inline __m128i load(
    const std::uint8_t* p) noexcept {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
}

// Advances the CRC register `c` over `len` bytes at `p`; `len` is a
// multiple of 16 and at least 64.
__attribute__((target("pclmul,sse4.1"))) std::uint32_t fold_blocks(
    std::uint32_t c, const std::uint8_t* p, std::size_t len) noexcept {
  __m128i x1 = _mm_xor_si128(load(p), _mm_cvtsi32_si128(static_cast<int>(c)));
  __m128i x2 = load(p + 16);
  __m128i x3 = load(p + 32);
  __m128i x4 = load(p + 48);
  p += 64;
  len -= 64;

  // Four independent lanes, 64 bytes per step.
  const __m128i k12 = _mm_set_epi64x(kK2, kK1);
  for (; len >= 64; p += 64, len -= 64) {
    x1 = fold_into(x1, k12, load(p));
    x2 = fold_into(x2, k12, load(p + 16));
    x3 = fold_into(x3, k12, load(p + 32));
    x4 = fold_into(x4, k12, load(p + 48));
  }

  // The four lanes into one, then one 16-byte block per step.
  const __m128i k34 = _mm_set_epi64x(kK4, kK3);
  x1 = fold_into(x1, k34, x2);
  x1 = fold_into(x1, k34, x3);
  x1 = fold_into(x1, k34, x4);
  for (; len >= 16; p += 16, len -= 16) {
    x1 = fold_into(x1, k34, load(p));
  }

  // 128 bits to 64, then 64 to 32.
  const __m128i low32 = _mm_setr_epi32(~0, 0, ~0, 0);
  x1 = _mm_xor_si128(_mm_srli_si128(x1, 8),
                     _mm_clmulepi64_si128(x1, k34, 0x10));
  const __m128i k5 = _mm_set_epi64x(0, kK5);
  x1 = _mm_xor_si128(
      _mm_clmulepi64_si128(_mm_and_si128(x1, low32), k5, 0x00),
      _mm_srli_si128(x1, 4));

  // Barrett reduction to the 32-bit register.
  const __m128i poly = _mm_set_epi64x(kMu, kPoly);
  __m128i t = _mm_clmulepi64_si128(_mm_and_si128(x1, low32), poly, 0x10);
  t = _mm_clmulepi64_si128(_mm_and_si128(t, low32), poly, 0x00);
  return static_cast<std::uint32_t>(_mm_extract_epi32(_mm_xor_si128(x1, t), 1));
}
}  // namespace

std::uint32_t fold(std::span<const std::uint8_t> data,
                   std::uint32_t seed) noexcept {
  if (data.size() < 64) return table(data, seed);
  const std::size_t blocks = data.size() & ~std::size_t{15};
  const std::uint32_t c =
      fold_blocks(seed ^ 0xFFFFFFFFu, data.data(), blocks);
  return table_update(c, data.subspan(blocks)) ^ 0xFFFFFFFFu;
}

bool fold_supported() noexcept {
  unsigned a = 0, b = 0, c = 0, d = 0;
  if (__get_cpuid(1, &a, &b, &c, &d) == 0) return false;
  return (c & bit_PCLMUL) != 0 && (c & bit_SSE4_1) != 0;
}

#else

std::uint32_t fold(std::span<const std::uint8_t> data,
                   std::uint32_t seed) noexcept {
  return table(data, seed);
}

bool fold_supported() noexcept { return false; }

#endif

Kernel dispatched() noexcept {
  static const Kernel fn = fold_supported() ? fold : table;
  return fn;
}

}  // namespace crc32_detail

std::uint32_t crc32(std::span<const std::uint8_t> data,
                    std::uint32_t seed) noexcept {
  return crc32_detail::dispatched()(data, seed);
}

}  // namespace hds
