// Rabin fingerprinting over GF(2) and Rabin-based CDC.
//
// The rolling hash is a polynomial fingerprint modulo an irreducible
// polynomial of degree 53 (the LBFS polynomial), computed with the classic
// two-table scheme: an append table reduces the high byte after a shift, a
// remove table cancels the byte leaving a fixed-size window.
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>

#include "chunking/chunker.h"

namespace hds {

class RabinHash {
 public:
  static constexpr std::uint64_t kPolynomial = 0x3DA3358B4DC173ULL;  // deg 53
  static constexpr int kDegree = 53;
  static constexpr std::size_t kWindowSize = 48;

  void reset() noexcept;

  // Slides the window one byte forward and returns the new fingerprint.
  std::uint64_t roll(std::uint8_t in) noexcept {
    const std::uint8_t out = window_[pos_];
    window_[pos_] = in;
    pos_ = pos_ + 1 == kWindowSize ? 0 : pos_ + 1;
    fp_ = slide(fp_, in, out);
    return fp_;
  }

  [[nodiscard]] std::uint64_t value() const noexcept { return fp_; }

  // One rolling step with the window kept by the caller: `out` is the byte
  // leaving the window, 0 while fewer than kWindowSize bytes have entered
  // since the fingerprint was 0. The result stays below 2^kDegree.
  [[nodiscard]] static std::uint64_t slide(std::uint64_t fp, std::uint8_t in,
                                           std::uint8_t out) noexcept;

 private:
  std::array<std::uint8_t, kWindowSize> window_{};
  std::size_t pos_ = 0;
  std::uint64_t fp_ = 0;
};

namespace rabin_detail {

struct Tables {
  // append[t] = (t · x^kDegree mod P) ^ (t << kDegree): after an 8-bit
  // shift, one XOR both reduces the byte that overflowed past the degree
  // and clears it.
  std::array<std::uint64_t, 256> append{};
  // remove[b] = b · x^(8·kWindowSize) mod P: the contribution of a byte
  // after the whole window has slid past it.
  std::array<std::uint64_t, 256> remove{};
};

// Shifts one bit into `fp` and reduces modulo the polynomial.
constexpr std::uint64_t shift_bit(std::uint64_t fp, unsigned bit) noexcept {
  constexpr std::uint64_t kTop = 1ULL << RabinHash::kDegree;
  fp = (fp << 1) | bit;
  if (fp & kTop) fp ^= RabinHash::kPolynomial | kTop;
  return fp;
}

constexpr Tables make_tables() noexcept {
  Tables t;
  for (unsigned b = 0; b < 256; ++b) {
    std::uint64_t fp = b;
    for (int i = 0; i < RabinHash::kDegree; ++i) fp = shift_bit(fp, 0);
    t.append[b] = fp ^ (std::uint64_t{b} << RabinHash::kDegree);
    fp = 0;
    for (int i = 7; i >= 0; --i) fp = shift_bit(fp, (b >> i) & 1);
    for (std::size_t i = 0; i < 8 * RabinHash::kWindowSize; ++i) {
      fp = shift_bit(fp, 0);
    }
    t.remove[b] = fp;
  }
  return t;
}

inline constexpr Tables kTables = make_tables();

}  // namespace rabin_detail

inline std::uint64_t RabinHash::slide(std::uint64_t fp, std::uint8_t in,
                                      std::uint8_t out) noexcept {
  return ((fp << 8) | in) ^
         rabin_detail::kTables.append[fp >> (kDegree - 8)] ^
         rabin_detail::kTables.remove[out];
}

// Scans one chunk that starts at data[0] for its cut point. Calls
// hit(len, fp) with the fingerprint a fresh RabinHash would return after
// rolling data[0..len), for each len in [first, last] in order, until a call
// returns true; returns that len, or 0 if none did. Requires first >= 1.
//
// Rolling starts kWindowSize bytes before `first`, not at data[0]: once the
// window is full the fingerprint depends only on the bytes inside it, so the
// bytes before it cannot change any value hit() sees. The window lives in
// `data` itself, so each step reads the byte leaving it instead of storing
// a copy.
template <class Hit>
[[nodiscard]] std::size_t rabin_scan(const std::uint8_t* data,
                                     std::size_t first, std::size_t last,
                                     Hit&& hit) {
  constexpr std::size_t kWindow = RabinHash::kWindowSize;
  std::size_t i = first > kWindow ? first - kWindow : 0;
  std::uint64_t fp = 0;
  for (const std::size_t full = std::min(i + kWindow, last); i < full; ++i) {
    fp = RabinHash::slide(fp, data[i], 0);
    if (i + 1 >= first && hit(i + 1, fp)) return i + 1;
  }
  for (; i < last; ++i) {
    fp = RabinHash::slide(fp, data[i], data[i - kWindow]);
    if (hit(i + 1, fp)) return i + 1;
  }
  return 0;
}

class RabinChunker final : public Chunker {
 public:
  explicit RabinChunker(const ChunkerParams& params = {});

  void chunk(std::span<const std::uint8_t> data,
             std::vector<std::size_t>& lengths) const override;
  [[nodiscard]] std::string_view name() const noexcept override {
    return "rabin";
  }
  [[nodiscard]] std::size_t max_chunk_size() const noexcept override {
    return params_.max_size;
  }

 private:
  ChunkerParams params_;
  std::uint64_t mask_;  // boundary when (fp & mask_) == mask_
};

}  // namespace hds
