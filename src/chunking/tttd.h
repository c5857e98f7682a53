// TTTD — Two Thresholds, Two Divisors (Eshghi & Tang, HP Labs TR 2005-30).
//
// The paper's prototype chunks with TTTD. Beyond plain divisor-test CDC,
// TTTD adds a *backup divisor* (half as selective): if no main-divisor
// boundary appears before the maximum threshold, the most recent backup
// boundary is used instead of a hard cut, which keeps chunk sizes tight
// around the average without destroying content-definedness at forced cuts.
#pragma once

#include <bit>
#include <cstdint>

#include "chunking/chunker.h"
#include "chunking/rabin.h"

namespace hds {

// Exact divisibility test without a division (Granlund & Montgomery,
// PLDI '94, §9). For d = odd · 2^k, multiplying by the inverse of `odd`
// modulo 2^64 maps the multiples of `odd` onto [0, ⌊(2^64-1)/odd⌋], and
// those that are also multiples of 2^k onto its multiples of 2^k. A rotate
// right by k divides those by 2^k and lifts every other value above
// ⌊(2^64-1)/d⌋, so d | x exactly when rotr(x · inv, k) <= ⌊(2^64-1)/d⌋.
class DivisorTest {
 public:
  explicit DivisorTest(std::uint64_t d);

  [[nodiscard]] bool divides(std::uint64_t x) const noexcept {
    return std::rotr(x * inverse_, shift_) <= limit_;
  }

 private:
  int shift_;
  std::uint64_t limit_;
  std::uint64_t inverse_ = 0;
};

class TttdChunker final : public Chunker {
 public:
  explicit TttdChunker(const ChunkerParams& params = {});

  void chunk(std::span<const std::uint8_t> data,
             std::vector<std::size_t>& lengths) const override;
  [[nodiscard]] std::string_view name() const noexcept override {
    return "tttd";
  }
  [[nodiscard]] std::size_t max_chunk_size() const noexcept override {
    return max_size_;
  }

 private:
  std::size_t min_size_;
  std::size_t max_size_;
  DivisorTest main_;
  DivisorTest backup_;
};

}  // namespace hds
