#include "chunking/tttd.h"

#include <algorithm>
#include <bit>

namespace hds {

DivisorTest::DivisorTest(std::uint64_t d)
    : shift_(std::countr_zero(d)), limit_(~std::uint64_t{0} / d) {
  // Newton's iteration for the inverse of the odd part modulo 2^64: an odd
  // number is its own inverse modulo 8, and each step doubles the correct
  // low bits (3, 6, 12, 24, 48, 96).
  const std::uint64_t odd = d >> shift_;
  inverse_ = odd;
  for (int i = 0; i < 5; ++i) inverse_ *= 2 - odd * inverse_;
}

namespace {

// The HP TR parameters for a 1008-byte average are Tmin=460, Tmax=2800,
// D=540, D'=270; we scale the divisors to the requested average. The
// divisor test is (fp mod D) == D-1, i.e. D divides fp+1 (fp < 2^53, so
// fp+1 cannot wrap).
std::uint64_t main_divisor(const ChunkerParams& params) {
  return params.avg_size > params.min_size ? params.avg_size - params.min_size
                                           : 1;
}

}  // namespace

TttdChunker::TttdChunker(const ChunkerParams& params)
    : min_size_(params.min_size),
      max_size_(params.max_size),
      main_(main_divisor(params)),
      backup_(std::max<std::uint64_t>(1, main_divisor(params) / 2)) {}

void TttdChunker::chunk(std::span<const std::uint8_t> data,
                        std::vector<std::size_t>& lengths) const {
  // Every length from min_size on is a candidate; max_size forces a cut.
  const std::size_t first = std::max<std::size_t>(min_size_, 1);
  const std::size_t forced = std::max(first, max_size_);
  std::size_t start = 0;
  while (start < data.size()) {
    const std::size_t last = std::min(data.size() - start, forced);
    std::size_t backup_len = 0;  // most recent backup-divisor boundary
    const std::size_t cut =
        rabin_scan(data.data() + start, first, last,
                   [&](std::size_t len, std::uint64_t fp) {
                     if (main_.divides(fp + 1)) return true;
                     if (backup_.divides(fp + 1)) backup_len = len;
                     return false;
                   });
    std::size_t len = cut != 0 ? cut : last;
    // No main boundary by the maximum threshold: fall back to the last
    // backup boundary, or force a cut there. The next chunk's scan starts
    // afresh at the backup boundary.
    if (cut == 0 && last >= max_size_ && backup_len != 0) len = backup_len;
    lengths.push_back(len);
    start += len;
  }
}

}  // namespace hds
