#include "chunking/rabin.h"

#include <bit>

namespace hds {

void RabinHash::reset() noexcept {
  window_.fill(0);
  pos_ = 0;
  fp_ = 0;
}

RabinChunker::RabinChunker(const ChunkerParams& params) : params_(params) {
  // Boundary test (fp & mask) == mask fires with probability 2^-k; choose k
  // so the expected distance between boundaries beyond min_size is
  // avg - min.
  const std::size_t target =
      params_.avg_size > params_.min_size ? params_.avg_size - params_.min_size
                                          : params_.avg_size;
  const int bits = std::max(1, static_cast<int>(std::bit_width(target)) - 1);
  mask_ = (1ULL << bits) - 1;
}

void RabinChunker::chunk(std::span<const std::uint8_t> data,
                         std::vector<std::size_t>& lengths) const {
  // Every length from min_size on is a candidate; max_size forces a cut.
  const std::size_t first = std::max<std::size_t>(params_.min_size, 1);
  const std::size_t forced = std::max(first, params_.max_size);
  std::size_t start = 0;
  while (start < data.size()) {
    const std::size_t last = std::min(data.size() - start, forced);
    const std::size_t cut =
        rabin_scan(data.data() + start, first, last,
                   [this](std::size_t, std::uint64_t fp) {
                     return (fp & mask_) == mask_;
                   });
    const std::size_t len = cut != 0 ? cut : last;
    lengths.push_back(len);
    start += len;
  }
}

}  // namespace hds
