// SHA-1, implemented from scratch (FIPS 180-4).
//
// The paper (and Destor, DDFS, Sparse Indexing, SiLo) fingerprints chunks
// with SHA-1. Cryptographic strength is irrelevant here — what matters is a
// uniformly distributed 160-bit identifier whose collision probability is far
// below hardware error rates — so a clean, dependency-free implementation is
// the right tool. The compression function runs on the CPU's SHA extensions
// (SHA-NI) when it has them and on portable scalar code otherwise; both give
// the same digest (common/sha1_blocks.h).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

#include "common/fingerprint.h"

namespace hds {

class Sha1;

namespace sha1_detail {
// Compresses `count` consecutive 64-byte blocks into the five-word state.
using BlockFn = void (*)(std::uint32_t* state, const std::uint8_t* blocks,
                         std::size_t count) noexcept;
[[nodiscard]] Sha1 with_blocks(BlockFn blocks) noexcept;
}  // namespace sha1_detail

class Sha1 {
 public:
  Sha1() noexcept;

  void reset() noexcept;
  void update(std::span<const std::uint8_t> data) noexcept;
  void update(const void* data, std::size_t len) noexcept {
    update(std::span(static_cast<const std::uint8_t*>(data), len));
  }

  // Finalizes and returns the digest. The object must be reset() before
  // reuse; finalization consumes the internal state.
  [[nodiscard]] Fingerprint finish() noexcept;

  // One-shot convenience.
  [[nodiscard]] static Fingerprint digest(
      std::span<const std::uint8_t> data) noexcept {
    Sha1 h;
    h.update(data);
    return h.finish();
  }
  [[nodiscard]] static Fingerprint digest(const void* data,
                                          std::size_t len) noexcept {
    return digest(std::span(static_cast<const std::uint8_t*>(data), len));
  }

 private:
  friend Sha1 sha1_detail::with_blocks(sha1_detail::BlockFn) noexcept;
  explicit Sha1(sha1_detail::BlockFn blocks) noexcept;

  sha1_detail::BlockFn blocks_;
  std::uint32_t h_[5]{};
  std::uint64_t total_len_ = 0;
  std::uint8_t buffer_[64]{};
  std::size_t buffer_len_ = 0;
};

}  // namespace hds
