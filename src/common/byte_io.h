// Little-endian byte serialization helpers for on-disk state files, and
// the one seal every metadata file ends in: the little-endian CRC-32 of
// the bytes before it (ByteWriter::seal() writes it, unseal() checks it).
#pragma once

#include <cstdint>
#include <cstring>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/crc32.h"

namespace hds {

// The CRC-32 of any sealed file, trailer included: a message followed by
// its own little-endian CRC-32 always hashes to this residue. It is the
// `state_crc` every commit record carries.
inline constexpr std::uint32_t kSealResidue = 0x2144DF1C;
inline constexpr std::size_t kSealSize = 4;

class ByteWriter {
 public:
  void u8(std::uint8_t v) { bytes_.push_back(v); }
  void u32(std::uint32_t v) {
    for (int i = 0; i < 4; ++i) {
      bytes_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }
  }
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      bytes_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }
  }
  void f64(double v) {
    std::uint64_t bits;
    std::memcpy(&bits, &v, 8);
    u64(bits);
  }
  void raw(std::span<const std::uint8_t> data) {
    bytes_.insert(bytes_.end(), data.begin(), data.end());
  }
  // Length-prefixed blob.
  void blob(std::span<const std::uint8_t> data) {
    u32(static_cast<std::uint32_t>(data.size()));
    raw(data);
  }
  // Appends the CRC-32 of every byte written so far; unseal() checks it.
  void seal() { u32(crc32(bytes_)); }
  void reserve(std::size_t n) { bytes_.reserve(n); }

  [[nodiscard]] const std::vector<std::uint8_t>& bytes() const noexcept {
    return bytes_;
  }
  [[nodiscard]] std::vector<std::uint8_t> take() noexcept {
    return std::move(bytes_);
  }

 private:
  std::vector<std::uint8_t> bytes_;
};

// Cursor-based reader; every getter returns false on underflow, after
// which the reader stays failed.
class ByteReader {
 public:
  explicit ByteReader(std::span<const std::uint8_t> data) : data_(data) {}

  bool u8(std::uint8_t& v) {
    if (!take(1)) return false;
    v = data_[pos_ - 1];
    return true;
  }
  bool u32(std::uint32_t& v) {
    if (!take(4)) return false;
    v = 0;
    for (int i = 3; i >= 0; --i) v = (v << 8) | data_[pos_ - 4 + i];
    return true;
  }
  bool u64(std::uint64_t& v) {
    if (!take(8)) return false;
    v = 0;
    for (int i = 7; i >= 0; --i) v = (v << 8) | data_[pos_ - 8 + i];
    return true;
  }
  bool f64(double& v) {
    std::uint64_t bits;
    if (!u64(bits)) return false;
    std::memcpy(&v, &bits, 8);
    return true;
  }
  bool raw(std::span<std::uint8_t> out) {
    if (!take(out.size())) return false;
    std::memcpy(out.data(), data_.data() + pos_ - out.size(), out.size());
    return true;
  }
  bool blob(std::vector<std::uint8_t>& out) {
    std::uint32_t len;
    if (!u32(len) || !take(len)) return false;
    out.assign(data_.begin() + static_cast<std::ptrdiff_t>(pos_ - len),
               data_.begin() + static_cast<std::ptrdiff_t>(pos_));
    return true;
  }

  [[nodiscard]] bool exhausted() const noexcept {
    return ok_ && pos_ == data_.size();
  }
  [[nodiscard]] bool ok() const noexcept { return ok_; }

 private:
  bool take(std::size_t n) {
    if (!ok_ || data_.size() - pos_ < n) {
      ok_ = false;
      return false;
    }
    pos_ += n;
    return true;
  }

  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

// The body of a sealed file: `bytes` without its trailer, or nullopt when
// it is too short to hold one or the trailer is not the body's CRC-32.
[[nodiscard]] inline std::optional<std::span<const std::uint8_t>> unseal(
    std::span<const std::uint8_t> bytes) {
  if (bytes.size() < kSealSize) return std::nullopt;
  const auto body = bytes.first(bytes.size() - kSealSize);
  std::uint32_t stored = 0;
  ByteReader(bytes.last(kSealSize)).u32(stored);
  if (crc32(body) != stored) return std::nullopt;
  return body;
}

}  // namespace hds
