// CRC-32 (IEEE 802.3 polynomial), zlib's crc32() value.
//
// One kernel is chosen once per process (common/crc32_kernels.h): a
// PCLMULQDQ fold when the CPU has carry-less multiply, the table loop
// otherwise. Both give the same value for every input and seed, and
// crc32(b, crc32(a)) == crc32(a ++ b).
//
// The integrity checksum of everything on disk: the seal every metadata
// file and container image ends in (ByteWriter::seal() / unseal() in
// common/byte_io.h, the only code that writes or checks a trailer), and a
// container's footer and per-chunk CRCs (storage/container.cpp), so
// corruption is caught before a chunk is handed back to a restore.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

namespace hds {

[[nodiscard]] std::uint32_t crc32(std::span<const std::uint8_t> data,
                                  std::uint32_t seed = 0) noexcept;

inline std::uint32_t crc32(const void* data, std::size_t len,
                           std::uint32_t seed = 0) noexcept {
  return crc32(std::span(static_cast<const std::uint8_t*>(data), len), seed);
}

}  // namespace hds
