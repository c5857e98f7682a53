// CRC-32 kernels behind crc32() (common/crc32.h). Internal: the library and
// its tests use this header; callers checksum through crc32().
//
// crc32() picks one kernel once per process: the PCLMULQDQ fold when the
// CPU has carry-less multiply (and the SSE4.1 the fold also uses), the
// table loop otherwise. Every kernel takes and returns a CRC in crc32()'s
// convention and must produce the same value for every input and seed;
// tests compare them directly.
#pragma once

#include <cstdint>
#include <span>

namespace hds::crc32_detail {

using Kernel = std::uint32_t (*)(std::span<const std::uint8_t> data,
                                 std::uint32_t seed) noexcept;

// One table lookup per byte; runs anywhere.
[[nodiscard]] std::uint32_t table(std::span<const std::uint8_t> data,
                                  std::uint32_t seed) noexcept;

// Carry-less-multiply fold over 16-byte blocks (Intel, "Fast CRC
// Computation for Generic Polynomials Using PCLMULQDQ Instruction", 2009).
// Spans under 64 bytes and the tail past the last 16-byte block go through
// table(). Call only when fold_supported() is true.
[[nodiscard]] std::uint32_t fold(std::span<const std::uint8_t> data,
                                 std::uint32_t seed) noexcept;

// True when this CPU has PCLMULQDQ and SSE4.1.
[[nodiscard]] bool fold_supported() noexcept;

// The kernel crc32() uses.
[[nodiscard]] Kernel dispatched() noexcept;

}  // namespace hds::crc32_detail
