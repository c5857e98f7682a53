// SHA-1 compression functions behind Sha1 (common/sha1.h). Internal: the
// library and its tests use this header; callers hash through Sha1.
//
// Sha1 picks one block function once per process: the SHA-NI one when the
// CPU has the SHA extensions, the portable scalar one otherwise. Both must
// produce the same state for every input; tests compare them directly.
#pragma once

#include <cstddef>
#include <cstdint>

#include "common/sha1.h"

namespace hds::sha1_detail {

// Portable FIPS 180-4 compression; runs anywhere.
void blocks_scalar(std::uint32_t* state, const std::uint8_t* blocks,
                   std::size_t count) noexcept;

// SHA-NI compression. Call only when shani_supported() is true.
void blocks_shani(std::uint32_t* state, const std::uint8_t* blocks,
                  std::size_t count) noexcept;

// True when this CPU has the SHA extensions (and the SSSE3/SSE4.1 the
// SHA-NI path also uses).
[[nodiscard]] bool shani_supported() noexcept;

// The block function a default-constructed Sha1 uses.
[[nodiscard]] BlockFn dispatched_blocks() noexcept;

// with_blocks(fn), declared in sha1.h, returns a Sha1 that uses `fn`.

}  // namespace hds::sha1_detail
