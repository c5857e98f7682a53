// Test-only: the shard count of tests that treat it as a free parameter.
//
// HDS_SHARDS=<n> overrides `fallback` (CI's sanitizer job replays the
// suite at 4 shards). Strict parse; junk falls back to the default rather
// than silently running unsharded.
#pragma once

#include <cstddef>
#include <cstdlib>

#include "common/parse.h"
#include "index/shard_space.h"

namespace hds::testutil {

inline std::size_t env_shards(std::size_t fallback) {
  const char* env = std::getenv("HDS_SHARDS");
  if (env == nullptr) return fallback;
  const auto parsed = parse_uint(env, kMaxShards);
  if (!parsed.has_value() || *parsed == 0) return fallback;
  return static_cast<std::size_t>(*parsed);
}

}  // namespace hds::testutil
