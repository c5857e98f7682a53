// ContainerChunkIndex — which fingerprints a restore needs from each
// archival container.
//
// Built once per restore from the resolved chunk stream, then handed (by
// const pointer) to the fetchers so read_chunks() can ask the store for
// exactly the needed chunks of a container instead of the whole thing —
// the footer-index partial-read fast path (DESIGN.md §10). Const after
// construction, so FAA's fill workers share it safely.
#pragma once

#include <span>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "restore/restorer.h"
#include "storage/container.h"

namespace hds {

using ContainerChunkIndex =
    std::unordered_map<ContainerId, std::vector<Fingerprint>>;

// Groups the archival fingerprints of `stream` by container, deduplicated
// (a chunk referenced many times in the stream is fetched once per
// container read). Active-class locations are skipped — they are served
// from the in-memory pool, not the store.
inline ContainerChunkIndex build_container_chunk_index(
    std::span<const ChunkLoc> stream) {
  ContainerChunkIndex index;
  std::unordered_map<ContainerId, std::unordered_set<Fingerprint>> seen;
  for (const ChunkLoc& loc : stream) {
    if (loc.active || loc.cid <= 0) continue;
    if (seen[loc.cid].insert(loc.fp).second) {
      index[loc.cid].push_back(loc.fp);
    }
  }
  return index;
}

}  // namespace hds
