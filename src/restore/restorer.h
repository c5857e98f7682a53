// Restore engine: reconstructs a backup stream from container storage under
// a pluggable caching policy.
//
// The unit of disk I/O is the container; every policy below differs only in
// what it keeps in memory between container fetches. The paper's restore
// metric, speed factor = MB restored per container read (§5.3), is computed
// from the counters gathered here, which deliberately ignores device speed.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string_view>

#include "common/chunk.h"
#include "storage/container.h"

namespace hds {

namespace obs {
class OpRecorder;
class Tracer;
}  // namespace obs

// One chunk of the restore stream, already resolved to its container.
// `active` selects the container namespace: HiDeStore keeps hot chunks in
// active containers whose IDs are disjoint from archival IDs.
struct ChunkLoc {
  Fingerprint fp;
  std::uint32_t size = 0;
  ContainerId cid = 0;
  bool active = false;

  // Cache key combining namespace and ID.
  [[nodiscard]] std::uint64_t key() const noexcept {
    return (static_cast<std::uint64_t>(active) << 32) |
           static_cast<std::uint32_t>(cid);
  }
};

// Fetches the container that holds `loc`. Implementations bridge to the
// archival ContainerStore and (for HiDeStore) the active pool. Each call is
// one container read; policies count calls. FAA with more than one fill
// worker (faa.h) calls fetch() from several threads at once.
class ContainerFetcher {
 public:
  virtual ~ContainerFetcher() = default;
  virtual std::shared_ptr<const Container> fetch(const ChunkLoc& loc) = 0;
};

struct RestoreStats {
  std::uint64_t restored_bytes = 0;
  std::uint64_t restored_chunks = 0;
  std::uint64_t container_reads = 0;
  std::uint64_t cache_hits = 0;
  // Entries (containers or chunks, per policy) dropped to stay within the
  // memory budget. 0 for policies without an eviction decision (nocache,
  // FAA's sliding area).
  std::uint64_t cache_evictions = 0;
  // Chunks whose container could not be fetched or did not hold them
  // (corrupt or missing on-disk data). Such chunks are delivered to the
  // sink as empty spans; the restore continues so the damage is bounded
  // and reportable instead of fatal.
  std::uint64_t failed_chunks = 0;

  // The paper's speed factor: mean MB restored per container read.
  [[nodiscard]] double speed_factor() const noexcept {
    if (container_reads == 0) return 0.0;
    return static_cast<double>(restored_bytes) / (1024.0 * 1024.0) /
           static_cast<double>(container_reads);
  }
};

// Receives restored chunks in stream order.
using ChunkSink =
    std::function<void(const ChunkLoc&, std::span<const std::uint8_t>)>;

class RestorePolicy {
 public:
  virtual ~RestorePolicy() = default;

  virtual RestoreStats restore(std::span<const ChunkLoc> stream,
                               ContainerFetcher& fetcher,
                               const ChunkSink& sink) = 0;

  // Where the next restore() calls record trace spans and profile phases
  // (either may be null). Only FAA records any: its fill workers' faa_fill
  // spans and the drain's fill_wait (faa.h).
  virtual void observe(obs::Tracer* /*tracer*/,
                       obs::OpRecorder* /*profile*/) {}

  [[nodiscard]] virtual std::string_view name() const noexcept = 0;
};

enum class RestorePolicyKind {
  kNoCache,
  kContainerLru,
  kChunkLru,
  kFaa,
  kAlacc,
  kFbw,
};

struct RestoreConfig {
  // Total memory budget of the policy, in bytes. Policies interpret it:
  // container LRU holds budget/container_size containers, chunk caches hold
  // budget bytes of chunks, FAA uses it as the assembly-area size, ALACC
  // splits it adaptively between area and chunk cache.
  std::size_t memory_budget = 64 * 1024 * 1024;
  std::size_t container_size = 4 * 1024 * 1024;
  // Look-ahead window (in chunks) for recipe-aware policies (ALACC, FBW).
  std::size_t lookahead_chunks = 16 * 1024;
  // FAA only: threads that fill each assembly area, the calling thread
  // included (faa.h). 0 and 1 both mean the calling thread alone.
  std::size_t workers = 1;
};

[[nodiscard]] std::unique_ptr<RestorePolicy> make_restore_policy(
    RestorePolicyKind kind, const RestoreConfig& config = {});

}  // namespace hds
