// BlockCache — sharded LRU of deserialized containers under a byte budget.
//
// One cache per FileContainerStore, shared by everything that reads through
// it: the restore policies (on any FAA fill worker) and end-of-version
// compaction/eviction — so a container deserialized for one
// consumer is served from memory to the next instead of being re-slurped.
//
// Policy:
//   * populate on READ only, never on write. Backup writes containers it
//     will not read again soon, and a write-through cache would mask
//     on-disk corruption from every later read — the failure-injection
//     tests (and real repair workflows) depend on reads seeing the disk.
//   * `complete` entries hold the whole container and satisfy any lookup;
//     partial entries (from read_chunks) satisfy only lookups whose
//     requested fingerprints they contain, and never replace a complete
//     entry.
//   * entries larger than a shard's budget are not cached.
//
// Accounting note: a cache hit still counts as a container read at the
// store level (§5.3 speed-factor semantics are logical); only
// bytes_read_physical sees the difference.
//
// Thread-safety: all methods are safe to call concurrently; shards are
// independently locked, keyed by container ID.
#pragma once

#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "common/thread_annotations.h"
#include "obs/metrics.h"
#include "storage/container.h"

namespace hds {

class BlockCache {
 public:
  // budget_bytes == 0 disables the cache (every lookup misses).
  BlockCache(std::size_t budget_bytes, std::size_t shards);

  struct Hit {
    std::shared_ptr<const Container> container;
    // data_size() of the full on-disk container — what the logical
    // bytes_read accounting charges even when `container` is partial.
    std::uint64_t full_data_size = 0;
  };

  // Lookup for a full-container read: only complete entries qualify.
  [[nodiscard]] std::optional<Hit> find_full(ContainerId id);

  // Lookup for a partial read: a complete entry always qualifies; a partial
  // entry qualifies when it holds every requested fingerprint.
  [[nodiscard]] std::optional<Hit> find_chunks(
      ContainerId id, std::span<const Fingerprint> fps);

  void insert(ContainerId id, std::shared_ptr<const Container> container,
              std::uint64_t full_data_size, bool complete);

  // Drops the entry for `id` (container rewritten or erased).
  void invalidate(ContainerId id);
  void clear();

  // Replaces budget and shard layout, dropping all entries. Setup-only: NOT
  // safe concurrently with lookups (the shard vector is rebuilt).
  void reconfigure(std::size_t budget_bytes, std::size_t shards);

  [[nodiscard]] std::uint64_t hits() const noexcept {
    return hits_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t misses() const noexcept {
    return misses_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t evictions() const noexcept {
    return evictions_.load(std::memory_order_relaxed);
  }
  // Registers hits()/misses()/evictions() as
  // `io_block_cache_{hits,misses,evictions}` counter views.
  void attach_metrics(obs::MetricsRegistry& registry) const {
    registry.counter_view("io_block_cache_hits", hits_);
    registry.counter_view("io_block_cache_misses", misses_);
    registry.counter_view("io_block_cache_evictions", evictions_);
  }
  // Current resident charge across all shards.
  [[nodiscard]] std::uint64_t bytes() const;
  [[nodiscard]] std::size_t budget() const noexcept { return budget_; }

 private:
  struct Entry {
    ContainerId id = 0;
    std::shared_ptr<const Container> container;
    std::uint64_t full_data_size = 0;
    bool complete = false;
    std::size_t charge = 0;
  };
  struct Shard {
    mutable Mutex mu{lockrank::kBlockCacheShard};
    std::list<Entry> lru HDS_GUARDED_BY(mu);  // front = most recently used
    std::unordered_map<ContainerId, std::list<Entry>::iterator> index
        HDS_GUARDED_BY(mu);
    std::size_t bytes HDS_GUARDED_BY(mu) = 0;
  };

  [[nodiscard]] Shard& shard_for(ContainerId id) noexcept {
    return shards_[static_cast<std::size_t>(static_cast<std::uint32_t>(id)) %
                   shards_.size()];
  }
  [[nodiscard]] std::size_t shard_budget() const noexcept {
    return budget_ / shards_.size();
  }
  static std::size_t charge_of(const Container& container) noexcept;
  void evict_over_budget(Shard& shard) HDS_REQUIRES(shard.mu);

  std::size_t budget_;
  std::vector<Shard> shards_;
  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> misses_{0};
  std::atomic<std::uint64_t> evictions_{0};
};

}  // namespace hds
