// BlockCache — one LRU of decoded whole containers under a byte budget.
//
// One cache per FileContainerStore, shared by everything that reads through
// it: the restore policies (on any FAA fill worker) and end-of-version
// compaction/eviction — so a container deserialized for one
// consumer is served from memory to the next instead of being re-read.
//
// Policy:
//   * populate on READ only, never on write. Backup writes containers it
//     will not read again soon, and a write-through cache would mask
//     on-disk corruption from every later read — the failure-injection
//     tests (and real repair workflows) depend on reads seeing the disk.
//   * every entry is a whole container, so a hit serves any chunk of it.
//   * an entry larger than the whole budget is not cached.
//
// Accounting note: a cache hit still counts as a container read at the
// store level (§5.3 speed-factor semantics are logical); only
// bytes_read_physical sees the difference.
//
// Thread-safety: all methods are safe to call concurrently; one mutex
// guards the LRU (the work under it is a list splice and a map lookup).
#pragma once

#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <unordered_map>

#include "common/thread_annotations.h"
#include "obs/metrics.h"
#include "storage/container.h"

namespace hds {

class BlockCache {
 public:
  // Eight default (4 MiB) containers.
  static constexpr std::size_t kBudgetBytes = 32 * 1024 * 1024;

  explicit BlockCache(std::size_t budget_bytes = kBudgetBytes)
      : budget_(budget_bytes) {}

  // The cached container, or nullptr on a miss.
  [[nodiscard]] std::shared_ptr<const Container> find(ContainerId id);

  void insert(ContainerId id, std::shared_ptr<const Container> container);

  // Drops the entry for `id` (container rewritten or erased).
  void invalidate(ContainerId id);

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
  // Current resident charge.
  [[nodiscard]] std::uint64_t bytes() const {
    MutexLock lock(mu_);
    return bytes_;
  }

 private:
  struct Entry {
    ContainerId id = 0;
    std::shared_ptr<const Container> container;
    std::size_t charge = 0;
  };

  const std::size_t budget_;
  mutable Mutex mu_{lockrank::kBlockCache};
  std::list<Entry> lru_ HDS_GUARDED_BY(mu_);  // front = most recently used
  std::unordered_map<ContainerId, std::list<Entry>::iterator> index_
      HDS_GUARDED_BY(mu_);
  std::size_t bytes_ HDS_GUARDED_BY(mu_) = 0;
  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> misses_{0};
  std::atomic<std::uint64_t> evictions_{0};
};

}  // namespace hds
