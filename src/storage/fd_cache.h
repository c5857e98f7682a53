// FdCache — bounded LRU of open container-file descriptors.
//
// FileContainerStore used to open a fresh stream for every read; under a
// restore that revisits containers (FAA re-fetches, read-ahead, fsck) the
// open/close pair dominates small reads. The cache keeps up to `capacity`
// descriptors open, keyed by container ID, and hands out pinning handles:
// a handle holds a shared reference to the descriptor, so an entry evicted
// or invalidated while a pread is in flight stays open until the last
// handle drops.
//
// Thread-safety: all methods are safe to call concurrently. Invalidation
// (on container rewrite or erase) removes the entry immediately; in-flight
// handles keep reading the *old* inode, which is exactly the pre-rename
// content — never a torn mix.
#pragma once

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <list>
#include <memory>
#include <unordered_map>

#include "common/thread_annotations.h"
#include "obs/metrics.h"
#include "storage/container.h"

namespace hds {

class FdCache {
 public:
  // capacity == 0 disables caching: acquire() still opens and returns a
  // usable handle, it just is not retained.
  explicit FdCache(std::size_t capacity) : capacity_(capacity) {}

  class Handle {
   public:
    Handle() = default;
    [[nodiscard]] bool valid() const noexcept { return holder_ != nullptr; }
    [[nodiscard]] int fd() const noexcept;
    // File size at open time (fstat). The store's writes replace the file
    // wholesale (atomic rename) and invalidate the entry, so the size stays
    // true for the descriptor's inode.
    [[nodiscard]] std::uint64_t size() const noexcept;

   private:
    friend class FdCache;
    struct Holder;
    explicit Handle(std::shared_ptr<Holder> holder)
        : holder_(std::move(holder)) {}
    std::shared_ptr<Holder> holder_;
  };

  // Opens (or reuses) a read-only descriptor for `path`. Invalid handle if
  // the file cannot be opened or stat'ed.
  [[nodiscard]] Handle acquire(ContainerId id,
                               const std::filesystem::path& path);

  // Drops the cached descriptor for `id` (container rewritten or erased).
  void invalidate(ContainerId id);
  void clear();

  // Resizes the cache, evicting down to the new capacity (setup operation;
  // in-flight handles keep their descriptors pinned as usual).
  void set_capacity(std::size_t capacity);

  [[nodiscard]] std::uint64_t hits() const noexcept {
    return hits_.load(std::memory_order_relaxed);
  }
  // Every miss is an open(2); hits + opens = acquires that succeeded.
  [[nodiscard]] std::uint64_t opens() const noexcept {
    return opens_.load(std::memory_order_relaxed);
  }
  // Descriptors currently held by the cache (fd pressure; excludes pinned
  // handles in flight).
  [[nodiscard]] std::size_t open_fds() const;

  // Registers hits()/opens() as `io_fd_cache_{hits,opens}` counter views.
  void attach_metrics(obs::MetricsRegistry& registry) const {
    registry.counter_view("io_fd_cache_hits", hits_);
    registry.counter_view("io_fd_cache_opens", opens_);
  }

 private:
  mutable Mutex mu_{lockrank::kFdCache};
  std::size_t capacity_ HDS_GUARDED_BY(mu_);
  // Front = most recently used.
  std::list<std::pair<ContainerId, std::shared_ptr<Handle::Holder>>> lru_
      HDS_GUARDED_BY(mu_);
  std::unordered_map<
      ContainerId,
      std::list<std::pair<ContainerId,
                          std::shared_ptr<Handle::Holder>>>::iterator>
      index_ HDS_GUARDED_BY(mu_);
  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> opens_{0};
};

}  // namespace hds
