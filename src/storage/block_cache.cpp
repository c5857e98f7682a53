#include "storage/block_cache.h"

namespace hds {

std::shared_ptr<const Container> BlockCache::find(ContainerId id) {
  MutexLock lock(mu_);
  const auto it = index_.find(id);
  if (it == index_.end()) {
    misses_.fetch_add(1, std::memory_order_relaxed);
    return nullptr;
  }
  lru_.splice(lru_.begin(), lru_, it->second);
  hits_.fetch_add(1, std::memory_order_relaxed);
  return it->second->container;
}

void BlockCache::insert(ContainerId id,
                        std::shared_ptr<const Container> container) {
  // Payload bytes plus a per-entry overhead estimate for the table/map.
  const std::size_t charge =
      container->data_size() + container->chunk_count() * 64;
  if (charge > budget_) return;  // would evict everything else
  MutexLock lock(mu_);
  if (const auto it = index_.find(id); it != index_.end()) {
    bytes_ -= it->second->charge;
    lru_.erase(it->second);
    index_.erase(it);
  }
  lru_.push_front(Entry{id, std::move(container), charge});
  index_[id] = lru_.begin();
  bytes_ += charge;
  while (bytes_ > budget_) {
    const Entry& victim = lru_.back();
    bytes_ -= victim.charge;
    index_.erase(victim.id);
    lru_.pop_back();
    evictions_.fetch_add(1, std::memory_order_relaxed);
  }
}

void BlockCache::invalidate(ContainerId id) {
  MutexLock lock(mu_);
  if (const auto it = index_.find(id); it != index_.end()) {
    bytes_ -= it->second->charge;
    lru_.erase(it->second);
    index_.erase(it);
  }
}

}  // namespace hds
