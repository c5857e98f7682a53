#include "storage/fd_cache.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

namespace hds {

struct FdCache::Handle::Holder {
  int fd = -1;
  std::uint64_t size = 0;

  Holder(int fd_in, std::uint64_t size_in) : fd(fd_in), size(size_in) {}
  ~Holder() {
    if (fd >= 0) ::close(fd);
  }
  Holder(const Holder&) = delete;
  Holder& operator=(const Holder&) = delete;
};

int FdCache::Handle::fd() const noexcept { return holder_->fd; }

std::uint64_t FdCache::Handle::size() const noexcept { return holder_->size; }

FdCache::Handle FdCache::acquire(ContainerId id,
                                 const std::filesystem::path& path) {
  {
    MutexLock lock(mu_);
    if (const auto it = index_.find(id); it != index_.end()) {
      lru_.splice(lru_.begin(), lru_, it->second);
      hits_.fetch_add(1, std::memory_order_relaxed);
      return Handle(it->second->second);
    }
  }
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return Handle();
  struct ::stat st{};
  if (::fstat(fd, &st) != 0) {
    ::close(fd);
    return Handle();
  }
  opens_.fetch_add(1, std::memory_order_relaxed);
  auto holder = std::make_shared<Handle::Holder>(
      fd, static_cast<std::uint64_t>(st.st_size));
  {
    MutexLock lock(mu_);
    // A racing acquire may have inserted the same ID; prefer the existing
    // entry (ours closes when the returned handle drops). The capacity
    // check belongs under mu_ too: set_capacity may race this insert.
    if (capacity_ > 0 && !index_.contains(id)) {
      lru_.emplace_front(id, holder);
      index_[id] = lru_.begin();
      while (lru_.size() > capacity_) {
        index_.erase(lru_.back().first);
        lru_.pop_back();
      }
    }
  }
  return Handle(std::move(holder));
}

void FdCache::invalidate(ContainerId id) {
  MutexLock lock(mu_);
  if (const auto it = index_.find(id); it != index_.end()) {
    lru_.erase(it->second);
    index_.erase(it);
  }
}

void FdCache::clear() {
  MutexLock lock(mu_);
  lru_.clear();
  index_.clear();
}

void FdCache::set_capacity(std::size_t capacity) {
  MutexLock lock(mu_);
  capacity_ = capacity;
  while (lru_.size() > capacity_) {
    index_.erase(lru_.back().first);
    lru_.pop_back();
  }
}

std::size_t FdCache::open_fds() const {
  MutexLock lock(mu_);
  return lru_.size();
}

}  // namespace hds
