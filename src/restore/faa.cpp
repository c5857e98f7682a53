#include "restore/faa.h"

#include <algorithm>
#include <cstring>
#include <exception>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/thread_annotations.h"
#include "obs/profiler.h"
#include "obs/trace.h"

namespace hds {

namespace {

// Bounds the threads one restore starts (hds_tool accepts --threads up to
// 4096): each worker holds up to one container while it copies, so the
// fill's memory grows with the count.
constexpr std::size_t kMaxWorkers = 64;

// One container's share of an assembly area: the slots it serves, in stream
// order, so slots.front() is where the container first appears.
struct Group {
  std::vector<std::size_t> slots;  // area-relative stream indices
  // Written by the worker that fills the group, read after it is done.
  std::uint64_t cache_hits = 0;
  std::uint64_t failed = 0;
};

// One assembly area at a time and the workers that fill it, for one
// restore() call. The drain thread (the caller) lays out an area only while
// none of its groups is claimable, so the layout (area_, offsets_, groups_,
// slot_group_) needs no lock: a worker reaches a group only by claiming it
// under mu_, after the layout was written.
class AreaFill {
 public:
  AreaFill(ContainerFetcher& fetcher, std::size_t workers,
           obs::Tracer* tracer, obs::OpRecorder* profile)
      : fetcher_(fetcher),
        helpers_(std::clamp<std::size_t>(workers, 1, kMaxWorkers) - 1),
        tracer_(tracer),
        profile_(profile) {}

  // Stops and joins the helpers however restore() ends: before the area
  // they write into is freed.
  ~AreaFill() {
    {
      MutexLock lock(mu_);
      stop_ = true;
      claimable_.notify_all();
    }
    for (std::thread& t : threads_) t.join();
  }

  AreaFill(const AreaFill&) = delete;
  AreaFill& operator=(const AreaFill&) = delete;

  // Lays the area over `area` (the previous area fully drained) and makes
  // its groups claimable. Returns the group count: one fetch each.
  std::size_t publish(std::span<const ChunkLoc> area) HDS_EXCLUDES(mu_) {
    stream_ = area;
    offsets_.resize(area.size());
    slot_group_.resize(area.size());
    groups_.clear();
    group_of_.clear();
    std::size_t total = 0;
    for (std::size_t s = 0; s < area.size(); ++s) {
      offsets_[s] = total;
      total += area[s].size;
      const auto [it, fresh] =
          group_of_.try_emplace(area[s].key(), groups_.size());
      if (fresh) groups_.emplace_back();
      groups_[it->second].slots.push_back(s);
      slot_group_[s] = it->second;
    }
    if (area_ == nullptr || total > capacity_) {
      // Uninitialized: every slot is either copied or zeroed by its fill.
      capacity_ = std::max<std::size_t>(total, 1);
      area_ = std::make_unique_for_overwrite<std::uint8_t[]>(capacity_);
    }
    {
      MutexLock lock(mu_);
      done_.assign(groups_.size(), 0);
      next_ = 0;
      claimable_.notify_all();
    }
    // More helpers than groups past the first would only wait.
    while (threads_.size() < std::min(helpers_, groups_.size() - 1)) {
      threads_.emplace_back([this, i = threads_.size()] {
        if (tracer_ != nullptr) {
          tracer_->set_thread_name("restore_fill_" + std::to_string(i));
        }
        help();
      });
    }
    return groups_.size();
  }

  // Blocks until `slot`'s group is filled, filling unclaimed groups on this
  // thread meanwhile. With helpers the sink overlaps their fill, so this
  // thread fills only while its slot is not ready. Alone it fills the whole
  // area first: the serial order, and a sink that blocks (a shard's merge
  // queue) cannot hold up the fill. Rethrows the first exception any worker
  // hit.
  void await(std::size_t slot) HDS_EXCLUDES(mu_) {
    const std::size_t g = slot_group_[slot];
    const bool alone = threads_.empty();
    MutexLock lock(mu_);
    while (error_ == nullptr && (alone || done_[g] == 0)) {
      std::size_t claimed = 0;
      if (claim(claimed)) {
        lock.unlock();
        run(claimed);
        lock.lock();
        continue;
      }
      if (done_[g] != 0) break;
      obs::Span wait(tracer_, "fill_wait");
      obs::OpRecorder::Phase phase;
      if (profile_ != nullptr) {
        phase = profile_->phase("policy_restore/fill_wait");
      }
      while (done_[g] == 0 && error_ == nullptr) filled_.wait(mu_);
    }
    if (error_ != nullptr) std::rethrow_exception(error_);
  }

  [[nodiscard]] std::span<const std::uint8_t> slot(std::size_t s) const {
    return {area_.get() + offsets_[s], stream_[s].size};
  }

  [[nodiscard]] const std::vector<Group>& groups() const { return groups_; }

 private:
  bool claim(std::size_t& g) HDS_REQUIRES(mu_) {
    if (stop_ || next_ >= done_.size()) return false;
    g = next_++;
    ++in_flight_;
    if (profile_ != nullptr) {
      profile_->sample_queue_depth(static_cast<double>(in_flight_));
    }
    return true;
  }

  // Helper thread body: fills claimed groups until the restore ends.
  void help() HDS_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    while (true) {
      std::size_t g = 0;
      while (!stop_ && !claim(g)) claimable_.wait(mu_);
      if (stop_) return;
      lock.unlock();
      run(g);
      lock.lock();
    }
  }

  // Fills group `g` and publishes it; an exception becomes the restore's
  // error and stops further claims.
  void run(std::size_t g) HDS_EXCLUDES(mu_) {
    std::exception_ptr error;
    try {
      fill(groups_[g]);
    } catch (...) {
      error = std::current_exception();
    }
    MutexLock lock(mu_);
    done_[g] = 1;
    --in_flight_;
    if (error != nullptr && error_ == nullptr) {
      error_ = error;
      stop_ = true;
      claimable_.notify_all();
    }
    filled_.notify_all();
  }

  // One fetch, then every slot the container serves. Slots it cannot
  // serve (unfetchable container, or a chunk it lacks, e.g. one a partial
  // read dropped for a CRC mismatch) read as zeros and count as failed.
  void fill(Group& group) {
    const ChunkLoc& first = stream_[group.slots.front()];
    obs::Span span(tracer_, "faa_fill");
    span.arg("cid", static_cast<std::uint64_t>(first.cid));
    const auto container = fetcher_.fetch(first);
    std::uint64_t bytes = 0;
    for (std::size_t k = 0; k < group.slots.size(); ++k) {
      const std::size_t s = group.slots[k];
      const ChunkLoc& loc = stream_[s];
      std::uint8_t* dst = area_.get() + offsets_[s];
      std::size_t copied = 0;
      const auto chunk = container != nullptr
                             ? container->read(loc.fp)
                             : std::nullopt;
      if (chunk) {
        copied = std::min<std::size_t>(chunk->size(), loc.size);
        std::memcpy(dst, chunk->data(), copied);
        if (k != 0) group.cache_hits++;
      } else {
        group.failed++;
      }
      std::memset(dst + copied, 0, loc.size - copied);
      bytes += copied;
    }
    span.arg("bytes", bytes);
  }

  ContainerFetcher& fetcher_;
  const std::size_t helpers_;
  obs::Tracer* tracer_;
  obs::OpRecorder* profile_;

  // The current area's layout (see the class comment).
  std::span<const ChunkLoc> stream_;
  std::unique_ptr<std::uint8_t[]> area_;
  std::size_t capacity_ = 0;
  std::vector<std::size_t> offsets_;
  std::vector<std::size_t> slot_group_;
  std::vector<Group> groups_;
  std::unordered_map<std::uint64_t, std::size_t> group_of_;

  Mutex mu_{lockrank::kRestoreFill};
  CondVar claimable_;  // helpers wait for a new area or stop
  CondVar filled_;     // the drain waits for its slot's group
  std::vector<char> done_ HDS_GUARDED_BY(mu_);
  std::size_t next_ HDS_GUARDED_BY(mu_) = 0;
  std::size_t in_flight_ HDS_GUARDED_BY(mu_) = 0;
  bool stop_ HDS_GUARDED_BY(mu_) = false;
  std::exception_ptr error_ HDS_GUARDED_BY(mu_);

  std::vector<std::thread> threads_;  // last: joined before the rest dies
};

}  // namespace

RestoreStats FaaRestore::restore(std::span<const ChunkLoc> stream,
                                 ContainerFetcher& fetcher,
                                 const ChunkSink& sink) {
  RestoreStats stats;
  AreaFill fill(fetcher, workers_, tracer_, profile_);
  std::size_t pos = 0;
  while (pos < stream.size()) {
    // The area spans chunks [pos, end) with total size ≤ area_bytes_
    // (always at least one chunk so oversized chunks cannot stall).
    std::size_t end = pos;
    std::size_t total = 0;
    while (end < stream.size() &&
           (end == pos || total + stream[end].size <= area_bytes_)) {
      total += stream[end].size;
      ++end;
    }
    stats.container_reads += fill.publish(stream.subspan(pos, end - pos));
    for (std::size_t i = pos; i < end; ++i) {
      fill.await(i - pos);
      sink(stream[i], fill.slot(i - pos));
      stats.restored_bytes += stream[i].size;
      stats.restored_chunks++;
    }
    // Every slot was awaited, so every group is done.
    for (const Group& group : fill.groups()) {
      stats.cache_hits += group.cache_hits;
      stats.failed_chunks += group.failed;
    }
    pos = end;
  }
  return stats;
}

}  // namespace hds
