// ContainerStore: the persistent pool of archival containers — the "disk".
//
// Every read is counted: the paper's restore metric (speed factor = MB
// restored per container read) and its deletion/GC arguments are all
// expressed in container I/Os, which deliberately abstracts away device
// speed (§5.3). Two backends share the interface:
//   * MemoryContainerStore — containers held in RAM; the default for
//     experiments (I/O counts are what matter, not device latency);
//   * FileContainerStore — each container serialized to its own file under
//     a directory; proves the format round-trips through a real filesystem.
//     Every read loads the whole file, behind one LRU of decoded
//     containers (DESIGN.md §10). Each HiDeStore owns its store outright
//     (a repository, one shard of it, or a serve tenant's shard), so that
//     cache's budget is per store.
#pragma once

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <stdexcept>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/thread_annotations.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "storage/block_cache.h"
#include "storage/container.h"

namespace hds {

// I/O counters shared by every thread that reads a store (FAA's fill
// workers among them): each field is a relaxed atomic (counts must not be
// lost; cross-field consistency is not needed). The metrics registry
// exports them as counter views (attach_metrics), never as copies.
//
// Accounting rules (§5.3 + DESIGN.md §10): `container_reads` and
// `bytes_read` keep their paper meaning — every read() call counts one
// container read and the container's data size, whether the bytes came
// from disk or the block cache. `bytes_read_physical` is the device-side
// truth: bytes actually transferred from the backing medium (0 on a
// block-cache hit, the whole file on a miss). For MemoryContainerStore the
// two are equal by definition — RAM is the modeled disk.
struct IoStats {
  std::atomic<std::uint64_t> container_reads{0};
  std::atomic<std::uint64_t> container_writes{0};
  std::atomic<std::uint64_t> container_erases{0};
  std::atomic<std::uint64_t> bytes_read{0};
  std::atomic<std::uint64_t> bytes_written{0};
  std::atomic<std::uint64_t> bytes_read_physical{0};

  void reset() noexcept {
    container_reads.store(0, std::memory_order_relaxed);
    container_writes.store(0, std::memory_order_relaxed);
    container_erases.store(0, std::memory_order_relaxed);
    bytes_read.store(0, std::memory_order_relaxed);
    bytes_written.store(0, std::memory_order_relaxed);
    bytes_read_physical.store(0, std::memory_order_relaxed);
  }
};

// Per-call read accounting. The global IoStats counters aggregate every
// caller; when several restore streams share one store, per-stream profiles
// built from global counter deltas cross-pollute (stream A's delta includes
// stream B's reads). A caller that passes a ReadMeter gets the exact
// logical/physical charge of its own calls, attributable to its own
// OpProfile. Not thread-safe by itself — each stream owns its meter and the
// stream's threads (its FAA fill workers) add through relaxed
// atomics.
struct ReadMeter {
  std::atomic<std::uint64_t> container_reads{0};
  std::atomic<std::uint64_t> bytes_read{0};
  std::atomic<std::uint64_t> bytes_read_physical{0};

  void add(std::uint64_t logical, std::uint64_t physical) noexcept {
    container_reads.fetch_add(1, std::memory_order_relaxed);
    bytes_read.fetch_add(logical, std::memory_order_relaxed);
    bytes_read_physical.fetch_add(physical, std::memory_order_relaxed);
  }
};

// Typed I/O failure: a container the store's index says exists could not be
// opened or read from the backing medium — distinct from corruption, which
// the read paths report by returning nullptr after a failed deserialize.
// FileContainerStore's read paths catch this at their boundary, count it
// (io_read_errors) and fall back to the nullptr contract so a restore stays
// bounded-damage; the type exists so internal layers never decode garbage
// from a failed read.
class ReadError : public std::runtime_error {
 public:
  ReadError(ContainerId id, const std::string& what)
      : std::runtime_error("container " + std::to_string(id) + ": " + what),
        id_(id) {}
  [[nodiscard]] ContainerId id() const noexcept { return id_; }

 private:
  ContainerId id_;
};

// Deterministic fault injection for the pread loop under every
// FileContainerStore device read (process-global, like
// durable::CrashInjector; tests only). every_n == 0 disables that fault.
// A short-read fault truncates one pread to half its length; an EINTR fault
// fails one attempt with EINTR before it reaches the kernel. At most one
// fault hits each extent, and the loop must heal both transparently.
struct ReadFaultPlan {
  std::uint32_t short_read_every_n = 0;
  std::uint32_t eintr_every_n = 0;
};
void set_read_fault_plan(const ReadFaultPlan& plan) noexcept;
// Faults actually injected since the last set_read_fault_plan().
struct ReadFaultCounts {
  std::uint64_t short_reads = 0;
  std::uint64_t eintrs = 0;
};
[[nodiscard]] ReadFaultCounts read_faults_injected() noexcept;

// Thread-safety contract: read(), read_verified(), put(), write(), erase(),
// reserve_id() and stats() are safe to call from multiple threads
// concurrently — counters are atomic (metrics exporters read them in place
// through counter views), ID reservation is atomic, and both backends guard
// their container maps (and the file backend its block cache) with
// mutexes. This is what lets FAA's fill workers read concurrently while the
// backup path writes.
// NOT thread-safe: attach_metrics(), reset_stats(), restore_next_id() and
// construction/destruction, which must be serialized externally (they are
// setup/teardown operations).
class ContainerStore {
 public:
  virtual ~ContainerStore() = default;

  // Persists `container` and returns its assigned ID (always > 0).
  //
  // Failure contract: throws (durable::WriteError from the file backend, or
  // whatever the backend raises) if the container could not be fully
  // persisted. On throw, NOTHING is counted — stats(), metrics and the
  // store's visible container set are exactly as they were before the call;
  // the reserved ID is consumed but refers to nothing. The file backend
  // writes atomically (temp + fsync + rename), so a failed or crashed write
  // never leaves a torn container file at the final path.
  ContainerId write(Container container);

  // Reserves the next container ID without writing. Pipelines that fill a
  // container incrementally need its ID up front so recipes can reference
  // chunks before the container is sealed; the reserved container must
  // eventually be stored via put().
  [[nodiscard]] ContainerId reserve_id() noexcept { return next_id_++; }

  // Persists a container that already carries a reserved ID. Same failure
  // contract as write(): throws on failure and counts only on success.
  void put(Container container);

  // Fetches a container, counting one container read. When `meter` is
  // non-null the call's logical/physical charge is also added to it
  // (per-stream accounting — see ReadMeter).
  [[nodiscard]] std::shared_ptr<const Container> read(
      ContainerId id, ReadMeter* meter = nullptr);

  // Integrity path (fsck): re-reads the container from the backing medium,
  // bypassing every cache, so post-write corruption is seen — counted like
  // a normal read.
  [[nodiscard]] std::shared_ptr<const Container> read_verified(
      ContainerId id, ReadMeter* meter = nullptr);

  // Removes a container (expired-version deletion). Returns false if absent.
  bool erase(ContainerId id);

  [[nodiscard]] virtual std::size_t container_count() const = 0;
  [[nodiscard]] virtual std::vector<ContainerId> ids() const = 0;

  [[nodiscard]] const IoStats& stats() const noexcept { return stats_; }
  void reset_stats() noexcept { stats_.reset(); }

  // Registers stats() in `registry` as counter views:
  // `store_container_{writes,reads,erases}`, `store_bytes_{written,read}`
  // and `store_bytes_read_physical`; the file backend adds its `io_*`
  // block-cache and read-error counters. This store must outlive the
  // registry's exports.
  virtual void attach_metrics(obs::MetricsRegistry& registry);
  // Sets the backend's state gauges in `registry` (the file backend's
  // `io_block_cache_bytes`); none by default.
  virtual void refresh_gauges(obs::MetricsRegistry& registry) const {
    (void)registry;
  }

  // Wraps device reads in "store_slurp" I/O-wait spans on whichever thread
  // issues them — the restore timeline's
  // disk-time signal. Setup operation (see thread-safety contract); the
  // tracer must outlive the store; nullptr detaches.
  void set_tracer(obs::Tracer* tracer) noexcept { tracer_ = tracer; }

  [[nodiscard]] ContainerId next_id() const noexcept { return next_id_; }

  // Sets the ID counter: a reloaded store resumes past its containers, and
  // a fresh shard's store starts at its id band (index/shard_space.h).
  void restore_next_id(ContainerId next) noexcept { next_id_ = next; }

 protected:
  // What a backend read produced: the container plus the logical/physical
  // byte split the public wrappers account (see IoStats).
  struct ReadResult {
    std::shared_ptr<const Container> container;
    std::uint64_t logical_bytes = 0;
    std::uint64_t physical_bytes = 0;
  };

  virtual void do_write(ContainerId id, Container&& container) = 0;
  virtual ReadResult do_read(ContainerId id) = 0;
  // Default: backends without caches read the medium directly anyway.
  virtual ReadResult do_read_verified(ContainerId id) { return do_read(id); }
  virtual bool do_erase(ContainerId id) = 0;

  [[nodiscard]] obs::Tracer* tracer() const noexcept { return tracer_; }

 private:
  [[nodiscard]] std::shared_ptr<const Container> account_read(
      ReadResult&& result, ReadMeter* meter);

  // 0 is reserved for "active" in recipes
  std::atomic<ContainerId> next_id_{1};
  IoStats stats_;
  obs::Tracer* tracer_ = nullptr;
};

class MemoryContainerStore final : public ContainerStore {
 public:
  [[nodiscard]] std::size_t container_count() const override {
    MutexLock lock(mu_);
    return containers_.size();
  }
  [[nodiscard]] std::vector<ContainerId> ids() const override;

 protected:
  void do_write(ContainerId id, Container&& container) override;
  ReadResult do_read(ContainerId id) override;
  bool do_erase(ContainerId id) override;

 private:
  // See the class-level thread-safety contract.
  mutable Mutex mu_{lockrank::kStoreIndex};
  std::unordered_map<ContainerId, std::shared_ptr<const Container>>
      containers_ HDS_GUARDED_BY(mu_);
};

class FileContainerStore final : public ContainerStore {
 public:
  // Creates `dir` if needed. With `index_existing`, container files already
  // present are registered (by filename) and the ID counter resumes past
  // the highest one — reopening a persistent repository; otherwise existing
  // files are ignored (fresh runs, round-trip validation).
  explicit FileContainerStore(std::filesystem::path dir,
                              bool index_existing = false);

  [[nodiscard]] std::size_t container_count() const override {
    MutexLock lock(mu_);
    return known_.size();
  }
  [[nodiscard]] std::vector<ContainerId> ids() const override;

  // Recovery support: the on-disk path of a container file, and removal of
  // an ID from the in-memory index without deleting the file — used when
  // recovery quarantines an orphan (the file is moved aside, not erased).
  [[nodiscard]] std::filesystem::path container_path(ContainerId id) const {
    return path_for(id);
  }
  bool forget(ContainerId id) {
    block_cache_.invalidate(id);
    MutexLock lock(mu_);
    return known_.erase(id) > 0;
  }

  // Read-path observability snapshot; the same counters are the io_*
  // metric views attach_metrics() registers (README "Observability").
  struct IoPathStats {
    // Always 0: the descriptor cache and partial reads are gone, and
    // perfbench still reads these (ROADMAP item 1).
    std::uint64_t fd_cache_hits = 0;
    std::uint64_t fd_cache_opens = 0;
    std::uint64_t partial_reads = 0;
    std::uint64_t block_cache_hits = 0;
    std::uint64_t block_cache_misses = 0;
    std::uint64_t block_cache_evictions = 0;
    std::uint64_t block_cache_bytes = 0;
    std::uint64_t read_errors = 0;  // ReadError caught at the boundary
  };
  [[nodiscard]] IoPathStats io_stats() const;

  // Every device read is a blocking pread(2) loop on the calling thread
  // (DESIGN.md §13). Callers that stamp the read path into their output
  // get that one path: "sync", code 0.
  [[nodiscard]] std::string_view io_backend_name() const noexcept {
    return "sync";
  }
  [[nodiscard]] int io_backend() const noexcept { return 0; }

  void attach_metrics(obs::MetricsRegistry& registry) override;
  void refresh_gauges(obs::MetricsRegistry& registry) const override;

 protected:
  void do_write(ContainerId id, Container&& container) override;
  ReadResult do_read(ContainerId id) override;
  ReadResult do_read_verified(ContainerId id) override;
  bool do_erase(ContainerId id) override;

 private:
  [[nodiscard]] std::filesystem::path path_for(ContainerId id) const;
  [[nodiscard]] bool is_known(ContainerId id) const {
    MutexLock lock(mu_);
    return known_.contains(id);
  }
  // The whole file of container `id` (open + fstat + pread loop); throws
  // ReadError on any failure or early EOF.
  [[nodiscard]] std::vector<std::uint8_t> load_file(ContainerId id) const;
  // Cache-miss read: load_file + deserialize, then cache the container.
  ReadResult slurp(ContainerId id);

  std::filesystem::path dir_;
  // Guards only the index map; the block cache synchronizes internally and
  // is never acquired with mu_ held (kStoreIndex < kBlockCache documents
  // the would-be order regardless).
  mutable Mutex mu_{lockrank::kStoreIndex};
  std::unordered_map<ContainerId, bool> known_ HDS_GUARDED_BY(mu_);
  BlockCache block_cache_;
  std::atomic<std::uint64_t> read_errors_{0};
};

}  // namespace hds
