// ActiveContainerPool — HiDeStore's staging area for hot chunks (§4.2).
//
// Active containers take the unique chunks of the version being backed up.
// They are *mutable*: after each version, cold chunks are evicted to
// archival containers, leaving holes that variable-size chunks cannot
// refill (Figure 6). The pool therefore merges sparse containers
// (utilization below a threshold) into freshly packed ones, keeping the hot
// set physically dense — which is exactly why the newest version restores
// with few container reads.
//
// Active container IDs live in their own namespace, disjoint from archival
// IDs; recipes reference active chunks with CID 0 and resolve through the
// pool's fingerprint index at restore time.
#pragma once

#include <memory>
#include <span>
#include <unordered_map>
#include <vector>

#include "common/chunk.h"
#include "storage/container.h"
#include "storage/container_store.h"

namespace hds {

class ActiveContainerPool {
 public:
  explicit ActiveContainerPool(std::size_t container_size,
                               bool materialize_contents)
      : container_size_(container_size),
        materialize_(materialize_contents) {}

  // Stores a unique chunk, returning the active container ID it landed in.
  ContainerId add(const ChunkRecord& chunk);

  // Where does this chunk currently live? (restore-time CID-0 resolution)
  [[nodiscard]] const ContainerId* find(const Fingerprint& fp) const noexcept;

  // Fetches a container for a restore — counted as one container read.
  // Safe for concurrent callers (FAA's fill workers) while nothing mutates
  // the pool, i.e. while no backup, eviction, compaction or load runs: it
  // is a map find plus atomic IoStats adds, and the returned container is
  // only read.
  [[nodiscard]] std::shared_ptr<const Container> fetch(ContainerId cid);

  // Diagnostic access (fsck): same container, no I/O accounting.
  [[nodiscard]] std::shared_ptr<const Container> peek(
      ContainerId cid) const noexcept;

  // The full fingerprint → active-container index (fsck walks it to verify
  // pool/cache/class-exclusivity invariants).
  [[nodiscard]] const std::unordered_map<Fingerprint, ContainerId>& index()
      const noexcept {
    return index_;
  }

  // Pulls a cold chunk out of the pool: returns its bytes and removes it.
  // Internal data movement — not counted as a restore read.
  [[nodiscard]] std::vector<std::uint8_t> extract(const Fingerprint& fp);

  // Removes a chunk whose bytes the caller already staged elsewhere — the
  // batched eviction path reads the span straight out of the container
  // (Container::remove never touches the data region, so spans stay valid)
  // and discards the entry afterwards, skipping extract()'s copy. Throws on
  // an unknown fingerprint, like extract().
  void discard(const Fingerprint& fp);

  // Merges containers with utilization < threshold into freshly packed
  // ones. Returns the fp→new-CID remap of every chunk that moved.
  std::unordered_map<Fingerprint, ContainerId> compact(double threshold);

  [[nodiscard]] std::size_t container_count() const noexcept {
    return containers_.size();
  }
  [[nodiscard]] std::size_t chunk_count() const noexcept {
    return index_.size();
  }
  [[nodiscard]] std::uint64_t used_bytes() const noexcept;
  // Physical footprint: container count × container size.
  [[nodiscard]] std::uint64_t physical_bytes() const noexcept {
    return containers_.size() * container_size_;
  }

  [[nodiscard]] const IoStats& stats() const noexcept { return stats_; }

  // Registers the restore-time fetch counts of stats() as
  // `pool_container_reads` / `pool_bytes_read` counter views. The pool
  // must outlive the registry's exports.
  void attach_metrics(obs::MetricsRegistry& registry);

  // Cold chunks of one source container, in storage-offset order — eviction
  // preserves the physical adjacency the chunks already had.
  [[nodiscard]] std::vector<ContainerId> container_ids_sorted() const;

  // Pool-state persistence (next/open IDs + every container). The index is
  // rebuilt from container contents on load.
  [[nodiscard]] std::vector<std::uint8_t> serialize_state() const;
  bool restore_state(std::span<const std::uint8_t> bytes);

 private:
  Container& open_container(std::size_t chunk_size);

  std::size_t container_size_;
  bool materialize_;
  ContainerId next_id_ = 1;
  ContainerId open_id_ = 0;  // 0 = none
  std::unordered_map<ContainerId, std::shared_ptr<Container>> containers_;
  std::unordered_map<Fingerprint, ContainerId> index_;
  IoStats stats_;
};

}  // namespace hds
