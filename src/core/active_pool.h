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
//
// A file-backed pool is copy-on-write (DESIGN.md §9). Each container is an
// immutable file `<dir>/container_<id>.<epoch>.hdsc`, written at the save
// that last changed it; the repository state lists every container with its
// file epoch, used bytes and (fingerprint, size) entries. Opening rebuilds
// the index from that listing alone, and a container loads from its file
// the first time something touches it (a restore fetch, an eviction, a
// merge, an add to the open container). A container is therefore either
// *resident* (loaded, or built in this process) or *listed* (known only by
// its listing).
#pragma once

#include <cstdint>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/byte_io.h"
#include "common/chunk.h"
#include "common/thread_annotations.h"
#include "storage/container.h"
#include "storage/container_store.h"

namespace hds {

class ActiveContainerPool {
 public:
  // `dir` empty: an in-memory pool, every container resident. Otherwise
  // the directory holding the pool's container files.
  explicit ActiveContainerPool(std::size_t container_size,
                               bool materialize_contents,
                               std::filesystem::path dir = {})
      : container_size_(container_size),
        materialize_(materialize_contents),
        dir_(std::move(dir)) {}

  // Stores a unique chunk, returning the active container ID it landed in.
  ContainerId add(const ChunkRecord& chunk);

  // Where does this chunk currently live? (restore-time CID-0 resolution)
  [[nodiscard]] const ContainerId* find(const Fingerprint& fp) const noexcept;

  // Fetches a container for a restore — counted as one container read —
  // loading it from its file on first touch. nullptr for an unknown ID or
  // a file that is missing, fails a CRC, or does not hold what the listing
  // says. Safe for concurrent callers (FAA's fill workers) while nothing
  // mutates the pool, i.e. while no backup, eviction or compaction runs:
  // loads are serialized under one mutex, and the returned container is
  // only read.
  [[nodiscard]] std::shared_ptr<const Container> fetch(ContainerId cid);

  // Diagnostic access (fsck): the resident container, no I/O and no
  // accounting; nullptr for a listed or unknown one.
  [[nodiscard]] std::shared_ptr<const Container> peek(ContainerId cid) const;

  // What the pool knows without loading anything: the size of `fp` in
  // container `cid` (nullopt when that container does not hold it), and a
  // container's (fingerprint, size) entries by fingerprint.
  [[nodiscard]] std::optional<std::uint32_t> chunk_size(
      ContainerId cid, const Fingerprint& fp) const;
  [[nodiscard]] std::vector<std::pair<Fingerprint, std::uint32_t>> chunks(
      ContainerId cid) const;
  [[nodiscard]] std::uint64_t used_bytes(ContainerId cid) const;

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
  // ones. Returns the fp→new-CID remap of every chunk that moved. Only the
  // sparse containers load.
  std::unordered_map<Fingerprint, ContainerId> compact(double threshold);

  [[nodiscard]] std::size_t container_count() const noexcept {
    return slots_.size();
  }
  [[nodiscard]] std::size_t chunk_count() const noexcept {
    return index_.size();
  }
  [[nodiscard]] std::uint64_t used_bytes() const noexcept;
  // Physical footprint: container count × container size.
  [[nodiscard]] std::uint64_t physical_bytes() const noexcept {
    return slots_.size() * container_size_;
  }
  // Containers loaded (or built) in this process.
  [[nodiscard]] std::size_t resident_count() const;

  [[nodiscard]] const IoStats& stats() const noexcept { return stats_; }

  // Registers the restore-time fetch counts of stats() as
  // `pool_container_reads` / `pool_bytes_read` counter views. The pool
  // must outlive the registry's exports.
  void attach_metrics(obs::MetricsRegistry& registry);

  // Container IDs in ascending order. Eviction walks them so cold chunks
  // keep the physical adjacency they already had.
  [[nodiscard]] std::vector<ContainerId> container_ids_sorted() const;

  // --- Persistence (DESIGN.md §9) ---
  // `container_<id>.<epoch>.hdsc`, and its inverse (nullopt for any other
  // name; the epoch is spelled as the journal spells it).
  [[nodiscard]] static std::string file_name(ContainerId id,
                                             std::uint64_t epoch);
  [[nodiscard]] static std::optional<std::pair<ContainerId, std::uint64_t>>
  parse_file_name(std::string_view name);
  [[nodiscard]] const std::filesystem::path& dir() const noexcept {
    return dir_;
  }
  // Container ID → epoch of every file the committed listing names (the
  // last one loaded or committed). Containers merged away since still
  // appear: their files stay until the next commit.
  [[nodiscard]] const std::map<ContainerId, std::uint64_t>& committed_files()
      const noexcept {
    return committed_;
  }
  // True when a container changed since the last commit (or was never
  // written) — what a save at `epoch` writes.
  [[nodiscard]] bool dirty(ContainerId cid) const;

  // Writes every dirty container to its file at `epoch` through the atomic
  // writer. On a non-crash failure the files written at `epoch` are
  // removed and the error rethrown.
  void write_dirty(std::uint64_t epoch);
  // The listing a state file carries: the next/open IDs, then per
  // container its ID, file epoch (`epoch` for a dirty one), used bytes and
  // (fingerprint, size) entries in fingerprint order.
  void write_listing(ByteWriter& out, std::uint64_t epoch) const;
  // Replaces the pool with a listing; every container stays listed until
  // touched. False on any framing or consistency failure (the pool is
  // then unchanged). `max_epoch` bounds the file epochs it may name.
  bool read_listing(ByteReader& in, std::uint64_t max_epoch);
  // Replaces the pool with the inline layout of state formats 2 and 3
  // (every container serialized in the state file): all resident, all
  // dirty, so the next save writes them out.
  bool read_inline(std::span<const std::uint8_t> bytes);
  // After the journal committed a save at `epoch`: the containers written
  // at it are clean, and every file the listing no longer names is
  // removed (best effort; recovery removes survivors).
  void commit(std::uint64_t epoch);
  // Removes the files write_dirty() wrote at `epoch` (an aborted save).
  void abort(std::uint64_t epoch) const;

 private:
  struct Slot {
    // Loaded or built in this process; nullptr while listed.
    std::shared_ptr<Container> resident;
    // The listing's (fingerprint → size) entries and used bytes, kept
    // while the container is listed.
    std::unordered_map<Fingerprint, std::uint32_t> listed;
    std::uint64_t used = 0;
    // Epoch of the file holding this container; meaningful when !dirty.
    std::uint64_t epoch = 0;
    bool dirty = true;
  };

  // The resident container, loading it first; throws std::runtime_error
  // when its file cannot be loaded. Marks nothing dirty.
  Container& touch(ContainerId cid);
  // Loads a listed slot from its file (caller holds mu_): false when the
  // file is missing, fails a CRC, or disagrees with the listing.
  bool load(ContainerId cid, Slot& slot) const;
  Container& open_container(std::size_t chunk_size);
  // The container files in dir() whose (id, epoch) `pick` accepts.
  [[nodiscard]] std::vector<std::filesystem::path> files_where(
      const std::function<bool(ContainerId, std::uint64_t)>& pick) const;
  [[nodiscard]] std::uint64_t slot_used(const Slot& slot) const noexcept;
  [[nodiscard]] std::size_t slot_chunks(const Slot& slot) const noexcept;

  std::size_t container_size_;
  bool materialize_;
  std::filesystem::path dir_;
  ContainerId next_id_ = 1;
  ContainerId open_id_ = 0;  // 0 = none
  // Serializes lazy loads among concurrent fetch()/peek() callers; every
  // other member function runs while no fetch does (see fetch()).
  mutable Mutex mu_{lockrank::kStoreIndex};
  std::map<ContainerId, Slot> slots_;
  std::unordered_map<Fingerprint, ContainerId> index_;
  std::map<ContainerId, std::uint64_t> committed_;
  IoStats stats_;
};

}  // namespace hds
