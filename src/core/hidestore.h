// HiDeStore — the paper's contribution (§4): a deduplicating backup system
// that enhances the *physical locality of the newest versions* during the
// deduplication phase instead of patching the restore phase.
//
// Per backup version:
//   1. dedup against the double-hash fingerprint cache only — no on-disk
//      index, no Bloom filter, zero disk lookups (§4.1);
//   2. unique chunks go to mutable *active* containers (§4.2);
//   3. after the version, cold chunks (absent from the last `window`
//      versions) are evicted to append-only *archival* containers, active
//      containers are merged/compacted, and the recipe one window back is
//      finalized (§4.2-4.3);
//   4. restore resolves the three CID kinds (archival / active / chained)
//      and runs any standard restore cache on top (§4.4);
//   5. deleting the oldest versions erases whole archival containers —
//      no reference counting, no mark-and-sweep (§4.5).
#pragma once

#include <filesystem>
#include <memory>
#include <span>
#include <unordered_map>

#include "backup/backup_system.h"
#include "common/stats.h"
#include "core/active_pool.h"
#include "core/double_cache.h"
#include "core/recipe_chain.h"
#include "obs/metrics.h"
#include "obs/profiler.h"
#include "obs/trace.h"
#include "storage/container_store.h"
#include "storage/manifest.h"
#include "storage/recovery.h"

namespace hds {

struct HiDeStoreConfig {
  std::size_t container_size = kDefaultContainerSize;
  // Merge active containers whose live-byte utilization falls below this.
  double compaction_threshold = 0.5;
  // Redundancy window: 1 (kernel/gcc-like) or 2 (macos-like, adds T0).
  int cache_window = 1;
  // Store chunk payloads or account sizes only (see PipelineConfig).
  bool materialize_contents = true;
  // Run Algorithm 1 before every restore of a non-latest version instead of
  // walking the chain (D3 ablation).
  bool flatten_before_restore = false;
  // Non-empty: a persistent repository rooted here. Archival containers are
  // written as individual files under <storage_dir>/archival as they seal,
  // and save()/open() keep the state file and the MANIFEST in the same
  // directory (save() to a different directory is rejected). Empty:
  // everything stays in memory and the store cannot save().
  std::filesystem::path storage_dir;
};

// Figure 12 view over the metrics registry. The registry is the single
// source of truth (`recipe_update_ms` / `move_and_merge_ms` histograms and
// the cold-eviction counters); overheads() materializes this legacy shape
// from it on demand.
struct HiDeStoreOverheads {
  // Figure 12: mean per-version latency of the two extra phases.
  MeanAccumulator recipe_update_ms;
  MeanAccumulator move_and_merge_ms;
  std::uint64_t cold_chunks_moved = 0;
  std::uint64_t cold_bytes_moved = 0;
  std::uint64_t containers_merged = 0;
};

struct DeletionReport {
  std::size_t versions_deleted = 0;
  std::size_t containers_erased = 0;
  std::uint64_t bytes_reclaimed = 0;
  // Chunks individually examined to decide reclamation — the paper's point
  // is that this stays 0 (no chunk detection, no garbage collection).
  std::uint64_t chunks_scanned = 0;
  double elapsed_ms = 0;
};

class HiDeStore final : public BackupSystem {
 public:
  explicit HiDeStore(const HiDeStoreConfig& config = {});

  BackupReport backup(const VersionStream& stream) override;
  RestoreReport restore(VersionId version, const ChunkSink& sink) override;
  RestoreReport restore_with(VersionId version, RestorePolicy& policy,
                             const ChunkSink& sink);

  // Partial restore: only logical bytes [offset, offset+length) of the
  // version (single-file pulls via a FileCatalog). First/last chunks are
  // trimmed; container reads are counted normally.
  RestoreReport restore_range(VersionId version, std::uint64_t offset,
                              std::uint64_t length, RestorePolicy& policy,
                              const ChunkSink& sink);

  [[nodiscard]] std::string_view name() const noexcept override {
    return "hidestore";
  }

  // Runs Algorithm 1 offline; returns entries rewritten.
  std::size_t flatten_recipes();

  // Fill workers for restore(): each FAA assembly area is filled from up
  // to `workers` containers at once, the calling thread included (faa.h).
  // 0 and 1 both mean serial. Restored bytes and every RestoreStats field
  // are identical at any count. restore_with()/restore_range() use the
  // caller's policy as configured. Not persisted by save(): a runtime
  // setting, not repository state.
  void set_restore_workers(std::size_t workers) noexcept {
    restore_workers_ = workers == 0 ? 1 : workers;
  }

  // --- Repository lifecycle ---
  // Persists the system state into `dir`, the store's own storage_dir:
  // each active container changed since the last commit goes to a new file
  // `active/container_<id>.<epoch>.hdsc` (copy-on-write), then one
  // CRC-guarded, metadata-only `state.<epoch>.hds` (config, recipes,
  // deletion tags, the active pool's listing) is committed by appending to
  // the MANIFEST journal (journal.h, DESIGN.md §9). A save that changed no
  // container writes only the state file; archival containers are already
  // files. Every file goes through the atomic writer and the
  // committed file is never touched, so a crash at any step leaves either
  // the old or the new version fully recoverable by open(). On a non-crash
  // write failure (e.g. disk full) save() removes what it staged and
  // throws durable::WriteError; the in-memory system is unaffected. Throws
  // std::invalid_argument for an in-memory store (empty storage_dir) or a
  // foreign `dir`. The fingerprint cache is NOT stored: on load it is
  // rebuilt by prefetching the newest recipes through the active pool,
  // exactly the paper's §4.1 prefetch path.
  void save(const std::filesystem::path& dir);
  // The journal's stage/commit/abort, exposed so ShardRouter can make one
  // commit atomic across N shard journals (DESIGN.md §16):
  //   * stage_save() writes the changed active containers and publishes
  //     `state.<epoch+1>.hds` beside the committed file, and returns the
  //     CommitRecord that commits it. On a non-crash write failure nothing
  //     stays staged.
  //   * commit_staged_save() appends the record to the MANIFEST (the commit
  //     point), adopts the record's epoch and removes the superseded state
  //     file and the active files the new listing no longer names.
  //   * abort_staged_save() removes the staged files. Only legal between a
  //     successful stage_save() and commit_staged_save().
  // save() == stage_save() + commit_staged_save(), with abort on a
  // non-crash commit failure; the split changes no on-disk byte.
  CommitRecord stage_save(const std::filesystem::path& dir);
  void commit_staged_save(const std::filesystem::path& dir,
                          const CommitRecord& record);
  void abort_staged_save(const std::filesystem::path& dir,
                         const CommitRecord& record);
  // Reconstructs a system from a save() directory, running crash recovery
  // first: the journal adopts the newest state file the MANIFEST vouches
  // for, quarantines anything an aborted commit left behind (uncommitted
  // state, orphan containers, active files past the committed epoch, temp
  // files), removes superseded active files, migrates a pre-epoch
  // `state.hds` layout and an inline-pool state (formats 2 and 3, in one
  // save), and reports what it did through `report` (optional). It reads
  // the active pool's listing only: no container loads. nullptr if
  // nothing committed is recoverable — the report
  // still describes what was found. `roll_forward` is the record a sharded
  // root committed for this shard (journal::open): a shard whose own
  // MANIFEST append was lost adopts it.
  //
  // Under OpenMode::kReadOnly the same epoch is adopted and nothing on disk
  // moves (no quarantine, removal, rename or migration); untagged archival
  // containers are only left out of the store (DESIGN.md §9).
  static std::unique_ptr<HiDeStore> open(
      const std::filesystem::path& dir, RecoveryReport* report = nullptr,
      const CommitRecord* roll_forward = nullptr,
      OpenMode mode = OpenMode::kRepair);
  // True when `dir` holds the state file `record` commits: the recorded
  // size, an intact seal, and its header carries the record's epoch
  // (journal::holds_committed).
  [[nodiscard]] static bool holds_committed_state(
      const std::filesystem::path& dir, const CommitRecord& record);
  // Journal epoch of the last committed save (0 = never saved).
  [[nodiscard]] std::uint64_t epoch() const noexcept { return epoch_; }

  // Removes every version up to and including `version` (oldest-first
  // retirement). Cold chunks of expired versions live in archival
  // containers referenced by no newer version, so whole containers are
  // erased without scanning a single chunk.
  DeletionReport delete_versions_up_to(VersionId version);

  [[nodiscard]] HiDeStoreOverheads overheads() const;

  // --- Observability ---
  // Per-system metrics registry: dedup counters (t1_hits/t2_hits/
  // unique_chunks/chunks_processed, index_disk_lookups — permanently 0),
  // restore counters, phase-latency histograms, and repository gauges. See
  // README.md "Observability" for the full metric name list.
  [[nodiscard]] obs::MetricsRegistry& metrics() noexcept { return metrics_; }
  [[nodiscard]] const obs::MetricsRegistry& metrics() const noexcept {
    return metrics_;
  }
  // Attaches a phase tracer (nullptr detaches). While attached, every
  // backup/restore/delete records nested spans dumpable as Chrome
  // trace_event JSON; the archival store wraps its device reads in spans on
  // whichever thread issues them, and FAA's fill workers record faa_fill
  // spans on restore_fill_<i> tracks (faa.h).
  void set_tracer(obs::Tracer* tracer) noexcept {
    tracer_ = tracer;
    store_->set_tracer(tracer);
  }
  // Always-on per-operation profiles (phase wall/CPU, logical vs physical
  // bytes, cache economics, queue-depth samples). Every backup()/restore*()
  // call commits one OpProfile to this ring; hds_tool exports them.
  [[nodiscard]] obs::OpProfiler& profiler() noexcept { return profiler_; }
  [[nodiscard]] const obs::OpProfiler& profiler() const noexcept {
    return profiler_;
  }
  // Recomputes the repository-state gauges (cache memory, container counts,
  // retained versions, dedup ratio). Called after every mutating operation;
  // exposed so tools can refresh before exporting.
  void refresh_gauges();
  [[nodiscard]] const RecipeStore& recipes() const noexcept {
    return recipes_;
  }
  // Mutable recipe access — offline surgery and corruption-injection tests
  // (fsck). Normal operation never needs this.
  [[nodiscard]] RecipeStore& mutable_recipes() noexcept { return recipes_; }
  [[nodiscard]] ContainerStore& archival_store() noexcept { return *store_; }
  [[nodiscard]] const ActiveContainerPool& active_pool() const noexcept {
    return pool_;
  }
  [[nodiscard]] const DoubleHashFingerprintCache& cache() const noexcept {
    return cache_;
  }
  [[nodiscard]] const HiDeStoreConfig& config() const noexcept {
    return config_;
  }
  // §4.5 deletion tags: archival container → version whose cold chunks it
  // holds. fsck checks this is a bijection with the store's container set.
  [[nodiscard]] const std::unordered_map<ContainerId, VersionId>&
  container_tags() const noexcept {
    return container_version_;
  }
  [[nodiscard]] VersionId oldest_version() const noexcept {
    return oldest_version_;
  }
  [[nodiscard]] VersionId latest_version() const noexcept {
    return next_version_ - 1;
  }
  // Transient fingerprint-cache footprint (the paper's "no index table"
  // claim: this is bounded by one-two versions of metadata, Figure 10).
  [[nodiscard]] std::uint64_t cache_memory_bytes() const noexcept {
    return cache_.memory_bytes();
  }

 private:
  // Deserializes one state snapshot's body (the journal has checked and
  // stripped its seal) into a fresh system; nullptr on any format mismatch
  // (a refusal worth explaining gets a note in `report`). The journal
  // picks which snapshot to trust.
  static std::unique_ptr<HiDeStore> parse_state(
      const std::filesystem::path& dir, std::span<const std::uint8_t> body,
      RecoveryReport& report);

  // The record that commits this system's state at `epoch` (size and CRC
  // are the journal's to fill).
  [[nodiscard]] CommitRecord commit_record(std::uint64_t epoch) const;

  // Pre-registers every metric name so exporters always show the complete
  // set (in particular `index_disk_lookups` at 0 — the §4.1 claim).
  void register_metrics();

  // Moves the cold set to archival containers; fills `cold_map` with their
  // archival homes and tags the new containers with `cold_version`.
  void evict_cold(DoubleHashFingerprintCache::Table cold, ColdMap& cold_map,
                  VersionId cold_version);

  // HDS_VERIFY-only end-of-backup audit: cache tables and pool index must
  // describe each other exactly (every cached entry names a pool container
  // that holds the fingerprint; every pooled chunk is cached). Compiled to
  // a no-op otherwise.
  void check_version_invariants() const;

  // Resolves a recipe entry to a concrete location, walking the chain.
  ChunkLoc resolve(const RecipeEntry& entry,
                   std::unordered_map<VersionId,
                                      std::unordered_map<Fingerprint,
                                                         ContainerId>>&
                       chain_cache,
                   std::size_t* hops) const;

  HiDeStoreConfig config_;
  // Archival containers: a FileContainerStore under <storage_dir>/archival,
  // or a MemoryContainerStore for an in-memory system.
  std::unique_ptr<ContainerStore> store_;
  ActiveContainerPool pool_;
  DoubleHashFingerprintCache cache_;
  RecipeStore recipes_;
  VersionId next_version_ = 1;
  VersionId oldest_version_ = 1;
  // MANIFEST journal epoch of the last committed save (0 = never saved).
  std::uint64_t epoch_ = 0;
  // Loaded from a state format that inlines the active pool (2 or 3).
  bool inline_pool_ = false;
  std::size_t restore_workers_ = 1;
  // Process-wide chunk-CRC failure count at construction/load time; the
  // io_crc_failures counter mirrors growth past this baseline.
  std::uint64_t crc_failures_baseline_ = 0;
  // Archival container → version whose cold chunks it holds (deletion tag).
  std::unordered_map<ContainerId, VersionId> container_version_;
  obs::MetricsRegistry metrics_;
  obs::Tracer* tracer_ = nullptr;
  obs::OpProfiler profiler_;
};

}  // namespace hds
