// ShardRouter — scale-out ingest by partitioning the fingerprint space
// (DESIGN.md §16).
//
// N complete HiDeStore instances (each with its own double-hash cache,
// active pool, recipe-chain segment, state file and MANIFEST journal) sit
// behind a thin router that
//   * routes every chunk by `fp.bytes[0] % N` (src/index/shard_space.h),
//     so dedup decisions are exact per shard and the cross-shard dedup
//     ratio is bit-identical to a single-shard run;
//   * fans a backup out to per-shard workers (one BoundedQueue + thread
//     per shard), so end-of-version cold-chunk eviction and sparse-
//     container compaction run per-shard in parallel;
//   * records, per version, the shard interleave (an RLE over the original
//     chunk order) and merges per-shard restore streams back into exactly
//     that order through per-shard bounded queues;
//   * commits saves atomically across all N shard journals with a
//     two-phase protocol over the one commit journal (storage/journal.h):
//     every shard stages its `state.<epoch>.hds`, the router stages
//     `router.<epoch>.hds` and commits it to the root MANIFEST — the
//     commit point — then every shard journal is finished. A crash before
//     the root commit rolls every shard back through its own recovery; a
//     crash after it rolls stragglers forward from the CommitRecords
//     embedded in the router state.
//
// Shard 1 of 1 is pure delegation: no worker threads, no router state
// file, no id-namespace partitioning — the on-disk layout and observable
// behavior are bit-identical to a plain HiDeStore (pre-epoch single-shard
// repositories migrate on open, journal.h).
#pragma once

#include <cstdint>
#include <filesystem>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/hidestore.h"
#include "index/shard_space.h"

namespace hds {

// Opening a repository whose recorded shard count differs from the
// requested one (or whose layout is not sharded at all). Typed so callers
// can distinguish "wrong --shards=N" from corruption.
class ShardMismatchError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

struct ShardRouterConfig {
  std::size_t shards = 1;
  // Per-shard configuration template. storage_dir names the repository
  // ROOT: shard i's state lives under <root>/shard_<i> when shards > 1,
  // and at the root itself (legacy layout) when shards == 1. An empty
  // storage_dir builds an in-memory router (benchmarks/tests); in-memory
  // multi-shard routers cannot save().
  HiDeStoreConfig base;
};

class ShardRouter {
 public:
  // Fresh repository (or in-memory system) with `config.shards` shards.
  explicit ShardRouter(const ShardRouterConfig& config);
  // Service mode: shard i's archival containers live in `stores[i]`, owned
  // by the caller and shared across tenants. stores.size() must equal
  // config.shards; config.base.storage_dir names the tenant state root.
  ShardRouter(const ShardRouterConfig& config,
              std::vector<std::shared_ptr<ContainerStore>> stores);
  ~ShardRouter();

  ShardRouter(const ShardRouter&) = delete;
  ShardRouter& operator=(const ShardRouter&) = delete;

  // --- Data path ---
  BackupReport backup(const VersionStream& stream);
  RestoreReport restore(VersionId version, const ChunkSink& sink);
  // Partial restore of logical bytes [offset, offset+length). Single-shard:
  // the indexed HiDeStore::restore_range fast path. Multi-shard: the merged
  // stream is replayed and trimmed to the range (container reads cover the
  // whole version; acceptable for the catalog's single-file pulls).
  RestoreReport restore_range(VersionId version, std::uint64_t offset,
                              std::uint64_t length, const ChunkSink& sink);
  DeletionReport delete_versions_up_to(VersionId version);
  std::size_t flatten_recipes();

  // --- Repository lifecycle ---
  // Two-phase atomic commit across every shard journal (see file header).
  // Multi-shard staging and journal finishing run sequentially shard 0..N-1
  // so the HDS_CRASH_STEP crash matrix is deterministic.
  void save(const std::filesystem::path& dir);
  // Opens a repository, auto-detecting its layout. `expected_shards` == 0
  // accepts whatever the repository records; a nonzero value throws
  // ShardMismatchError when it disagrees with the recorded count. Returns
  // nullptr when nothing committed is recoverable.
  static std::unique_ptr<ShardRouter> open(const std::filesystem::path& dir,
                                           std::size_t expected_shards = 0,
                                           RecoveryReport* report = nullptr);
  // open() for service mode: stores.size() fixes the expected shard count,
  // and shard i resolves archival containers against stores[i]. The same
  // recovery walk as open() runs.
  static std::unique_ptr<ShardRouter> open_shared(
      const std::filesystem::path& dir,
      std::vector<std::shared_ptr<ContainerStore>> stores,
      RecoveryReport* report = nullptr);
  // Shard count a repository directory records: 1 for a single-store
  // layout (journal::holds_single_store_state), the router state's count
  // for a sharded layout, 0 when the directory is not a repository.
  static std::size_t detect_shards(const std::filesystem::path& dir);
  [[nodiscard]] std::uint64_t epoch() const noexcept { return epoch_; }

  // --- Facade over the shard set ---
  [[nodiscard]] std::size_t shard_count() const noexcept {
    return shards_.size();
  }
  [[nodiscard]] HiDeStore& shard(std::size_t i) { return *shards_[i]; }
  [[nodiscard]] const HiDeStore& shard(std::size_t i) const {
    return *shards_[i];
  }

  [[nodiscard]] VersionId latest_version() const noexcept {
    return shards_[0]->latest_version();
  }
  [[nodiscard]] VersionId oldest_version() const noexcept {
    return shards_[0]->oldest_version();
  }
  // Retained versions, oldest first (every shard retains the same set).
  [[nodiscard]] std::vector<VersionId> versions() const;
  [[nodiscard]] std::size_t version_count() const;
  [[nodiscard]] std::uint64_t version_logical_bytes(VersionId version) const;
  [[nodiscard]] std::size_t version_chunk_count(VersionId version) const;

  [[nodiscard]] std::uint64_t total_logical_bytes() const noexcept;
  [[nodiscard]] std::uint64_t total_stored_bytes() const noexcept;
  [[nodiscard]] double dedup_ratio() const noexcept;
  [[nodiscard]] std::size_t archival_container_count() const;
  [[nodiscard]] std::size_t active_container_count() const;
  // Union of the shards' §4.5 deletion tags (returned by value: id bands
  // are disjoint across shards, so the union is a plain merge).
  [[nodiscard]] std::unordered_map<ContainerId, VersionId> container_tags()
      const;

  // The archival store as a FileContainerStore, single-shard repositories
  // only (multi-shard callers walk shard(i).archival_store()). nullptr for
  // multi-shard or in-memory.
  [[nodiscard]] FileContainerStore* file_store();

  // --- Observability ---
  // Single shard: the shard's own registry. Multi shard: the router's own
  // registry, holding only what no shard counts (`shards` and the
  // ParallelChunkPipeline's ingest_* metrics); every shard fact stays in
  // shard(i).metrics().
  [[nodiscard]] obs::MetricsRegistry& metrics() noexcept;
  // The repository's exposition, gauges refreshed first: metrics() under
  // `labels`, then (multi shard) each shard's registry under `labels` plus
  // {shard="i"}. Cross-shard totals are a scraper's sum/max.
  [[nodiscard]] std::vector<obs::MetricsPart> metric_parts(
      const obs::Labels& labels = {});
  // Shard 0's profiler only; Repository::recent_profiles() merges every
  // shard's.
  [[nodiscard]] obs::OpProfiler& profiler() noexcept {
    return shards_[0]->profiler();
  }
  void set_tracer(obs::Tracer* tracer);
  // HiDeStore::set_restore_workers on every shard.
  void set_restore_workers(std::size_t workers);
  // The pre-FAA-fill spelling, kept for callers not yet migrated: `in_flight`
  // is the worker count, depth 0 means serial.
  void set_read_ahead(std::size_t depth, std::size_t in_flight = 1);

  // One (shard, chunk-run) of a version's interleave, in stream order.
  struct InterleaveRun {
    std::uint32_t shard = 0;
    std::uint32_t chunks = 0;
    std::uint64_t bytes = 0;
  };
  // Empty for single-shard routers and unknown versions (fsck surface).
  [[nodiscard]] const std::vector<InterleaveRun>* interleave(
      VersionId version) const;

 private:
  class Workers;  // per-shard worker threads (defined in the .cpp)

  ShardRouter() = default;
  // The one recovery walk behind open() and open_shared(). `stores` empty
  // opens every shard over its own directory store.
  static std::unique_ptr<ShardRouter> open_impl(
      const std::filesystem::path& dir, std::size_t expected_shards,
      std::vector<std::shared_ptr<ContainerStore>> stores,
      RecoveryReport* report);
  void start_workers();
  // Runs fn(i) for every shard on its worker (multi-shard) and rethrows
  // the first failure after all shards finished.
  void run_on_shards(const std::function<void(std::size_t)>& fn);
  [[nodiscard]] static std::filesystem::path shard_dir(
      const std::filesystem::path& root, std::size_t shard);
  [[nodiscard]] std::vector<std::uint8_t> serialize_router_state(
      std::uint64_t epoch, const std::vector<CommitRecord>& records) const;

  std::vector<std::unique_ptr<HiDeStore>> shards_;
  std::filesystem::path root_;  // empty for in-memory routers
  // Per-version shard interleave (multi-shard only), persisted in the
  // router state file; the restore merge's ordering source of truth.
  std::unordered_map<VersionId, std::vector<InterleaveRun>> interleaves_;
  std::uint64_t epoch_ = 0;  // root MANIFEST epoch (multi-shard only)
  std::unique_ptr<Workers> workers_;
  std::unique_ptr<obs::MetricsRegistry> router_metrics_;  // multi-shard only
  obs::Tracer* tracer_ = nullptr;
};

}  // namespace hds
