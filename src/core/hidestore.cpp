#include "core/hidestore.h"

#include <algorithm>
#include <optional>
#include <stdexcept>

#include "common/byte_io.h"
#include "common/crc32.h"
#include "obs/log.h"
#include "storage/durable.h"
#include "storage/journal.h"
#include "restore/faa.h"
#include "restore/partial.h"
#include "verify/invariant.h"

namespace hds {

namespace {
// Dispatches fetches to the archival store or the active pool. FAA's fill
// workers call fetch() concurrently: the counters are atomic, and the store
// and the pool allow concurrent readers.
class HiDeStoreFetcher final : public ContainerFetcher {
 public:
  HiDeStoreFetcher(ContainerStore& archival, ActiveContainerPool& pool)
      : archival_(archival), pool_(pool) {}

  std::shared_ptr<const Container> fetch(const ChunkLoc& loc) override {
    if (loc.active) {
      auto container = pool_.fetch(loc.cid);
      if (container) {
        pool_fetches_.fetch_add(1, std::memory_order_relaxed);
      }
      return container;
    }
    return archival_.read(loc.cid, &meter_);
  }

  // Exact per-stream accounting: every archival read this fetcher issued
  // (on any fill worker), immune to other restore streams
  // sharing the store — global-counter deltas are not (they attribute a
  // concurrent stream's reads to whichever stream samples last).
  [[nodiscard]] const ReadMeter& meter() const noexcept { return meter_; }
  [[nodiscard]] std::uint64_t pool_fetches() const noexcept {
    return pool_fetches_.load(std::memory_order_relaxed);
  }

 private:
  ContainerStore& archival_;
  ActiveContainerPool& pool_;
  ReadMeter meter_;
  std::atomic<std::uint64_t> pool_fetches_{0};
};
}  // namespace

namespace {
std::shared_ptr<ContainerStore> make_archival_store(
    const HiDeStoreConfig& config, bool index_existing) {
  if (config.storage_dir.empty()) {
    return std::make_shared<MemoryContainerStore>();
  }
  return std::make_shared<FileContainerStore>(config.storage_dir / "archival",
                                              index_existing);
}
}  // namespace

HiDeStore::HiDeStore(const HiDeStoreConfig& config)
    : config_(config),
      store_(make_archival_store(config, /*index_existing=*/false)),
      pool_(config.container_size, config.materialize_contents),
      cache_(config.cache_window) {
  register_metrics();
  store_->attach_metrics(metrics_);
  pool_.attach_metrics(metrics_);
  crc_failures_baseline_ = chunk_crc_failures();
}

HiDeStore::HiDeStore(const HiDeStoreConfig& config,
                     std::shared_ptr<ContainerStore> shared_store)
    : config_(config),
      store_(std::move(shared_store)),
      shared_store_(true),
      pool_(config.container_size, config.materialize_contents),
      cache_(config.cache_window) {
  if (store_ == nullptr) {
    throw std::invalid_argument("HiDeStore: shared store must not be null");
  }
  register_metrics();
  // Deliberately no store_->attach_metrics(): the shared store's counters
  // aggregate every tenant, so they belong to the service layer's registry
  // for that store.
  pool_.attach_metrics(metrics_);
  crc_failures_baseline_ = chunk_crc_failures();
}

void HiDeStore::register_metrics() {
  for (const char* name :
       {// Backup / dedup (§4.1): t1_hits + t2_hits (+ t0_hits when
        // cache_window == 2) + unique_chunks == chunks_processed, and
        // index_disk_lookups stays 0 forever.
        "chunks_processed", "t1_hits", "t2_hits", "t0_hits", "unique_chunks",
        "cache_migrations", "index_disk_lookups", "logical_bytes",
        "stored_bytes", "backups_completed",
        // Cold eviction / compaction (§4.2).
        "cold_chunks_moved", "cold_bytes_moved", "containers_merged",
        // Restore (§4.4).
        "restores_completed", "restored_bytes", "restored_chunks",
        "restore_container_reads", "restore_cache_hits",
        "restore_cache_evictions", "restore_chain_hops",
        "restore_failed_chunks", "recipe_entries_flattened",
        // Deletion (§4.5): delete_chunks_scanned stays 0 — no GC.
        "versions_deleted", "containers_erased", "bytes_reclaimed",
        "delete_chunks_scanned",
        // Integrity: per-chunk CRC mismatches observed on any read path.
        // (The store registers its own store_* / io_* counter views.)
        "io_crc_failures"}) {
    (void)metrics_.counter(name);
  }
  for (const char* name : {"backup_ms", "recipe_update_ms",
                           "move_and_merge_ms", "restore_ms", "delete_ms"}) {
    (void)metrics_.histogram(name);
  }
  refresh_gauges();
}

void HiDeStore::refresh_gauges() {
  metrics_.gauge("cache_memory_bytes")
      .set(static_cast<double>(cache_.memory_bytes()));
  metrics_.gauge("active_containers")
      .set(static_cast<double>(pool_.container_count()));
  // Shared store: count THIS tenant's containers (its deletion tags), not
  // every tenant's — the store-wide total belongs to the service registry.
  metrics_.gauge("archival_containers")
      .set(static_cast<double>(shared_store_ ? container_version_.size()
                                             : store_->container_count()));
  metrics_.gauge("active_pool_bytes")
      .set(static_cast<double>(pool_.used_bytes()));
  metrics_.gauge("versions_retained")
      .set(static_cast<double>(recipes_.versions().size()));
  metrics_.gauge("dedup_ratio").set(dedup_ratio());
  // The one scrape-time copy: the chunk-CRC failure count is process-wide,
  // so each system reports its growth since it was opened.
  auto& crc = metrics_.counter("io_crc_failures");
  const std::uint64_t seen = chunk_crc_failures() - crc_failures_baseline_;
  if (seen > crc.value()) crc.inc(seen - crc.value());
  // A shared store's state is the service's to report.
  if (!shared_store_) store_->refresh_gauges(metrics_);
}

HiDeStoreOverheads HiDeStore::overheads() const {
  HiDeStoreOverheads o;
  if (const auto* h = metrics_.find_histogram("recipe_update_ms")) {
    o.recipe_update_ms = MeanAccumulator::from_parts(h->sum(), h->count(),
                                                     h->min(), h->max());
  }
  if (const auto* h = metrics_.find_histogram("move_and_merge_ms")) {
    o.move_and_merge_ms = MeanAccumulator::from_parts(h->sum(), h->count(),
                                                      h->min(), h->max());
  }
  if (const auto* c = metrics_.find_counter("cold_chunks_moved")) {
    o.cold_chunks_moved = c->value();
  }
  if (const auto* c = metrics_.find_counter("cold_bytes_moved")) {
    o.cold_bytes_moved = c->value();
  }
  if (const auto* c = metrics_.find_counter("containers_merged")) {
    o.containers_merged = c->value();
  }
  return o;
}

BackupReport HiDeStore::backup(const VersionStream& stream) {
  Stopwatch timer;
  obs::Span backup_span(tracer_, "backup");
  const VersionId version = next_version_++;
  auto prof = profiler_.begin("backup");
  prof->set_version(static_cast<std::uint32_t>(version));

  BackupReport report;
  report.version = version;

  // --- Phase 1: dedup against the fingerprint cache only (§4.1) ---
  std::uint64_t t1_hits = 0, t2_hits = 0, t0_hits = 0;
  Recipe recipe(version);
  {
    obs::Span dedup_span(tracer_, "dedup");
    auto dedup_phase = prof->phase("dedup");
    for (const auto& chunk : stream.chunks) {
      report.logical_bytes += chunk.size;
      report.logical_chunks++;
      CacheTier tier = CacheTier::kT2;
      if (cache_.lookup_and_promote(chunk.fp, &tier) == nullptr) {
        const ContainerId active_cid = pool_.add(chunk);
        cache_.insert_unique(chunk.fp, active_cid, chunk.size);
        report.stored_bytes += chunk.size;
        report.stored_chunks++;
      } else {
        switch (tier) {
          case CacheTier::kT2: t2_hits++; break;
          case CacheTier::kT1: t1_hits++; break;
          case CacheTier::kT0: t0_hits++; break;
        }
      }
      // Every chunk of the newest version is (for now) in active containers.
      recipe.add(chunk.fp, kCidActive, chunk.size);
    }
  }
  metrics_.counter("chunks_processed").inc(report.logical_chunks);
  metrics_.counter("t1_hits").inc(t1_hits);
  metrics_.counter("t2_hits").inc(t2_hits);
  metrics_.counter("t0_hits").inc(t0_hits);
  metrics_.counter("unique_chunks").inc(report.stored_chunks);
  // T1/T0 hits migrate the entry into T2 — the hot set following the data.
  metrics_.counter("cache_migrations").inc(t1_hits + t0_hits);
  metrics_.counter("logical_bytes").inc(report.logical_bytes);
  metrics_.counter("stored_bytes").inc(report.stored_bytes);

  // --- Phase 2: classify, evict cold chunks, merge sparse containers ---
  Stopwatch move_timer;
  ColdMap cold_map;
  {
    obs::Span move_span(tracer_, "move_and_merge");
    auto move_phase = prof->phase("move_and_merge");
    auto cold = cache_.rotate();
    // The cold chunks were last referenced `window` versions ago.
    const VersionId cold_version =
        version > static_cast<VersionId>(config_.cache_window)
            ? version - static_cast<VersionId>(config_.cache_window)
            : 0;
    if (!cold.empty()) {
      evict_cold(std::move(cold), cold_map, cold_version);
    }
    const auto remap = pool_.compact(config_.compaction_threshold);
    if (!remap.empty()) {
      cache_.remap_active(remap);
      metrics_.counter("containers_merged").inc();
    }
    metrics_.histogram("move_and_merge_ms").observe(move_timer.elapsed_ms());
  }

  // --- Phase 3: finalize the recipe one window back (§4.3) ---
  Stopwatch recipe_timer;
  {
    obs::Span recipe_span(tracer_, "recipe_update");
    auto recipe_phase = prof->phase("recipe_update");
    if (config_.cache_window == 1) {
      if (Recipe* prev = recipes_.get(version - 1)) {
        update_previous_recipe(*prev, cold_map, version, nullptr);
      }
    } else if (version >= 2) {
      if (Recipe* prev2 = recipes_.get(version - 2)) {
        std::unordered_set<Fingerprint> between;
        if (const Recipe* prev1 = recipes_.get(version - 1)) {
          for (const auto& e : prev1->entries()) between.insert(e.fp);
        }
        update_previous_recipe(*prev2, cold_map, version, &between);
      }
    }
    metrics_.histogram("recipe_update_ms").observe(recipe_timer.elapsed_ms());
  }

  recipes_.put(std::move(recipe));

  total_logical_bytes_ += report.logical_bytes;
  total_stored_bytes_ += report.stored_bytes;
  report.disk_lookups = 0;  // HiDeStore never consults an on-disk index
  report.index_memory_bytes = 0;  // no full index table (Fig 10)
  report.elapsed_ms = timer.elapsed_ms();
  prof->set_chunks(report.logical_chunks);
  prof->add_bytes(report.logical_bytes, report.stored_bytes);
  // Backup cache economics: dedup hits / unique chunks (each one a store
  // write) / nothing wasted on this path.
  prof->set_cache(t1_hits + t2_hits + t0_hits, report.stored_chunks, 0);
  metrics_.counter("backups_completed").inc();
  metrics_.histogram("backup_ms").observe(report.elapsed_ms);
  refresh_gauges();
  check_version_invariants();
  if (obs::log_enabled(obs::LogLevel::kInfo)) {
    obs::log_info("backup",
                  {{"version", version},
                   {"logical_bytes", report.logical_bytes},
                   {"stored_bytes", report.stored_bytes},
                   {"chunks", report.logical_chunks},
                   {"t1_hits", t1_hits},
                   {"t2_hits", t2_hits},
                   {"unique", report.stored_chunks},
                   {"elapsed_ms", report.elapsed_ms}});
  }
  return report;
}

void HiDeStore::check_version_invariants() const {
#if defined(HDS_VERIFY)
  // Version boundary audit (§4.1/§4.2 coupling): the fingerprint cache and
  // the active pool must describe each other exactly. Forward direction —
  // every cached entry resolves to a pool container that holds the chunk.
  std::size_t cached = 0;
  for (const auto* table :
       {&cache_.current(), &cache_.previous(), &cache_.oldest()}) {
    cached += table->size();
    for (const auto& [fp, entry] : *table) {
      const ContainerId* cid = pool_.find(fp);
      HDS_CHECK(cid != nullptr && *cid == entry.active_cid,
                "cached chunk missing from the active pool index");
      const auto container = pool_.peek(entry.active_cid);
      HDS_CHECK(container != nullptr && container->contains(fp),
                "cached chunk missing from its active container");
    }
  }
  // Reverse direction: the pool holds nothing the cache has forgotten.
  HDS_CHECK(cached == pool_.index().size(),
            "active pool holds chunks absent from every cache table");
#endif
}

void HiDeStore::evict_cold(DoubleHashFingerprintCache::Table cold,
                           ColdMap& cold_map, VersionId cold_version) {
  obs::Span evict_span(tracer_, "evict_cold");
  std::uint64_t chunks_moved = 0, bytes_moved = 0;
  // Evict container by container, chunks in offset order: the adjacency
  // cold chunks had in the active set is preserved in the archival layout,
  // which is what old-version restores have left to lean on.
  std::unordered_map<ContainerId, std::vector<Fingerprint>> by_container;
  for (const auto& [fp, entry] : cold) {
    (void)entry;
    const ContainerId* cid = pool_.find(fp);
    if (cid == nullptr) continue;  // already evicted (duplicate cold entry)
    by_container[*cid].push_back(fp);
  }

  Container archival(store_->reserve_id(), config_.container_size);
  auto flush = [&] {
    if (archival.chunk_count() == 0) return;
    const ContainerId id = archival.id();
    container_version_.emplace(id, cold_version);
    store_->put(std::move(archival));
    archival = Container(store_->reserve_id(), config_.container_size);
  };

  for (const ContainerId src : pool_.container_ids_sorted()) {
    const auto it = by_container.find(src);
    if (it == by_container.end()) continue;
    auto& fps = it->second;
    const auto src_container = pool_.fetch(src);
    std::sort(fps.begin(), fps.end(),
              [&](const Fingerprint& a, const Fingerprint& b) {
                return src_container->find(a)->offset <
                       src_container->find(b)->offset;
              });
    // Batched move: each chunk is staged straight from the source
    // container's data region into the archival container (one copy and no
    // checksum: the CRC is carried over from the entry table) and then
    // discarded from the pool. Spans stay valid across discard() because
    // Container::remove never touches the data region. The archival
    // container is written once, sequentially, when it fills.
    for (const auto& fp : fps) {
      const auto entry = src_container->find(fp);
      if (!archival.fits(entry->size)) flush();
      if (entry->offset == Container::kVirtualOffset) {
        // Metadata-only chunk (materialize_contents == false).
        archival.add_meta(fp, entry->size);
      } else {
        archival.add_with_crc(fp, src_container->read(fp).value(),
                              entry->crc);
      }
      pool_.discard(fp);
      cold_map[fp] = archival.id();
      chunks_moved++;
      bytes_moved += entry->size;
    }
  }
  flush();
  metrics_.counter("cold_chunks_moved").inc(chunks_moved);
  metrics_.counter("cold_bytes_moved").inc(bytes_moved);
}

ChunkLoc HiDeStore::resolve(
    const RecipeEntry& entry,
    std::unordered_map<VersionId,
                       std::unordered_map<Fingerprint, ContainerId>>&
        chain_cache,
    std::size_t* hops) const {
  ContainerId cid = entry.cid;
  while (cid < 0) {
    const auto version = static_cast<VersionId>(-cid);
    auto [it, fresh] = chain_cache.try_emplace(version);
    if (fresh) {
      if (hops != nullptr) ++*hops;
      const Recipe* recipe = recipes_.get(version);
      if (recipe == nullptr) {
        throw std::runtime_error("recipe chain points at missing recipe");
      }
      for (const auto& e : recipe->entries()) {
        it->second.emplace(e.fp, e.cid);
      }
    }
    const auto hit = it->second.find(entry.fp);
    if (hit == it->second.end()) {
      // Algorithm 1 writes -n for "still in active containers"; the chunk
      // need not literally appear in recipe n (it may live on only through
      // the fingerprint cache / active pool, e.g. a version n-1 leftover).
      // The pool index is authoritative for every hot chunk.
      if (pool_.find(entry.fp) != nullptr) {
        cid = kCidActive;
        break;
      }
      throw std::runtime_error("recipe chain broken: fingerprint not found");
    }
    cid = hit->second;
  }
  if (cid == kCidActive) {
    const ContainerId* active = pool_.find(entry.fp);
    if (active == nullptr) {
      throw std::runtime_error("active chunk missing from pool index");
    }
    return ChunkLoc{entry.fp, entry.size, *active, /*active=*/true};
  }
  return ChunkLoc{entry.fp, entry.size, cid, /*active=*/false};
}

RestoreReport HiDeStore::restore(VersionId version, const ChunkSink& sink) {
  RestoreConfig cache_config;
  cache_config.container_size = config_.container_size;
  cache_config.workers = restore_workers_;
  FaaRestore policy{cache_config};
  return restore_with(version, policy, sink);
}

namespace {
using ChainCache =
    std::unordered_map<VersionId,
                       std::unordered_map<Fingerprint, ContainerId>>;
}  // namespace

RestoreReport HiDeStore::restore_with(VersionId version,
                                      RestorePolicy& policy,
                                      const ChunkSink& sink) {
  return restore_range(version, 0, UINT64_MAX, policy, sink);
}

RestoreReport HiDeStore::restore_range(VersionId version,
                                       std::uint64_t offset,
                                       std::uint64_t length,
                                       RestorePolicy& policy,
                                       const ChunkSink& sink) {
  Stopwatch timer;
  obs::Span restore_span(tracer_, "restore");
  if (tracer_ != nullptr) tracer_->set_thread_name("restore_main");
  auto prof = profiler_.begin("restore");
  prof->set_version(static_cast<std::uint32_t>(version));
  RestoreReport report;
  report.version = version;

  if (config_.flatten_before_restore) flatten_recipes();

  const Recipe* recipe = recipes_.get(version);
  if (recipe == nullptr) return report;

  ChainCache chain_cache;
  std::vector<ChunkLoc> stream;
  stream.reserve(recipe->chunk_count());
  std::size_t hops = 0;
  {
    obs::Span resolve_span(tracer_, "resolve_recipe");
    auto resolve_phase = prof->phase("resolve_recipe");
    for (const auto& e : recipe->entries()) {
      stream.push_back(resolve(e, chain_cache, &hops));
    }
  }
  metrics_.counter("restore_chain_hops").inc(hops);

  HiDeStoreFetcher fetcher(*store_, pool_);
  {
    obs::Span policy_span(tracer_, "policy_restore");
    auto policy_phase = prof->phase("policy_restore");
    // The policy reports into this op only for the length of the call.
    struct Observed {
      RestorePolicy& policy;
      ~Observed() { policy.observe(nullptr, nullptr); }
    } observed{policy};
    policy.observe(tracer_, prof.get());
    const bool whole = offset == 0 && length == UINT64_MAX;
    report.stats =
        whole ? policy.restore(stream, fetcher, sink)
              : restore_byte_range(stream, offset, length, policy, fetcher,
                                   sink);
  }
  // Policies count fetch() calls themselves; cross-check with THIS stream's
  // fetcher meter — not global store-counter deltas, which would attribute
  // a concurrent restore's reads (and physical bytes) to whoever samples
  // last.
  report.stats.container_reads =
      fetcher.meter().container_reads.load(std::memory_order_relaxed) +
      fetcher.pool_fetches();
  report.elapsed_ms = timer.elapsed_ms();
  prof->set_chunks(report.stats.restored_chunks);
  prof->add_bytes(
      report.stats.restored_bytes,
      fetcher.meter().bytes_read_physical.load(std::memory_order_relaxed));
  prof->set_container_reads(report.stats.container_reads);
  // Restore cache economics: policy cache hits / fetches that reached a
  // store. Nothing is read that the policy did not ask for.
  prof->set_cache(report.stats.cache_hits, report.stats.container_reads, 0);
  metrics_.counter("restores_completed").inc();
  metrics_.counter("restored_bytes").inc(report.stats.restored_bytes);
  metrics_.counter("restored_chunks").inc(report.stats.restored_chunks);
  metrics_.counter("restore_container_reads")
      .inc(report.stats.container_reads);
  metrics_.counter("restore_cache_hits").inc(report.stats.cache_hits);
  metrics_.counter("restore_cache_evictions")
      .inc(report.stats.cache_evictions);
  metrics_.counter("restore_failed_chunks").inc(report.stats.failed_chunks);
  metrics_.histogram("restore_ms").observe(report.elapsed_ms);
  if (obs::log_enabled(obs::LogLevel::kInfo)) {
    obs::log_info("restore",
                  {{"version", version},
                   {"policy", policy.name()},
                   {"restored_bytes", report.stats.restored_bytes},
                   {"container_reads", report.stats.container_reads},
                   {"cache_hits", report.stats.cache_hits},
                   {"chain_hops", static_cast<std::uint64_t>(hops)},
                   {"failed_chunks", report.stats.failed_chunks},
                   {"elapsed_ms", report.elapsed_ms}});
  }
  return report;
}

std::size_t HiDeStore::flatten_recipes() {
  obs::Span flatten_span(tracer_, "flatten_recipes");
  const std::size_t updated =
      hds::flatten_recipes(recipes_, config_.cache_window);
  metrics_.counter("recipe_entries_flattened").inc(updated);
  return updated;
}

namespace {
constexpr std::uint32_t kStateMagic = 0x48445353;  // "HDSS"
// Format 3: a commit epoch (u64) follows the format field, tying the
// snapshot to its MANIFEST record. Format 2 (pre-journal, per-chunk CRC
// column) files are still accepted and adopt epoch 1 on load.
constexpr std::uint32_t kStateFormat = 3;
constexpr std::uint32_t kStateFormatLegacy = 2;
// Archival placement byte: containers are files under <dir>/archival, or
// live in a shared store the service layer owns. Value 1 (containers
// serialized inside the state file) was the in-memory save layout.
constexpr std::uint8_t kPlacementFiles = 0;
constexpr std::uint8_t kPlacementInline = 1;
constexpr std::uint8_t kPlacementShared = 2;

// Reads just enough of a (possibly uncommitted or torn) snapshot for the
// journal to judge it: the epoch it was staged at (1 for a pre-journal
// format-2 file) and the version watermark it would commit. Tolerates a
// bad CRC trailer — the prefix is all that is needed.
std::optional<journal::FileHeader> peek_state_header(
    std::span<const std::uint8_t> bytes) {
  ByteReader reader(bytes);
  std::uint32_t magic, format;
  if (!reader.u32(magic) || magic != kStateMagic || !reader.u32(format)) {
    return std::nullopt;
  }
  journal::FileHeader header;
  if (format == kStateFormatLegacy) {
    header.epoch = 1;
  } else if (format != kStateFormat || !reader.u64(header.epoch)) {
    return std::nullopt;
  }
  std::uint64_t u64v;
  double f64v;
  std::uint32_t u32v;
  std::uint8_t u8v;
  if (!reader.u64(u64v) || !reader.f64(f64v) || !reader.u32(u32v) ||
      !reader.u8(u8v) || !reader.u8(u8v) || !reader.u8(u8v) ||
      !reader.u32(header.next_version)) {
    return std::nullopt;
  }
  return header;
}
}  // namespace

bool HiDeStore::holds_committed_state(const std::filesystem::path& dir,
                                      const CommitRecord& record) {
  return journal::holds_committed(dir, journal::kStateStem, record,
                                  &peek_state_header);
}

CommitRecord HiDeStore::commit_record(std::uint64_t epoch) const {
  CommitRecord record;
  record.epoch = epoch;
  record.next_version = next_version_;
  record.oldest_version = oldest_version_;
  record.store_next = store_->next_id();
  return record;
}

void HiDeStore::save(const std::filesystem::path& dir) {
  const CommitRecord record = stage_save(dir);
  try {
    commit_staged_save(dir, record);
  } catch (const durable::InjectedCrash&) {
    throw;  // simulated crash: leave the directory exactly as a crash would
  } catch (...) {
    // Real write failure (disk full, permissions): drop the staged file so
    // the previously committed version is the only one on disk. The
    // in-memory system (and epoch_) is untouched; the caller may retry.
    abort_staged_save(dir, record);
    throw;
  }
}

CommitRecord HiDeStore::stage_save(const std::filesystem::path& dir) {
  if (config_.storage_dir.empty()) {
    throw std::invalid_argument(
        "HiDeStore::save: an in-memory store cannot save; give it a "
        "storage_dir");
  }
  if (std::filesystem::weakly_canonical(dir) !=
      std::filesystem::weakly_canonical(config_.storage_dir)) {
    throw std::invalid_argument(
        "HiDeStore::save: a file-backed repository must be saved into its "
        "own storage_dir");
  }
  std::filesystem::create_directories(dir);

  const CommitRecord record = commit_record(epoch_ + 1);
  ByteWriter writer;
  writer.u32(kStateMagic);
  writer.u32(kStateFormat);
  writer.u64(record.epoch);
  writer.u64(config_.container_size);
  writer.f64(config_.compaction_threshold);
  writer.u32(static_cast<std::uint32_t>(config_.cache_window));
  writer.u8(config_.materialize_contents ? 1 : 0);
  writer.u8(config_.flatten_before_restore ? 1 : 0);
  writer.u8(shared_store_ ? kPlacementShared : kPlacementFiles);
  writer.u32(next_version_);
  writer.u32(oldest_version_);
  writer.u64(total_logical_bytes_);
  writer.u64(total_stored_bytes_);

  // Deletion tags.
  writer.u32(static_cast<std::uint32_t>(container_version_.size()));
  for (const auto& [cid, version] : container_version_) {
    writer.u32(static_cast<std::uint32_t>(cid));
    writer.u32(version);
  }

  // Recipes, oldest first.
  const auto versions = recipes_.versions();
  writer.u32(static_cast<std::uint32_t>(versions.size()));
  for (const VersionId v : versions) {
    writer.blob(recipes_.get(v)->serialize());
  }

  // Active pool; archival containers are already files (or shared).
  writer.blob(pool_.serialize_state());
  writer.u32(static_cast<std::uint32_t>(store_->next_id()));

  auto bytes = writer.take();
  const std::uint32_t crc = crc32(bytes.data(), bytes.size());
  ByteWriter trailer;
  trailer.u32(crc);
  bytes.insert(bytes.end(), trailer.bytes().begin(), trailer.bytes().end());
  return journal::stage(dir, journal::kStateStem, record, bytes);
}

void HiDeStore::commit_staged_save(const std::filesystem::path& dir,
                                   const CommitRecord& record) {
  journal::commit(dir, journal::kStateStem, record);
  epoch_ = record.epoch;
}

void HiDeStore::abort_staged_save(const std::filesystem::path& dir,
                                  const CommitRecord& record) {
  journal::abort(dir, journal::kStateStem, record);
}

std::unique_ptr<HiDeStore> HiDeStore::open(const std::filesystem::path& dir,
                                           RecoveryReport* report,
                                           const CommitRecord* roll_forward) {
  return open_impl(dir, nullptr, report, roll_forward);
}

std::unique_ptr<HiDeStore> HiDeStore::open_shared(
    const std::filesystem::path& dir,
    std::shared_ptr<ContainerStore> shared_store, RecoveryReport* report,
    const CommitRecord* roll_forward) {
  if (shared_store == nullptr) return nullptr;
  return open_impl(dir, std::move(shared_store), report, roll_forward);
}

std::unique_ptr<HiDeStore> HiDeStore::open_impl(
    const std::filesystem::path& dir,
    std::shared_ptr<ContainerStore> shared, RecoveryReport* report_out,
    const CommitRecord* roll_forward) {
  RecoveryReport local;
  RecoveryReport& report = report_out != nullptr ? *report_out : local;
  report = RecoveryReport{};

  std::error_code ec;
  if (!std::filesystem::is_directory(dir, ec)) return nullptr;

  // 1. Atomic-writer debris.
  sweep_partial_writes(dir, {dir, dir / "archival"}, report);

  // 2. The journal picks the committed snapshot (journal.h).
  std::unique_ptr<HiDeStore> sys;
  const auto committed = journal::open(
      dir, journal::kStateStem, &peek_state_header,
      [&](std::span<const std::uint8_t> bytes) -> std::optional<CommitRecord> {
        sys = parse_state(dir, bytes, shared, report);
        if (sys == nullptr) return std::nullopt;
        return sys->commit_record(sys->epoch_);
      },
      report, roll_forward);
  if (!committed) return nullptr;

  // 3. Reconcile the container directory with the committed deletion tags.
  // Skipped for a shared store: one tenant's tags cover only its own
  // containers, so "untagged" does not mean "orphan" — the service layer
  // reconciles against the union of every tenant's tags instead.
  if (auto* fstore = shared == nullptr
                         ? dynamic_cast<FileContainerStore*>(sys->store_.get())
                         : nullptr) {
    auto on_disk = fstore->ids();
    std::sort(on_disk.begin(), on_disk.end());
    for (const ContainerId id : on_disk) {
      if (sys->container_version_.contains(id)) continue;
      // Sealed by a transaction that never committed: an orphan.
      report.orphan_containers.push_back(id);
      quarantine_file(dir, fstore->container_path(id), report);
      fstore->forget(id);
    }
    for (const auto& [id, version] : sys->container_version_) {
      if (!std::filesystem::exists(fstore->container_path(id), ec)) {
        report.missing_containers.push_back(id);
      }
    }
    std::sort(report.missing_containers.begin(),
              report.missing_containers.end());
    if (!report.missing_containers.empty()) {
      report.notes.push_back(
          std::to_string(report.missing_containers.size()) +
          " tagged archival container(s) missing — affected versions "
          "cannot fully restore");
    }
  }

  report.opened = true;
  sys->refresh_gauges();
  return sys;
}

std::unique_ptr<HiDeStore> HiDeStore::parse_state(
    const std::filesystem::path& dir, std::span<const std::uint8_t> bytes,
    std::shared_ptr<ContainerStore> shared, RecoveryReport& report) {
  if (bytes.size() < 12) return nullptr;

  // CRC trailer over the whole body.
  std::uint32_t stored_crc = 0;
  for (int i = 3; i >= 0; --i) {
    stored_crc = (stored_crc << 8) | bytes[bytes.size() - 4 +
                                           static_cast<std::size_t>(i)];
  }
  if (crc32(bytes.data(), bytes.size() - 4) != stored_crc) return nullptr;

  ByteReader reader(bytes.subspan(0, bytes.size() - 4));
  std::uint32_t magic, format;
  if (!reader.u32(magic) || magic != kStateMagic) return nullptr;
  if (!reader.u32(format) ||
      (format != kStateFormat && format != kStateFormatLegacy)) {
    return nullptr;
  }
  std::uint64_t epoch = 1;  // pre-journal snapshots adopt epoch 1
  if (format == kStateFormat && (!reader.u64(epoch) || epoch == 0)) {
    return nullptr;
  }

  HiDeStoreConfig config;
  std::uint64_t container_size;
  std::uint32_t window;
  std::uint8_t materialize, flatten, placement;
  if (!reader.u64(container_size) ||
      !reader.f64(config.compaction_threshold) || !reader.u32(window) ||
      !reader.u8(materialize) || !reader.u8(flatten) ||
      !reader.u8(placement)) {
    return nullptr;
  }
  config.container_size = container_size;
  config.cache_window = static_cast<int>(window);
  config.materialize_contents = materialize != 0;
  config.flatten_before_restore = flatten != 0;
  if (config.cache_window != 1 && config.cache_window != 2) return nullptr;
  // A snapshot written in one placement cannot be opened in the other — a
  // tenant dir opened as a standalone repo (or vice versa) would wire the
  // wrong store underneath the deletion tags.
  if (placement == kPlacementInline) {
    report.notes.push_back(
        "state file keeps archival containers inline (the in-memory save "
        "layout, no longer read); back the sources up into a new "
        "repository");
    return nullptr;
  }
  if (placement != (shared != nullptr ? kPlacementShared : kPlacementFiles)) {
    return nullptr;
  }
  config.storage_dir = dir;

  // A standalone store reopens the on-disk container files and resumes the
  // ID counter.
  auto sys = shared != nullptr
                 ? std::make_unique<HiDeStore>(config, shared)
                 : std::make_unique<HiDeStore>(config);
  sys->epoch_ = epoch;
  if (shared == nullptr) {
    sys->store_ = make_archival_store(config, /*index_existing=*/true);
    sys->store_->attach_metrics(sys->metrics_);
  }
  if (!reader.u32(sys->next_version_) || !reader.u32(sys->oldest_version_) ||
      !reader.u64(sys->total_logical_bytes_) ||
      !reader.u64(sys->total_stored_bytes_)) {
    return nullptr;
  }

  std::uint32_t tag_count;
  if (!reader.u32(tag_count)) return nullptr;
  for (std::uint32_t i = 0; i < tag_count; ++i) {
    std::uint32_t cid, version;
    if (!reader.u32(cid) || !reader.u32(version)) return nullptr;
    sys->container_version_.emplace(static_cast<ContainerId>(cid), version);
  }

  std::uint32_t recipe_count;
  if (!reader.u32(recipe_count)) return nullptr;
  for (std::uint32_t i = 0; i < recipe_count; ++i) {
    std::vector<std::uint8_t> blob;
    if (!reader.blob(blob)) return nullptr;
    auto recipe = Recipe::deserialize(blob);
    if (!recipe) return nullptr;
    sys->recipes_.put(std::move(*recipe));
  }

  std::vector<std::uint8_t> pool_blob;
  if (!reader.blob(pool_blob) || !sys->pool_.restore_state(pool_blob)) {
    return nullptr;
  }

  std::uint32_t store_next;
  if (!reader.u32(store_next) || !reader.exhausted()) return nullptr;
  if (shared != nullptr) {
    // The shared counter is the max over every tenant's snapshot — raise
    // it, never lower it, and leave the shared stats alone (they aggregate
    // all tenants and belong to the service).
    sys->store_->bump_next_id(static_cast<ContainerId>(store_next));
  } else {
    sys->store_->restore_next_id(static_cast<ContainerId>(store_next));
    sys->store_->reset_stats();
  }

  // Rebuild the fingerprint cache by prefetching the newest recipes — the
  // paper's §4.1 mechanism ("the metadata of CV in the recipe is prefetched
  // to T1").
  DoubleHashFingerprintCache::Table t1, t0;
  const VersionId latest = sys->latest_version();
  if (const Recipe* newest = sys->recipes_.get(latest)) {
    for (const auto& e : newest->entries()) {
      if (e.cid != kCidActive) continue;
      if (const ContainerId* cid = sys->pool_.find(e.fp)) {
        t1.emplace(e.fp, CacheEntry{*cid, e.size});
      }
    }
  }
  if (config.cache_window == 2 && latest >= 2) {
    if (const Recipe* previous = sys->recipes_.get(latest - 1)) {
      for (const auto& e : previous->entries()) {
        if (e.cid != kCidActive || t1.contains(e.fp)) continue;
        if (const ContainerId* cid = sys->pool_.find(e.fp)) {
          t0.emplace(e.fp, CacheEntry{*cid, e.size});
        }
      }
    }
  }
  sys->cache_.restore_tables(std::move(t1), std::move(t0));
  // Like reset_stats() above (which clears the store_* views' source):
  // start the process's own counters clean.
  sys->metrics_.reset();
  sys->refresh_gauges();
  return sys;
}

DeletionReport HiDeStore::delete_versions_up_to(VersionId version) {
  Stopwatch timer;
  obs::Span delete_span(tracer_, "delete_versions");
  DeletionReport report;

  for (VersionId v = oldest_version_;
       v <= version && v < latest_version(); ++v) {
    if (recipes_.erase(v)) report.versions_deleted++;
  }
  oldest_version_ = std::max(oldest_version_, version + 1);

  // Cold chunks are grouped by the version that last referenced them; once
  // every version up to `version` is retired, their containers hold only
  // unreachable chunks and vanish wholesale — no per-chunk liveness check.
  std::vector<ContainerId> victims;
  for (const auto& [cid, tag] : container_version_) {
    if (tag <= version) victims.push_back(cid);
  }
  for (const ContainerId cid : victims) {
    if (const auto container = store_->read(cid)) {
      report.bytes_reclaimed += container->used_bytes();
    }
    store_->erase(cid);
    container_version_.erase(cid);
    report.containers_erased++;
  }
  report.elapsed_ms = timer.elapsed_ms();
  metrics_.counter("versions_deleted").inc(report.versions_deleted);
  metrics_.counter("containers_erased").inc(report.containers_erased);
  metrics_.counter("bytes_reclaimed").inc(report.bytes_reclaimed);
  metrics_.counter("delete_chunks_scanned").inc(report.chunks_scanned);
  metrics_.histogram("delete_ms").observe(report.elapsed_ms);
  refresh_gauges();
  if (obs::log_enabled(obs::LogLevel::kInfo)) {
    obs::log_info("delete_versions",
                  {{"up_to", version},
                   {"versions_deleted", report.versions_deleted},
                   {"containers_erased", report.containers_erased},
                   {"bytes_reclaimed", report.bytes_reclaimed},
                   {"elapsed_ms", report.elapsed_ms}});
  }
  return report;
}

}  // namespace hds
