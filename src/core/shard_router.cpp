#include "core/shard_router.h"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <functional>
#include <span>
#include <thread>
#include <utility>

#include "common/byte_io.h"
#include "common/thread_annotations.h"
#include "parallel/mpmc_queue.h"
#include "storage/durable.h"
#include "storage/journal.h"

namespace hds {

namespace {

constexpr std::uint32_t kRouterMagic = 0x48445352;  // "HDSR"
constexpr std::uint32_t kRouterFormat = 1;

// The router state's header, for the journal (journal.h): the epoch it was
// staged at and the version watermark it would commit.
std::optional<journal::FileHeader> peek_router_header(
    std::span<const std::uint8_t> bytes) {
  ByteReader reader(bytes);
  std::uint32_t magic = 0, format = 0, shard_count = 0;
  journal::FileHeader header;
  if (!reader.u32(magic) || magic != kRouterMagic || !reader.u32(format) ||
      format != kRouterFormat || !reader.u64(header.epoch) ||
      !reader.u32(shard_count) || !reader.u32(header.next_version)) {
    return std::nullopt;
  }
  return header;
}

struct ParsedRouterState {
  std::uint64_t epoch = 0;
  std::uint32_t shard_count = 0;
  VersionId next_version = 1;
  VersionId oldest_version = 1;
  std::unordered_map<VersionId, std::vector<ShardRouter::InterleaveRun>>
      interleaves;
  std::vector<CommitRecord> pending;  // one per shard, staged at this epoch

  // The root MANIFEST record that commits this state.
  [[nodiscard]] CommitRecord root_record() const {
    CommitRecord record;
    record.epoch = epoch;
    record.next_version = next_version;
    record.oldest_version = oldest_version;
    record.store_next = 0;  // no root-level container store
    return record;
  }
};

// Parses a router state's body (its seal already checked and stripped).
std::optional<ParsedRouterState> parse_router_state(
    std::span<const std::uint8_t> body) {
  ByteReader reader(body);
  std::uint32_t magic = 0, format = 0;
  if (!reader.u32(magic) || magic != kRouterMagic) return std::nullopt;
  if (!reader.u32(format) || format != kRouterFormat) return std::nullopt;
  ParsedRouterState state;
  std::uint32_t interleave_count = 0;
  if (!reader.u64(state.epoch) || !reader.u32(state.shard_count) ||
      !reader.u32(state.next_version) || !reader.u32(state.oldest_version) ||
      !reader.u32(interleave_count)) {
    return std::nullopt;
  }
  if (state.shard_count < 2 || state.shard_count > kMaxShards) {
    return std::nullopt;
  }
  for (std::uint32_t v = 0; v < interleave_count; ++v) {
    VersionId version = 0;
    std::uint32_t run_count = 0;
    if (!reader.u32(version) || !reader.u32(run_count)) return std::nullopt;
    std::vector<ShardRouter::InterleaveRun> runs(run_count);
    for (auto& run : runs) {
      if (!reader.u32(run.shard) || !reader.u32(run.chunks) ||
          !reader.u64(run.bytes) || run.shard >= state.shard_count) {
        return std::nullopt;
      }
    }
    state.interleaves.emplace(version, std::move(runs));
  }
  state.pending.resize(state.shard_count);
  for (auto& record : state.pending) {
    std::uint32_t store_next = 0;
    if (!reader.u64(record.epoch) || !reader.u32(record.next_version) ||
        !reader.u32(record.oldest_version) || !reader.u32(store_next) ||
        !reader.u64(record.state_size) || !reader.u32(record.state_crc)) {
      return std::nullopt;
    }
    record.store_next = static_cast<ContainerId>(store_next);
  }
  return state;
}

// Wall-clock helper matching HiDeStore's elapsed_ms reporting.
class WallTimer {
 public:
  WallTimer() : start_(std::chrono::steady_clock::now()) {}
  [[nodiscard]] double elapsed_ms() const {
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - start_)
        .count();
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

}  // namespace

// --- Per-shard workers ------------------------------------------------------

// One long-lived thread + job queue per shard. Jobs never overlap within a
// shard (its HiDeStore is single-threaded); shards run concurrently. A
// TaskGroup latch (rank kShardExec) joins a fan-out and carries the first
// failure back to the submitting thread.
class ShardRouter::Workers {
 public:
  class TaskGroup {
   public:
    void add() {
      MutexLock lock(mu_);
      ++pending_;
    }

    void finish(std::exception_ptr error) {
      MutexLock lock(mu_);
      if (error != nullptr && error_ == nullptr) error_ = error;
      if (--pending_ == 0) done_.notify_all();
    }

    // Blocks until every added task finished; rethrows the first failure.
    void wait() {
      std::exception_ptr error;
      {
        MutexLock lock(mu_);
        while (pending_ != 0) done_.wait(mu_);
        error = error_;
        error_ = nullptr;
      }
      if (error != nullptr) std::rethrow_exception(error);
    }

   private:
    Mutex mu_{lockrank::kShardExec};
    CondVar done_;
    std::size_t pending_ HDS_GUARDED_BY(mu_) = 0;
    std::exception_ptr error_ HDS_GUARDED_BY(mu_);
  };

  explicit Workers(std::size_t shards) {
    queues_.reserve(shards);
    threads_.reserve(shards);
    for (std::size_t i = 0; i < shards; ++i) {
      queues_.push_back(std::make_unique<parallel::BoundedQueue<Job>>(
          4, lockrank::kShardQueue));
      threads_.emplace_back([queue = queues_.back().get()] {
        while (auto job = queue->pop()) (*job)();
      });
    }
  }

  ~Workers() {
    for (auto& queue : queues_) queue->close();
    for (auto& thread : threads_) thread.join();
  }

  // Enqueues `job` on shard `i`'s worker; `group.finish` runs regardless of
  // the job's outcome, so a wait() never hangs.
  void submit(std::size_t i, TaskGroup& group, std::function<void()> job) {
    group.add();
    const bool queued = queues_[i]->push([&group, job = std::move(job)] {
      std::exception_ptr error;
      try {
        job();
      } catch (...) {
        error = std::current_exception();
      }
      group.finish(error);
    });
    if (!queued) group.finish(nullptr);  // shutdown race; not reachable live
  }

 private:
  using Job = std::function<void()>;
  std::vector<std::unique_ptr<parallel::BoundedQueue<Job>>> queues_;
  std::vector<std::thread> threads_;
};

// --- Construction -----------------------------------------------------------

namespace {
std::size_t validate_shard_count(std::size_t shards) {
  if (shards == 0 || shards > kMaxShards) {
    throw std::invalid_argument("ShardRouter: shard count must be 1.." +
                                std::to_string(kMaxShards));
  }
  return shards;
}
}  // namespace

ShardRouter::ShardRouter(const ShardRouterConfig& config) {
  const std::size_t shards = validate_shard_count(config.shards);
  root_ = config.base.storage_dir;
  shards_.reserve(shards);
  for (std::size_t i = 0; i < shards; ++i) {
    HiDeStoreConfig shard_config = config.base;
    if (shards > 1 && !root_.empty()) {
      shard_config.storage_dir = shard_dir(root_, i);
    }
    shards_.push_back(std::make_unique<HiDeStore>(shard_config));
    if (shards > 1) {
      shards_[i]->archival_store().restore_next_id(shard_id_base(i) + 1);
    }
  }
  start_workers();
}

ShardRouter::~ShardRouter() = default;

void ShardRouter::start_workers() {
  if (shards_.size() < 2) return;  // single shard: pure delegation
  workers_ = std::make_unique<Workers>(shards_.size());
  router_metrics_ = std::make_unique<obs::MetricsRegistry>();
  router_metrics_->gauge("shards").set(static_cast<double>(shards_.size()));
}

void ShardRouter::run_on_shards(const std::function<void(std::size_t)>& fn) {
  Workers::TaskGroup group;
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    workers_->submit(i, group, [&fn, i] { fn(i); });
  }
  group.wait();
}

std::filesystem::path ShardRouter::shard_dir(const std::filesystem::path& root,
                                             std::size_t shard) {
  return root / ("shard_" + std::to_string(shard));
}

// --- Data path --------------------------------------------------------------

BackupReport ShardRouter::backup(const VersionStream& stream) {
  if (shards_.size() == 1) return shards_[0]->backup(stream);

  WallTimer timer;
  obs::Span span(tracer_, "shard_backup");
  const std::size_t shards = shards_.size();

  // Partition the stream per shard (order-preserving within a shard) and
  // record the interleave that puts the merged restore back together.
  std::vector<VersionStream> parts(shards);
  std::vector<InterleaveRun> runs;
  for (const ChunkRecord& chunk : stream.chunks) {
    const auto s =
        static_cast<std::uint32_t>(shard_of_fingerprint(chunk.fp, shards));
    parts[s].chunks.push_back(chunk);
    if (runs.empty() || runs.back().shard != s) {
      runs.push_back(InterleaveRun{s, 0, 0});
    }
    ++runs.back().chunks;
    runs.back().bytes += chunk.size;
  }

  // Cross-shard version barrier: EVERY shard ingests a (possibly empty)
  // sub-stream, so version numbering, cache rotation and cold eviction stay
  // aligned across shards. Eviction and compaction run per-shard here, in
  // parallel, inside each shard's backup().
  std::vector<BackupReport> reports(shards);
  run_on_shards(
      [&](std::size_t i) { reports[i] = shards_[i]->backup(parts[i]); });

  BackupReport total;
  total.version = reports[0].version;
  for (const BackupReport& report : reports) {
    if (report.version != total.version) {
      throw std::logic_error("ShardRouter: shard versions diverged");
    }
    total.logical_bytes += report.logical_bytes;
    total.logical_chunks += report.logical_chunks;
    total.stored_bytes += report.stored_bytes;
    total.stored_chunks += report.stored_chunks;
    total.rewritten_bytes += report.rewritten_bytes;
    total.rewritten_chunks += report.rewritten_chunks;
    total.disk_lookups += report.disk_lookups;
    total.index_memory_bytes += report.index_memory_bytes;
  }
  interleaves_[total.version] = std::move(runs);
  total.elapsed_ms = timer.elapsed_ms();
  return total;
}

RestoreReport ShardRouter::restore(VersionId version, const ChunkSink& sink) {
  if (shards_.size() == 1) return shards_[0]->restore(version, sink);

  RestoreReport total;
  total.version = version;
  const auto it = interleaves_.find(version);
  if (it == interleaves_.end()) return total;  // unknown version

  WallTimer timer;
  obs::Span span(tracer_, "shard_restore");
  const std::size_t shards = shards_.size();

  // Per-shard producers restore their sub-streams into bounded queues; this
  // thread replays the interleave, popping each run's chunks from its
  // shard's queue — the merged stream is in exactly the original order.
  struct Item {
    ChunkLoc loc;
    std::vector<std::uint8_t> bytes;
  };
  std::vector<std::unique_ptr<parallel::BoundedQueue<Item>>> queues;
  queues.reserve(shards);
  for (std::size_t i = 0; i < shards; ++i) {
    queues.push_back(std::make_unique<parallel::BoundedQueue<Item>>(
        32, lockrank::kShardQueue));
  }

  std::vector<RestoreReport> reports(shards);
  Workers::TaskGroup group;
  for (std::size_t i = 0; i < shards; ++i) {
    workers_->submit(i, group, [&, i] {
      // Close the queue however the restore ends, so the merge loop below
      // never blocks on a dead producer.
      try {
        reports[i] = shards_[i]->restore(
            version,
            [&queues, i](const ChunkLoc& loc,
                         std::span<const std::uint8_t> bytes) {
              Item item;
              item.loc = loc;
              item.bytes.assign(bytes.begin(), bytes.end());
              queues[i]->push(std::move(item));
            });
      } catch (...) {
        queues[i]->close();
        throw;
      }
      queues[i]->close();
    });
  }

  bool short_stream = false;
  for (const InterleaveRun& run : it->second) {
    for (std::uint32_t k = 0; k < run.chunks; ++k) {
      auto item = queues[run.shard]->pop();
      if (!item.has_value()) {
        short_stream = true;
        break;
      }
      sink(item->loc, std::span<const std::uint8_t>(item->bytes));
    }
    if (short_stream) break;
  }
  if (short_stream) {
    // A producer died early; unblock the rest before joining.
    for (auto& queue : queues) queue->close();
  }
  group.wait();  // rethrows the failing shard's exception, if any
  if (short_stream) {
    throw std::runtime_error(
        "ShardRouter: shard restore stream ended short of its interleave");
  }

  for (const RestoreReport& report : reports) {
    total.stats.restored_bytes += report.stats.restored_bytes;
    total.stats.restored_chunks += report.stats.restored_chunks;
    total.stats.container_reads += report.stats.container_reads;
    total.stats.cache_hits += report.stats.cache_hits;
    total.stats.cache_evictions += report.stats.cache_evictions;
    total.stats.failed_chunks += report.stats.failed_chunks;
  }
  total.elapsed_ms = timer.elapsed_ms();
  return total;
}

RestoreReport ShardRouter::restore_range(VersionId version,
                                         std::uint64_t offset,
                                         std::uint64_t length,
                                         const ChunkSink& sink) {
  if (shards_.size() == 1) {
    RestoreConfig config;
    const auto policy = make_restore_policy(RestorePolicyKind::kFaa, config);
    return shards_[0]->restore_range(version, offset, length, *policy, sink);
  }
  // Multi-shard: replay the merged stream and trim to the range. Container
  // reads cover the whole version — fine for catalog-driven single-file
  // pulls; a per-shard range planner over the interleave byte counts is the
  // obvious future optimization.
  const std::uint64_t end =
      length > std::numeric_limits<std::uint64_t>::max() - offset
          ? std::numeric_limits<std::uint64_t>::max()
          : offset + length;
  std::uint64_t pos = 0;
  std::uint64_t delivered_bytes = 0;
  std::uint64_t delivered_chunks = 0;
  RestoreReport report = restore(
      version,
      [&](const ChunkLoc& loc, std::span<const std::uint8_t> bytes) {
        const std::uint64_t begin = pos;
        pos += bytes.size();
        if (begin >= end || pos <= offset) return;
        const auto lo = begin < offset
                            ? static_cast<std::size_t>(offset - begin)
                            : std::size_t{0};
        const auto hi = static_cast<std::size_t>(
            std::min<std::uint64_t>(bytes.size(), end - begin));
        sink(loc, bytes.subspan(lo, hi - lo));
        delivered_bytes += hi - lo;
        ++delivered_chunks;
      });
  report.stats.restored_bytes = delivered_bytes;
  report.stats.restored_chunks = delivered_chunks;
  return report;
}

DeletionReport ShardRouter::delete_versions_up_to(VersionId version) {
  if (shards_.size() == 1) return shards_[0]->delete_versions_up_to(version);

  WallTimer timer;
  std::vector<DeletionReport> reports(shards_.size());
  run_on_shards([&](std::size_t i) {
    reports[i] = shards_[i]->delete_versions_up_to(version);
  });
  DeletionReport total;
  for (const DeletionReport& report : reports) {
    total.versions_deleted =
        std::max(total.versions_deleted, report.versions_deleted);
    total.containers_erased += report.containers_erased;
    total.bytes_reclaimed += report.bytes_reclaimed;
    total.chunks_scanned += report.chunks_scanned;
  }
  const VersionId oldest = shards_[0]->oldest_version();
  for (auto it = interleaves_.begin(); it != interleaves_.end();) {
    it = it->first < oldest ? interleaves_.erase(it) : std::next(it);
  }
  total.elapsed_ms = timer.elapsed_ms();
  return total;
}

std::size_t ShardRouter::flatten_recipes() {
  if (shards_.size() == 1) return shards_[0]->flatten_recipes();
  std::vector<std::size_t> updated(shards_.size(), 0);
  run_on_shards(
      [&](std::size_t i) { updated[i] = shards_[i]->flatten_recipes(); });
  std::size_t total = 0;
  for (const std::size_t u : updated) total += u;
  return total;
}

// --- Persistence ------------------------------------------------------------

ByteWriter ShardRouter::serialize_router_state(
    std::uint64_t epoch, const std::vector<CommitRecord>& records) const {
  ByteWriter writer;
  writer.u32(kRouterMagic);
  writer.u32(kRouterFormat);
  writer.u64(epoch);
  writer.u32(static_cast<std::uint32_t>(shards_.size()));
  writer.u32(shards_[0]->latest_version() + 1);
  writer.u32(shards_[0]->oldest_version());

  std::vector<VersionId> versions;
  versions.reserve(interleaves_.size());
  for (const auto& [version, runs] : interleaves_) versions.push_back(version);
  std::sort(versions.begin(), versions.end());
  writer.u32(static_cast<std::uint32_t>(versions.size()));
  for (const VersionId version : versions) {
    const auto& runs = interleaves_.at(version);
    writer.u32(version);
    writer.u32(static_cast<std::uint32_t>(runs.size()));
    for (const InterleaveRun& run : runs) {
      writer.u32(run.shard);
      writer.u32(run.chunks);
      writer.u64(run.bytes);
    }
  }

  for (const CommitRecord& record : records) {
    writer.u64(record.epoch);
    writer.u32(record.next_version);
    writer.u32(record.oldest_version);
    writer.u32(static_cast<std::uint32_t>(record.store_next));
    writer.u64(record.state_size);
    writer.u32(record.state_crc);
  }

  return writer;
}

void ShardRouter::save(const std::filesystem::path& dir) {
  if (shards_.size() == 1) {
    shards_[0]->save(dir);
    return;
  }
  if (root_.empty()) {
    throw std::invalid_argument(
        "ShardRouter::save: an in-memory multi-shard router cannot save");
  }
  if (std::filesystem::weakly_canonical(dir) !=
      std::filesystem::weakly_canonical(root_)) {
    throw std::invalid_argument(
        "ShardRouter::save: a sharded repository must be saved into its own "
        "storage_dir");
  }
  std::filesystem::create_directories(dir);

  const std::uint64_t epoch = epoch_ + 1;
  const std::size_t shards = shards_.size();

  // Phase 1: stage every shard. Sequential (shard 0..N-1) so HDS_CRASH_STEP
  // hits a deterministic site. Each shard writes the active containers its
  // version changed and a metadata-only state file.
  std::vector<CommitRecord> records(shards);
  std::size_t staged = 0;
  CommitRecord root;
  root.epoch = epoch;
  root.next_version = shards_[0]->latest_version() + 1;
  root.oldest_version = shards_[0]->oldest_version();
  try {
    for (; staged < shards; ++staged) {
      records[staged] = shards_[staged]->stage_save(shard_dir(root_, staged));
    }

    // Phase 2: stage the router state naming every staged record, then
    // commit it to the root MANIFEST — the cross-shard commit point.
    root = journal::stage(dir, journal::kRouterStem, root,
                          serialize_router_state(epoch, records));
    journal::commit(dir, journal::kRouterStem, root);
  } catch (const durable::InjectedCrash&) {
    throw;  // simulated crash: leave everything exactly as a crash would
  } catch (...) {
    // Nothing committed: drop every staged file.
    journal::abort(dir, journal::kRouterStem, root);
    for (std::size_t i = 0; i < staged; ++i) {
      shards_[i]->abort_staged_save(shard_dir(root_, i), records[i]);
    }
    throw;
  }
  epoch_ = epoch;

  // Phase 3: finish every shard journal. The commit already landed; a crash
  // from here on is rolled FORWARD by open() from the records embedded in
  // the router state.
  for (std::size_t i = 0; i < shards; ++i) {
    shards_[i]->commit_staged_save(shard_dir(root_, i), records[i]);
  }
}

std::size_t ShardRouter::detect_shards(const std::filesystem::path& dir) {
  if (journal::holds_single_store_state(dir)) return 1;
  const auto files = journal::files(dir, journal::kRouterStem);
  for (auto it = files.rbegin(); it != files.rend(); ++it) {
    const auto bytes = durable::read_file(it->second);
    const auto body = bytes ? unseal(*bytes) : std::nullopt;
    if (const auto parsed = body ? parse_router_state(*body) : std::nullopt) {
      return parsed->shard_count;
    }
  }
  return 0;
}

std::unique_ptr<ShardRouter> ShardRouter::open(
    const std::filesystem::path& dir, std::size_t expected_shards,
    RecoveryReport* report, OpenMode mode) {
  RecoveryReport local;
  RecoveryReport& rep = report != nullptr ? *report : local;
  if (journal::holds_single_store_state(dir)) {
    if (expected_shards > 1) {
      throw ShardMismatchError(
          "repository records 1 shard; requested --shards=" +
          std::to_string(expected_shards));
    }
    auto sys = HiDeStore::open(dir, report, nullptr, mode);
    if (sys == nullptr) return nullptr;
    auto router = std::unique_ptr<ShardRouter>(new ShardRouter());
    router->root_ = dir;
    router->shards_.push_back(std::move(sys));
    return router;
  }

  // Sharded layout: the journal picks the committed router state.
  std::optional<ParsedRouterState> parsed;
  const auto committed = journal::open(
      dir, journal::kRouterStem, &peek_router_header,
      [&](std::span<const std::uint8_t> body) -> std::optional<CommitRecord> {
        parsed = parse_router_state(body);
        if (!parsed) return std::nullopt;
        // Checked before the journal repairs anything: a mismatched open
        // leaves the directory byte-unchanged.
        if (expected_shards != 0 && expected_shards != parsed->shard_count) {
          throw ShardMismatchError(
              "repository records " + std::to_string(parsed->shard_count) +
              " shards; requested --shards=" +
              std::to_string(expected_shards));
        }
        return parsed->root_record();
      },
      rep, nullptr, mode);
  if (!committed) {
    rep.notes.push_back("router: no recoverable router state");
    return nullptr;  // not a repository (or nothing committed survives)
  }
  // A repository: its root's *.tmp files are a crashed save's partial
  // writes (router state, root MANIFEST, catalog).
  if (mode == OpenMode::kRepair) sweep_partial_writes(dir, {dir}, rep);

  auto router = std::unique_ptr<ShardRouter>(new ShardRouter());
  router->root_ = dir;
  router->epoch_ = parsed->epoch;
  const auto append = [](auto& to, const auto& from) {
    to.insert(to.end(), from.begin(), from.end());
  };
  for (std::size_t i = 0; i < parsed->shard_count; ++i) {
    // A shard rolls forward to the record the root committed for it when
    // its own MANIFEST append was lost.
    RecoveryReport shard_report;
    auto sys = HiDeStore::open(shard_dir(dir, i), &shard_report,
                               &parsed->pending[i], mode);
    rep.performed = rep.performed || shard_report.performed;
    // Every shard holds the same versions: a rolled-back version counts
    // once, however many shards it touched.
    rep.rolled_back_versions =
        std::max(rep.rolled_back_versions, shard_report.rolled_back_versions);
    append(rep.quarantined, shard_report.quarantined);
    append(rep.orphan_containers, shard_report.orphan_containers);
    append(rep.missing_containers, shard_report.missing_containers);
    append(rep.missing_active, shard_report.missing_active);
    for (const auto& note : shard_report.notes) {
      rep.notes.push_back("shard_" + std::to_string(i) + ": " + note);
    }
    if (sys == nullptr) {
      rep.opened = false;
      rep.notes.push_back("shard_" + std::to_string(i) + ": unrecoverable");
      return nullptr;
    }
    router->shards_.push_back(std::move(sys));
  }

  // Cross-shard alignment: every shard must sit at the router's committed
  // version window, or the interleaves cannot be trusted.
  for (std::size_t i = 0; i < router->shards_.size(); ++i) {
    const HiDeStore& shard = *router->shards_[i];
    if (shard.latest_version() + 1 != parsed->next_version ||
        shard.oldest_version() != parsed->oldest_version) {
      rep.opened = false;
      rep.notes.push_back(
          "shard_" + std::to_string(i) +
          ": version window diverges from the router state");
      return nullptr;
    }
  }

  router->interleaves_ = std::move(parsed->interleaves);
  router->start_workers();
  rep.opened = true;
  return router;
}

// --- Facade -----------------------------------------------------------------

std::vector<VersionId> ShardRouter::versions() const {
  return shards_[0]->recipes().versions();
}

std::size_t ShardRouter::version_count() const {
  return shards_[0]->recipes().size();
}

std::uint64_t ShardRouter::version_logical_bytes(VersionId version) const {
  std::uint64_t total = 0;
  for (const auto& shard : shards_) {
    if (const Recipe* recipe = shard->recipes().get(version)) {
      total += recipe->logical_bytes();
    }
  }
  return total;
}

std::size_t ShardRouter::version_chunk_count(VersionId version) const {
  std::size_t total = 0;
  for (const auto& shard : shards_) {
    if (const Recipe* recipe = shard->recipes().get(version)) {
      total += recipe->chunk_count();
    }
  }
  return total;
}

std::uint64_t ShardRouter::total_logical_bytes() const noexcept {
  std::uint64_t total = 0;
  for (const auto& shard : shards_) total += shard->total_logical_bytes();
  return total;
}

std::uint64_t ShardRouter::total_stored_bytes() const noexcept {
  std::uint64_t total = 0;
  for (const auto& shard : shards_) total += shard->total_stored_bytes();
  return total;
}

double ShardRouter::dedup_ratio() const noexcept {
  const std::uint64_t logical = total_logical_bytes();
  if (logical == 0) return 0.0;
  return 1.0 - static_cast<double>(total_stored_bytes()) /
                   static_cast<double>(logical);
}

std::size_t ShardRouter::archival_container_count() const {
  std::size_t total = 0;
  for (const auto& shard : shards_) {
    total += shard->archival_store().container_count();
  }
  return total;
}

std::size_t ShardRouter::active_container_count() const {
  std::size_t total = 0;
  for (const auto& shard : shards_) {
    total += shard->active_pool().container_count();
  }
  return total;
}

std::unordered_map<ContainerId, VersionId> ShardRouter::container_tags()
    const {
  std::unordered_map<ContainerId, VersionId> merged;
  for (const auto& shard : shards_) {
    const auto& tags = shard->container_tags();
    merged.insert(tags.begin(), tags.end());
  }
  return merged;
}

FileContainerStore* ShardRouter::file_store() {
  if (shards_.size() != 1) return nullptr;
  return dynamic_cast<FileContainerStore*>(&shards_[0]->archival_store());
}

const std::vector<ShardRouter::InterleaveRun>* ShardRouter::interleave(
    VersionId version) const {
  const auto it = interleaves_.find(version);
  return it == interleaves_.end() ? nullptr : &it->second;
}

// --- Observability ----------------------------------------------------------

obs::MetricsRegistry& ShardRouter::metrics() noexcept {
  return shards_.size() == 1 ? shards_[0]->metrics() : *router_metrics_;
}

std::vector<obs::MetricsPart> ShardRouter::metric_parts(
    const obs::Labels& labels) {
  for (const auto& shard : shards_) shard->refresh_gauges();
  std::vector<obs::MetricsPart> parts{{labels, metrics()}};
  if (shards_.size() == 1) return parts;
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    obs::Labels shard_labels = labels;
    shard_labels.emplace_back("shard", std::to_string(i));
    parts.push_back({std::move(shard_labels), shards_[i]->metrics()});
  }
  return parts;
}

void ShardRouter::set_tracer(obs::Tracer* tracer) {
  tracer_ = tracer;
  for (const auto& shard : shards_) shard->set_tracer(tracer);
  if (workers_ != nullptr && tracer != nullptr) {
    // Name each worker thread in the trace timeline.
    run_on_shards([tracer](std::size_t i) {
      tracer->set_thread_name("shard_" + std::to_string(i));
    });
  }
}

void ShardRouter::set_restore_workers(std::size_t workers) {
  for (const auto& shard : shards_) shard->set_restore_workers(workers);
}

void ShardRouter::set_read_ahead(std::size_t depth, std::size_t in_flight) {
  set_restore_workers(depth == 0 ? 1 : in_flight);
}

}  // namespace hds
