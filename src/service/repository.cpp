#include "service/repository.h"

#include <algorithm>

#include "chunking/chunk_stream.h"
#include "chunking/parallel_chunk.h"
#include "chunking/tttd.h"
#include "obs/trace.h"
#include "storage/durable.h"
#include "storage/manifest.h"

namespace hds {

namespace fs = std::filesystem;

namespace {

constexpr const char* kCatalogFile = "catalog.hds";

std::vector<std::uint8_t> read_file(const fs::path& path) {
  auto bytes = durable::read_file(path);
  if (!bytes) throw RepositoryError("cannot read " + path.string());
  return std::move(*bytes);
}

}  // namespace

bool Repository::exists(const fs::path& dir) {
  std::error_code ec;
  return ShardRouter::detect_shards(dir) != 0 ||
         fs::exists(dir / Manifest::kFileName, ec);
}

std::unique_ptr<Repository> Repository::create(
    const ShardRouterConfig& config) {
  const fs::path& dir = config.base.storage_dir;
  if (exists(dir)) throw RepositoryError("repository already exists");
  fs::create_directories(dir);
  auto lock = std::make_unique<durable::DirectoryLock>(dir);
  auto sys = std::make_unique<ShardRouter>(config);
  sys->save(dir);
  return std::unique_ptr<Repository>(
      new Repository(dir, std::move(sys), std::move(lock)));
}

std::unique_ptr<Repository> Repository::open(const fs::path& dir,
                                             std::size_t expected_shards,
                                             RecoveryReport* report,
                                             OpenMode mode) {
  RecoveryReport local;
  RecoveryReport& rep = report != nullptr ? *report : local;
  // The writer locks before recovery looks at anything: what recovery
  // would repair may be another writer's staged save. A directory that
  // holds no repository gets no lock file.
  std::unique_ptr<durable::DirectoryLock> lock;
  if (mode == OpenMode::kRepair && exists(dir)) {
    lock = std::make_unique<durable::DirectoryLock>(dir);
  }
  auto sys = ShardRouter::open(dir, expected_shards, &rep, mode);
  // A reader racing a writer's commit may find the file the MANIFEST named
  // already superseded; a second look finds its successor.
  for (int retry = 0; sys == nullptr && lock == nullptr && retry < 3 &&
                      durable::DirectoryLock::held(dir);
       ++retry) {
    sys = ShardRouter::open(dir, expected_shards, &rep, mode);
  }
  if (sys == nullptr) return nullptr;
  auto repo = std::unique_ptr<Repository>(
      new Repository(dir, std::move(sys), std::move(lock)));
  // Recovery may have rolled the store back past cataloged versions.
  if (rep.performed && mode == OpenMode::kRepair && repo->drop_unretained()) {
    repo->write_catalog();
  }
  return repo;
}

void Repository::require_writer() const {
  if (lock_ == nullptr) {
    throw RepositoryError("repository opened read-only: " + dir_.string());
  }
}

std::vector<std::uint8_t> Repository::snapshot(
    const fs::path& source, std::vector<CatalogEntry>* files) {
  if (fs::is_regular_file(source)) {
    auto bytes = read_file(source);
    if (files != nullptr) files->push_back({source.string(), 0, bytes.size()});
    return bytes;
  }
  if (!fs::is_directory(source)) {
    throw RepositoryError("no such file or directory: " + source.string());
  }
  std::vector<fs::path> paths;
  for (const auto& entry : fs::recursive_directory_iterator(source)) {
    if (entry.is_regular_file()) paths.push_back(entry.path());
  }
  std::sort(paths.begin(), paths.end());
  std::vector<std::uint8_t> stream;
  for (const auto& path : paths) {
    const std::string header =
        path.string() + "\n" + std::to_string(fs::file_size(path)) + "\n";
    stream.insert(stream.end(), header.begin(), header.end());
    const auto bytes = read_file(path);
    if (files != nullptr) {
      files->push_back({fs::relative(path, source).string(), stream.size(),
                        bytes.size()});
    }
    stream.insert(stream.end(), bytes.begin(), bytes.end());
  }
  return stream;
}

BackupReport Repository::backup(const fs::path& source, std::size_t threads) {
  std::vector<CatalogEntry> files;
  obs::Span span(tracer_, "snapshot_source");
  const auto data = snapshot(source, &files);
  span.end();
  return commit_backup(data, std::move(files), threads);
}

BackupReport Repository::backup(std::span<const std::uint8_t> data,
                                const std::string& label) {
  return commit_backup(
      data, {{label.empty() ? std::string("data") : label, 0, data.size()}},
      0);
}

BackupReport Repository::commit_backup(std::span<const std::uint8_t> data,
                                       std::vector<CatalogEntry> files,
                                       std::size_t threads) {
  require_writer();
  const TttdChunker chunker;
  obs::Span span(tracer_, "chunking");
  VersionStream stream;
  if (threads > 1) {
    ParallelChunkConfig config;
    config.threads = threads;
    config.metrics = &sys_->metrics();
    config.tracer = tracer_;
    stream = ParallelChunkPipeline(chunker, config).run(data);
  } else {
    stream = chunk_bytes(chunker, data);
  }
  span.end();
  const BackupReport report = sys_->backup(stream);
  drop_unretained();
  catalog().add_version(report.version, std::move(files));
  // Catalog first, then the state commit that makes the version durable:
  // a crash in between leaves an entry recovery trims, never a committed
  // version without its catalog.
  write_catalog();
  sys_->save(dir_);
  return report;
}

bool Repository::retains(VersionId version) const noexcept {
  return version >= 1 && version >= sys_->oldest_version() &&
         version <= sys_->latest_version();
}

void Repository::require_retained(VersionId version) const {
  if (!retains(version)) {
    throw RepositoryError("no such version: " + std::to_string(version));
  }
}

RestoreReport Repository::restore(VersionId version, const ChunkSink& sink) {
  require_retained(version);
  return sys_->restore(version, sink);
}

CatalogEntry Repository::find_file(VersionId version, std::string_view path) {
  require_retained(version);
  const auto entry = catalog().find(version, path);
  if (!entry) {
    throw RepositoryError(std::string(path) + " not in version " +
                          std::to_string(version));
  }
  return *entry;
}

RestoreReport Repository::restore_file(VersionId version,
                                       const CatalogEntry& entry,
                                       const ChunkSink& sink) {
  require_retained(version);
  std::uint64_t delivered = 0;
  RestoreReport report = sys_->restore_range(
      version, entry.offset, entry.length,
      [&](const ChunkLoc& loc, std::span<const std::uint8_t> bytes) {
        delivered += bytes.size();
        sink(loc, bytes);
      });
  if (delivered != entry.length) {
    throw RepositoryError("restored " + std::to_string(delivered) + " of " +
                          std::to_string(entry.length) + " bytes of " +
                          entry.path);
  }
  report.stats.restored_bytes = delivered;
  return report;
}

DeletionReport Repository::expire(VersionId upto) {
  require_writer();
  const DeletionReport report = sys_->delete_versions_up_to(upto);
  sys_->save(dir_);
  if (drop_unretained()) write_catalog();
  return report;
}

std::size_t Repository::flatten() {
  require_writer();
  const std::size_t updated = sys_->flatten_recipes();
  sys_->save(dir_);
  return updated;
}

std::vector<VersionId> Repository::versions() const {
  return sys_->versions();
}

const std::vector<CatalogEntry>* Repository::files(VersionId version) {
  return retains(version) ? catalog().files(version) : nullptr;
}

std::uint64_t Repository::retained_bytes() const {
  std::uint64_t total = 0;
  for (const VersionId v : sys_->versions()) {
    total += sys_->version_logical_bytes(v);
  }
  return total;
}

std::vector<obs::OpProfile> Repository::recent_profiles() const {
  std::vector<obs::OpProfile> out;
  const std::size_t shards = sys_->shard_count();
  for (std::size_t i = 0; i < shards; ++i) {
    for (obs::OpProfile& op : sys_->shard(i).profiler().recent()) {
      if (shards > 1) op.shard = static_cast<int>(i);
      out.push_back(std::move(op));
    }
  }
  return out;
}

void Repository::set_tracer(obs::Tracer* tracer) {
  tracer_ = tracer;
  sys_->set_tracer(tracer);
}

FileCatalog& Repository::catalog() {
  if (!catalog_.has_value()) {
    // A missing or unparseable catalog reads as empty; one that cannot be
    // read (an I/O error, a directory in its place) throws RepositoryError.
    std::error_code ec;
    std::optional<FileCatalog> parsed;
    if (fs::exists(dir_ / kCatalogFile, ec)) {
      parsed = FileCatalog::deserialize(read_file(dir_ / kCatalogFile));
    }
    catalog_ = parsed ? std::move(*parsed) : FileCatalog{};
  }
  return *catalog_;
}

bool Repository::drop_unretained() {
  bool changed = false;
  FileCatalog& c = catalog();
  for (const VersionId v : c.versions()) {
    if (!retains(v)) changed = c.erase_version(v) || changed;
  }
  return changed;
}

void Repository::write_catalog() {
  durable::atomic_write_file(dir_ / kCatalogFile, catalog().serialize());
}

}  // namespace hds
