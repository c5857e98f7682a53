// Repository — the one entry point to a persistent backup repository
// (DESIGN.md §17). `hds_tool`'s commands and every `serve` tenant run
// through it, so each rule it owns exists once:
//   * the file catalog is `<dir>/catalog.hds`; a backup writes it before
//     the state commit (`ShardRouter::save`), and entries of versions the
//     store no longer retains are dropped after `expire` commits and after
//     recovery rolls back;
//   * a file or directory source is serialized by `snapshot` and chunked
//     with TTTD, serially or on a `ParallelChunkPipeline`;
//   * restores check retention before the first byte, and single-file
//     restores check the delivered length against the catalog;
//   * `create` never writes over an existing repository;
//   * one writer at a time: `create` and a writer's `open` hold an
//     exclusive flock on `<dir>/LOCK` for the object's lifetime, and a
//     second writer fails at once with durable::LockedError ("repository
//     in use"). A reader (OpenMode::kReadOnly) takes no lock, adopts the
//     committed epoch and moves no file, and refuses to back up, expire or
//     flatten (DESIGN.md §9).
// The catalog loads on first use and stays in memory; `versions`,
// `restore` and `router` never read it. Not internally synchronized.
#pragma once

#include <cstdint>
#include <filesystem>
#include <memory>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "backup/catalog.h"
#include "core/shard_router.h"
#include "storage/durable.h"

namespace hds {

// A request the repository cannot serve: an existing repository under
// `create`, a version it does not retain, an uncataloged file, an
// unreadable source. The message is one line fit for an `error:` prefix.
class RepositoryError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

class Repository {
 public:
  // Creates and commits an empty repository at config.base.storage_dir;
  // throws RepositoryError when one exists there.
  static std::unique_ptr<Repository> create(const ShardRouterConfig& config);
  // ShardRouter::open plus the catalog trim after recovery: nullptr when
  // nothing committed is recoverable, ShardMismatchError (with nothing
  // written) when `expected_shards` is nonzero and differs from the
  // recorded count, RepositoryError when recovery acted and the catalog is
  // unreadable, durable::LockedError when another writer holds the lock.
  static std::unique_ptr<Repository> open(
      const std::filesystem::path& dir, std::size_t expected_shards = 0,
      RecoveryReport* report = nullptr, OpenMode mode = OpenMode::kRepair);
  // True when `dir` holds a repository, committed or not, in any layout.
  [[nodiscard]] static bool exists(const std::filesystem::path& dir);

  // A regular file serializes as its bytes; a directory as every regular
  // file in path order, each "<path>\n<size>\n" then its bytes. `files`
  // receives each file's range. Throws RepositoryError on a read failure.
  static std::vector<std::uint8_t> snapshot(
      const std::filesystem::path& source,
      std::vector<CatalogEntry>* files = nullptr);

  // Ingests `source` as the next version and commits it with its catalog.
  BackupReport backup(const std::filesystem::path& source,
                      std::size_t threads = 0);
  // The same for one buffer, cataloged as `label` ("data" when empty).
  BackupReport backup(std::span<const std::uint8_t> data,
                      const std::string& label);

  // Throws RepositoryError unless the store retains `version`.
  void require_retained(VersionId version) const;
  RestoreReport restore(VersionId version, const ChunkSink& sink);
  // The catalog entry of `path` in a retained version, or RepositoryError.
  [[nodiscard]] CatalogEntry find_file(VersionId version,
                                       std::string_view path);
  // Throws RepositoryError unless exactly entry.length bytes arrived.
  RestoreReport restore_file(VersionId version, const CatalogEntry& entry,
                             const ChunkSink& sink);

  // Deletes every version <= `upto`, commits, then trims the catalog.
  DeletionReport expire(VersionId upto);
  // Flattens every recipe chain (Algorithm 1) and commits.
  std::size_t flatten();

  [[nodiscard]] bool retains(VersionId version) const noexcept;
  [[nodiscard]] std::vector<VersionId> versions() const;
  // nullptr unless `version` is retained and cataloged.
  [[nodiscard]] const std::vector<CatalogEntry>* files(VersionId version);
  // Logical bytes across retained versions (the service's quota basis).
  [[nodiscard]] std::uint64_t retained_bytes() const;

  // Every shard's recent operation profiles, shard by shard, oldest first
  // within a shard; multi-shard profiles name their shard.
  [[nodiscard]] std::vector<obs::OpProfile> recent_profiles() const;

  void set_tracer(obs::Tracer* tracer);
  // fsck, stats, tuning and the per-version facade.
  [[nodiscard]] ShardRouter& router() noexcept { return *sys_; }

 private:
  Repository(std::filesystem::path dir, std::unique_ptr<ShardRouter> sys,
             std::unique_ptr<durable::DirectoryLock> lock)
      : dir_(std::move(dir)), sys_(std::move(sys)), lock_(std::move(lock)) {}

  // Throws RepositoryError unless this is the writer.
  void require_writer() const;

  BackupReport commit_backup(std::span<const std::uint8_t> data,
                             std::vector<CatalogEntry> files,
                             std::size_t threads);
  FileCatalog& catalog();
  // Drops entries of versions the store no longer retains; true if any.
  bool drop_unretained();
  void write_catalog();

  std::filesystem::path dir_;
  std::unique_ptr<ShardRouter> sys_;
  // Held for the repository's lifetime by the writer; null for a reader.
  std::unique_ptr<durable::DirectoryLock> lock_;
  std::optional<FileCatalog> catalog_;
  obs::Tracer* tracer_ = nullptr;
};

}  // namespace hds
