// Repository facade (src/service/repository.h) over a real temp directory
// tree: create, three backups, list, files, restore, restore-file, expire
// and reopen, plus the catalog and retention rules it owns — the catalog
// is trimmed after expire, restores of versions the store no longer
// retains fail before the first byte, empty versions restore,
// single-file restores check the delivered length, create never
// writes over an existing repository, and recent_profiles() covers every
// shard.
//
// HDS_SHARDS=<n> sets the shard count (default 1, the legacy layout), so
// CI's HDS_SHARDS=4 replay covers the sharded layout too.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "backup/catalog.h"
#include "common/rng.h"
#include "service/repository.h"
#include "storage/durable.h"

#include "util/env_shards.h"
#include "util/temp_dir.h"

namespace hds {
namespace {

namespace fs = std::filesystem;

using testutil::TempDir;

std::size_t env_shards() { return testutil::env_shards(1); }

ShardRouterConfig repo_config(const fs::path& dir) {
  ShardRouterConfig config;
  config.shards = env_shards();
  config.base.container_size = 128 * 1024;
  config.base.storage_dir = dir;
  return config;
}

std::string random_text(std::uint64_t seed, std::size_t size) {
  std::string bytes(size, '\0');
  Xoshiro256ss rng(seed);
  for (auto& b : bytes) b = static_cast<char>(rng.next());
  return bytes;
}

void write_file(const fs::path& path, const std::string& bytes) {
  fs::create_directories(path.parent_path());
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << bytes;
}

std::string read_text(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in),
          std::istreambuf_iterator<char>()};
}

std::string as_text(const std::vector<std::uint8_t>& bytes) {
  return {bytes.begin(), bytes.end()};
}

std::string restore_text(Repository& repo, VersionId version) {
  std::string out;
  (void)repo.restore(version, [&out](const ChunkLoc&,
                                     std::span<const std::uint8_t> bytes) {
    out.append(bytes.begin(), bytes.end());
  });
  return out;
}

std::string restore_file_text(Repository& repo, VersionId version,
                              std::string_view path) {
  std::string out;
  const auto report = repo.restore_file(
      version, repo.find_file(version, path),
      [&out](const ChunkLoc&, std::span<const std::uint8_t> bytes) {
        out.append(bytes.begin(), bytes.end());
      });
  EXPECT_EQ(report.stats.restored_bytes, out.size());
  return out;
}

// A source tree of three files; each version rewrites one of them.
struct SourceTree {
  fs::path root;
  std::vector<std::string> snapshots;  // serialized stream per version
  std::vector<std::string> b_bytes;    // sub/b.bin per version

  void make_version(std::uint64_t v) {
    write_file(root / "a.bin", random_text(1, 150000 + 1000 * v));
    b_bytes.push_back(random_text(100 + v, 70000));
    write_file(root / "sub" / "b.bin", b_bytes.back());
    write_file(root / "sub" / "c.txt", "version " + std::to_string(v));
    snapshots.push_back(as_text(Repository::snapshot(root)));
  }
};

TEST(Repository, RoundTripOverDirectoryTree) {
  TempDir repo_dir("repo_roundtrip");
  TempDir source_dir("repo_roundtrip_src");
  SourceTree tree{source_dir.path, {}, {}};

  auto repo = Repository::create(repo_config(repo_dir.path));
  ASSERT_NE(repo, nullptr);
  for (std::uint64_t v = 1; v <= 3; ++v) {
    tree.make_version(v);
    const auto report = repo->backup(tree.root, v == 2 ? 4 : 0);
    EXPECT_EQ(report.version, v);
    EXPECT_EQ(report.logical_bytes, tree.snapshots.back().size());
  }
  EXPECT_EQ(repo->versions(), (std::vector<VersionId>{1, 2, 3}));

  const auto* files = repo->files(2);
  ASSERT_NE(files, nullptr);
  ASSERT_EQ(files->size(), 3u);
  EXPECT_EQ((*files)[1].path, (fs::path("sub") / "b.bin").string());
  EXPECT_EQ((*files)[1].length, 70000u);

  for (VersionId v = 1; v <= 3; ++v) {
    EXPECT_EQ(restore_text(*repo, v), tree.snapshots[v - 1]) << "version " << v;
  }
  EXPECT_EQ(restore_file_text(*repo, 2, "sub/b.bin"), tree.b_bytes[1]);

  // Expire v1: the catalog is trimmed with the versions.
  const auto deletion = repo->expire(1);
  EXPECT_EQ(deletion.versions_deleted, 1u);
  EXPECT_EQ(repo->versions(), (std::vector<VersionId>{2, 3}));
  EXPECT_EQ(repo->files(1), nullptr);

  // Reopen: everything above is durable, and the catalog on disk holds
  // exactly the retained versions.
  repo.reset();
  RecoveryReport recovery;
  repo = Repository::open(repo_dir.path, 0, &recovery);
  ASSERT_NE(repo, nullptr);
  EXPECT_FALSE(recovery.performed) << recovery.to_text();
  EXPECT_EQ(repo->router().shard_count(), env_shards());
  EXPECT_EQ(repo->versions(), (std::vector<VersionId>{2, 3}));
  const std::string catalog_bytes = read_text(repo_dir.path / "catalog.hds");
  const auto catalog = FileCatalog::deserialize(std::vector<std::uint8_t>(
      catalog_bytes.begin(), catalog_bytes.end()));
  ASSERT_TRUE(catalog.has_value());
  EXPECT_EQ(catalog->versions(), (std::vector<VersionId>{2, 3}));
  EXPECT_EQ(restore_text(*repo, 3), tree.snapshots[2]);
  EXPECT_EQ(restore_file_text(*repo, 3, "sub/c.txt"), "version 3");
}

TEST(Repository, ExpiredVersionsFailBeforeTheFirstByte) {
  TempDir repo_dir("repo_expired");
  TempDir source_dir("repo_expired_src");
  write_file(source_dir.path / "a.bin", random_text(7, 300000));
  auto repo = Repository::create(repo_config(repo_dir.path));
  for (int i = 0; i < 4; ++i) (void)repo->backup(source_dir.path);
  (void)repo->expire(3);

  EXPECT_EQ(repo->files(3), nullptr);
  EXPECT_THROW(repo->require_retained(3), RepositoryError);
  EXPECT_THROW((void)repo->find_file(3, "a.bin"), RepositoryError);
  EXPECT_THROW((void)repo->find_file(4, "b.bin"), RepositoryError);
  bool called = false;
  const ChunkSink sink = [&called](const ChunkLoc&,
                                   std::span<const std::uint8_t>) {
    called = true;
  };
  EXPECT_THROW((void)repo->restore(3, sink), RepositoryError);
  EXPECT_THROW((void)repo->restore(9, sink), RepositoryError);
  EXPECT_THROW((void)repo->restore_file(3, {"a.bin", 0, 300000}, sink),
               RepositoryError);
  EXPECT_FALSE(called);
  EXPECT_EQ(restore_file_text(*repo, 4, "a.bin").size(), 300000u);
}

TEST(Repository, EmptyVersionsRestore) {
  TempDir repo_dir("repo_empty");
  TempDir source_dir("repo_empty_src");
  fs::create_directories(source_dir.path / "dir");
  write_file(source_dir.path / "empty.bin", "");
  auto repo = Repository::create(repo_config(repo_dir.path));
  EXPECT_EQ(repo->backup(source_dir.path / "dir").logical_bytes, 0u);
  EXPECT_EQ(repo->backup(source_dir.path / "empty.bin").logical_bytes, 0u);
  EXPECT_EQ(repo->versions(), (std::vector<VersionId>{1, 2}));
  for (VersionId v = 1; v <= 2; ++v) {
    EXPECT_EQ(restore_text(*repo, v), "") << "version " << v;
  }
  EXPECT_EQ(
      restore_file_text(*repo, 2, (source_dir.path / "empty.bin").string()),
      "");
}

TEST(Repository, RestoreFileChecksTheDeliveredLength) {
  TempDir repo_dir("repo_short");
  TempDir source_dir("repo_short_src");
  write_file(source_dir.path / "a.bin", random_text(9, 50000));
  {
    auto repo = Repository::create(repo_config(repo_dir.path));
    (void)repo->backup(source_dir.path / "a.bin");
  }
  // A catalog entry reaching past the end of its version's stream.
  FileCatalog catalog;
  catalog.add_version(1, {{"a.bin", 40000, 20000}});
  durable::atomic_write_file(repo_dir.path / "catalog.hds",
                             catalog.serialize());
  auto repo = Repository::open(repo_dir.path);
  ASSERT_NE(repo, nullptr);
  try {
    (void)restore_file_text(*repo, 1, "a.bin");
    ADD_FAILURE() << "a short single-file restore must fail";
  } catch (const RepositoryError& e) {
    EXPECT_NE(std::string(e.what()).find("restored 10000 of 20000 bytes"),
              std::string::npos)
        << e.what();
  }
}

TEST(Repository, CreateNeverWritesOverARepository) {
  TempDir repo_dir("repo_create");
  TempDir source_dir("repo_create_src");
  write_file(source_dir.path / "a.bin", random_text(11, 20000));
  {
    auto repo = Repository::create(repo_config(repo_dir.path));
    (void)repo->backup(source_dir.path);
  }
  EXPECT_TRUE(Repository::exists(repo_dir.path));
  EXPECT_THROW((void)Repository::create(repo_config(repo_dir.path)),
               RepositoryError);
  auto config = repo_config(repo_dir.path);
  config.shards = config.shards == 1 ? 2 : 1;
  EXPECT_THROW((void)Repository::create(config), RepositoryError);
  // A mismatched open throws without touching anything either.
  EXPECT_THROW((void)Repository::open(repo_dir.path, config.shards),
               ShardMismatchError);
  auto repo = Repository::open(repo_dir.path);
  ASSERT_NE(repo, nullptr);
  EXPECT_EQ(repo->versions(), (std::vector<VersionId>{1}));
}

TEST(Repository, SnapshotSerializesPathAndSizeHeaders) {
  TempDir source_dir("repo_snapshot");
  write_file(source_dir.path / "b", "xyz");
  write_file(source_dir.path / "a" / "c", "hello");
  std::vector<CatalogEntry> files;
  const auto stream = as_text(Repository::snapshot(source_dir.path, &files));
  const std::string c_header =
      (source_dir.path / "a" / "c").string() + "\n5\n";
  const std::string b_header = (source_dir.path / "b").string() + "\n3\n";
  EXPECT_EQ(stream, c_header + "hello" + b_header + "xyz");
  ASSERT_EQ(files.size(), 2u);
  EXPECT_EQ(files[0].path, (fs::path("a") / "c").string());
  EXPECT_EQ(files[0].offset, c_header.size());
  EXPECT_EQ(files[0].length, 5u);
  EXPECT_EQ(files[1].path, "b");
  EXPECT_EQ(files[1].offset, c_header.size() + 5 + b_header.size());

  // A single file serializes as its bytes, cataloged under its own path.
  files.clear();
  EXPECT_EQ(as_text(Repository::snapshot(source_dir.path / "b", &files)),
            "xyz");
  ASSERT_EQ(files.size(), 1u);
  EXPECT_EQ(files[0].path, (source_dir.path / "b").string());
  EXPECT_THROW((void)Repository::snapshot(source_dir.path / "missing"),
               RepositoryError);
}

TEST(Repository, RecentProfilesCoverEveryShard) {
  TempDir dir("repo_profiles");
  ShardRouterConfig config = repo_config(dir.path);
  config.shards = 4;
  auto repo = Repository::create(config);
  const std::string bytes = random_text(11, 1 << 20);
  const auto report = repo->backup(
      std::span(reinterpret_cast<const std::uint8_t*>(bytes.data()),
                bytes.size()),
      "data");

  std::vector<int> backups_per_shard(config.shards, 0);
  std::uint64_t chunks = 0;
  for (const auto& op : repo->recent_profiles()) {
    if (op.kind != "backup") continue;
    ASSERT_GE(op.shard, 0);
    ASSERT_LT(op.shard, 4);
    ++backups_per_shard[static_cast<std::size_t>(op.shard)];
    chunks += op.chunks;
    EXPECT_NE(op.to_json().find("\"shard\": " + std::to_string(op.shard)),
              std::string::npos);
  }
  EXPECT_EQ(backups_per_shard, std::vector<int>(config.shards, 1));
  EXPECT_EQ(chunks, repo->router().version_chunk_count(report.version));
  EXPECT_EQ(chunks, report.logical_chunks);
}

}  // namespace
}  // namespace hds
