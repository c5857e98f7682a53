// Tests for file-backed HiDeStore repositories (config.storage_dir):
// archival containers live as individual on-disk files, reopen resumes IDs,
// deletion erases files, and save() protects the storage-dir invariant.
#include <gtest/gtest.h>

#include <filesystem>
#include <limits>
#include <span>

#include "core/hidestore.h"
#include "restore/faa.h"
#include "verify/fsck.h"
#include "workload/generator.h"

#include "util/temp_dir.h"

namespace hds {
namespace {

namespace fs = std::filesystem;

using hds::testutil::TempDir;

std::vector<VersionStream> generate(std::uint32_t versions) {
  auto p = WorkloadProfile::kernel();
  p.versions = versions;
  p.chunks_per_version = 300;
  VersionChainGenerator gen(p);
  std::vector<VersionStream> out;
  for (std::uint32_t v = 0; v < versions; ++v) {
    out.push_back(gen.next_version());
  }
  return out;
}

std::size_t container_files(const fs::path& dir) {
  if (!fs::is_directory(dir / "archival")) return 0;
  std::size_t n = 0;
  for (const auto& entry : fs::directory_iterator(dir / "archival")) {
    n += entry.path().extension() == ".hdsc";
  }
  return n;
}

TEST(FileBackedRepo, ArchivalContainersAppearAsFiles) {
  TempDir dir("hds_filerepo_files");
  HiDeStoreConfig config;
  config.storage_dir = dir.path;
  HiDeStore sys(config);
  const auto versions = generate(8);
  for (const auto& vs : versions) (void)sys.backup(vs);
  EXPECT_EQ(container_files(dir.path),
            sys.archival_store().container_count());
  EXPECT_GT(container_files(dir.path), 0u);
}

TEST(FileBackedRepo, SaveLoadReopensWithoutInliningContainers) {
  TempDir dir("hds_filerepo_reopen");
  const auto versions = generate(10);
  {
    HiDeStoreConfig config;
    config.storage_dir = dir.path;
    HiDeStore sys(config);
    for (const auto& vs : versions) (void)sys.backup(vs);
    sys.save(dir.path);
  }
  auto sys = HiDeStore::open(dir.path);
  ASSERT_NE(sys, nullptr);
  for (std::size_t v = 0; v < versions.size(); ++v) {
    std::size_t at = 0;
    bool ok = true;
    (void)sys->restore(static_cast<VersionId>(v + 1),
                       [&](const ChunkLoc& loc,
                           std::span<const std::uint8_t> bytes) {
                         const auto& want = versions[v].chunks[at];
                         ok &= loc.fp == want.fp &&
                               bytes.size() == want.size;
                         ++at;
                       });
    EXPECT_EQ(at, versions[v].chunks.size()) << "v" << v + 1;
    EXPECT_TRUE(ok) << "v" << v + 1;
  }
}

TEST(FileBackedRepo, BackupsContinueAfterReopenWithFreshContainerIds) {
  TempDir dir("hds_filerepo_continue");
  auto p = WorkloadProfile::kernel();
  p.versions = 12;
  p.chunks_per_version = 300;
  VersionChainGenerator gen(p);
  std::vector<VersionStream> versions;
  {
    HiDeStoreConfig config;
    config.storage_dir = dir.path;
    HiDeStore sys(config);
    for (int v = 0; v < 6; ++v) {
      versions.push_back(gen.next_version());
      (void)sys.backup(versions.back());
    }
    sys.save(dir.path);
  }
  auto sys = HiDeStore::open(dir.path);
  ASSERT_NE(sys, nullptr);
  for (int v = 6; v < 12; ++v) {
    versions.push_back(gen.next_version());
    (void)sys->backup(versions.back());
  }
  // No ID collisions: every version restores, old and new.
  for (std::size_t v = 0; v < versions.size(); ++v) {
    std::size_t at = 0;
    (void)sys->restore(static_cast<VersionId>(v + 1),
                       [&](const ChunkLoc&, std::span<const std::uint8_t>) {
                         ++at;
                       });
    EXPECT_EQ(at, versions[v].chunks.size()) << "v" << v + 1;
  }
}

TEST(FileBackedRepo, ExpiryDeletesContainerFiles) {
  TempDir dir("hds_filerepo_expire");
  HiDeStoreConfig config;
  config.storage_dir = dir.path;
  HiDeStore sys(config);
  const auto versions = generate(12);
  for (const auto& vs : versions) (void)sys.backup(vs);

  const auto before = container_files(dir.path);
  const auto report = sys.delete_versions_up_to(6);
  EXPECT_GT(report.containers_erased, 0u);
  EXPECT_EQ(container_files(dir.path), before - report.containers_erased);
}

// PR acceptance: a 20-version repository restores old versions through the
// footer-index fast path with strictly fewer device bytes than the logical
// (§5.3) charge, produces byte-identical output with the fast path disabled,
// and stays fsck-clean.
TEST(FileBackedRepo, TwentyVersionRepoRestoresWithPartialReads) {
  TempDir dir("hds_filerepo_io20");
  HiDeStoreConfig config;
  config.storage_dir = dir.path;
  HiDeStore sys(config);
  for (const auto& vs : generate(20)) (void)sys.backup(vs);

  const auto restore_all = [&](VersionId v) {
    RestoreConfig rc;
    FaaRestore policy(rc);
    std::vector<std::uint8_t> out;
    (void)sys.restore_range(
        v, 0, std::numeric_limits<std::uint64_t>::max(), policy,
        [&](const ChunkLoc&, std::span<const std::uint8_t> b) {
          out.insert(out.end(), b.begin(), b.end());
        });
    return out;
  };

  // Fresh caches + counters, then restore the oldest version: its chunks
  // live in archival containers, where the fast path applies.
  sys.set_io_tuning(FileStoreTuning{});
  sys.archival_store().reset_stats();
  const auto v1_fast = restore_all(1);
  ASSERT_FALSE(v1_fast.empty());
  const auto& stats = sys.archival_store().stats();
  EXPECT_GT(stats.container_reads, 0u);
  EXPECT_GT(stats.bytes_read_physical, 0u);
  EXPECT_LT(stats.bytes_read_physical.load(), stats.bytes_read.load());

  const auto latest = sys.latest_version();
  const auto latest_fast = restore_all(latest);
  ASSERT_FALSE(latest_fast.empty());

  // Fast path fully disabled (slurp every read): identical bytes.
  FileStoreTuning strict;
  strict.partial_reads = false;
  strict.block_cache_bytes = 0;
  strict.fd_cache_slots = 0;
  sys.set_io_tuning(strict);
  EXPECT_EQ(restore_all(1), v1_fast);
  EXPECT_EQ(restore_all(latest), latest_fast);

  EXPECT_TRUE(verify::run_fsck(sys).clean());
}

TEST(FileBackedRepo, SaveIntoForeignDirectoryIsRejected) {
  TempDir dir("hds_filerepo_guard");
  TempDir other("hds_filerepo_guard_other");
  HiDeStoreConfig config;
  config.storage_dir = dir.path;
  HiDeStore sys(config);
  (void)sys.backup(generate(1)[0]);
  EXPECT_THROW(sys.save(other.path), std::invalid_argument);
  sys.save(dir.path);  // the right directory still works
}

}  // namespace
}  // namespace hds
