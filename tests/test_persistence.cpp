// Tests for HiDeStore save/open: full state round trip, continued backups
// after reload (the rebuilt fingerprint cache must dedup exactly as if the
// process had never exited), corruption rejection, window-2 reloads, and
// the copy-on-write active files (DESIGN.md §9): a save writes only the
// containers a version changed, an open loads none of them, and a state in
// the inline format 3 migrates on a writer's open.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <map>
#include <set>

#include "common/byte_io.h"
#include "core/hidestore.h"
#include "storage/durable.h"
#include "storage/journal.h"
#include "storage/manifest.h"
#include "verify/fsck.h"
#include "workload/generator.h"

#include "util/temp_dir.h"

namespace hds {
namespace {

namespace fs = std::filesystem;

using hds::testutil::TempDir;

std::vector<VersionStream> generate(WorkloadProfile p) {
  VersionChainGenerator gen(p);
  std::vector<VersionStream> out;
  for (std::uint32_t v = 0; v < p.versions; ++v) {
    out.push_back(gen.next_version());
  }
  return out;
}

// A file-backed store rooted at `dir`: only those can save().
HiDeStoreConfig file_config(const fs::path& dir, HiDeStoreConfig config = {}) {
  config.storage_dir = dir;
  return config;
}

WorkloadProfile small_kernel(std::uint32_t versions = 8) {
  auto p = WorkloadProfile::kernel();
  p.versions = versions;
  p.chunks_per_version = 300;
  return p;
}

void expect_exact_restore(HiDeStore& sys, VersionId version,
                          const VersionStream& original) {
  std::size_t at = 0;
  bool ok = true;
  (void)sys.restore(version, [&](const ChunkLoc& loc,
                                 std::span<const std::uint8_t> bytes) {
    if (at < original.chunks.size()) {
      const auto& want = original.chunks[at];
      if (loc.fp != want.fp || bytes.size() != want.size) {
        ok = false;
      } else {
        const auto expect = want.materialize();
        ok &= std::equal(bytes.begin(), bytes.end(), expect.begin());
      }
    }
    ++at;
  });
  EXPECT_EQ(at, original.chunks.size()) << "version " << version;
  EXPECT_TRUE(ok) << "version " << version;
}

TEST(Persistence, SaveLoadRoundTripRestoresEveryVersion) {
  TempDir dir("hds_persist_roundtrip");
  const auto versions = generate(small_kernel());
  {
    HiDeStore sys(file_config(dir.path));
    for (const auto& vs : versions) (void)sys.backup(vs);
    sys.save(dir.path);
  }
  auto sys = HiDeStore::open(dir.path);
  ASSERT_NE(sys, nullptr);
  EXPECT_EQ(sys->latest_version(), versions.size());
  for (std::size_t v = 0; v < versions.size(); ++v) {
    expect_exact_restore(*sys, static_cast<VersionId>(v + 1), versions[v]);
  }
}

TEST(Persistence, BackupsContinueSeamlesslyAfterReload) {
  TempDir dir("hds_persist_continue");
  auto p = small_kernel(12);
  VersionChainGenerator gen(p);
  std::vector<VersionStream> versions;

  // Control: one uninterrupted system.
  HiDeStore control;
  for (int v = 0; v < 12; ++v) versions.push_back(gen.next_version());
  for (const auto& vs : versions) (void)control.backup(vs);

  // Experiment: save after 6 versions, reload, back up the rest.
  {
    HiDeStore sys(file_config(dir.path));
    for (int v = 0; v < 6; ++v) (void)sys.backup(versions[v]);
    sys.save(dir.path);
  }
  auto sys = HiDeStore::open(dir.path);
  ASSERT_NE(sys, nullptr);
  for (int v = 6; v < 12; ++v) (void)sys->backup(versions[v]);

  // The rebuilt cache must have deduplicated exactly like the control: not
  // one extra byte stored.
  EXPECT_EQ(sys->total_stored_bytes(), control.total_stored_bytes());
  EXPECT_EQ(sys->total_logical_bytes(), control.total_logical_bytes());
  for (std::size_t v = 0; v < versions.size(); ++v) {
    expect_exact_restore(*sys, static_cast<VersionId>(v + 1), versions[v]);
  }
}

TEST(Persistence, WindowTwoReloadPreservesSkipChunks) {
  TempDir dir("hds_persist_w2");
  auto p = WorkloadProfile::macos();
  p.versions = 10;
  p.chunks_per_version = 300;
  const auto versions = generate(p);

  HiDeStoreConfig config;
  config.cache_window = 2;
  HiDeStore control(config);
  for (const auto& vs : versions) (void)control.backup(vs);

  {
    HiDeStore sys(file_config(dir.path, config));
    for (int v = 0; v < 5; ++v) (void)sys.backup(versions[v]);
    sys.save(dir.path);
  }
  auto sys = HiDeStore::open(dir.path);
  ASSERT_NE(sys, nullptr);
  for (std::size_t v = 5; v < versions.size(); ++v) {
    (void)sys->backup(versions[v]);
  }
  EXPECT_EQ(sys->total_stored_bytes(), control.total_stored_bytes());
  for (std::size_t v = 0; v < versions.size(); ++v) {
    expect_exact_restore(*sys, static_cast<VersionId>(v + 1), versions[v]);
  }
}

TEST(Persistence, DeletionStateSurvivesReload) {
  TempDir dir("hds_persist_delete");
  const auto versions = generate(small_kernel(10));
  {
    HiDeStore sys(file_config(dir.path));
    for (const auto& vs : versions) (void)sys.backup(vs);
    sys.save(dir.path);
  }
  auto sys = HiDeStore::open(dir.path);
  ASSERT_NE(sys, nullptr);
  const auto report = sys->delete_versions_up_to(4);
  EXPECT_EQ(report.versions_deleted, 4u);
  EXPECT_GT(report.containers_erased, 0u);  // tags survived the reload
  for (std::size_t v = 4; v < versions.size(); ++v) {
    expect_exact_restore(*sys, static_cast<VersionId>(v + 1), versions[v]);
  }
}

TEST(Persistence, LoadRejectsCorruptState) {
  TempDir dir("hds_persist_corrupt");
  const auto versions = generate(small_kernel(3));
  {
    HiDeStore sys(file_config(dir.path));
    for (const auto& vs : versions) (void)sys.backup(vs);
    sys.save(dir.path);
  }
  const auto file = dir.path / "state.1.hds";
  {
    std::fstream f(file, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(64);
    f.write("\xAB", 1);
  }
  EXPECT_EQ(HiDeStore::open(dir.path), nullptr);
}

TEST(Persistence, LoadRejectsMissingAndEmptyState) {
  TempDir dir("hds_persist_missing");
  EXPECT_EQ(HiDeStore::open(dir.path), nullptr);
  fs::create_directories(dir.path);
  std::ofstream(dir.path / "state.1.hds").close();
  EXPECT_EQ(HiDeStore::open(dir.path), nullptr);
}

TEST(Persistence, SaveIsIdempotent) {
  TempDir dir("hds_persist_idempotent");
  const auto versions = generate(small_kernel(4));
  HiDeStore sys(file_config(dir.path));
  for (const auto& vs : versions) (void)sys.backup(vs);
  sys.save(dir.path);
  sys.save(dir.path);  // commits the same state again, at the next epoch
  auto loaded = HiDeStore::open(dir.path);
  ASSERT_NE(loaded, nullptr);
  EXPECT_EQ(loaded->total_stored_bytes(), sys.total_stored_bytes());
}

TEST(Persistence, InMemoryStoreCannotSave) {
  TempDir dir("hds_persist_in_memory");
  HiDeStore sys;
  (void)sys.backup(generate(small_kernel(1))[0]);
  EXPECT_THROW(sys.save(dir.path), std::invalid_argument);
  EXPECT_FALSE(fs::exists(dir.path));
}

// --- ByteWriter/ByteReader unit coverage ---

TEST(ByteIo, RoundTripsAllTypes) {
  ByteWriter writer;
  writer.u8(7);
  writer.u32(0xDEADBEEF);
  writer.u64(0x0123456789ABCDEFULL);
  writer.f64(3.14159);
  writer.blob(std::vector<std::uint8_t>{1, 2, 3});

  ByteReader reader(writer.bytes());
  std::uint8_t a;
  std::uint32_t b;
  std::uint64_t c;
  double d;
  std::vector<std::uint8_t> e;
  ASSERT_TRUE(reader.u8(a));
  ASSERT_TRUE(reader.u32(b));
  ASSERT_TRUE(reader.u64(c));
  ASSERT_TRUE(reader.f64(d));
  ASSERT_TRUE(reader.blob(e));
  EXPECT_TRUE(reader.exhausted());
  EXPECT_EQ(a, 7);
  EXPECT_EQ(b, 0xDEADBEEF);
  EXPECT_EQ(c, 0x0123456789ABCDEFULL);
  EXPECT_DOUBLE_EQ(d, 3.14159);
  EXPECT_EQ(e, (std::vector<std::uint8_t>{1, 2, 3}));
}

TEST(ByteIo, ReaderFailsClosedOnUnderflow) {
  ByteWriter writer;
  writer.u32(1);
  ByteReader reader(writer.bytes());
  std::uint64_t v;
  EXPECT_FALSE(reader.u64(v));
  EXPECT_FALSE(reader.ok());
  std::uint32_t w;
  EXPECT_FALSE(reader.u32(w));  // stays failed
}

// --- Copy-on-write active files ---

// (id, epoch) of every active container file in the repository.
std::set<std::pair<ContainerId, std::uint64_t>> active_files(
    const fs::path& dir) {
  std::set<std::pair<ContainerId, std::uint64_t>> out;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir / "active", ec)) {
    if (const auto named = ActiveContainerPool::parse_file_name(
            entry.path().filename().string())) {
      out.insert(*named);
    }
  }
  return out;
}

std::size_t files_at(const fs::path& dir, std::uint64_t epoch) {
  std::size_t n = 0;
  for (const auto& [id, e] : active_files(dir)) n += e == epoch ? 1 : 0;
  return n;
}

TEST(ActiveFiles, FileNamesParseStrictly) {
  EXPECT_EQ(ActiveContainerPool::file_name(3, 12), "container_3.12.hdsc");
  const auto named = ActiveContainerPool::parse_file_name("container_3.12.hdsc");
  ASSERT_TRUE(named.has_value());
  EXPECT_EQ(*named, (std::pair<ContainerId, std::uint64_t>{3, 12}));
  for (const char* bad :
       {"container_3.hdsc", "container_.1.hdsc", "container_3..hdsc",
        "container_03.1.hdsc", "container_3.01.hdsc", "container_3.1.hdsc.tmp",
        "container_-3.1.hdsc", "container_3.1.2.hdsc",
        "container_2147483648.1.hdsc"}) {
    EXPECT_FALSE(ActiveContainerPool::parse_file_name(bad)) << bad;
  }
}

// The version that adds one chunk to its predecessor changes one active
// container: its save writes that file and the state, nothing else. The
// old file of that container goes at the commit.
TEST(ActiveFiles, OneChunkBackupWritesOnlyTheOpenContainer) {
  TempDir dir("hds_persist_one_chunk");
  auto base = generate(small_kernel(1))[0];
  HiDeStoreConfig config;
  config.container_size = 256 * 1024;
  HiDeStore sys(file_config(dir.path, config));
  (void)sys.backup(base);
  sys.save(dir.path);
  const auto before = active_files(dir.path);
  ASSERT_GT(before.size(), 1u);

  ChunkRecord extra;
  extra.fp = Fingerprint::from_seed(0xC0FFEE);
  extra.size = 1000;
  extra.content_seed = 0xC0FFEE;
  base.chunks.push_back(extra);
  (void)sys.backup(base);
  sys.save(dir.path);

  const ContainerId* open = sys.active_pool().find(extra.fp);
  ASSERT_NE(open, nullptr);
  EXPECT_EQ(files_at(dir.path, 2), 1u);
  EXPECT_TRUE(active_files(dir.path).contains({*open, 2}));
  // Every other container kept its epoch-1 file.
  EXPECT_EQ(active_files(dir.path).size(),
            sys.active_pool().container_count());
  EXPECT_EQ(sys.active_pool().committed_files().size(),
            sys.active_pool().container_count());
  EXPECT_TRUE(verify::run_fsck(sys).clean());
}

// Expiry retires archival containers only: the save that commits it
// writes the state file and no active container.
TEST(ActiveFiles, ExpireWritesNoContainerFile) {
  TempDir dir("hds_persist_expire_files");
  const auto versions = generate(small_kernel(6));
  {
    HiDeStore sys(file_config(dir.path));
    for (const auto& vs : versions) (void)sys.backup(vs);
    sys.save(dir.path);
  }
  auto sys = HiDeStore::open(dir.path);
  ASSERT_NE(sys, nullptr);
  const auto before = active_files(dir.path);
  EXPECT_GT(sys->delete_versions_up_to(3).containers_erased, 0u);
  sys->save(dir.path);
  EXPECT_EQ(active_files(dir.path), before);
  EXPECT_EQ(files_at(dir.path, sys->epoch()), 0u);
  EXPECT_EQ(sys->active_pool().resident_count(), 0u);
}

// Open reads metadata only: no active container loads until a restore
// touches it, and then each loads once.
TEST(ActiveFiles, OpenLoadsNoContainerAndRestoreLoadsEachOnce) {
  TempDir dir("hds_persist_lazy");
  const auto versions = generate(small_kernel(4));
  HiDeStoreConfig config;
  config.container_size = 256 * 1024;
  {
    HiDeStore sys(file_config(dir.path, config));
    for (const auto& vs : versions) (void)sys.backup(vs);
    sys.save(dir.path);
  }
  auto sys = HiDeStore::open(dir.path);
  ASSERT_NE(sys, nullptr);
  const auto& pool = sys->active_pool();
  ASSERT_GT(pool.container_count(), 1u);
  EXPECT_EQ(pool.resident_count(), 0u);
  EXPECT_TRUE(verify::run_fsck(*sys).clean());
  EXPECT_EQ(pool.resident_count(), 0u);  // fsck reads the files itself

  expect_exact_restore(*sys, 4, versions[3]);
  EXPECT_EQ(pool.resident_count(), pool.container_count());
  const auto reads = pool.stats().container_reads.load();
  expect_exact_restore(*sys, 4, versions[3]);
  // Each fetch still counts one read, loaded or not.
  EXPECT_EQ(pool.stats().container_reads.load(), 2 * reads);
}

// A state file names a container whose file is gone: the open reports the
// loss, and the chunks it held fail their restore instead of crashing it.
TEST(ActiveFiles, MissingNamedFileIsReportedAsLoss) {
  TempDir dir("hds_persist_missing_active");
  const auto versions = generate(small_kernel(2));
  {
    HiDeStore sys(file_config(dir.path));
    for (const auto& vs : versions) (void)sys.backup(vs);
    sys.save(dir.path);
  }
  const auto files = active_files(dir.path);
  ASSERT_FALSE(files.empty());
  const auto [id, epoch] = *files.begin();
  fs::remove(dir.path / "active" / ActiveContainerPool::file_name(id, epoch));

  RecoveryReport report;
  auto sys = HiDeStore::open(dir.path, &report);
  ASSERT_NE(sys, nullptr) << report.to_text();
  EXPECT_EQ(report.missing_active, std::vector<ContainerId>{id});
  const auto restored =
      sys->restore(2, [](const ChunkLoc&, std::span<const std::uint8_t>) {});
  EXPECT_GT(restored.stats.failed_chunks, 0u);
  EXPECT_FALSE(verify::run_fsck(*sys).check(verify::Invariant::kActiveFiles)
                   .passed());
}

// Rewrites the committed format-4 state of `dir` as the format-3 file older
// builds wrote — every active container serialized inline, no active/
// directory — from the current files, so no binary fixture is checked in.
// Returns the rewritten file.
fs::path rewrite_as_format3(const fs::path& dir) {
  const auto committed = journal::files(dir, journal::kStateStem);
  EXPECT_EQ(committed.size(), 1u);
  const auto [epoch, path] = *committed.begin();
  const auto sealed = *durable::read_file(path);
  const auto body = *unseal(sealed);
  ByteReader in(body);
  // Fixed header (magic, format, epoch, container size, threshold, window,
  // three flag bytes, version range, two byte totals), tags, recipes.
  std::size_t prefix = 4 + 4 + 8 + 8 + 8 + 4 + 3 + 4 + 4 + 8 + 8;
  std::vector<std::uint8_t> skip(prefix);
  EXPECT_TRUE(in.raw(skip));
  std::uint32_t tags = 0, recipes = 0;
  EXPECT_TRUE(in.u32(tags));
  std::vector<std::uint8_t> tag_bytes(8 * std::size_t{tags});
  EXPECT_TRUE(in.raw(tag_bytes));
  EXPECT_TRUE(in.u32(recipes));
  prefix += 4 + tag_bytes.size() + 4;
  for (std::uint32_t i = 0; i < recipes; ++i) {
    std::vector<std::uint8_t> blob;
    EXPECT_TRUE(in.blob(blob));
    prefix += 4 + blob.size();
  }
  // What follows is the listing, then the archival watermark.
  std::uint32_t next_id = 0, open_id = 0, count = 0;
  EXPECT_TRUE(in.u32(next_id) && in.u32(open_id) && in.u32(count));
  ByteWriter pool;
  pool.u32(next_id);
  pool.u32(open_id);
  pool.u32(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    std::uint32_t id = 0, entries = 0;
    std::uint64_t file_epoch = 0, used = 0;
    EXPECT_TRUE(in.u32(id) && in.u64(file_epoch) && in.u64(used) &&
                in.u32(entries));
    std::vector<std::uint8_t> listed(24 * std::size_t{entries});
    EXPECT_TRUE(in.raw(listed));
    // A container file is Container::serialize() verbatim, as format 3
    // inlined it.
    pool.blob(*durable::read_file(
        dir / "active" / ActiveContainerPool::file_name(
                             static_cast<ContainerId>(id), file_epoch)));
  }
  std::uint32_t store_next = 0;
  EXPECT_TRUE(in.u32(store_next) && in.exhausted());

  ByteWriter out;
  out.raw(body.first(prefix));
  out.blob(pool.bytes());
  out.u32(store_next);
  auto bytes = out.take();
  bytes[4] = 3;  // the format field
  ByteWriter sealed3;
  sealed3.raw(bytes);
  sealed3.seal();
  durable::atomic_write_file(path, sealed3.bytes());
  Manifest manifest;
  EXPECT_EQ(load_manifest(dir, manifest), ManifestStatus::kOk);
  manifest.records.back().state_size = sealed3.bytes().size();
  store_manifest(dir, manifest);
  fs::remove_all(dir / "active");
  return path;
}

std::map<std::string, std::uintmax_t> tree(const fs::path& dir) {
  std::map<std::string, std::uintmax_t> out;
  for (const auto& entry : fs::recursive_directory_iterator(dir)) {
    out[fs::relative(entry.path(), dir).string()] =
        entry.is_regular_file() ? entry.file_size() : 0;
  }
  return out;
}

TEST(ActiveFiles, Format3StateMigratesOnAWritersOpen) {
  TempDir dir("hds_persist_format3");
  const auto versions = generate(small_kernel(5));
  {
    HiDeStore sys(file_config(dir.path));
    for (const auto& vs : versions) {
      (void)sys.backup(vs);
      sys.save(dir.path);
    }
  }
  const fs::path legacy = rewrite_as_format3(dir.path);
  ASSERT_FALSE(fs::exists(dir.path / "active"));

  // A reader opens it in place and moves nothing.
  const auto before = tree(dir.path);
  {
    RecoveryReport report;
    auto reader =
        HiDeStore::open(dir.path, &report, nullptr, OpenMode::kReadOnly);
    ASSERT_NE(reader, nullptr) << report.to_text();
    EXPECT_FALSE(report.performed) << report.to_text();
    EXPECT_EQ(reader->epoch(), 5u);
    for (std::size_t v = 0; v < versions.size(); ++v) {
      expect_exact_restore(*reader, static_cast<VersionId>(v + 1),
                           versions[v]);
    }
  }
  EXPECT_EQ(tree(dir.path), before);

  // A writer migrates it: active files plus a format-4 state, one commit.
  RecoveryReport report;
  auto sys = HiDeStore::open(dir.path, &report);
  ASSERT_NE(sys, nullptr) << report.to_text();
  EXPECT_TRUE(report.performed);
  EXPECT_EQ(sys->epoch(), 6u);
  EXPECT_FALSE(fs::exists(legacy));
  const auto migrated = *durable::read_file(
      dir.path / journal::file_name(journal::kStateStem, 6));
  EXPECT_EQ(migrated[4], 4u);
  EXPECT_EQ(active_files(dir.path).size(),
            sys->active_pool().container_count());
  EXPECT_EQ(files_at(dir.path, 6), sys->active_pool().container_count());
  for (std::size_t v = 0; v < versions.size(); ++v) {
    expect_exact_restore(*sys, static_cast<VersionId>(v + 1), versions[v]);
  }
  EXPECT_TRUE(verify::run_fsck(*sys).clean());
  sys.reset();

  RecoveryReport second;
  auto again = HiDeStore::open(dir.path, &second);
  ASSERT_NE(again, nullptr);
  EXPECT_FALSE(second.performed) << second.to_text();
  EXPECT_EQ(again->active_pool().resident_count(), 0u);
  expect_exact_restore(*again, 5, versions[4]);
}

// FAA's fill workers fetch active containers concurrently while the first
// touch of each one loads it from its file (the TSan leg runs this).
TEST(ActiveFiles, ParallelRestoreLoadsLazilyWithoutRaces) {
  TempDir dir("hds_persist_parallel_lazy");
  HiDeStoreConfig config;
  config.container_size = 64 * 1024;
  const auto versions = generate(small_kernel(3));
  {
    HiDeStore sys(file_config(dir.path, config));
    for (const auto& vs : versions) (void)sys.backup(vs);
    sys.save(dir.path);
  }
  for (int round = 0; round < 3; ++round) {
    auto sys = HiDeStore::open(dir.path);
    ASSERT_NE(sys, nullptr);
    ASSERT_GT(sys->active_pool().container_count(), 4u);
    ASSERT_EQ(sys->active_pool().resident_count(), 0u);
    sys->set_restore_workers(4);
    expect_exact_restore(*sys, 3, versions[2]);
    expect_exact_restore(*sys, 2, versions[1]);
  }
}

}  // namespace
}  // namespace hds
