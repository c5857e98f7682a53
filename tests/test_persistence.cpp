// Tests for HiDeStore save/open: full state round trip, continued backups
// after reload (the rebuilt fingerprint cache must dedup exactly as if the
// process had never exited), corruption rejection, and window-2 reloads.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

#include "common/byte_io.h"
#include "core/hidestore.h"
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

}  // namespace
}  // namespace hds
