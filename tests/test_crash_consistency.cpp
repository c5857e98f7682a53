// Crash-consistency proving ground (DESIGN.md §9): a 5-version backup run
// is crashed at EVERY write/fsync/rename site the durable layer exposes,
// the repository is reopened, and recovery must land on exactly the last
// committed version — bit-identical restore, fsck clean, and a second open
// finding nothing left to repair. Plus: full-disk simulation (persistent
// write failure reported, store not corrupted) and unit coverage for the
// atomic writer and the MANIFEST journal.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <limits>
#include <vector>

#include "core/hidestore.h"
#include "storage/durable.h"
#include "storage/manifest.h"
#include "verify/fsck.h"
#include "workload/generator.h"

#include "util/temp_dir.h"

namespace hds {
namespace {

namespace fs = std::filesystem;

using hds::testutil::TempDir;

std::vector<VersionStream> generate(std::uint32_t versions,
                                    std::size_t chunks) {
  auto p = WorkloadProfile::kernel();
  p.versions = versions;
  p.chunks_per_version = chunks;
  VersionChainGenerator gen(p);
  std::vector<VersionStream> out;
  for (std::uint32_t v = 0; v < versions; ++v) {
    out.push_back(gen.next_version());
  }
  return out;
}

// Small containers so every backup seals a few archival containers — each
// sealing is 5 more crash sites for the matrix to hit.
HiDeStoreConfig repo_config(const fs::path& dir) {
  HiDeStoreConfig config;
  config.container_size = 128 * 1024;
  config.storage_dir = dir;
  return config;
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

// Backs up and saves `versions` into `dir` with the injector armed at
// `step`. Returns how many saves committed before the simulated crash (all
// of them if the step was never reached). The directory is abandoned
// exactly as the crash left it.
std::size_t run_until_crash(const fs::path& dir,
                            const std::vector<VersionStream>& versions,
                            std::uint64_t step) {
  durable::CrashInjector::arm(step, durable::FaultMode::kThrow);
  std::size_t committed = 0;
  try {
    HiDeStore sys(repo_config(dir));
    for (const auto& vs : versions) {
      (void)sys.backup(vs);
      sys.save(dir);
      ++committed;
    }
  } catch (const durable::InjectedCrash&) {
    // The simulated kill. Nothing is cleaned up, like a real dead process.
  }
  durable::CrashInjector::disarm();
  return committed;
}

// --- The crash matrix ---

TEST(CrashMatrix, EveryWriteSiteRecoversToLastCommittedVersion) {
  const auto versions = generate(5, 120);

  // Dry run with an unreachable trigger to count the sites.
  std::uint64_t total_sites = 0;
  {
    TempDir dir("hds_crash_dry");
    const auto all = run_until_crash(
        dir.path, versions, std::numeric_limits<std::uint64_t>::max());
    ASSERT_EQ(all, versions.size());
    total_sites = durable::CrashInjector::steps();
  }
  // 5 sites per atomic file (state, MANIFEST, each sealed container): a
  // non-trivial matrix or the harness is broken.
  ASSERT_GT(total_sites, 50u);

  for (std::uint64_t step = 1; step <= total_sites; ++step) {
    TempDir dir("hds_crash_matrix");
    const std::size_t committed = run_until_crash(dir.path, versions, step);
    ASSERT_LT(committed, versions.size()) << "step " << step;

    RecoveryReport report;
    auto sys = HiDeStore::open(dir.path, &report);
    if (sys == nullptr) {
      // Only acceptable when the crash predates the very first commit.
      EXPECT_EQ(committed, 0u) << "step " << step;
      continue;
    }

    // Recovery lands on the last committed version — or one newer, when
    // the crash hit after the MANIFEST rename (the commit point) but
    // before save() returned.
    const VersionId latest = sys->latest_version();
    EXPECT_GE(latest, committed) << "step " << step;
    EXPECT_LE(latest, committed + 1) << "step " << step;
    EXPECT_EQ(report.committed_version, latest) << "step " << step;
    ASSERT_GT(latest, 0u) << "step " << step;
    expect_exact_restore(*sys, latest, versions[latest - 1]);

    const auto fsck = verify::run_fsck(*sys);
    EXPECT_TRUE(fsck.clean())
        << "step " << step << "\n"
        << fsck.to_text() << report.to_text();

    // Recovery converges: a second open finds nothing left to repair.
    RecoveryReport second;
    auto again = HiDeStore::open(dir.path, &second);
    ASSERT_NE(again, nullptr) << "step " << step;
    EXPECT_FALSE(second.performed)
        << "step " << step << "\n"
        << second.to_text();
    EXPECT_EQ(again->latest_version(), latest) << "step " << step;
  }
}

// A save that changes nothing stages a state file of the committed one's
// size, and every state file has the same whole-file CRC (it ends in its
// own CRC), so only the epoch in its header tells the two apart. Crashed
// anywhere before the MANIFEST rename, the save must roll back to the
// committed epoch; crashed after it, the new epoch is committed.
TEST(CrashMatrix, UnchangedSaveCrashedBeforeCommitRollsBack) {
  const auto versions = generate(2, 120);
  const auto run = [&](const fs::path& dir, std::uint64_t step) {
    durable::CrashInjector::arm(step, durable::FaultMode::kThrow);
    std::uint64_t first_save_sites = 0;
    try {
      HiDeStore sys(repo_config(dir));
      for (const auto& vs : versions) (void)sys.backup(vs);
      sys.save(dir);
      first_save_sites = durable::CrashInjector::steps();
      sys.save(dir);  // nothing changed since the first save
    } catch (const durable::InjectedCrash&) {
    }
    durable::CrashInjector::disarm();
    return first_save_sites;
  };

  std::uint64_t first = 0;
  std::uint64_t total = 0;
  {
    TempDir dir("hds_crash_unchanged_dry");
    first = run(dir.path, std::numeric_limits<std::uint64_t>::max());
    total = durable::CrashInjector::steps();
  }
  ASSERT_GT(total, first);

  std::size_t rolled_back = 0;
  for (std::uint64_t step = first + 1; step <= total; ++step) {
    TempDir dir("hds_crash_unchanged");
    (void)run(dir.path, step);
    Manifest manifest;
    ASSERT_EQ(load_manifest(dir.path, manifest), ManifestStatus::kOk);
    ASSERT_NE(manifest.head(), nullptr);
    const std::uint64_t committed = manifest.head()->epoch;

    RecoveryReport report;
    auto sys = HiDeStore::open(dir.path, &report);
    ASSERT_NE(sys, nullptr) << "step " << step;
    EXPECT_EQ(sys->epoch(), committed) << "step " << step << "\n"
                                       << report.to_text();
    if (committed == 1) ++rolled_back;
    EXPECT_EQ(sys->latest_version(), versions.size()) << "step " << step;
    expect_exact_restore(*sys, sys->latest_version(), versions.back());
    const auto fsck = verify::run_fsck(*sys);
    EXPECT_TRUE(fsck.clean()) << "step " << step << "\n" << fsck.to_text();

    RecoveryReport second;
    auto again = HiDeStore::open(dir.path, &second);
    ASSERT_NE(again, nullptr) << "step " << step;
    EXPECT_FALSE(second.performed) << "step " << step << "\n"
                                   << second.to_text();
    EXPECT_EQ(again->epoch(), committed) << "step " << step;
  }
  EXPECT_GT(rolled_back, 0u);  // some crash landed before the commit point
}

// --- Full-disk simulation (persistent write failure, process survives) ---

TEST(FullDisk, FailedSaveIsReportedAndRetrySucceeds) {
  TempDir dir("hds_fulldisk_retry");
  const auto versions = generate(2, 120);
  HiDeStore sys(repo_config(dir.path));
  (void)sys.backup(versions[0]);
  sys.save(dir.path);
  (void)sys.backup(versions[1]);

  durable::CrashInjector::arm(2, durable::FaultMode::kFail);
  EXPECT_THROW(sys.save(dir.path), durable::WriteError);
  durable::CrashInjector::disarm();

  // The failure is an error, not corruption: the in-memory system still
  // serves version 2, and the retry commits it.
  expect_exact_restore(sys, 2, versions[1]);
  sys.save(dir.path);
  RecoveryReport report;
  auto reopened = HiDeStore::open(dir.path, &report);
  ASSERT_NE(reopened, nullptr);
  EXPECT_EQ(reopened->latest_version(), 2u);
  expect_exact_restore(*reopened, 2, versions[1]);
  EXPECT_TRUE(verify::run_fsck(*reopened).clean());
}

TEST(FullDisk, FailedSaveLeavesPriorCommitRestorable) {
  TempDir dir("hds_fulldisk_rollback");
  const auto versions = generate(2, 120);
  {
    HiDeStore sys(repo_config(dir.path));
    (void)sys.backup(versions[0]);
    sys.save(dir.path);
    (void)sys.backup(versions[1]);
    durable::CrashInjector::arm(1, durable::FaultMode::kFail);
    EXPECT_THROW(sys.save(dir.path), durable::WriteError);
    durable::CrashInjector::disarm();
  }
  // On disk only version 1 ever committed; version 2's sealed containers
  // are orphans of the aborted commit and get quarantined.
  RecoveryReport report;
  auto sys = HiDeStore::open(dir.path, &report);
  ASSERT_NE(sys, nullptr);
  EXPECT_EQ(sys->latest_version(), 1u);
  expect_exact_restore(*sys, 1, versions[0]);
  const auto fsck = verify::run_fsck(*sys);
  EXPECT_TRUE(fsck.clean()) << fsck.to_text();
}

// --- AtomicFileWriter units ---

TEST(AtomicFileWriter, CommitPublishesExactBytes) {
  TempDir dir("hds_awriter_commit");
  fs::create_directories(dir.path);
  const auto path = dir.path / "blob";
  const std::string payload = "hello, durable world";
  durable::atomic_write_file(path, std::string_view(payload));
  std::ifstream in(path, std::ios::binary);
  std::string got((std::istreambuf_iterator<char>(in)),
                  std::istreambuf_iterator<char>());
  EXPECT_EQ(got, payload);
  EXPECT_FALSE(fs::exists(dir.path / "blob.tmp"));
}

TEST(AtomicFileWriter, UncommittedWriterLeavesNoFile) {
  TempDir dir("hds_awriter_abort");
  fs::create_directories(dir.path);
  const auto path = dir.path / "blob";
  {
    durable::AtomicFileWriter out(path);
    out.write(std::string_view("half-written"));
    // No commit: destructor must clean up the temp file.
  }
  EXPECT_FALSE(fs::exists(path));
  EXPECT_FALSE(fs::exists(dir.path / "blob.tmp"));
}

TEST(AtomicFileWriter, FailedOverwriteKeepsOldContent) {
  TempDir dir("hds_awriter_overwrite");
  fs::create_directories(dir.path);
  const auto path = dir.path / "blob";
  durable::atomic_write_file(path, std::string_view("version one"));
  durable::CrashInjector::arm(1, durable::FaultMode::kFail);
  EXPECT_THROW(
      durable::atomic_write_file(path, std::string_view("version two")),
      durable::WriteError);
  durable::CrashInjector::disarm();
  std::ifstream in(path, std::ios::binary);
  std::string got((std::istreambuf_iterator<char>(in)),
                  std::istreambuf_iterator<char>());
  EXPECT_EQ(got, "version one");
  EXPECT_FALSE(fs::exists(dir.path / "blob.tmp"));
}

TEST(AtomicFileWriter, InjectedCrashLeavesTempDebrisOnly) {
  TempDir dir("hds_awriter_crash");
  fs::create_directories(dir.path);
  const auto path = dir.path / "blob";
  // Crash at the fsync site: the temp file was written but never renamed —
  // exactly what a dead process leaves behind for recovery to sweep.
  durable::CrashInjector::arm(3, durable::FaultMode::kThrow);
  EXPECT_THROW(
      durable::atomic_write_file(path, std::string_view("doomed")),
      durable::InjectedCrash);
  durable::CrashInjector::disarm();
  EXPECT_FALSE(fs::exists(path));
  EXPECT_TRUE(fs::exists(dir.path / "blob.tmp"));
}

TEST(AtomicWriterDeathTest, AbortModeExitsTheProcess) {
  TempDir dir("hds_awriter_death");
  fs::create_directories(dir.path);
  const auto path = (dir.path / "blob").string();
  EXPECT_EXIT(
      {
        durable::CrashInjector::arm(1, durable::FaultMode::kAbort);
        durable::AtomicFileWriter out(path);
      },
      ::testing::ExitedWithCode(86), "");
  durable::CrashInjector::disarm();
}

// --- Manifest units ---

Manifest sample_manifest() {
  Manifest manifest;
  for (std::uint64_t e = 1; e <= 3; ++e) {
    CommitRecord r;
    r.epoch = e;
    r.next_version = static_cast<VersionId>(e + 1);
    r.oldest_version = 1;
    r.store_next = static_cast<ContainerId>(10 * e);
    r.state_size = 1000 + e;
    r.state_crc = static_cast<std::uint32_t>(0xC0FFEE00 + e);
    manifest.append(r);
  }
  return manifest;
}

TEST(Manifest, SerializeRoundTrips) {
  const auto manifest = sample_manifest();
  const auto parsed = Manifest::deserialize(manifest.serialize());
  ASSERT_TRUE(parsed.has_value());
  ASSERT_EQ(parsed->records.size(), 3u);
  ASSERT_NE(parsed->head(), nullptr);
  EXPECT_EQ(parsed->head()->epoch, 3u);
  EXPECT_EQ(parsed->head()->next_version, 4u);
  EXPECT_EQ(parsed->head()->store_next, 30);
  EXPECT_EQ(parsed->head()->state_size, 1003u);
  EXPECT_EQ(parsed->head()->state_crc, 0xC0FFEE03u);
}

TEST(Manifest, RejectsAnyFlippedByte) {
  const auto bytes = sample_manifest().serialize();
  for (std::size_t at : {std::size_t{0}, bytes.size() / 2,
                         bytes.size() - 1}) {
    auto corrupt = bytes;
    corrupt[at] ^= 0x01;
    EXPECT_FALSE(Manifest::deserialize(corrupt).has_value())
        << "byte " << at;
  }
  auto truncated = bytes;
  truncated.resize(bytes.size() / 2);
  EXPECT_FALSE(Manifest::deserialize(truncated).has_value());
}

TEST(Manifest, RejectsNonMonotonicEpochs) {
  Manifest manifest = sample_manifest();
  CommitRecord stale;
  stale.epoch = 2;  // not > head epoch 3
  manifest.records.push_back(stale);
  EXPECT_FALSE(Manifest::deserialize(manifest.serialize()).has_value());
}

TEST(Manifest, AppendPrunesToCap) {
  Manifest manifest;
  for (std::uint64_t e = 1; e <= Manifest::kMaxRecords + 3; ++e) {
    CommitRecord r;
    r.epoch = e;
    manifest.append(r);
  }
  EXPECT_EQ(manifest.records.size(), Manifest::kMaxRecords);
  ASSERT_NE(manifest.head(), nullptr);
  EXPECT_EQ(manifest.head()->epoch, Manifest::kMaxRecords + 3);
  EXPECT_EQ(manifest.records.front().epoch, 4u);
}

TEST(Manifest, LoadReportsMissingVsCorrupt) {
  TempDir dir("hds_manifest_load");
  fs::create_directories(dir.path);
  Manifest out;
  EXPECT_EQ(load_manifest(dir.path, out), ManifestStatus::kMissing);
  store_manifest(dir.path, sample_manifest());
  EXPECT_EQ(load_manifest(dir.path, out), ManifestStatus::kOk);
  EXPECT_EQ(out.records.size(), 3u);
  std::ofstream(dir.path / Manifest::kFileName,
                std::ios::binary | std::ios::trunc)
      << "garbage";
  EXPECT_EQ(load_manifest(dir.path, out), ManifestStatus::kCorrupt);
}

}  // namespace
}  // namespace hds
