// Failure-injection tests: corrupt or missing on-disk data must degrade a
// restore into counted, bounded damage — never a crash, never silent
// corruption of unrelated chunks. The TornFiles suite covers the reopen
// path: truncated repository files must turn into a counted RecoveryReport
// (rollback, quarantine, journal rebuild), never an exception.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <set>

#include "backup/pipeline.h"
#include "core/hidestore.h"
#include "index/full_index.h"
#include "restore/basic_caches.h"
#include "restore/restorer.h"
#include "storage/manifest.h"
#include "verify/fsck.h"
#include "workload/generator.h"

#include "util/temp_dir.h"

namespace hds {
namespace {

namespace fs = std::filesystem;

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

// A fetcher that simulates a bad disk region: containers in `dead` return
// nullptr.
class FaultyFetcher final : public ContainerFetcher {
 public:
  FaultyFetcher(ContainerStore& store, std::set<ContainerId> dead)
      : store_(store), dead_(std::move(dead)) {}
  std::shared_ptr<const Container> fetch(const ChunkLoc& loc) override {
    if (dead_.contains(loc.cid)) return nullptr;
    return store_.read(loc.cid);
  }

 private:
  ContainerStore& store_;
  std::set<ContainerId> dead_;
};

class FaultyRestoreTest
    : public ::testing::TestWithParam<RestorePolicyKind> {};

TEST_P(FaultyRestoreTest, DeadContainerProducesBoundedCountedDamage) {
  const auto versions = generate(6, 400);
  auto sys = make_baseline(BaselineKind::kDdfs);
  for (const auto& vs : versions) (void)sys->backup(vs);

  // Build the newest version's location stream by hand.
  const Recipe* recipe = sys->recipes().get(6);
  ASSERT_NE(recipe, nullptr);
  std::vector<ChunkLoc> stream;
  for (const auto& e : recipe->entries()) {
    stream.push_back({e.fp, e.size, e.cid, false});
  }

  // Kill the container serving the first chunk.
  const ContainerId victim = stream.front().cid;
  std::size_t victim_chunks = 0;
  for (const auto& loc : stream) victim_chunks += loc.cid == victim;
  FaultyFetcher fetcher(sys->store(), {victim});

  RestoreConfig config;
  auto policy = make_restore_policy(GetParam(), config);
  std::size_t emitted = 0;
  std::size_t empty = 0;
  const auto stats =
      policy->restore(stream, fetcher,
                      [&](const ChunkLoc&, std::span<const std::uint8_t> b) {
                        ++emitted;
                        empty += b.empty();
                      });

  // Every chunk is still delivered (failed ones as empty/zero), the damage
  // is counted, and it is bounded by the dead container's chunk count.
  EXPECT_EQ(emitted, stream.size());
  EXPECT_EQ(stats.restored_chunks, stream.size());
  EXPECT_GE(stats.failed_chunks, 1u);
  EXPECT_LE(stats.failed_chunks, victim_chunks);
  EXPECT_LE(empty, victim_chunks);
}

TEST_P(FaultyRestoreTest, AllContainersDeadStillTerminates) {
  const auto versions = generate(2, 200);
  auto sys = make_baseline(BaselineKind::kDdfs);
  for (const auto& vs : versions) (void)sys->backup(vs);

  const Recipe* recipe = sys->recipes().get(2);
  std::vector<ChunkLoc> stream;
  std::set<ContainerId> all;
  for (const auto& e : recipe->entries()) {
    stream.push_back({e.fp, e.size, e.cid, false});
    all.insert(e.cid);
  }
  FaultyFetcher fetcher(sys->store(), all);

  RestoreConfig config;
  auto policy = make_restore_policy(GetParam(), config);
  std::size_t emitted = 0;
  const auto stats = policy->restore(
      stream, fetcher,
      [&](const ChunkLoc&, std::span<const std::uint8_t>) { ++emitted; });
  EXPECT_EQ(emitted, stream.size());
  EXPECT_EQ(stats.failed_chunks, stream.size());
}

INSTANTIATE_TEST_SUITE_P(
    AllPolicies, FaultyRestoreTest,
    ::testing::Values(RestorePolicyKind::kNoCache,
                      RestorePolicyKind::kContainerLru,
                      RestorePolicyKind::kChunkLru, RestorePolicyKind::kFaa,
                      RestorePolicyKind::kAlacc, RestorePolicyKind::kFbw),
    [](const auto& suite_info) {
      switch (suite_info.param) {
        case RestorePolicyKind::kNoCache: return "nocache";
        case RestorePolicyKind::kContainerLru: return "container_lru";
        case RestorePolicyKind::kChunkLru: return "chunk_lru";
        case RestorePolicyKind::kFaa: return "faa";
        case RestorePolicyKind::kAlacc: return "alacc";
        case RestorePolicyKind::kFbw: return "fbw";
      }
      return "unknown";
    });

TEST(FileCorruption, CorruptContainerFileFailsClosed) {
  const auto dir = hds::testutil::unique_path("hds_corruption_test");
  fs::remove_all(dir);

  const auto versions = generate(3, 200);
  DedupPipeline sys("ddfs-file", std::make_unique<FullIndex>(),
                    std::make_unique<NoRewrite>(),
                    std::make_unique<FileContainerStore>(dir));
  for (const auto& vs : versions) (void)sys.backup(vs);

  // Flip a byte in the middle of every container file: corruption must
  // never restore silently.
  for (const auto& entry : fs::directory_iterator(dir)) {
    std::fstream file(entry.path(),
                      std::ios::in | std::ios::out | std::ios::binary);
    file.seekp(static_cast<std::streamoff>(entry.file_size() / 2));
    char byte = 0;
    file.read(&byte, 1);
    file.seekp(static_cast<std::streamoff>(entry.file_size() / 2));
    byte = static_cast<char>(byte ^ 0x40);
    file.write(&byte, 1);
  }

  // Damage is bounded per container: a flip in a payload fails its chunk
  // CRC, one in the header or footer fails the framing, and either way the
  // load rejects the whole container — nothing restores from it.
  const auto report = sys.restore(
      3, [](const ChunkLoc&, std::span<const std::uint8_t>) {});
  EXPECT_EQ(report.stats.failed_chunks, report.stats.restored_chunks);
  EXPECT_GT(report.stats.failed_chunks, 0u);
  fs::remove_all(dir);
}

TEST(FileCorruption, IntactFilesStillRestoreAlongsideCorruptOnes) {
  const auto dir = hds::testutil::unique_path("hds_partial_corruption");
  fs::remove_all(dir);

  const auto versions = generate(3, 300);
  DedupPipeline sys("ddfs-file", std::make_unique<FullIndex>(),
                    std::make_unique<NoRewrite>(),
                    std::make_unique<FileContainerStore>(dir));
  for (const auto& vs : versions) (void)sys.backup(vs);

  // Corrupt exactly one container file.
  auto it = fs::directory_iterator(dir);
  {
    std::fstream file(it->path(),
                      std::ios::in | std::ios::out | std::ios::binary);
    file.seekp(10);
    file.write("\xFF", 1);
  }

  const auto report = sys.restore(
      3, [](const ChunkLoc&, std::span<const std::uint8_t>) {});
  EXPECT_GT(report.stats.failed_chunks, 0u);
  EXPECT_LT(report.stats.failed_chunks, report.stats.restored_chunks);
  fs::remove_all(dir);
}

// --- Torn repository files on reopen ---

// Builds a committed 3-version file-backed repository under `dir`.
void build_repo(const fs::path& dir) {
  HiDeStoreConfig config;
  config.container_size = 128 * 1024;
  config.storage_dir = dir;
  HiDeStore sys(config);
  for (const auto& vs : generate(3, 150)) {
    (void)sys.backup(vs);
    sys.save(dir);
  }
}

TEST(TornFiles, TruncatedStateAtAnyOffsetIsCountedNeverFatal) {
  const auto pristine = hds::testutil::unique_path("hds_torn_pristine");
  fs::remove_all(pristine);
  build_repo(pristine);
  const auto full_size = fs::file_size(pristine / "state.3.hds");

  for (const double frac : {0.0, 0.1, 0.5, 0.95}) {
    const auto dir = hds::testutil::unique_path("hds_torn_state");
    fs::remove_all(dir);
    fs::copy(pristine, dir, fs::copy_options::recursive);
    fs::resize_file(dir / "state.3.hds",
                    static_cast<std::uintmax_t>(
                        frac * static_cast<double>(full_size)));

    RecoveryReport report;
    const auto sys = HiDeStore::open(dir, &report);
    // The only committed snapshot is torn and there is no older copy:
    // recovery must report (quarantine) rather than crash or fabricate.
    EXPECT_EQ(sys, nullptr) << "frac " << frac;
    EXPECT_FALSE(report.opened) << "frac " << frac;
    EXPECT_TRUE(report.performed) << "frac " << frac;
    EXPECT_FALSE(report.quarantined.empty()) << "frac " << frac;
    fs::remove_all(dir);
  }
  fs::remove_all(pristine);
}

TEST(TornFiles, TornStateWithAsideCopyRollsBack) {
  const auto dir = hds::testutil::unique_path("hds_torn_aside");
  fs::remove_all(dir);
  build_repo(dir);

  // Simulate a pre-epoch layout crashed between the state publish and the
  // journal commit: the committed snapshot sits in state.prev.hds while
  // state.hds is not what the MANIFEST vouches for.
  fs::rename(dir / "state.3.hds", dir / "state.prev.hds");
  std::ofstream(dir / "state.hds", std::ios::binary | std::ios::trunc)
      << "uncommitted garbage";

  RecoveryReport report;
  auto sys = HiDeStore::open(dir, &report);
  ASSERT_NE(sys, nullptr);
  EXPECT_TRUE(report.performed);
  EXPECT_FALSE(report.quarantined.empty());
  EXPECT_EQ(sys->latest_version(), 3u);
  const auto fsck = verify::run_fsck(*sys);
  EXPECT_TRUE(fsck.clean()) << fsck.to_text() << report.to_text();

  RecoveryReport second;
  auto again = HiDeStore::open(dir, &second);
  ASSERT_NE(again, nullptr);
  EXPECT_FALSE(second.performed) << second.to_text();
  fs::remove_all(dir);
}

TEST(TornFiles, TruncatedContainerFileIsCountedRestoreDamage) {
  const auto dir = hds::testutil::unique_path("hds_torn_container");
  fs::remove_all(dir);
  build_repo(dir);

  // Tear the largest archival container in half.
  fs::path victim;
  std::uintmax_t victim_size = 0;
  for (const auto& entry : fs::directory_iterator(dir / "archival")) {
    if (entry.is_regular_file() && entry.file_size() > victim_size) {
      victim = entry.path();
      victim_size = entry.file_size();
    }
  }
  ASSERT_FALSE(victim.empty());
  fs::resize_file(victim, victim_size / 2);

  RecoveryReport report;
  auto sys = HiDeStore::open(dir, &report);
  ASSERT_NE(sys, nullptr);  // torn payloads are a restore concern, not fatal
  std::size_t failed = 0;
  std::size_t emitted = 0;
  for (VersionId v = 1; v <= 3; ++v) {
    const auto restore = sys->restore(
        v, [&](const ChunkLoc&, std::span<const std::uint8_t>) {
          ++emitted;
        });
    failed += restore.stats.failed_chunks;
  }
  EXPECT_GT(emitted, 0u);
  EXPECT_GT(failed, 0u);  // counted damage, no crash
  // fsck names the torn container.
  const auto fsck = verify::run_fsck(*sys);
  EXPECT_FALSE(fsck.clean());
  EXPECT_GT(fsck.check(verify::Invariant::kContainerFraming).violations, 0u);
  fs::remove_all(dir);
}

TEST(TornFiles, TruncatedManifestIsQuarantinedAndRebuilt) {
  const auto dir = hds::testutil::unique_path("hds_torn_manifest");
  fs::remove_all(dir);
  build_repo(dir);
  fs::resize_file(dir / Manifest::kFileName, 8);

  RecoveryReport report;
  auto sys = HiDeStore::open(dir, &report);
  ASSERT_NE(sys, nullptr);
  EXPECT_TRUE(report.performed);
  EXPECT_EQ(sys->latest_version(), 3u);
  const auto fsck = verify::run_fsck(*sys);
  EXPECT_TRUE(fsck.clean()) << fsck.to_text() << report.to_text();

  // The rebuilt journal is committed: a second open is a no-op.
  RecoveryReport second;
  auto again = HiDeStore::open(dir, &second);
  ASSERT_NE(again, nullptr);
  EXPECT_FALSE(second.performed) << second.to_text();
  fs::remove_all(dir);
}

}  // namespace
}  // namespace hds
