// ShardRouter proving ground (DESIGN.md §16): routing determinism, the
// shard-count contract on open, the {shard="i"}-labeled exposition,
// cross-shard identity against a single-shard run (dedup ratio, stored
// bytes, restored bytes — all bit-identical), the two-phase commit
// crashed at every durable site, and a compaction hammer that keeps every
// per-shard worker busy (run under TSan via the `concurrency` label).
//
// Fixtures honor HDS_SHARDS=<n> (parsed strictly; see CI's sanitizer job,
// which replays the suite at 4 shards) wherever the shard count is a free
// parameter; the crash matrix pins 2 shards so its step count stays
// bounded.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <limits>
#include <memory>
#include <vector>

#include "core/shard_router.h"
#include "index/shard_space.h"
#include "storage/container_store.h"
#include "storage/durable.h"
#include "verify/fsck.h"
#include "workload/generator.h"

#include "util/env_shards.h"
#include "util/prometheus.h"
#include "util/temp_dir.h"

namespace hds {
namespace {

namespace fs = std::filesystem;

using hds::testutil::TempDir;

// Default shard count of every test that treats it as a free parameter.
std::size_t env_shards() { return testutil::env_shards(4); }

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

// Small containers: every backup seals archival containers in every shard,
// so compaction, deletion tagging and the crash matrix all get real work.
ShardRouterConfig router_config(std::size_t shards, const fs::path& dir) {
  ShardRouterConfig config;
  config.shards = shards;
  config.base.container_size = 128 * 1024;
  config.base.storage_dir = dir;
  return config;
}

ShardRouterConfig memory_config(std::size_t shards) {
  ShardRouterConfig config;
  config.shards = shards;
  config.base.container_size = 128 * 1024;
  return config;
}

// The restore stream must replay the original chunk order byte-for-byte —
// for a multi-shard router this is exactly the interleave merge under
// test.
void expect_exact_restore(ShardRouter& sys, VersionId version,
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

// --- Routing determinism ---

TEST(ShardSpace, RoutingIsDeterministicUniformAndStable) {
  const auto versions = generate(1, 2048);
  const std::size_t shards = env_shards();
  std::vector<std::size_t> hits(shards, 0);
  for (const auto& chunk : versions[0].chunks) {
    const std::size_t s = shard_of_fingerprint(chunk.fp, shards);
    ASSERT_LT(s, shards);
    // The routing function is a pure function of the fingerprint.
    EXPECT_EQ(s, shard_of_fingerprint(chunk.fp, shards));
    EXPECT_EQ(s, chunk.fp.bytes[0] % shards);
    ++hits[s];
  }
  // SHA-1-uniform first byte: with 2048 draws every shard (up to the CI
  // override cap) must see traffic.
  if (shards <= 16) {
    for (std::size_t s = 0; s < shards; ++s) {
      EXPECT_GT(hits[s], 0u) << "shard " << s << " starved";
    }
  }
  // Single-shard degenerates to "everything routes to shard 0".
  EXPECT_EQ(shard_of_fingerprint(versions[0].chunks[0].fp, 1), 0u);
  EXPECT_EQ(shard_of_fingerprint(versions[0].chunks[0].fp, 0), 0u);
}

TEST(ShardSpace, ContainerIdBandsRoundTrip) {
  for (const std::size_t shard : {std::size_t{0}, std::size_t{1},
                                  std::size_t{7}, kMaxShards - 1}) {
    const ContainerId base = shard_id_base(shard);
    EXPECT_EQ(shard_of_container(base + 1), shard);
    EXPECT_EQ(shard_of_container(base + (kShardIdSpan - 1)), shard);
  }
  // Shard 0's band starts at id 1 — the legacy store's first id — and the
  // top band's last id still fits the positive int32 space.
  EXPECT_EQ(shard_id_base(0) + 1, 1);
  EXPECT_EQ(shard_id_base(kMaxShards - 1) + (kShardIdSpan - 1),
            std::numeric_limits<ContainerId>::max());
}

// --- Layout and the shard-count contract ---

TEST(ShardRouter, SingleShardIsBitIdenticalLegacyLayout) {
  TempDir dir("hds_shard_legacy");
  const auto versions = generate(3, 96);
  {
    ShardRouter sys(router_config(1, dir.path));
    for (const auto& vs : versions) {
      (void)sys.backup(vs);
      sys.save(dir.path);
    }
  }
  // Legacy on-disk shape: state at the root, no router state file, and a
  // plain HiDeStore opens it without knowing shards exist.
  EXPECT_TRUE(fs::exists(dir.path / "state.3.hds"));
  bool router_file = false;
  for (const auto& entry : fs::directory_iterator(dir.path)) {
    router_file |=
        entry.path().filename().string().rfind("router.", 0) == 0;
  }
  EXPECT_FALSE(router_file);
  EXPECT_EQ(ShardRouter::detect_shards(dir.path), 1u);

  auto plain = HiDeStore::open(dir.path);
  ASSERT_NE(plain, nullptr);
  EXPECT_EQ(plain->latest_version(), 3u);

  auto routed = ShardRouter::open(dir.path, 1);
  ASSERT_NE(routed, nullptr);
  EXPECT_EQ(routed->shard_count(), 1u);
  expect_exact_restore(*routed, 3, versions[2]);
}

TEST(ShardRouter, ShardCountMismatchThrowsTypedError) {
  const std::size_t shards = std::max<std::size_t>(env_shards(), 2);
  TempDir sharded("hds_shard_mismatch");
  {
    ShardRouter sys(router_config(shards, sharded.path));
    (void)sys.backup(generate(1, 64)[0]);
    sys.save(sharded.path);
  }
  EXPECT_EQ(ShardRouter::detect_shards(sharded.path), shards);
  EXPECT_THROW((void)ShardRouter::open(sharded.path, shards + 1),
               ShardMismatchError);
  EXPECT_THROW((void)ShardRouter::open(sharded.path, 1), ShardMismatchError);
  // expected_shards == 0 accepts whatever the repository records.
  auto sys = ShardRouter::open(sharded.path, 0);
  ASSERT_NE(sys, nullptr);
  EXPECT_EQ(sys->shard_count(), shards);

  TempDir legacy("hds_shard_mismatch_legacy");
  {
    ShardRouter sys1(router_config(1, legacy.path));
    (void)sys1.backup(generate(1, 64)[0]);
    sys1.save(legacy.path);
  }
  EXPECT_THROW((void)ShardRouter::open(legacy.path, shards),
               ShardMismatchError);

  // Not a repository at all: nullptr, not a mismatch.
  TempDir empty("hds_shard_mismatch_empty");
  fs::create_directories(empty.path);
  EXPECT_EQ(ShardRouter::detect_shards(empty.path), 0u);
  EXPECT_EQ(ShardRouter::open(empty.path), nullptr);
}

// --- One labeled exposition over the shard registries ---

TEST(ShardRouter, ExpositionLabelsEveryShardFact) {
  constexpr std::size_t kShards = 4;
  const auto versions = generate(4, 300);
  ShardRouter sys(memory_config(kShards));
  std::uint64_t chunks = 0;
  std::uint64_t unique = 0;
  for (const auto& vs : versions) {
    const auto report = sys.backup(vs);
    chunks += report.logical_chunks;
    unique += report.stored_chunks;
  }
  const auto restored =
      sys.restore(2, [](const ChunkLoc&, std::span<const std::uint8_t>) {});

  const std::string text = obs::to_prometheus(sys.metric_parts());
  // No name-mangled per-shard copies and no re-aggregated totals: each
  // fact is one family, one sample per shard.
  EXPECT_EQ(text.find("shard_"), std::string::npos) << text;
  EXPECT_EQ(text.find("\nchunks_processed "), std::string::npos);
  EXPECT_NE(text.find("\nshards 4\n"), std::string::npos);
  using testutil::sample_sum;
  EXPECT_EQ(sample_sum(text, "chunks_processed{shard="), chunks);
  EXPECT_EQ(sample_sum(text, "unique_chunks{shard="), unique);
  EXPECT_EQ(sample_sum(text, "restored_bytes{shard="),
            restored.stats.restored_bytes);
  EXPECT_EQ(restored.stats.restored_bytes, sys.version_logical_bytes(2));
  // No deletion ran, so every archival container is one store write.
  EXPECT_GT(sys.archival_container_count(), 0u);
  EXPECT_EQ(sample_sum(text, "store_container_writes{shard="),
            sys.archival_container_count());
  std::size_t backup_families = 0;
  std::size_t backup_counts = 0;
  for (std::size_t at = text.find("backup_ms"); at != std::string::npos;
       at = text.find("backup_ms", at + 1)) {
    backup_families += text.compare(at - 7, 7, "# TYPE ") == 0;
    backup_counts += text.compare(at, 22, "backup_ms_count{shard=") == 0;
  }
  EXPECT_EQ(backup_families, 1u);
  EXPECT_EQ(backup_counts, kShards);
  EXPECT_EQ(sample_sum(text, "backup_ms_count{shard="),
            kShards * versions.size());
}

// --- Cross-shard identity vs a single-shard run ---

TEST(ShardRouter, DedupAndRestoreIdenticalToSingleShard) {
  const std::size_t shards = std::max<std::size_t>(env_shards(), 2);
  const auto versions = generate(10, 200);

  ShardRouter one(memory_config(1));
  ShardRouter many(memory_config(shards));
  for (const auto& vs : versions) {
    const auto a = one.backup(vs);
    const auto b = many.backup(vs);
    EXPECT_EQ(a.version, b.version);
    EXPECT_EQ(a.logical_bytes, b.logical_bytes);
    EXPECT_EQ(a.logical_chunks, b.logical_chunks);
    // Routing by fingerprint sends every duplicate to the one shard that
    // could have seen it, so dedup decisions — and therefore stored bytes
    // and the ratio — are bit-identical to the unsharded run.
    EXPECT_EQ(a.stored_bytes, b.stored_bytes);
    EXPECT_EQ(a.stored_chunks, b.stored_chunks);
  }
  EXPECT_EQ(one.total_logical_bytes(), many.total_logical_bytes());
  EXPECT_EQ(one.total_stored_bytes(), many.total_stored_bytes());
  EXPECT_DOUBLE_EQ(one.dedup_ratio(), many.dedup_ratio());

  for (std::uint32_t v = 1; v <= versions.size(); ++v) {
    expect_exact_restore(many, v, versions[v - 1]);
  }
  const auto fsck_one = verify::run_fsck(one);
  const auto fsck_many = verify::run_fsck(many);
  EXPECT_TRUE(fsck_one.clean()) << fsck_one.to_text();
  EXPECT_TRUE(fsck_many.clean()) << fsck_many.to_text();
}

TEST(ShardRouter, RestoreRangeTrimsTheMergedStream) {
  const std::size_t shards = std::max<std::size_t>(env_shards(), 2);
  const auto versions = generate(2, 128);
  ShardRouter sys(memory_config(shards));
  for (const auto& vs : versions) (void)sys.backup(vs);

  std::vector<std::uint8_t> whole;
  (void)sys.restore(2, [&](const ChunkLoc&,
                           std::span<const std::uint8_t> bytes) {
    whole.insert(whole.end(), bytes.begin(), bytes.end());
  });
  ASSERT_GT(whole.size(), 4096u);

  // An unaligned slice straddling many chunk boundaries.
  const std::uint64_t offset = 1234;
  const std::uint64_t length = whole.size() / 2;
  std::vector<std::uint8_t> slice;
  const auto report =
      sys.restore_range(2, offset, length,
                        [&](const ChunkLoc&,
                            std::span<const std::uint8_t> bytes) {
                          slice.insert(slice.end(), bytes.begin(),
                                       bytes.end());
                        });
  ASSERT_EQ(slice.size(), length);
  EXPECT_EQ(report.stats.restored_bytes, length);
  EXPECT_TRUE(std::equal(slice.begin(), slice.end(),
                         whole.begin() + static_cast<std::ptrdiff_t>(offset)));
}

// --- Persistence round trip ---

TEST(ShardRouter, SaveReopenRestoreAndDeleteSurvive) {
  const std::size_t shards = std::max<std::size_t>(env_shards(), 2);
  TempDir dir("hds_shard_roundtrip");
  const auto versions = generate(6, 120);
  {
    ShardRouter sys(router_config(shards, dir.path));
    for (const auto& vs : versions) {
      (void)sys.backup(vs);
      sys.save(dir.path);
    }
  }
  RecoveryReport report;
  auto sys = ShardRouter::open(dir.path, shards, &report);
  ASSERT_NE(sys, nullptr);
  EXPECT_FALSE(report.performed) << report.to_text();
  EXPECT_EQ(sys->shard_count(), shards);
  EXPECT_EQ(sys->latest_version(), 6u);
  EXPECT_EQ(sys->version_count(), 6u);
  for (std::uint32_t v = 1; v <= 6; ++v) {
    expect_exact_restore(*sys, v, versions[v - 1]);
  }
  const auto fsck = verify::run_fsck(*sys);
  EXPECT_TRUE(fsck.clean()) << fsck.to_text();

  // Whole-container deletion runs per shard; the retained window narrows
  // identically everywhere and survives another round trip.
  const auto deletion = sys->delete_versions_up_to(3);
  EXPECT_EQ(deletion.versions_deleted, 3u);
  sys->save(dir.path);
  auto again = ShardRouter::open(dir.path, shards);
  ASSERT_NE(again, nullptr);
  EXPECT_EQ(again->oldest_version(), 4u);
  EXPECT_EQ(again->latest_version(), 6u);
  for (std::uint32_t v = 4; v <= 6; ++v) {
    expect_exact_restore(*again, v, versions[v - 1]);
  }
  const auto fsck2 = verify::run_fsck(*again);
  EXPECT_TRUE(fsck2.clean()) << fsck2.to_text();
}

// A save that changes nothing stages a router state of the committed one's
// size, and every router state has the same whole-file CRC (it ends in its
// own CRC): only the epoch in its header tells two of them apart. An older
// epoch's file under the committed epoch's name must not be adopted as
// that epoch.
TEST(ShardRouter, RouterStateOfAnotherEpochIsNotAdopted) {
  TempDir dir("hds_shard_router_epoch");
  TempDir aside("hds_shard_router_epoch_aside");
  fs::create_directories(aside.path);
  {
    ShardRouter sys(router_config(2, dir.path));
    (void)sys.backup(generate(1, 64)[0]);
    sys.save(dir.path);
    fs::copy_file(dir.path / "router.1.hds", aside.path / "router.1.hds");
    sys.save(dir.path);  // nothing changed since the first save
  }
  ASSERT_EQ(fs::file_size(dir.path / "router.2.hds"),
            fs::file_size(aside.path / "router.1.hds"));
  fs::copy_file(aside.path / "router.1.hds", dir.path / "router.2.hds",
                fs::copy_options::overwrite_existing);

  RecoveryReport report;
  auto sys = ShardRouter::open(dir.path, 0, &report);
  if (sys != nullptr) {
    EXPECT_NE(sys->epoch(), 1u) << report.to_text();
    EXPECT_TRUE(report.performed) << report.to_text();
  } else {
    EXPECT_FALSE(report.opened);
    EXPECT_FALSE(report.quarantined.empty()) << report.to_text();
  }
}

// --- The two-phase-commit crash matrix ---

// Backs up and saves `versions` with the injector armed at `step`.
// Returns how many saves committed before the simulated crash. The
// directory is abandoned exactly as the crash left it.
std::size_t run_until_crash(const fs::path& dir,
                            const std::vector<VersionStream>& versions,
                            std::uint64_t step) {
  durable::CrashInjector::arm(step, durable::FaultMode::kThrow);
  std::size_t committed = 0;
  try {
    ShardRouter sys(router_config(2, dir));
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

TEST(ShardCrashMatrix, TwoPhaseCommitRecoversAtEveryStep) {
  // 2 shards pinned: the matrix replays the whole run once per durable
  // site, so its cost is sites x run — env_shards() would let CI's
  // HDS_SHARDS=4 replay double the sites at double the run cost.
  const auto versions = generate(3, 96);

  std::uint64_t total_sites = 0;
  {
    TempDir dir("hds_shard_crash_dry");
    const auto all = run_until_crash(
        dir.path, versions, std::numeric_limits<std::uint64_t>::max());
    ASSERT_EQ(all, versions.size());
    total_sites = durable::CrashInjector::steps();
  }
  // Per save: 5 sites per staged shard state, per shard MANIFEST, per
  // sealed container, plus the router state file and the root MANIFEST —
  // a thin matrix means the harness is broken.
  ASSERT_GT(total_sites, 60u);

  for (std::uint64_t step = 1; step <= total_sites; ++step) {
    TempDir dir("hds_shard_crash");
    const std::size_t committed = run_until_crash(dir.path, versions, step);
    ASSERT_LT(committed, versions.size()) << "step " << step;

    RecoveryReport report;
    auto sys = ShardRouter::open(dir.path, 0, &report);
    if (sys == nullptr) {
      // Only acceptable when the crash predates the very first commit.
      EXPECT_EQ(committed, 0u) << "step " << step;
      continue;
    }

    // Recovery lands on the last committed version — or one newer, when
    // the crash hit after the root MANIFEST append (the commit point) but
    // before save() returned; then every shard rolls forward.
    const VersionId latest = sys->latest_version();
    EXPECT_GE(latest, committed) << "step " << step;
    EXPECT_LE(latest, committed + 1) << "step " << step;
    ASSERT_GT(latest, 0u) << "step " << step;
    expect_exact_restore(*sys, latest, versions[latest - 1]);

    const auto fsck = verify::run_fsck(*sys);
    EXPECT_TRUE(fsck.clean())
        << "step " << step << "\n"
        << fsck.to_text() << report.to_text();

    // Recovery converges: a second open finds nothing left to repair.
    sys.reset();  // release the directory before reopening
    RecoveryReport second;
    auto again = ShardRouter::open(dir.path, 0, &second);
    ASSERT_NE(again, nullptr) << "step " << step;
    EXPECT_FALSE(second.performed)
        << "step " << step << "\n"
        << second.to_text();
    EXPECT_EQ(again->latest_version(), latest) << "step " << step;
  }
}

// --- Concurrency hammer (TSan target) ---

// Every backup fans chunk batches out to one worker per shard; cold-chunk
// eviction and sparse-container compaction then run per shard in parallel,
// and periodic whole-container deletion narrows the window while restores
// drive the producer/consumer interleave merge. TSan (ctest -L
// concurrency) watches every cross-thread edge.
TEST(ShardRouter, CompactionHammerKeepsWorkersBusy) {
  const std::size_t shards = std::max<std::size_t>(env_shards(), 2);
  ShardRouterConfig config = memory_config(shards);
  config.base.container_size = 64 * 1024;  // seal (and compact) constantly

  auto profile = WorkloadProfile::kernel();
  profile.versions = 16;
  profile.chunks_per_version = 192;
  profile.mod_rate = 0.15;  // heavier churn: more cold chunks to evict
  VersionChainGenerator gen(profile);

  ShardRouter sys(config);
  std::vector<VersionStream> originals;
  for (std::uint32_t v = 1; v <= 16; ++v) {
    originals.push_back(gen.next_version());
    const auto report = sys.backup(originals.back());
    EXPECT_EQ(report.version, v);
    if (v % 4 == 0) {
      (void)sys.delete_versions_up_to(v > 6 ? v - 6 : 0);
      expect_exact_restore(sys, v, originals[v - 1]);
    }
  }
  EXPECT_EQ(sys.latest_version(), 16u);
  EXPECT_EQ(sys.oldest_version(), 11u);  // last sweep deleted up to 10
  for (std::uint32_t v = sys.oldest_version(); v <= 16; ++v) {
    expect_exact_restore(sys, v, originals[v - 1]);
  }
  const auto fsck = verify::run_fsck(sys);
  EXPECT_TRUE(fsck.clean()) << fsck.to_text();
}

}  // namespace
}  // namespace hds
