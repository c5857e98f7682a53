// The commit journal (src/storage/journal.h, DESIGN.md §9): the strict
// `<stem>.<epoch>.hds` name, recovery over the epoch-stamped layout (an
// uncommitted newer file is quarantined and its versions reported as
// rolled back, a superseded older one is swept, or kept in quarantine when
// no journal vouches for the adopted file, a sharded root's partial writes
// are swept, a directory named like a state file is not read, and
// recovery converges), the one-way migration of
// pre-epoch `state.hds` repositories: flat, sharded, a shard killed after
// its root's commit, and on storage that refuses the rename, the active
// container files recovery reconciles like state files, and the one-writer
// rule: a writer parked between stage and commit is invisible to readers,
// and a second writer fails with the lock error.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "common/crc32.h"
#include "common/rng.h"
#include "common/sha1.h"
#include "core/shard_router.h"
#include "service/repository.h"
#include "storage/durable.h"
#include "storage/journal.h"
#include "storage/manifest.h"
#include "verify/fsck.h"
#include "workload/generator.h"

#include "util/temp_dir.h"

namespace hds {
namespace {

namespace fs = std::filesystem;

using testutil::TempDir;

std::vector<VersionStream> generate(std::uint32_t versions) {
  auto p = WorkloadProfile::kernel();
  p.versions = versions;
  p.chunks_per_version = 120;
  VersionChainGenerator gen(p);
  std::vector<VersionStream> out;
  for (std::uint32_t v = 0; v < versions; ++v) {
    out.push_back(gen.next_version());
  }
  return out;
}

HiDeStoreConfig repo_config(const fs::path& dir) {
  HiDeStoreConfig config;
  config.container_size = 128 * 1024;
  config.storage_dir = dir;
  return config;
}

// Files directly in `dir` whose name starts with `prefix`.
std::vector<std::string> names_with(const fs::path& dir,
                                    const std::string& prefix) {
  std::vector<std::string> names;
  for (const auto& entry : fs::directory_iterator(dir)) {
    const auto name = entry.path().filename().string();
    if (name.rfind(prefix, 0) == 0) names.push_back(name);
  }
  std::sort(names.begin(), names.end());
  return names;
}

void expect_clean_reopen(const fs::path& dir) {
  RecoveryReport second;
  auto again = ShardRouter::open(dir, 0, &second);
  ASSERT_NE(again, nullptr);
  EXPECT_FALSE(second.performed) << second.to_text();
}

TEST(Journal, FileNamesParseStrictly) {
  EXPECT_EQ(journal::file_name(journal::kStateStem, 7), "state.7.hds");
  EXPECT_EQ(journal::parse_file_name(journal::kStateStem, "state.7.hds"), 7u);
  EXPECT_EQ(journal::parse_file_name(journal::kRouterStem,
                                     "router.18446744073709551615.hds"),
            18446744073709551615ull);
  for (const char* bad :
       {"state.hds", "state.prev.hds", "state..hds", "state.0.hds",
        "state.07.hds", "state.+7.hds", "state.-7.hds", "state.7a.hds",
        "state.7.hds.tmp", "state.7.hdsx", "states.7.hds", "router.7.hds",
        "state.18446744073709551616.hds"}) {
    EXPECT_FALSE(journal::parse_file_name(journal::kStateStem, bad)) << bad;
  }
}

// (a) A committed state.<e>.hds beside a torn state.<e+1>.hds — a save that
// staged version 4 and died before its commit — opens at e.
TEST(JournalRecovery, TornNewerStateIsQuarantinedAndRolledBack) {
  TempDir dir("hds_journal_newer");
  const auto versions = generate(4);
  {
    HiDeStore sys(repo_config(dir.path));
    for (std::size_t v = 0; v < 3; ++v) {
      (void)sys.backup(versions[v]);
      sys.save(dir.path);
    }
    (void)sys.backup(versions[3]);
    (void)sys.stage_save(dir.path);  // never committed
  }
  const auto staged = dir.path / "state.4.hds";
  ASSERT_TRUE(fs::exists(staged));
  fs::resize_file(staged, fs::file_size(staged) / 2);

  RecoveryReport report;
  auto sys = HiDeStore::open(dir.path, &report);
  ASSERT_NE(sys, nullptr) << report.to_text();
  EXPECT_EQ(sys->epoch(), 3u);
  EXPECT_EQ(sys->latest_version(), 3u);
  EXPECT_TRUE(report.performed);
  EXPECT_EQ(report.rolled_back_versions, 1u) << report.to_text();
  EXPECT_FALSE(fs::exists(staged));
  EXPECT_TRUE(fs::exists(dir.path / "quarantine" / "state.4.hds"));
  EXPECT_EQ(names_with(dir.path, "state."),
            std::vector<std::string>{"state.3.hds"});
  EXPECT_TRUE(verify::run_fsck(*sys).clean());

  RecoveryReport second;
  auto again = HiDeStore::open(dir.path, &second);
  ASSERT_NE(again, nullptr);
  EXPECT_FALSE(second.performed) << second.to_text();
}

// A directory named like the next epoch's state file reads as nothing (a
// stream over a directory reports ~2^63 bytes): the committed epoch is
// adopted and restores exactly as before.
TEST(JournalRecovery, DirectoryNamedLikeAStateFileIsNotRead) {
  TempDir dir("hds_journal_dir");
  const auto restored = [](HiDeStore& sys) {
    std::vector<std::uint8_t> out;
    (void)sys.restore(sys.latest_version(),
                      [&out](const ChunkLoc&,
                             std::span<const std::uint8_t> bytes) {
                        out.insert(out.end(), bytes.begin(), bytes.end());
                      });
    return out;
  };
  std::vector<std::uint8_t> expected;
  {
    HiDeStore sys(repo_config(dir.path));
    for (const auto& vs : generate(3)) {
      (void)sys.backup(vs);
      sys.save(dir.path);
    }
    expected = restored(sys);
  }
  ASSERT_FALSE(expected.empty());
  fs::create_directory(dir.path / "state.4.hds");

  RecoveryReport report;
  auto sys = HiDeStore::open(dir.path, &report);
  ASSERT_NE(sys, nullptr) << report.to_text();
  EXPECT_EQ(sys->epoch(), 3u);
  EXPECT_EQ(sys->latest_version(), 3u);
  EXPECT_EQ(restored(*sys), expected);
  EXPECT_TRUE(verify::run_fsck(*sys).clean());
}

// (b) A superseded state.<e-1>.hds left beside the committed file (a crash
// after the commit point, before the sweep) is removed.
TEST(JournalRecovery, LeftoverOlderStateIsSwept) {
  TempDir dir("hds_journal_older");
  TempDir aside("hds_journal_older_aside");
  fs::create_directories(aside.path);
  const auto versions = generate(2);
  {
    HiDeStore sys(repo_config(dir.path));
    (void)sys.backup(versions[0]);
    sys.save(dir.path);
    fs::copy_file(dir.path / "state.1.hds", aside.path / "state.1.hds");
    (void)sys.backup(versions[1]);
    sys.save(dir.path);
  }
  ASSERT_FALSE(fs::exists(dir.path / "state.1.hds"));  // commit swept it
  fs::copy_file(aside.path / "state.1.hds", dir.path / "state.1.hds");

  RecoveryReport report;
  auto sys = HiDeStore::open(dir.path, &report);
  ASSERT_NE(sys, nullptr);
  EXPECT_EQ(sys->latest_version(), 2u);
  EXPECT_TRUE(report.performed);
  EXPECT_EQ(report.rolled_back_versions, 0u);
  EXPECT_TRUE(report.quarantined.empty()) << report.to_text();
  EXPECT_EQ(names_with(dir.path, "state."),
            std::vector<std::string>{"state.2.hds"});

  RecoveryReport second;
  ASSERT_NE(HiDeStore::open(dir.path, &second), nullptr);
  EXPECT_FALSE(second.performed) << second.to_text();
}

// Without a journal nothing vouches for the newest parseable file, which may
// be an uncommitted save: the older file it supersedes, possibly the
// committed one, is kept in quarantine rather than deleted.
TEST(JournalRecovery, NoJournalQuarantinesSupersededState) {
  TempDir dir("hds_journal_no_manifest");
  const auto versions = generate(3);
  {
    HiDeStore sys(repo_config(dir.path));
    for (std::size_t v = 0; v < 2; ++v) {
      (void)sys.backup(versions[v]);
      sys.save(dir.path);
    }
    (void)sys.backup(versions[2]);
    (void)sys.stage_save(dir.path);  // never committed
  }
  ASSERT_TRUE(fs::exists(dir.path / "state.2.hds"));
  ASSERT_TRUE(fs::exists(dir.path / "state.3.hds"));
  fs::remove(dir.path / "MANIFEST");

  RecoveryReport report;
  auto sys = HiDeStore::open(dir.path, &report);
  ASSERT_NE(sys, nullptr) << report.to_text();
  EXPECT_EQ(sys->epoch(), 3u);
  EXPECT_TRUE(fs::exists(dir.path / "quarantine" / "state.2.hds"))
      << report.to_text();
  EXPECT_EQ(names_with(dir.path, "state."),
            std::vector<std::string>{"state.3.hds"});

  RecoveryReport second;
  ASSERT_NE(HiDeStore::open(dir.path, &second), nullptr);
  EXPECT_FALSE(second.performed) << second.to_text();
}

// A flipped bit that no check inside the file covers (a byte count in the
// state header, or in a router interleave run) shows only in the file's
// seal. The journal must refuse the file on both of its paths: the
// record's, and the scan it falls back to without a MANIFEST.
TEST(JournalRecovery, BitFlippedStateOrRouterIsNeverAdopted) {
  // total_logical_bytes: after magic, format, epoch, container size,
  // threshold, window, three flag bytes and the version range.
  constexpr std::size_t kStateFlip = 4 + 4 + 8 + 8 + 8 + 4 + 3 + 4 + 4 + 3;
  // The first interleave run's byte count: after the router header (magic,
  // format, epoch, shard count, version range, interleave count), the
  // version and its run count, and the run's shard and chunk count.
  constexpr std::size_t kRouterFlip = 32 + 8 + 8 + 3;
  for (const std::size_t shards : {1u, 2u}) {
    for (const bool with_manifest : {true, false}) {
      TempDir dir("hds_journal_flip");
      ShardRouterConfig config;
      config.shards = shards;
      config.base = repo_config(dir.path);
      {
        ShardRouter sys(config);
        (void)sys.backup(generate(1)[0]);
        sys.save(dir.path);
      }
      const auto committed = journal::files(
          dir.path, shards == 1 ? journal::kStateStem : journal::kRouterStem);
      ASSERT_EQ(committed.size(), 1u);
      const fs::path path = committed.begin()->second;
      auto bytes = *durable::read_file(path);
      bytes[shards == 1 ? kStateFlip : kRouterFlip] ^= 0x10;
      durable::atomic_write_file(path, bytes);
      if (!with_manifest) fs::remove(dir.path / Manifest::kFileName);

      RecoveryReport report;
      EXPECT_EQ(ShardRouter::open(dir.path, shards, &report), nullptr)
          << shards << " shard(s), MANIFEST " << with_manifest << "\n"
          << report.to_text();
      EXPECT_FALSE(report.quarantined.empty()) << report.to_text();
    }
  }
}

// A save killed while writing the router state or the root MANIFEST leaves
// their partial writes at a sharded repository's root; recovery sweeps
// them like a shard's.
TEST(JournalRecovery, ShardedRootPartialWritesAreSwept) {
  TempDir dir("hds_journal_root_tmp");
  ShardRouterConfig config;
  config.shards = 2;
  config.base = repo_config(dir.path);
  {
    ShardRouter sys(config);
    (void)sys.backup(generate(1)[0]);
    sys.save(dir.path);
  }
  for (const char* debris : {"router.2.hds.tmp", "MANIFEST.tmp"}) {
    durable::atomic_write_file(dir.path / debris, std::string_view("torn"));
  }

  RecoveryReport report;
  auto sys = ShardRouter::open(dir.path, 2, &report);
  ASSERT_NE(sys, nullptr) << report.to_text();
  EXPECT_TRUE(report.performed);
  EXPECT_EQ(report.quarantined.size(), 2u) << report.to_text();
  EXPECT_FALSE(fs::exists(dir.path / "router.2.hds.tmp"));
  EXPECT_FALSE(fs::exists(dir.path / "MANIFEST.tmp"));
  sys.reset();
  expect_clean_reopen(dir.path);
}

// A state file in the removed in-memory save layout (archival containers
// serialized inline, placement byte 1) is refused with a note, never
// misread as a file-backed store.
TEST(JournalRecovery, InlinePlacementIsRefusedWithANote) {
  TempDir dir("hds_journal_inline");
  {
    HiDeStore sys(repo_config(dir.path));
    (void)sys.backup(generate(1)[0]);
    sys.save(dir.path);
  }
  const auto path = dir.path / "state.1.hds";
  auto bytes = *durable::read_file(path);
  // magic, format, epoch, container size, threshold, window, materialize,
  // flatten: the placement byte follows at offset 38.
  constexpr std::size_t kPlacement = 4 + 4 + 8 + 8 + 8 + 4 + 1 + 1;
  ASSERT_EQ(bytes[kPlacement], 0);
  bytes[kPlacement] = 1;
  const std::uint32_t crc = crc32(bytes.data(), bytes.size() - 4);
  for (std::size_t i = 0; i < 4; ++i) {
    bytes[bytes.size() - 4 + i] = static_cast<std::uint8_t>(crc >> (8 * i));
  }
  durable::atomic_write_file(path, bytes);

  RecoveryReport report;
  EXPECT_EQ(HiDeStore::open(dir.path, &report), nullptr);
  EXPECT_FALSE(report.opened);
  bool noted = false;
  for (const auto& note : report.notes) {
    noted |= note.find("inline") != std::string::npos;
  }
  EXPECT_TRUE(noted) << report.to_text();
}

// (c) Pre-epoch layouts: the state file bytes are unchanged, so renaming
// the committed file back to its old name rebuilds exactly what an older
// build left on disk.
TEST(JournalMigration, CleanLegacyStateOpensAtOneShard) {
  TempDir dir("hds_journal_legacy");
  const auto versions = generate(3);
  {
    HiDeStore sys(repo_config(dir.path));
    for (const auto& vs : versions) {
      (void)sys.backup(vs);
      sys.save(dir.path);
    }
  }
  fs::rename(dir.path / "state.3.hds", dir.path / "state.hds");
  EXPECT_EQ(ShardRouter::detect_shards(dir.path), 1u);

  RecoveryReport report;
  auto sys = ShardRouter::open(dir.path, 1, &report);
  ASSERT_NE(sys, nullptr) << report.to_text();
  EXPECT_TRUE(report.performed);
  EXPECT_TRUE(report.quarantined.empty()) << report.to_text();
  EXPECT_EQ(sys->latest_version(), 3u);
  EXPECT_EQ(sys->shard(0).epoch(), 3u);
  EXPECT_EQ(names_with(dir.path, "state."),
            std::vector<std::string>{"state.3.hds"});
  std::size_t chunks = 0;
  (void)sys->restore(3, [&](const ChunkLoc&, std::span<const std::uint8_t>) {
    ++chunks;
  });
  EXPECT_EQ(chunks, versions[2].chunks.size());
  EXPECT_TRUE(verify::run_fsck(*sys).clean());
  sys.reset();
  expect_clean_reopen(dir.path);
}

TEST(JournalMigration, ShardedLegacyShardStateMigrates) {
  TempDir dir("hds_journal_legacy_sharded");
  const auto versions = generate(2);
  ShardRouterConfig config;
  config.shards = 2;
  config.base = repo_config(dir.path);
  {
    ShardRouter sys(config);
    for (const auto& vs : versions) {
      (void)sys.backup(vs);
      sys.save(dir.path);
    }
  }
  for (const char* shard : {"shard_0", "shard_1"}) {
    fs::rename(dir.path / shard / "state.2.hds",
               dir.path / shard / "state.hds");
  }

  RecoveryReport report;
  auto sys = ShardRouter::open(dir.path, 2, &report);
  ASSERT_NE(sys, nullptr) << report.to_text();
  EXPECT_TRUE(report.performed);
  EXPECT_EQ(sys->latest_version(), 2u);
  for (const char* shard : {"shard_0", "shard_1"}) {
    EXPECT_EQ(names_with(dir.path / shard, "state."),
              std::vector<std::string>{"state.2.hds"});
  }
  EXPECT_TRUE(verify::run_fsck(*sys).clean());
  sys.reset();
  expect_clean_reopen(dir.path);
}

// An older build killed after the root commit, before shard_0's MANIFEST
// append, left shard_0 with its committed file moved aside to
// `state.prev.hds`, the staged file as `state.hds` and a journal one record
// behind the root. Open rolls shard_0 forward to the root's epoch.
TEST(JournalMigration, ShardedLegacyPostCommitCrashRollsForward) {
  TempDir dir("hds_journal_legacy_rollforward");
  TempDir aside("hds_journal_legacy_rollforward_aside");
  fs::create_directories(aside.path);
  const auto versions = generate(2);
  ShardRouterConfig config;
  config.shards = 2;
  config.base = repo_config(dir.path);
  const auto shard0 = dir.path / "shard_0";
  {
    ShardRouter sys(config);
    (void)sys.backup(versions[0]);
    sys.save(dir.path);
    for (const char* file : {"state.1.hds", "MANIFEST"}) {
      fs::copy_file(shard0 / file, aside.path / file);
    }
    (void)sys.backup(versions[1]);
    sys.save(dir.path);
  }
  fs::rename(shard0 / "state.2.hds", shard0 / "state.hds");
  fs::copy_file(aside.path / "state.1.hds", shard0 / "state.prev.hds");
  fs::copy_file(aside.path / "MANIFEST", shard0 / "MANIFEST",
                fs::copy_options::overwrite_existing);
  fs::rename(dir.path / "shard_1" / "state.2.hds",
             dir.path / "shard_1" / "state.hds");

  RecoveryReport report;
  auto sys = ShardRouter::open(dir.path, 2, &report);
  ASSERT_NE(sys, nullptr) << report.to_text();
  EXPECT_TRUE(report.performed);
  EXPECT_TRUE(report.quarantined.empty()) << report.to_text();
  EXPECT_EQ(sys->latest_version(), 2u);
  for (std::size_t i = 0; i < 2; ++i) {
    EXPECT_EQ(sys->shard(i).epoch(), 2u) << report.to_text();
    EXPECT_EQ(names_with(dir.path / ("shard_" + std::to_string(i)), "state."),
              std::vector<std::string>{"state.2.hds"});
  }
  EXPECT_TRUE(verify::run_fsck(*sys).clean());
  sys.reset();
  expect_clean_reopen(dir.path);
}

// A pre-epoch repository on storage that refuses the migrating rename (a
// read-only snapshot mounted for restore) opens with its state file where
// it lies; the next writable open migrates it.
TEST(JournalMigration, LegacyStateOpensInPlaceWhenRenameFails) {
  TempDir dir("hds_journal_legacy_readonly");
  const auto versions = generate(2);
  {
    HiDeStore sys(repo_config(dir.path));
    for (const auto& vs : versions) {
      (void)sys.backup(vs);
      sys.save(dir.path);
    }
  }
  fs::rename(dir.path / "state.2.hds", dir.path / "state.hds");

  durable::CrashInjector::arm(1, durable::FaultMode::kFail);
  RecoveryReport report;
  auto sys = ShardRouter::open(dir.path, 1, &report);
  durable::CrashInjector::disarm();
  ASSERT_NE(sys, nullptr) << report.to_text();
  EXPECT_EQ(sys->latest_version(), 2u);
  EXPECT_EQ(names_with(dir.path, "state."),
            std::vector<std::string>{"state.hds"});
  bool noted = false;
  for (const auto& note : report.notes) {
    noted |= note.find("opened in place") != std::string::npos;
  }
  EXPECT_TRUE(noted) << report.to_text();
  std::size_t chunks = 0;
  (void)sys->restore(2, [&](const ChunkLoc&, std::span<const std::uint8_t>) {
    ++chunks;
  });
  EXPECT_EQ(chunks, versions[1].chunks.size());
  EXPECT_TRUE(verify::run_fsck(*sys).clean());
  sys.reset();

  RecoveryReport writable;
  ASSERT_NE(ShardRouter::open(dir.path, 1, &writable), nullptr);
  EXPECT_TRUE(writable.performed);
  EXPECT_EQ(names_with(dir.path, "state."),
            std::vector<std::string>{"state.2.hds"});
  expect_clean_reopen(dir.path);
}

// (d) The bytes on disk. A fixed session (create, two backups, expire
// version 1) writes these exact state, active container, router, MANIFEST
// and catalog files; a change to any of them is a format change and must
// be deliberate. Every
// committed record's `state_crc` is the CRC-32 residue: a file that ends
// in its own little-endian CRC always has that whole-file CRC.
std::map<std::string, std::string> golden_session(std::size_t shards) {
  TempDir dir("hds_journal_golden");
  ShardRouterConfig config;
  config.shards = shards;
  config.base.container_size = 128 * 1024;
  config.base.storage_dir = dir.path;
  std::vector<std::uint8_t> data(512 * 1024);
  Xoshiro256ss rng(26);
  for (auto& b : data) b = static_cast<std::uint8_t>(rng.next());
  {
    auto repo = Repository::create(config);
    (void)repo->backup(data, "a");
    for (std::size_t i = 0; i < data.size(); i += 64 * 1024) {
      data[i] ^= 0x5A;  // one edit per 64 KiB
    }
    (void)repo->backup(data, "b");
    (void)repo->expire(1);
  }

  std::map<std::string, std::string> digests;
  const auto add = [&](const fs::path& path) {
    const auto bytes = durable::read_file(path);
    ASSERT_TRUE(bytes.has_value()) << path;
    digests[fs::relative(path, dir.path).string()] =
        Sha1::digest(*bytes).hex();
  };
  const auto add_journal = [&](const fs::path& at, std::string_view stem) {
    for (const auto& [epoch, path] : journal::files(at, stem)) add(path);
    std::error_code ec;
    for (const auto& entry : fs::directory_iterator(at / "active", ec)) {
      add(entry.path());
    }
    add(at / Manifest::kFileName);
    Manifest manifest;
    ASSERT_EQ(load_manifest(at, manifest), ManifestStatus::kOk);
    for (const CommitRecord& record : manifest.records) {
      EXPECT_EQ(record.state_crc, 0x2144DF1Cu) << at << " @" << record.epoch;
    }
  };
  add(dir.path / "catalog.hds");
  if (shards == 1) {
    add_journal(dir.path, journal::kStateStem);
  } else {
    add_journal(dir.path, journal::kRouterStem);
    for (std::size_t i = 0; i < shards; ++i) {
      add_journal(dir.path / ("shard_" + std::to_string(i)),
                  journal::kStateStem);
    }
  }
  return digests;
}

TEST(JournalGolden, OneShardSessionWritesPinnedBytes) {
  const std::map<std::string, std::string> pinned = {
      {"MANIFEST", "1e541e90828ff1b7b3d7a27fcfb7b3675ef41cfd"},
      {"active/container_1.3.hdsc", "1fd34766122c0304a2f6de6974a41d9d24eb9ec9"},
      {"active/container_2.3.hdsc", "ac31f2e0b9914be51b7e04bf5dbe9d2f36395879"},
      {"active/container_3.3.hdsc", "443f14d932c94626d7f1798ca2c11e3632876fd1"},
      {"active/container_4.3.hdsc", "bda92b5e2199a9dbe953f1bd1ef302c6506f2e9e"},
      {"active/container_5.3.hdsc", "12eab63651921285c83b3cef2bdab78a1a8f820a"},
      {"catalog.hds", "e380853bf126d58f62c51476aa864da67c97d752"},
      {"state.4.hds", "9506fa4cc62eba5d89e7239e04adebe20086fe5e"},
  };
  EXPECT_EQ(golden_session(1), pinned);
}

TEST(JournalGolden, TwoShardSessionWritesPinnedBytes) {
  const std::map<std::string, std::string> pinned = {
      {"MANIFEST", "0de7256ffd5ad739c200da6f36dc58e578ac5f70"},
      {"catalog.hds", "e380853bf126d58f62c51476aa864da67c97d752"},
      {"router.4.hds", "21ca1b5e18e791a812f34722eb2f14dec83e483c"},
      {"shard_0/MANIFEST", "34e9401c4751b37d678abe2cce862274a585c4ed"},
      {"shard_0/active/container_1.3.hdsc",
       "fdc1a2ff215707c8ab70c2ce38e512124d6d7cd3"},
      {"shard_0/active/container_2.3.hdsc",
       "d3627bb50569084450f30dd01bd563f16e22be6a"},
      {"shard_0/state.4.hds", "697d6f678240a44304f49f106cbce651bfcf68b1"},
      {"shard_1/MANIFEST", "ef7823a7681f742007cebe72198046ae74caf548"},
      {"shard_1/active/container_1.3.hdsc",
       "a50354925d2900ef86c9014f0f98a8882da8fc8b"},
      {"shard_1/active/container_2.3.hdsc",
       "4f3f638ddee3b591587ca856200e1f99c849b60d"},
      {"shard_1/active/container_3.3.hdsc",
       "bde487172964df9683656bd3c38a8dd075f096a4"},
      {"shard_1/state.4.hds", "45af6249a9d5b658d37326e7f510703241e7e0f4"},
  };
  EXPECT_EQ(golden_session(2), pinned);
}

// --- Active container files (copy-on-write, DESIGN.md §9) ---

// Recovery treats an active file like a state file: one newer than the
// committed epoch is an uncommitted save (quarantined), an older one the
// listing does not name is superseded (removed, the journal vouching for
// the listing). A second open finds nothing to do.
TEST(JournalRecovery, UnnamedActiveFilesAreQuarantinedOrRemoved) {
  TempDir dir("hds_journal_active_debris");
  const auto versions = generate(3);
  {
    HiDeStore sys(repo_config(dir.path));
    for (const auto& vs : versions) {
      (void)sys.backup(vs);
      sys.save(dir.path);
    }
  }
  const auto active = dir.path / "active";
  const auto named = names_with(active, "container_");
  ASSERT_FALSE(named.empty());
  const auto parsed = *ActiveContainerPool::parse_file_name(named.front());
  const std::string newer =
      ActiveContainerPool::file_name(parsed.first, 4);
  const std::string superseded =
      ActiveContainerPool::file_name(parsed.first + 100, 1);
  fs::copy_file(active / named.front(), active / newer);
  fs::copy_file(active / named.front(), active / superseded);

  RecoveryReport report;
  auto sys = HiDeStore::open(dir.path, &report);
  ASSERT_NE(sys, nullptr) << report.to_text();
  EXPECT_TRUE(report.performed);
  EXPECT_EQ(sys->epoch(), 3u);
  EXPECT_TRUE(fs::exists(dir.path / "quarantine" / newer)) << report.to_text();
  EXPECT_FALSE(fs::exists(active / newer));
  EXPECT_FALSE(fs::exists(active / superseded));
  EXPECT_FALSE(fs::exists(dir.path / "quarantine" / superseded));
  EXPECT_EQ(names_with(active, "container_"), named);
  EXPECT_TRUE(verify::run_fsck(*sys).clean());

  RecoveryReport second;
  auto again = HiDeStore::open(dir.path, &second);
  ASSERT_NE(again, nullptr);
  EXPECT_FALSE(second.performed) << second.to_text();
}

// --- One writer at a time; readers never repair ---

// Every file under `dir` with its size: what "nothing moved" compares.
std::map<std::string, std::uintmax_t> tree_of(const fs::path& dir) {
  std::map<std::string, std::uintmax_t> out;
  for (const auto& entry : fs::recursive_directory_iterator(dir)) {
    out[fs::relative(entry.path(), dir).string()] =
        entry.is_regular_file() ? entry.file_size() : 0;
  }
  return out;
}

std::vector<std::uint8_t> random_bytes(std::uint64_t seed, std::size_t n) {
  std::vector<std::uint8_t> out(n);
  Xoshiro256ss rng(seed);
  for (auto& b : out) b = static_cast<std::uint8_t>(rng.next());
  return out;
}

std::vector<std::uint8_t> restored(Repository& repo, VersionId version) {
  std::vector<std::uint8_t> out;
  (void)repo.restore(version, [&out](const ChunkLoc&,
                                     std::span<const std::uint8_t> bytes) {
    out.insert(out.end(), bytes.begin(), bytes.end());
  });
  return out;
}

// A writer parked between stage and commit (its containers, active files,
// catalog and state all staged, its MANIFEST append not yet made) is
// invisible to readers: list, restore and fsck open the committed epoch
// and move nothing, and every committed version restores byte-exactly. A
// second writer fails at once. Once resumed, the writer commits.
TEST(ReaderWriter, ParkedWriterIsInvisibleToReaders) {
  for (const std::size_t shards : {std::size_t{1}, std::size_t{2}}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    TempDir dir("hds_journal_parked");
    ShardRouterConfig config;
    config.shards = shards;
    config.base = repo_config(dir.path);
    // A stable prefix plus a fresh tail per version: no chunk that goes
    // cold ever comes back (the class_exclusivity caveat, DESIGN.md §8).
    std::vector<std::vector<std::uint8_t>> versions;
    for (std::uint64_t v = 0; v < 3; ++v) {
      auto data = random_bytes(7, 144 * 1024);
      const auto fresh = random_bytes(100 + v, 48 * 1024);
      data.insert(data.end(), fresh.begin(), fresh.end());
      versions.push_back(std::move(data));
    }
    auto writer = Repository::create(config);
    (void)writer->backup(versions[0], "v1");
    (void)writer->backup(versions[1], "v2");

    durable::CrashInjector::arm(1, durable::FaultMode::kPause, "commit");
    std::thread third([&] { (void)writer->backup(versions[2], "v3"); });
    durable::CrashInjector::wait_until_paused();

    const auto before = tree_of(dir.path);
    EXPECT_THROW((void)Repository::open(dir.path), durable::LockedError);
    try {
      (void)Repository::open(dir.path);
    } catch (const durable::LockedError& e) {
      EXPECT_NE(std::string(e.what()).find("repository in use"),
                std::string::npos)
          << e.what();
    }
    {
      RecoveryReport report;
      auto reader =
          Repository::open(dir.path, 0, &report, OpenMode::kReadOnly);
      ASSERT_NE(reader, nullptr) << report.to_text();
      EXPECT_FALSE(report.performed) << report.to_text();
      EXPECT_EQ(reader->versions(), (std::vector<VersionId>{1, 2}));
      EXPECT_EQ(restored(*reader, 1), versions[0]);
      EXPECT_EQ(restored(*reader, 2), versions[1]);
      EXPECT_THROW((void)reader->expire(1), RepositoryError);
      EXPECT_TRUE(durable::DirectoryLock::held(dir.path));
      verify::FsckOptions live;
      live.writer_live = true;
      const auto fsck = verify::run_fsck(reader->router(), live);
      EXPECT_TRUE(fsck.clean()) << fsck.to_text();
    }
    EXPECT_EQ(tree_of(dir.path), before);

    durable::CrashInjector::resume();
    third.join();
    durable::CrashInjector::disarm();
    writer.reset();
    EXPECT_FALSE(durable::DirectoryLock::held(dir.path));

    RecoveryReport report;
    auto reader = Repository::open(dir.path, 0, &report, OpenMode::kReadOnly);
    ASSERT_NE(reader, nullptr);
    EXPECT_EQ(reader->versions(), (std::vector<VersionId>{1, 2, 3}));
    for (VersionId v = 1; v <= 3; ++v) {
      EXPECT_EQ(restored(*reader, v), versions[v - 1]) << "version " << v;
    }
    const auto fsck = verify::run_fsck(reader->router());
    EXPECT_TRUE(fsck.clean()) << fsck.to_text();
  }
}

TEST(ReaderWriter, SecondWriterFailsUntilTheFirstCloses) {
  TempDir dir("hds_journal_two_writers");
  ShardRouterConfig config;
  config.base = repo_config(dir.path);
  auto first = Repository::create(config);
  (void)first->backup(random_bytes(3, 64 * 1024), "a");
  EXPECT_THROW((void)Repository::open(dir.path), durable::LockedError);
  // A reader is never refused.
  EXPECT_NE(Repository::open(dir.path, 0, nullptr, OpenMode::kReadOnly),
            nullptr);
  first.reset();
  auto second = Repository::open(dir.path);
  ASSERT_NE(second, nullptr);
  EXPECT_EQ(second->versions(), (std::vector<VersionId>{1}));
}

}  // namespace
}  // namespace hds
