// Tests for the offline store checker (hds fsck) and the HDS_INVARIANT /
// HDS_CHECK assertion layer: a clean multi-version store passes with zero
// findings, and each seeded corruption class is flagged by exactly the
// invariant that owns it (cascade suppression keeps the others quiet).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <span>
#include <string>
#include <vector>

#include "common/crc32.h"
#include "core/hidestore.h"
#include "verify/fsck.h"
#include "verify/invariant.h"
#include "workload/generator.h"

#include "util/temp_dir.h"

namespace hds {
namespace {

namespace fs = std::filesystem;
using verify::FsckReport;
using verify::Invariant;

using hds::testutil::TempDir;

std::vector<VersionStream> generate(std::uint32_t versions,
                                    std::size_t chunks = 300) {
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

void ingest(HiDeStore& sys, std::uint32_t versions) {
  for (const auto& vs : generate(versions)) (void)sys.backup(vs);
}

// Asserts that exactly `expected` is violated and every other invariant
// holds — the "flags exactly that invariant" contract.
void expect_only(const FsckReport& report, Invariant expected) {
  EXPECT_FALSE(report.clean());
  for (const auto& check : report.checks) {
    if (check.invariant == expected) {
      EXPECT_GT(check.violations, 0u)
          << verify::invariant_name(expected) << " should have fired";
      EXPECT_FALSE(check.findings.empty());
    } else {
      EXPECT_EQ(check.violations, 0u)
          << verify::invariant_name(check.invariant)
          << " fired alongside " << verify::invariant_name(expected);
    }
  }
}

// --- On-disk corruption helpers (container format 3, see container.h:
// 20-byte header | data | count * 32-byte entry table | footer CRC |
// file CRC) ---

struct ContainerFile {
  fs::path path;
  std::uint32_t entry_count = 0;
  std::uint32_t data_size = 0;
};

std::uint32_t read_u32_at(const std::vector<std::uint8_t>& bytes,
                          std::size_t at) {
  return std::uint32_t{bytes[at]} | (std::uint32_t{bytes[at + 1]} << 8) |
         (std::uint32_t{bytes[at + 2]} << 16) |
         (std::uint32_t{bytes[at + 3]} << 24);
}

std::vector<std::uint8_t> slurp(const fs::path& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  std::vector<std::uint8_t> bytes(static_cast<std::size_t>(in.tellg()));
  in.seekg(0);
  in.read(reinterpret_cast<char*>(bytes.data()),
          static_cast<std::streamsize>(bytes.size()));
  return bytes;
}

void spit(const fs::path& path, const std::vector<std::uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

// Finds an archival container file carrying at least one payload byte.
ContainerFile find_payload_container(const fs::path& repo) {
  for (const auto& entry : fs::directory_iterator(repo / "archival")) {
    if (entry.path().extension() != ".hdsc") continue;
    const auto bytes = slurp(entry.path());
    if (bytes.size() < 24) continue;
    ContainerFile found;
    found.path = entry.path();
    found.entry_count = read_u32_at(bytes, 12);
    found.data_size = read_u32_at(bytes, 16);
    if (found.data_size > 0) return found;
  }
  ADD_FAILURE() << "no archival container with payload bytes found";
  return {};
}

// Flips one payload byte and repairs the file trailer CRC, so framing
// passes and only the per-chunk CRC can notice. Format 3 puts the data
// region right after the 20-byte header (the entry table is a footer).
void flip_payload_byte(const ContainerFile& file) {
  auto bytes = slurp(file.path);
  const std::size_t payload_at = 20 + file.data_size / 2;
  ASSERT_LT(payload_at, bytes.size() - 4);
  bytes[payload_at] ^= 0xff;
  const std::uint32_t crc = crc32(bytes.data(), bytes.size() - 4);
  for (int i = 0; i < 4; ++i) {
    bytes[bytes.size() - 4 + static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(crc >> (8 * i));
  }
  spit(file.path, bytes);
}

void write_u32_at(std::vector<std::uint8_t>& bytes, std::size_t at,
                  std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    bytes[at + static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(v >> (8 * i));
  }
}

// Seeds a footer-index violation that every other invariant is blind to:
// points entry B's extent at entry A's bytes (overlap), then repairs B's
// chunk CRC to the newly referenced bytes, the footer CRC and the file CRC.
// Framing, per-chunk CRC, resolution and accounting all still pass — only
// the footer index's no-overlap rule can object. Returns false when the
// container has fewer than two distinct materialized extents.
bool overlap_footer_entries(const ContainerFile& file) {
  auto bytes = slurp(file.path);
  const std::size_t table_at = 20 + file.data_size;
  // Rows of (row offset in file, entry offset, entry size), non-virtual.
  std::size_t a_row = 0, b_row = 0;
  std::uint32_t a_off = 0, b_size = 0;
  bool have_a = false, have_b = false;
  for (std::uint32_t i = 0; i < file.entry_count; ++i) {
    const std::size_t row = table_at + std::size_t{i} * 32;
    const std::uint32_t off = read_u32_at(bytes, row + 20);
    const std::uint32_t size = read_u32_at(bytes, row + 24);
    if (off == 0xFFFFFFFFu || size == 0) continue;
    // A: the largest extent; B: the smallest other one, so B's extent
    // relocated to A's offset stays inside the data region.
    if (!have_a || size > read_u32_at(bytes, a_row + 24)) {
      if (have_a && (!have_b || read_u32_at(bytes, a_row + 24) < b_size)) {
        b_row = a_row;
        b_size = read_u32_at(bytes, a_row + 24);
        have_b = true;
      }
      a_row = row;
      a_off = off;
      have_a = true;
    } else if (!have_b || size < b_size) {
      b_row = row;
      b_size = size;
      have_b = true;
    }
  }
  if (!have_a || !have_b || a_row == b_row) return false;

  write_u32_at(bytes, b_row + 20, a_off);  // B now overlaps A
  const std::uint32_t new_crc = crc32(bytes.data() + 20 + a_off, b_size);
  write_u32_at(bytes, b_row + 28, new_crc);

  const std::size_t table_bytes = std::size_t{file.entry_count} * 32;
  const std::uint32_t footer_crc =
      crc32(bytes.data() + table_at, table_bytes, crc32(bytes.data(), 20));
  write_u32_at(bytes, table_at + table_bytes, footer_crc);
  write_u32_at(bytes, bytes.size() - 4,
               crc32(bytes.data(), bytes.size() - 4));
  spit(file.path, bytes);
  return true;
}

// --- Clean stores ---

TEST(Fsck, CleanStorePassesWindow1) {
  HiDeStore sys;
  ingest(sys, 8);
  const auto report = verify::run_fsck(sys);
  EXPECT_TRUE(report.clean()) << report.to_text();
  EXPECT_EQ(report.total_violations(), 0u);
  EXPECT_EQ(report.checks.size(), verify::kInvariantCount);
  // The store is non-trivial: every class of object was actually walked.
  EXPECT_GT(report.check(Invariant::kContainerFraming).objects_checked, 0u);
  EXPECT_GT(report.check(Invariant::kChunkCrc).objects_checked, 0u);
  EXPECT_GT(report.check(Invariant::kRecipeResolution).objects_checked, 0u);
  EXPECT_GT(report.check(Invariant::kRecipeChain).objects_checked, 0u);
  EXPECT_GT(report.check(Invariant::kActiveResolution).objects_checked, 0u);
  EXPECT_GT(report.check(Invariant::kCacheConsistency).objects_checked, 0u);
  EXPECT_NE(report.to_text().find("clean"), std::string::npos);
}

TEST(Fsck, CleanStorePassesWindow2) {
  HiDeStoreConfig config;
  config.cache_window = 2;
  HiDeStore sys(config);
  ingest(sys, 8);
  const auto report = verify::run_fsck(sys);
  EXPECT_TRUE(report.clean()) << report.to_text();
}

TEST(Fsck, CleanAfterDeletionAndFlatten) {
  HiDeStore sys;
  ingest(sys, 10);
  (void)sys.delete_versions_up_to(3);
  (void)sys.flatten_recipes();
  sys.refresh_gauges();
  const auto report = verify::run_fsck(sys);
  EXPECT_TRUE(report.clean()) << report.to_text();
}

TEST(Fsck, CleanFileBackedStoreAfterReload) {
  TempDir dir("hds_fsck_clean_reload");
  HiDeStoreConfig config;
  config.storage_dir = dir.path;
  {
    HiDeStore sys(config);
    ingest(sys, 8);
    sys.save(dir.path);
  }
  auto sys = HiDeStore::open(dir.path);
  ASSERT_NE(sys, nullptr);
  const auto report = verify::run_fsck(*sys);
  EXPECT_TRUE(report.clean()) << report.to_text();
}

TEST(Fsck, JsonReportIsWellFormedOnCleanStore) {
  HiDeStore sys;
  ingest(sys, 4);
  const auto json = verify::run_fsck(sys).to_json();
  EXPECT_NE(json.find("\"clean\":true"), std::string::npos);
  EXPECT_NE(json.find("\"invariant\":\"chunk_crc\""), std::string::npos);
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
}

// --- Seeded corruption classes ---

TEST(Fsck, DetectsFlippedPayloadByte) {
  TempDir dir("hds_fsck_flip");
  HiDeStoreConfig config;
  config.storage_dir = dir.path;
  HiDeStore sys(config);
  ingest(sys, 6);
  ASSERT_TRUE(verify::run_fsck(sys).clean());

  const auto file = find_payload_container(dir.path);
  ASSERT_FALSE(file.path.empty());
  flip_payload_byte(file);

  expect_only(verify::run_fsck(sys), Invariant::kChunkCrc);
}

TEST(Fsck, DetectsTruncatedContainerTail) {
  TempDir dir("hds_fsck_trunc");
  HiDeStoreConfig config;
  config.storage_dir = dir.path;
  HiDeStore sys(config);
  ingest(sys, 6);
  ASSERT_TRUE(verify::run_fsck(sys).clean());

  const auto file = find_payload_container(dir.path);
  ASSERT_FALSE(file.path.empty());
  fs::resize_file(file.path, fs::file_size(file.path) - 16);

  expect_only(verify::run_fsck(sys), Invariant::kContainerFraming);
}

TEST(Fsck, DetectsOverlappingFooterExtents) {
  TempDir dir("hds_fsck_overlap");
  HiDeStoreConfig config;
  config.storage_dir = dir.path;
  HiDeStore sys(config);
  ingest(sys, 6);
  ASSERT_TRUE(verify::run_fsck(sys).clean());

  // Any payload-carrying archival container with 2+ real extents will do.
  bool seeded = false;
  for (const auto& entry : fs::directory_iterator(dir.path / "archival")) {
    if (entry.path().extension() != ".hdsc") continue;
    const auto bytes = slurp(entry.path());
    if (bytes.size() < 24) continue;
    ContainerFile file{entry.path(), read_u32_at(bytes, 12),
                       read_u32_at(bytes, 16)};
    if (file.entry_count < 2 || file.data_size == 0) continue;
    if (overlap_footer_entries(file)) {
      seeded = true;
      break;
    }
  }
  ASSERT_TRUE(seeded) << "no container with two materialized extents";

  expect_only(verify::run_fsck(sys), Invariant::kFooterIndex);
}

TEST(Fsck, DetectsDanglingChainCid) {
  HiDeStore sys;
  ingest(sys, 8);
  ASSERT_TRUE(verify::run_fsck(sys).clean());

  // Point an old recipe entry at a recipe that does not exist.
  Recipe* victim = sys.mutable_recipes().get(2);
  ASSERT_NE(victim, nullptr);
  ASSERT_FALSE(victim->entries().empty());
  victim->entries().front().cid =
      -static_cast<ContainerId>(sys.latest_version() + 7);

  expect_only(verify::run_fsck(sys), Invariant::kRecipeChain);
}

TEST(Fsck, DetectsRecipeContainerSizeMismatch) {
  HiDeStore sys;
  ingest(sys, 8);
  ASSERT_TRUE(verify::run_fsck(sys).clean());

  // Find an archival reference and lie about the chunk's size.
  bool mutated = false;
  for (const VersionId v : sys.recipes().versions()) {
    for (auto& entry : sys.mutable_recipes().get(v)->entries()) {
      if (entry.cid > 0) {
        entry.size += 3;
        mutated = true;
        break;
      }
    }
    if (mutated) break;
  }
  ASSERT_TRUE(mutated) << "no archival recipe entry to corrupt";

  expect_only(verify::run_fsck(sys), Invariant::kRecipeResolution);
}

TEST(Fsck, DetectsFingerprintInBothContainerClasses) {
  HiDeStore sys;
  ingest(sys, 6);
  ASSERT_TRUE(verify::run_fsck(sys).clean());

  // Smuggle a hot (pool-resident) fingerprint into an existing archival
  // container. A zero-byte payload keeps every size/CRC/accounting check
  // honest, so only class exclusivity can object.
  ASSERT_FALSE(sys.active_pool().index().empty());
  const Fingerprint hot = sys.active_pool().index().begin()->first;
  auto ids = sys.archival_store().ids();
  ASSERT_FALSE(ids.empty());
  Container copy = *sys.archival_store().read(ids.front());
  ASSERT_TRUE(copy.add(hot, std::span<const std::uint8_t>{}));
  sys.archival_store().put(std::move(copy));

  expect_only(verify::run_fsck(sys), Invariant::kClassExclusivity);
}

// --- Integrity rule: a payload is CRC-checked once, as it loads ---

// Restores every version of a store whose one container file carries a
// flipped payload byte under a repaired file CRC. The load's per-chunk
// check rejects the container, so its chunks fail, the mismatch is
// counted, and fsck still blames the chunk, not the framing.
TEST(Fsck, ReadPathCrcFailureSurfacesInMetrics) {
  TempDir dir("hds_fsck_readpath");
  HiDeStoreConfig config;
  config.storage_dir = dir.path;
  HiDeStore sys(config);
  ingest(sys, 6);

  const auto file = find_payload_container(dir.path);
  ASSERT_FALSE(file.path.empty());
  flip_payload_byte(file);

  // Every archival chunk belongs to some retained version, so restoring
  // them all must trip over the corrupt payload.
  std::uint64_t failed = 0;
  for (VersionId v = 1; v <= sys.latest_version(); ++v) {
    failed += sys.restore(v, [](const ChunkLoc&,
                                std::span<const std::uint8_t>) {})
                  .stats.failed_chunks;
  }
  EXPECT_GT(failed, 0u);
  sys.refresh_gauges();
  const auto* counter = sys.metrics().find_counter("io_crc_failures");
  ASSERT_NE(counter, nullptr);
  EXPECT_GT(counter->value(), 0u);

  expect_only(verify::run_fsck(sys), Invariant::kChunkCrc);
}

// --- active_files: the copy-on-write active container files (§9) ---

// A repository saved after three versions, with its active containers in
// several files (small containers), reopened: every container is listed,
// none loaded.
std::unique_ptr<HiDeStore> saved_and_reopened(const fs::path& dir) {
  HiDeStoreConfig config;
  config.storage_dir = dir;
  config.container_size = 256 * 1024;
  {
    HiDeStore sys(config);
    ingest(sys, 3);
    sys.save(dir);
  }
  auto sys = HiDeStore::open(dir);
  EXPECT_NE(sys, nullptr);
  EXPECT_TRUE(verify::run_fsck(*sys).clean());
  return sys;
}

// A listed active container's file, and one of its live payloads.
struct ActiveFile {
  fs::path path;
  ContainerId id = 0;
  std::uint64_t epoch = 0;
  std::uint32_t payload_offset = 0;
};

ActiveFile active_file_with_payload(const HiDeStore& sys) {
  const auto& pool = sys.active_pool();
  for (const auto& [id, epoch] : pool.committed_files()) {
    ActiveFile file{pool.dir() / ActiveContainerPool::file_name(id, epoch),
                    id, epoch, 0};
    const auto container = Container::deserialize(slurp(file.path));
    if (!container) continue;
    for (const auto& [fp, entry] : container->entries()) {
      if (entry.offset == Container::kVirtualOffset || entry.size == 0) {
        continue;
      }
      file.payload_offset = entry.offset;
      return file;
    }
  }
  ADD_FAILURE() << "no active file with a live payload";
  return {};
}

// Open reads metadata only, so a payload that fails its chunk CRC no
// longer keeps the state from being adopted: it fails the container's
// load, on first touch, and fsck's active_files names it.
TEST(Fsck, ActivePayloadFailingItsChunkCrcFailsTheLoadNotTheOpen) {
  TempDir dir("hds_fsck_active_payload");
  auto sys = saved_and_reopened(dir.path);
  ASSERT_NE(sys, nullptr);
  const auto file = active_file_with_payload(*sys);
  ASSERT_FALSE(file.path.empty());
  auto bytes = slurp(file.path);
  bytes[Container::kHeaderSize + file.payload_offset] ^= 0xff;
  write_u32_at(bytes, bytes.size() - 4, crc32(bytes.data(), bytes.size() - 4));
  // Only the per-chunk CRC can object now.
  ASSERT_TRUE(Container::deserialize(bytes, Container::LoadCheck::kWholeFile));
  spit(file.path, bytes);

  RecoveryReport report;
  sys = HiDeStore::open(dir.path, &report);
  ASSERT_NE(sys, nullptr) << report.to_text();
  EXPECT_FALSE(report.performed) << report.to_text();
  expect_only(verify::run_fsck(*sys), Invariant::kActiveFiles);

  const std::uint64_t before = chunk_crc_failures();
  const auto restored = sys->restore(
      sys->latest_version(),
      [](const ChunkLoc&, std::span<const std::uint8_t>) {});
  EXPECT_GT(restored.stats.failed_chunks, 0u);
  EXPECT_GT(chunk_crc_failures(), before);
}

TEST(Fsck, DetectsMissingActiveFile) {
  TempDir dir("hds_fsck_active_missing");
  auto sys = saved_and_reopened(dir.path);
  ASSERT_NE(sys, nullptr);
  const auto file = active_file_with_payload(*sys);
  ASSERT_FALSE(file.path.empty());
  fs::remove(file.path);
  expect_only(verify::run_fsck(*sys), Invariant::kActiveFiles);
}

// A well-formed file whose chunks are not the ones the state lists for it.
TEST(Fsck, DetectsActiveFileHoldingOtherChunks) {
  TempDir dir("hds_fsck_active_other");
  auto sys = saved_and_reopened(dir.path);
  ASSERT_NE(sys, nullptr);
  const auto file = active_file_with_payload(*sys);
  ASSERT_FALSE(file.path.empty());
  auto container = Container::deserialize(slurp(file.path));
  ASSERT_TRUE(container.has_value());
  ASSERT_TRUE(container->remove(container->entries().begin()->first));
  spit(file.path, container->serialize());
  ASSERT_TRUE(Container::deserialize(slurp(file.path)).has_value());
  expect_only(verify::run_fsck(*sys), Invariant::kActiveFiles);
}

// An active file the committed state does not name: the debris of an
// unfinished save. With a live writer, a file staged past the committed
// epoch is that writer's save in flight; an older one is debris anyway.
TEST(Fsck, DetectsUnnamedActiveFile) {
  TempDir dir("hds_fsck_active_unnamed");
  auto sys = saved_and_reopened(dir.path);
  ASSERT_NE(sys, nullptr);
  const auto file = active_file_with_payload(*sys);
  ASSERT_FALSE(file.path.empty());
  const auto staged = sys->active_pool().dir() /
                      ActiveContainerPool::file_name(file.id, file.epoch + 1);
  fs::copy_file(file.path, staged);
  expect_only(verify::run_fsck(*sys), Invariant::kActiveFiles);
  verify::FsckOptions live;
  live.writer_live = true;
  EXPECT_TRUE(verify::run_fsck(*sys, live).clean());

  fs::rename(staged, sys->active_pool().dir() /
                         ActiveContainerPool::file_name(
                             file.id + 1000, file.epoch));
  expect_only(verify::run_fsck(*sys, live), Invariant::kActiveFiles);
}

// --- HDS_INVARIANT / HDS_CHECK macro layer ---

struct RecordedFailure {
  static std::vector<std::string> exprs;
  static void handler(const char* expr, const char*, int,
                      const std::string&) {
    exprs.emplace_back(expr);
  }
};
std::vector<std::string> RecordedFailure::exprs;

TEST(InvariantMacros, CompiledInOnlyUnderHdsVerify) {
  RecordedFailure::exprs.clear();
  const auto previous =
      verify::set_invariant_handler(&RecordedFailure::handler);
  const std::uint64_t before = verify::invariants_checked();

  HDS_INVARIANT(1 + 1 == 2);
  HDS_CHECK(false, "deliberate failure");

  verify::set_invariant_handler(previous);
#if defined(HDS_VERIFY)
  EXPECT_EQ(verify::invariants_checked(), before + 2);
  ASSERT_EQ(RecordedFailure::exprs.size(), 1u);
  EXPECT_EQ(RecordedFailure::exprs.front(), "false");
#else
  EXPECT_EQ(verify::invariants_checked(), before);
  EXPECT_TRUE(RecordedFailure::exprs.empty());
#endif
}

TEST(InvariantMacros, ReadOfPayloadDamagedAfterLoadTrips) {
  Container original(3, 64 * 1024);
  const Fingerprint fp = Fingerprint::from_seed(9);
  ASSERT_TRUE(original.add(fp, std::vector<std::uint8_t>(700, 0x5a)));
  auto image = original.serialize();
  image[Container::kHeaderSize + 100] ^= 0x01;
  write_u32_at(image, image.size() - 4,
               crc32(image.data(), image.size() - 4));
  // The whole-file load checks no payload, so this container stands in
  // for one whose bytes were damaged in memory after a verified load.
  const auto loaded =
      Container::deserialize(image, Container::LoadCheck::kWholeFile);
  ASSERT_TRUE(loaded.has_value());

  RecordedFailure::exprs.clear();
  const auto previous =
      verify::set_invariant_handler(&RecordedFailure::handler);
  const auto bytes = loaded->read(fp);
  verify::set_invariant_handler(previous);

  ASSERT_TRUE(bytes.has_value());
  EXPECT_EQ(bytes->size(), 700u);
#if defined(HDS_VERIFY)
  EXPECT_EQ(RecordedFailure::exprs.size(), 1u);
#else
  EXPECT_TRUE(RecordedFailure::exprs.empty());
#endif
}

TEST(InvariantMacros, BackupExercisesEmbeddedChecks) {
  const std::uint64_t before = verify::invariants_checked();
  HiDeStore sys;
  ingest(sys, 4);
#if defined(HDS_VERIFY)
  // Cache rotation, pool bookkeeping and recipe finalization all assert at
  // every version boundary.
  EXPECT_GT(verify::invariants_checked(), before);
#else
  EXPECT_EQ(verify::invariants_checked(), before);
#endif
}

}  // namespace
}  // namespace hds
