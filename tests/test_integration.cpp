// Integration and property tests across the whole stack:
//   * real bytes → TTTD chunking → SHA-1 → backup → restore → byte equality,
//     for both HiDeStore and the DDFS baseline;
//   * the file-backed container store under a full pipeline;
//   * a property sweep over (profile × system): every retained version of
//     every system restores bit-exactly.
#include <gtest/gtest.h>

#include <filesystem>
#include <numeric>
#include <ostream>

#include "backup/pipeline.h"
#include "index/full_index.h"
#include "chunking/chunk_stream.h"
#include "chunking/tttd.h"
#include "core/hidestore.h"
#include "workload/generator.h"

#include "util/temp_dir.h"

namespace hds {
namespace {

// --- Real-bytes end-to-end ---

class ByteLevelTest : public ::testing::Test {
 protected:
  // Builds byte-level versions and their chunked streams.
  void build(std::size_t versions, std::size_t bytes, double edit_rate) {
    ByteStreamWorkload workload(21, bytes);
    TttdChunker chunker;
    for (std::size_t v = 0; v < versions; ++v) {
      raw_.push_back(workload.next_version(edit_rate));
      streams_.push_back(chunk_bytes(chunker, raw_.back()));
    }
  }

  // Restores a version and reassembles the byte stream.
  template <typename System>
  std::vector<std::uint8_t> reassemble(System& sys, VersionId version) {
    std::vector<std::uint8_t> out;
    (void)sys.restore(version, [&](const ChunkLoc&,
                                   std::span<const std::uint8_t> bytes) {
      out.insert(out.end(), bytes.begin(), bytes.end());
    });
    return out;
  }

  std::vector<std::vector<std::uint8_t>> raw_;
  std::vector<VersionStream> streams_;
};

TEST_F(ByteLevelTest, HiDeStoreRestoresOriginalBytes) {
  build(6, 512 * 1024, 0.08);
  HiDeStore sys;
  for (const auto& s : streams_) (void)sys.backup(s);
  for (std::size_t v = 0; v < raw_.size(); ++v) {
    EXPECT_EQ(reassemble(sys, static_cast<VersionId>(v + 1)), raw_[v])
        << "version " << v + 1;
  }
}

TEST_F(ByteLevelTest, BaselineRestoresOriginalBytes) {
  build(5, 512 * 1024, 0.08);
  auto sys = make_baseline(BaselineKind::kDdfs);
  for (const auto& s : streams_) (void)sys->backup(s);
  for (std::size_t v = 0; v < raw_.size(); ++v) {
    EXPECT_EQ(reassemble(*sys, static_cast<VersionId>(v + 1)), raw_[v]);
  }
}

TEST_F(ByteLevelTest, CdcYieldsHighDedupAcrossByteVersions) {
  build(8, 512 * 1024, 0.05);
  auto sys = make_baseline(BaselineKind::kDdfs);
  for (const auto& s : streams_) (void)sys->backup(s);
  // ~5% byte edits per version: dedup must eliminate the bulk.
  EXPECT_GT(sys->dedup_ratio(), 0.6);
}

// --- File-backed store under a full pipeline ---

TEST(FileBackedPipeline, RoundTripsThroughRealFiles) {
  const auto dir =
      hds::testutil::unique_path("hds_integration_store");
  std::filesystem::remove_all(dir);

  auto profile = WorkloadProfile::kernel();
  profile.versions = 5;
  profile.chunks_per_version = 300;
  VersionChainGenerator gen(profile);
  std::vector<VersionStream> versions;
  for (std::uint32_t v = 0; v < profile.versions; ++v) {
    versions.push_back(gen.next_version());
  }

  DedupPipeline sys("ddfs-file", std::make_unique<FullIndex>(),
                    std::make_unique<NoRewrite>(),
                    std::make_unique<FileContainerStore>(dir));
  for (const auto& vs : versions) (void)sys.backup(vs);

  for (std::size_t v = 0; v < versions.size(); ++v) {
    std::size_t at = 0;
    bool ok = true;
    (void)sys.restore(
        static_cast<VersionId>(v + 1),
        [&](const ChunkLoc& loc, std::span<const std::uint8_t> bytes) {
          const auto& want = versions[v].chunks[at++];
          if (loc.fp != want.fp) {
            ok = false;
            return;
          }
          const auto expect = want.materialize();
          ok &= bytes.size() == expect.size() &&
                std::equal(bytes.begin(), bytes.end(), expect.begin());
        });
    EXPECT_EQ(at, versions[v].chunks.size());
    EXPECT_TRUE(ok);
  }
  std::filesystem::remove_all(dir);
}

// --- Property sweep: profile × system → exact restores ---

struct SweepCase {
  const char* profile;
  const char* system;
};

// Names the case in test listings: without it gtest prints the struct's
// bytes, pointers included, and the ctest names change from run to run.
void PrintTo(const SweepCase& c, std::ostream* os) {
  *os << c.profile << "/" << c.system;
}

class SweepTest : public ::testing::TestWithParam<SweepCase> {
 protected:
  static WorkloadProfile profile_by_name(const std::string& name) {
    WorkloadProfile p;
    if (name == "kernel") p = WorkloadProfile::kernel();
    if (name == "gcc") p = WorkloadProfile::gcc();
    if (name == "fslhomes") p = WorkloadProfile::fslhomes();
    if (name == "macos") p = WorkloadProfile::macos();
    p.versions = 8;
    p.chunks_per_version = 250;
    return p;
  }
};

TEST_P(SweepTest, EveryVersionRestoresExactly) {
  const auto param = GetParam();
  const auto profile = profile_by_name(param.profile);
  VersionChainGenerator gen(profile);
  std::vector<VersionStream> versions;
  for (std::uint32_t v = 0; v < profile.versions; ++v) {
    versions.push_back(gen.next_version());
  }

  std::unique_ptr<BackupSystem> sys;
  const std::string name = param.system;
  if (name == "hidestore") {
    HiDeStoreConfig config;
    config.cache_window = profile.skip_rate > 0 ? 2 : 1;
    sys = std::make_unique<HiDeStore>(config);
  } else if (name == "ddfs") {
    sys = make_baseline(BaselineKind::kDdfs);
  } else if (name == "sparse") {
    sys = make_baseline(BaselineKind::kSparse);
  } else if (name == "silo") {
    sys = make_baseline(BaselineKind::kSilo);
  } else if (name == "silo+capping") {
    sys = make_baseline(BaselineKind::kSiloCapping);
  } else {
    sys = make_baseline(BaselineKind::kSiloFbw);
  }

  for (const auto& vs : versions) {
    const auto report = sys->backup(vs);
    EXPECT_EQ(report.logical_chunks, vs.chunks.size());
  }
  for (std::size_t v = 0; v < versions.size(); ++v) {
    std::size_t at = 0;
    std::uint64_t bytes_seen = 0;
    bool fps_ok = true;
    (void)sys->restore(
        static_cast<VersionId>(v + 1),
        [&](const ChunkLoc& loc, std::span<const std::uint8_t> bytes) {
          if (at < versions[v].chunks.size()) {
            fps_ok &= loc.fp == versions[v].chunks[at].fp;
          }
          bytes_seen += bytes.size();
          ++at;
        });
    EXPECT_EQ(at, versions[v].chunks.size())
        << param.system << "/" << param.profile << " v" << v + 1;
    EXPECT_TRUE(fps_ok);
    EXPECT_EQ(bytes_seen, versions[v].logical_bytes());
  }
}

std::vector<SweepCase> sweep_cases() {
  std::vector<SweepCase> cases;
  for (const char* profile : {"kernel", "gcc", "fslhomes", "macos"}) {
    for (const char* system : {"hidestore", "ddfs", "sparse", "silo",
                               "silo+capping", "silo+fbw"}) {
      cases.push_back({profile, system});
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(ProfilesBySystems, SweepTest,
                         ::testing::ValuesIn(sweep_cases()),
                         [](const auto& suite_info) {
                           std::string name = std::string(suite_info.param.profile) +
                                              "_" + suite_info.param.system;
                           for (auto& c : name) {
                             if (c == '+') c = '_';
                           }
                           return name;
                         });

}  // namespace
}  // namespace hds
