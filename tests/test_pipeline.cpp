// Tests for the DedupPipeline baselines: byte-exact backup/restore round
// trips for every configuration, exactness of DDFS, report consistency,
// intra-version dedup, and the rewriting space/locality trade-off.
#include <gtest/gtest.h>

#include <filesystem>

#include "backup/pipeline.h"
#include "index/full_index.h"
#include "index/silo_index.h"
#include "restore/faa.h"
#include "workload/generator.h"

#include "util/temp_dir.h"

namespace hds {
namespace {

WorkloadProfile small_profile(std::uint32_t versions = 10,
                              std::size_t chunks = 400) {
  auto p = WorkloadProfile::kernel();
  p.versions = versions;
  p.chunks_per_version = chunks;
  return p;
}

std::vector<VersionStream> generate(const WorkloadProfile& p) {
  VersionChainGenerator gen(p);
  std::vector<VersionStream> out;
  for (std::uint32_t v = 0; v < p.versions; ++v) {
    out.push_back(gen.next_version());
  }
  return out;
}

// Restores `version` and checks every chunk against the original stream.
void expect_exact_restore(DedupPipeline& sys, VersionId version,
                          const VersionStream& original) {
  std::size_t at = 0;
  bool content_ok = true;
  const auto report = sys.restore(
      version, [&](const ChunkLoc& loc, std::span<const std::uint8_t> bytes) {
        if (at < original.chunks.size()) {
          const auto& want = original.chunks[at];
          if (loc.fp != want.fp || bytes.size() != want.size) {
            content_ok = false;
          } else {
            const auto expect = want.materialize();
            content_ok &=
                std::equal(bytes.begin(), bytes.end(), expect.begin());
          }
        }
        ++at;
      });
  EXPECT_EQ(at, original.chunks.size());
  EXPECT_TRUE(content_ok);
  EXPECT_EQ(report.stats.restored_bytes, original.logical_bytes());
}

class BaselineTest : public ::testing::TestWithParam<BaselineKind> {};

TEST_P(BaselineTest, RoundTripAllVersions) {
  const auto profile = small_profile(8, 300);
  const auto versions = generate(profile);
  auto sys = make_baseline(GetParam());
  for (const auto& vs : versions) (void)sys->backup(vs);
  for (std::size_t v = 0; v < versions.size(); ++v) {
    expect_exact_restore(*sys, static_cast<VersionId>(v + 1), versions[v]);
  }
}

TEST_P(BaselineTest, ReportsAreConsistent) {
  const auto profile = small_profile(5, 300);
  const auto versions = generate(profile);
  auto sys = make_baseline(GetParam());
  std::uint64_t logical = 0, stored = 0;
  for (const auto& vs : versions) {
    const auto report = sys->backup(vs);
    EXPECT_EQ(report.logical_bytes, vs.logical_bytes());
    EXPECT_EQ(report.logical_chunks, vs.chunks.size());
    EXPECT_LE(report.stored_bytes, report.logical_bytes);
    logical += report.logical_bytes;
    stored += report.stored_bytes;
  }
  EXPECT_EQ(sys->total_logical_bytes(), logical);
  EXPECT_EQ(sys->total_stored_bytes(), stored);
  EXPECT_NEAR(sys->dedup_ratio(),
              1.0 - static_cast<double>(stored) / static_cast<double>(logical),
              1e-12);
}

INSTANTIATE_TEST_SUITE_P(AllBaselines, BaselineTest,
                         ::testing::Values(BaselineKind::kDdfs,
                                           BaselineKind::kSparse,
                                           BaselineKind::kSilo,
                                           BaselineKind::kSiloCapping,
                                           BaselineKind::kSiloAlacc,
                                           BaselineKind::kSiloFbw),
                         [](const auto& suite_info) {
                           switch (suite_info.param) {
                             case BaselineKind::kDdfs: return "ddfs";
                             case BaselineKind::kSparse: return "sparse";
                             case BaselineKind::kSilo: return "silo";
                             case BaselineKind::kSiloCapping:
                               return "silo_capping";
                             case BaselineKind::kSiloAlacc:
                               return "silo_alacc";
                             case BaselineKind::kSiloFbw: return "silo_fbw";
                           }
                           return "unknown";
                         });

TEST(Pipeline, DdfsIsExact) {
  // Backing up the same version twice must store (almost) nothing new:
  // only what intra-version structure already deduplicated the first time.
  const auto profile = small_profile(1, 500);
  const auto versions = generate(profile);
  auto sys = make_baseline(BaselineKind::kDdfs);
  (void)sys->backup(versions[0]);
  const auto again = sys->backup(versions[0]);
  EXPECT_EQ(again.stored_bytes, 0u);
  EXPECT_EQ(again.stored_chunks, 0u);
}

TEST(Pipeline, IntraVersionDuplicatesStoredOnce) {
  auto rec = VersionChainGenerator::make_chunk(1);
  VersionStream vs;
  for (int i = 0; i < 5; ++i) vs.chunks.push_back(rec);
  auto sys = make_baseline(BaselineKind::kDdfs);
  const auto report = sys->backup(vs);
  EXPECT_EQ(report.stored_chunks, 1u);
  EXPECT_EQ(report.logical_chunks, 5u);
  expect_exact_restore(*sys, 1, vs);
}

TEST(Pipeline, NearExactSchemesStoreAtLeastAsMuchAsDdfs) {
  const auto profile = small_profile(12, 400);
  const auto versions = generate(profile);
  auto ddfs = make_baseline(BaselineKind::kDdfs);
  auto sparse = make_baseline(BaselineKind::kSparse);
  auto silo = make_baseline(BaselineKind::kSilo);
  for (const auto& vs : versions) {
    (void)ddfs->backup(vs);
    (void)sparse->backup(vs);
    (void)silo->backup(vs);
  }
  EXPECT_GE(sparse->total_stored_bytes(), ddfs->total_stored_bytes());
  EXPECT_GE(silo->total_stored_bytes(), ddfs->total_stored_bytes());
  EXPECT_LE(sparse->dedup_ratio(), ddfs->dedup_ratio());
  EXPECT_LE(silo->dedup_ratio(), ddfs->dedup_ratio());
}

TEST(Pipeline, RewritingTradesSpaceForRestoreLocality) {
  // After many versions, capping must (a) have stored strictly more bytes
  // and (b) restore the latest version with fewer container reads than the
  // no-rewrite SiLo baseline.
  auto profile = small_profile(20, 500);
  const auto versions = generate(profile);
  auto plain = make_baseline(BaselineKind::kSilo);
  PipelineConfig config;
  RewriteConfig rewrite_config;
  rewrite_config.cap = 6;
  rewrite_config.container_size = config.container_size;
  auto capped = std::make_unique<DedupPipeline>(
      "silo+capping", std::make_unique<SiLoIndex>(),
      make_rewrite_filter(RewriteKind::kCapping, rewrite_config),
      std::make_unique<MemoryContainerStore>(), config);

  for (const auto& vs : versions) {
    (void)plain->backup(vs);
    (void)capped->backup(vs);
  }
  EXPECT_GT(capped->total_stored_bytes(), plain->total_stored_bytes());
  EXPECT_GT(capped->rewriter().stats().rewritten_chunks, 0u);

  auto count_reads = [&](DedupPipeline& sys) {
    RestoreConfig rc;
    FaaRestore faa(rc);
    const auto report = sys.restore_with(
        static_cast<VersionId>(versions.size()), faa,
        [](const ChunkLoc&, std::span<const std::uint8_t>) {});
    return report.stats.container_reads;
  };
  EXPECT_LT(count_reads(*capped), count_reads(*plain));
}

TEST(Pipeline, RestoreWithEveryPolicyIsExact) {
  const auto profile = small_profile(6, 300);
  const auto versions = generate(profile);
  auto sys = make_baseline(BaselineKind::kDdfs);
  for (const auto& vs : versions) (void)sys->backup(vs);

  for (auto kind : {RestorePolicyKind::kNoCache,
                    RestorePolicyKind::kContainerLru,
                    RestorePolicyKind::kChunkLru, RestorePolicyKind::kFaa,
                    RestorePolicyKind::kAlacc, RestorePolicyKind::kFbw}) {
    auto policy = make_restore_policy(kind);
    std::size_t at = 0;
    bool ok = true;
    (void)sys->restore_with(
        3, *policy,
        [&](const ChunkLoc& loc, std::span<const std::uint8_t> bytes) {
          const auto& want = versions[2].chunks[at++];
          ok &= loc.fp == want.fp && bytes.size() == want.size;
        });
    EXPECT_EQ(at, versions[2].chunks.size()) << policy->name();
    EXPECT_TRUE(ok) << policy->name();
  }
}

TEST(Pipeline, RestoreOfUnknownVersionIsEmpty) {
  auto sys = make_baseline(BaselineKind::kDdfs);
  const auto report = sys->restore(
      99, [](const ChunkLoc&, std::span<const std::uint8_t>) { FAIL(); });
  EXPECT_EQ(report.stats.restored_chunks, 0u);
}

TEST(Pipeline, MetadataOnlyModeMatchesIoCounts) {
  const auto profile = small_profile(6, 300);
  const auto versions = generate(profile);

  PipelineConfig real_config;
  PipelineConfig meta_config;
  meta_config.materialize_contents = false;

  auto real_sys = std::make_unique<DedupPipeline>(
      "real", std::make_unique<FullIndex>(), std::make_unique<NoRewrite>(),
      std::make_unique<MemoryContainerStore>(), real_config);
  auto meta_sys = std::make_unique<DedupPipeline>(
      "meta", std::make_unique<FullIndex>(), std::make_unique<NoRewrite>(),
      std::make_unique<MemoryContainerStore>(), meta_config);

  for (const auto& vs : versions) {
    const auto a = real_sys->backup(vs);
    const auto b = meta_sys->backup(vs);
    EXPECT_EQ(a.stored_bytes, b.stored_bytes);
    EXPECT_EQ(a.stored_chunks, b.stored_chunks);
  }
  auto reads = [](DedupPipeline& sys) {
    RestoreConfig rc;
    FaaRestore faa(rc);
    return sys
        .restore_with(6, faa,
                      [](const ChunkLoc&, std::span<const std::uint8_t>) {})
        .stats.container_reads;
  };
  EXPECT_EQ(reads(*real_sys), reads(*meta_sys));
}

TEST(Pipeline, FileStoreRangeRestoreIsByteExact) {
  const auto dir =
      hds::testutil::unique_path("hds_pipeline_partial");
  std::filesystem::remove_all(dir);
  DedupPipeline sys("ddfs-file", std::make_unique<FullIndex>(),
                    std::make_unique<NoRewrite>(),
                    std::make_unique<FileContainerStore>(dir));
  const auto versions = generate(small_profile(6, 300));
  for (const auto& vs : versions) (void)sys.backup(vs);

  // Range restore reads only the containers covering the range, each one
  // whole, and the content stays byte-exact.
  sys.store().reset_stats();
  RestoreConfig rc;
  FaaRestore policy(rc);
  std::vector<std::uint8_t> out;
  (void)sys.restore_range(
      static_cast<VersionId>(versions.size()), 0, 256 * 1024, policy,
      [&](const ChunkLoc&, std::span<const std::uint8_t> b) {
        out.insert(out.end(), b.begin(), b.end());
      });
  EXPECT_EQ(out.size(), 256u * 1024u);
  const auto& last = versions.back();
  std::vector<std::uint8_t> expect;
  for (const auto& chunk : last.chunks) {
    const auto bytes = chunk.materialize();
    expect.insert(expect.end(), bytes.begin(), bytes.end());
    if (expect.size() >= out.size()) break;
  }
  expect.resize(out.size());
  EXPECT_EQ(out, expect);

  const auto& stats = sys.store().stats();
  EXPECT_GT(stats.container_reads, 0u);
  EXPECT_GT(stats.bytes_read_physical, 0u);
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace hds
