// Tests for the WorkloadAdvisor: gap classification and the window
// recommendations of paper §4 across the calibrated profiles and synthetic
// corner cases.
#include <gtest/gtest.h>

#include <string>
#include <utility>

#include "core/advisor.h"
#include "workload/generator.h"

namespace hds {
namespace {

VersionStream stream_of(std::initializer_list<std::uint64_t> ids) {
  VersionStream vs;
  for (const auto id : ids) {
    vs.chunks.push_back(VersionChainGenerator::make_chunk(id));
  }
  return vs;
}

TEST(Advisor, EmptyObservationRecommendsWindowOne) {
  WorkloadAdvisor advisor;
  EXPECT_EQ(advisor.recommend(), Recommendation::kWindowOne);
}

TEST(Advisor, Gap1DuplicatesClassified) {
  WorkloadAdvisor advisor;
  advisor.observe(stream_of({1, 2, 3}));
  advisor.observe(stream_of({1, 2, 4}));
  EXPECT_EQ(advisor.report().dup_gap1, 2u);
  EXPECT_EQ(advisor.report().dup_gap2, 0u);
  EXPECT_EQ(advisor.recommend(), Recommendation::kWindowOne);
}

TEST(Advisor, Gap2DuplicatesTriggerWindowTwo) {
  WorkloadAdvisor advisor;
  advisor.observe(stream_of({1, 2, 3, 4}));
  advisor.observe(stream_of({5, 6, 7, 8}));   // 1..4 skip this version
  advisor.observe(stream_of({1, 2, 3, 4}));   // and return: gap 2
  EXPECT_EQ(advisor.report().dup_gap2, 4u);
  EXPECT_EQ(advisor.recommend(), Recommendation::kWindowTwo);
}

TEST(Advisor, DeepHistoryRedundancyNotRecommended) {
  WorkloadAdvisor advisor;
  advisor.observe(stream_of({1, 2, 3, 4}));
  advisor.observe(stream_of({10, 11, 12, 13}));
  advisor.observe(stream_of({20, 21, 22, 23}));
  advisor.observe(stream_of({1, 2, 3, 4}));  // gap 3: outside both windows
  EXPECT_EQ(advisor.report().dup_gap_deeper, 4u);
  EXPECT_EQ(advisor.recommend(), Recommendation::kNotRecommended);
}

TEST(Advisor, IntraVersionDuplicatesDoNotCount) {
  WorkloadAdvisor advisor;
  advisor.observe(stream_of({1, 1, 1, 2}));
  EXPECT_EQ(advisor.report().duplicate_chunks, 0u);
}

TEST(Advisor, ToleranceGovernsTheVerdict) {
  // 1 gap-2 duplicate out of 100: below a 2% tolerance, above a 0.5% one.
  auto feed = [](WorkloadAdvisor& advisor) {
    VersionStream v1, v2, v3;
    for (std::uint64_t i = 0; i < 100; ++i) {
      v1.chunks.push_back(VersionChainGenerator::make_chunk(i));
      // Chunk 0 skips v2; the rest flow through.
      v2.chunks.push_back(VersionChainGenerator::make_chunk(i == 0 ? 1000 : i));
      v3.chunks.push_back(VersionChainGenerator::make_chunk(i));
    }
    advisor.observe(v1);
    advisor.observe(v2);
    advisor.observe(v3);
  };
  WorkloadAdvisor tolerant(0.02);
  feed(tolerant);
  EXPECT_EQ(tolerant.recommend(), Recommendation::kWindowOne);
  WorkloadAdvisor strict(0.005);
  feed(strict);
  EXPECT_EQ(strict.recommend(), Recommendation::kWindowTwo);
}

// The calibrated profiles must be diagnosed the way the paper diagnoses
// their real counterparts (Figure 3): kernel/gcc/fslhomes → window 1,
// macos → window 2. The profile name is a std::string, not a const char*,
// so the printed parameter (and with it the ctest name) carries the name
// rather than an address that changes from run to run.
class AdvisorProfileTest
    : public ::testing::TestWithParam<std::pair<std::string, Recommendation>> {
};

TEST_P(AdvisorProfileTest, ProfileDiagnosis) {
  const auto& [name, expected] = GetParam();
  WorkloadProfile profile;
  if (name == "kernel") profile = WorkloadProfile::kernel();
  if (name == "gcc") profile = WorkloadProfile::gcc();
  if (name == "fslhomes") profile = WorkloadProfile::fslhomes();
  if (name == "macos") profile = WorkloadProfile::macos();
  profile.versions = 15;
  profile.chunks_per_version = 1000;

  WorkloadAdvisor advisor;
  VersionChainGenerator gen(profile);
  for (std::uint32_t v = 0; v < profile.versions; ++v) {
    advisor.observe(gen.next_version());
  }
  EXPECT_EQ(advisor.recommend(), expected);
  EXPECT_EQ(advisor.report().dup_gap_deeper, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    PaperProfiles, AdvisorProfileTest,
    ::testing::Values(
        std::pair<std::string, Recommendation>{"kernel", Recommendation::kWindowOne},
        std::pair<std::string, Recommendation>{"gcc", Recommendation::kWindowOne},
        std::pair<std::string, Recommendation>{"fslhomes", Recommendation::kWindowOne},
        std::pair<std::string, Recommendation>{"macos", Recommendation::kWindowTwo}),
    [](const auto& suite_info) { return suite_info.param.first; });

}  // namespace
}  // namespace hds
