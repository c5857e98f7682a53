// Model-based fuzz test: random interleavings of every public operation —
// backup, restore, flatten, expiry, save/open — are checked against a
// trivially correct reference model (the retained version streams held in
// memory). Parameterized over RNG seeds and cache windows; any divergence
// in chunk sequence or content is a real bug.
#include <gtest/gtest.h>

#include <filesystem>
#include <map>

#include "core/hidestore.h"
#include "workload/generator.h"

#include "util/temp_dir.h"

namespace hds {
namespace {

namespace fs = std::filesystem;

struct FuzzCase {
  std::uint64_t seed;
  int window;
};

class ModelFuzzTest : public ::testing::TestWithParam<FuzzCase> {};

TEST_P(ModelFuzzTest, RandomOperationSequencesMatchTheModel) {
  const auto [seed, window] = GetParam();
  Xoshiro256ss rng(seed);

  WorkloadProfile profile =
      window == 2 ? WorkloadProfile::macos() : WorkloadProfile::kernel();
  profile.versions = 1000;  // generator keeps mutating for as long as asked
  profile.chunks_per_version = 120 + rng.next_below(120);
  profile.seed = seed * 7919;
  VersionChainGenerator gen(profile);

  const auto dir =
      hds::testutil::unique_path("hds_model_fuzz_" + std::to_string(seed) +
                                 "_" + std::to_string(window));
  fs::remove_all(dir);

  HiDeStoreConfig config;
  config.cache_window = window;
  config.compaction_threshold = 0.25 + rng.next_double() * 0.5;
  config.storage_dir = dir;
  auto sys = std::make_unique<HiDeStore>(config);

  // The reference model: every retained version's exact chunk stream.
  std::map<VersionId, VersionStream> model;
  VersionId next_version = 1;
  VersionId oldest_alive = 1;

  const int steps = 60;
  for (int step = 0; step < steps; ++step) {
    const auto op = rng.next_below(10);
    if (op < 5 || model.empty()) {
      // --- backup ---
      auto stream = gen.next_version();
      (void)sys->backup(stream);
      model.emplace(next_version++, std::move(stream));
    } else if (op < 8) {
      // --- restore a random retained version, verify exactly ---
      auto it = model.begin();
      std::advance(it, static_cast<std::ptrdiff_t>(
                           rng.next_below(model.size())));
      const auto& [version, expect] = *it;
      std::size_t at = 0;
      bool ok = true;
      const auto report = sys->restore(
          version,
          [&](const ChunkLoc& loc, std::span<const std::uint8_t> bytes) {
            if (at < expect.chunks.size()) {
              const auto& want = expect.chunks[at];
              if (loc.fp != want.fp || bytes.size() != want.size) {
                ok = false;
              } else {
                const auto content = want.materialize();
                ok &= std::equal(bytes.begin(), bytes.end(),
                                 content.begin());
              }
            }
            ++at;
          });
      ASSERT_EQ(at, expect.chunks.size())
          << "seed " << seed << " step " << step << " v" << version;
      ASSERT_TRUE(ok) << "seed " << seed << " step " << step;
      ASSERT_EQ(report.stats.failed_chunks, 0u);
    } else if (op == 8) {
      // --- flatten or expire, coin flip ---
      if (rng.chance(0.5)) {
        (void)sys->flatten_recipes();
      } else if (model.size() > 2) {
        const VersionId upto =
            oldest_alive +
            static_cast<VersionId>(rng.next_below(model.size() - 2));
        (void)sys->delete_versions_up_to(upto);
        while (!model.empty() && model.begin()->first <= upto) {
          model.erase(model.begin());
        }
        oldest_alive = std::max(oldest_alive, upto + 1);
      }
    } else {
      // --- save + open round trip ---
      sys->save(dir);
      auto reloaded = HiDeStore::open(dir);
      ASSERT_NE(reloaded, nullptr) << "seed " << seed << " step " << step;
      sys = std::move(reloaded);
    }
  }

  // Final sweep: every retained version must still restore exactly.
  for (const auto& [version, expect] : model) {
    std::size_t at = 0;
    (void)sys->restore(version,
                       [&](const ChunkLoc&, std::span<const std::uint8_t>) {
                         ++at;
                       });
    EXPECT_EQ(at, expect.chunks.size()) << "final check v" << version;
  }
  fs::remove_all(dir);
}

std::vector<FuzzCase> fuzz_cases() {
  std::vector<FuzzCase> cases;
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    cases.push_back({seed, 1});
    cases.push_back({seed, 2});
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Seeds, ModelFuzzTest,
                         ::testing::ValuesIn(fuzz_cases()),
                         [](const auto& suite_info) {
                           return "seed" + std::to_string(suite_info.param.seed) +
                                  "_w" + std::to_string(suite_info.param.window);
                         });

}  // namespace
}  // namespace hds
