// Tests for Recipe and RecipeStore: entry accounting, the 28-byte on-disk
// footprint (paper §2.1), serialization round trips, corruption detection.
#include <gtest/gtest.h>

#include "backup/gc.h"
#include "core/recipe_chain.h"
#include "storage/recipe.h"
#include "workload/generator.h"

namespace hds {
namespace {

Recipe make_recipe(VersionId version, std::size_t entries) {
  Recipe r(version);
  for (std::size_t i = 0; i < entries; ++i) {
    r.add(Fingerprint::from_seed(version * 1000 + i),
          static_cast<ContainerId>(i % 7) - 2,  // mixes the 3 CID kinds
          1024 + static_cast<std::uint32_t>(i));
  }
  return r;
}

std::uint64_t entry_size_sum(const Recipe& r) {
  std::uint64_t total = 0;
  for (const auto& e : r.entries()) total += e.size;
  return total;
}

TEST(Recipe, AccountingMatchesEntries) {
  const auto r = make_recipe(1, 10);
  EXPECT_EQ(r.version(), 1u);
  EXPECT_EQ(r.chunk_count(), 10u);
  EXPECT_EQ(r.byte_size(), 10 * kRecipeEntrySize);
  std::uint64_t expect = 0;
  for (std::size_t i = 0; i < 10; ++i) expect += 1024 + i;
  EXPECT_EQ(r.logical_bytes(), expect);
}

TEST(Recipe, SerializeRoundTripPreservesAllCidKinds) {
  const auto r = make_recipe(7, 100);
  const auto blob = r.serialize();
  const auto back = Recipe::deserialize(blob);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->version(), 7u);
  ASSERT_EQ(back->chunk_count(), 100u);
  for (std::size_t i = 0; i < 100; ++i) {
    EXPECT_EQ(back->entries()[i].fp, r.entries()[i].fp);
    EXPECT_EQ(back->entries()[i].cid, r.entries()[i].cid);  // incl. negative
    EXPECT_EQ(back->entries()[i].size, r.entries()[i].size);
  }
}

TEST(Recipe, SerializeEmpty) {
  const Recipe r(3);
  const auto back = Recipe::deserialize(r.serialize());
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->version(), 3u);
  EXPECT_EQ(back->chunk_count(), 0u);
}

TEST(Recipe, DeserializeDetectsCorruption) {
  const auto blob = make_recipe(2, 10).serialize();
  auto corrupted = blob;
  corrupted[20] ^= 0x80;
  EXPECT_FALSE(Recipe::deserialize(corrupted).has_value());
  auto truncated = blob;
  truncated.resize(truncated.size() - 5);
  EXPECT_FALSE(Recipe::deserialize(truncated).has_value());
  EXPECT_FALSE(Recipe::deserialize({}).has_value());
}

TEST(RecipeStore, PutGetErase) {
  RecipeStore store;
  store.put(make_recipe(1, 5));
  store.put(make_recipe(2, 5));
  ASSERT_NE(store.get(1), nullptr);
  EXPECT_EQ(store.get(1)->version(), 1u);
  EXPECT_EQ(store.get(3), nullptr);
  EXPECT_TRUE(store.erase(1));
  EXPECT_FALSE(store.erase(1));
  EXPECT_EQ(store.get(1), nullptr);
  EXPECT_EQ(store.size(), 1u);
}

TEST(RecipeStore, PutOverwritesSameVersion) {
  RecipeStore store;
  store.put(make_recipe(1, 5));
  store.put(make_recipe(1, 9));
  EXPECT_EQ(store.get(1)->chunk_count(), 9u);
  EXPECT_EQ(store.size(), 1u);
}

TEST(RecipeStore, VersionsAreSorted) {
  RecipeStore store;
  store.put(make_recipe(5, 1));
  store.put(make_recipe(1, 1));
  store.put(make_recipe(3, 1));
  EXPECT_EQ(store.versions(), (std::vector<VersionId>{1, 3, 5}));
}

TEST(RecipeStore, MutableAccessUpdatesInPlace) {
  RecipeStore store;
  store.put(make_recipe(1, 3));
  store.get(1)->entries()[0].cid = 42;
  EXPECT_EQ(store.get(1)->entries()[0].cid, 42);
}

// logical_bytes() is a running total, not a walk over the entries. Every
// path that builds or rewrites a recipe must leave it equal to the sum.
TEST(Recipe, LogicalBytesTotalSurvivesEveryRewrite) {
  // add() and deserialize().
  const auto built = make_recipe(4, 50);
  EXPECT_EQ(built.logical_bytes(), entry_size_sum(built));
  const auto loaded = Recipe::deserialize(built.serialize());
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->logical_bytes(), built.logical_bytes());

  // The §4.3 recipe-chain update rewrites cids in place.
  Recipe prev(3);
  for (std::uint64_t i = 0; i < 20; ++i) {
    prev.add(Fingerprint::from_seed(i), kCidActive,
             4096 + static_cast<std::uint32_t>(i));
  }
  const std::uint64_t before = prev.logical_bytes();
  ColdMap cold;
  for (std::uint64_t i = 0; i < 20; i += 2) {
    cold.emplace(Fingerprint::from_seed(i), 17);
  }
  EXPECT_EQ(update_previous_recipe(prev, cold, 4, nullptr), 20u);
  EXPECT_EQ(prev.logical_bytes(), before);
  EXPECT_EQ(prev.logical_bytes(), entry_size_sum(prev));

  // gc's remap rewrites the cids of every surviving recipe.
  auto profile = WorkloadProfile::kernel();
  profile.versions = 12;
  profile.chunks_per_version = 400;
  VersionChainGenerator gen(profile);
  auto sys = make_baseline(BaselineKind::kDdfs);
  for (std::uint32_t v = 0; v < profile.versions; ++v) {
    (void)sys->backup(gen.next_version());
  }
  const auto report = collect_garbage(*sys, 6);
  ASSERT_GT(report.recipe_entries_remapped, 0u);
  for (const VersionId v : sys->recipes().versions()) {
    const Recipe* r = sys->recipes().get(v);
    EXPECT_EQ(r->logical_bytes(), entry_size_sum(*r)) << "version " << v;
  }
}

}  // namespace
}  // namespace hds
