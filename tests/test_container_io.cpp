// Tests for the container read path (DESIGN.md §10) and the restore read
// path above it (§13): the block cache, the FileContainerStore under
// concurrent readers, a writer and an eraser, the pread loop's
// short-read/EINTR continuation and injected device failures, and
// per-stream ReadMeter accounting under concurrent multi-worker FAA
// restore streams (runs under TSan via the `concurrency` label).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <map>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "restore/faa.h"
#include "storage/block_cache.h"
#include "storage/container_store.h"
#include "storage/durable.h"

#include "util/temp_dir.h"

namespace hds {
namespace {

std::filesystem::path fresh_dir(const char* name) {
  const auto dir = hds::testutil::unique_path(name);
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

std::shared_ptr<Container> make_cached_container(std::uint64_t seed,
                                                 std::size_t chunks,
                                                 std::size_t chunk_bytes) {
  auto c = std::make_shared<Container>(static_cast<ContainerId>(seed),
                                       4 * 1024 * 1024);
  Xoshiro256ss rng(seed);
  for (std::size_t i = 0; i < chunks; ++i) {
    std::vector<std::uint8_t> data(chunk_bytes);
    for (auto& b : data) b = static_cast<std::uint8_t>(rng.next());
    c->add(Fingerprint::from_seed(seed * 100 + i), data);
  }
  return c;
}

// Every entry is a whole container: a hit serves any chunk of it.
TEST(BlockCache, FullEntrySatisfiesAnyLookup) {
  BlockCache cache(1 << 20);
  const auto c = make_cached_container(1, 4, 512);
  cache.insert(1, c);
  const auto hit = cache.find(1);
  ASSERT_EQ(hit, c);
  for (std::uint64_t i = 0; i < 4; ++i) {
    EXPECT_TRUE(hit->read(Fingerprint::from_seed(100 + i)).has_value());
  }
  EXPECT_EQ(cache.find(2), nullptr);
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 1u);
}

TEST(BlockCache, EvictsLruWhenOverBudget) {
  BlockCache cache(8 * 1024);
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    const auto c = make_cached_container(seed, 2, 1500);  // ~3 KiB each
    cache.insert(static_cast<ContainerId>(seed), c);
  }
  EXPECT_GT(cache.evictions(), 0u);
  EXPECT_LE(cache.bytes(), 8u * 1024u);
  EXPECT_EQ(cache.find(1), nullptr);  // oldest went first
  EXPECT_NE(cache.find(3), nullptr);
}

TEST(BlockCache, InvalidateDropsEntry) {
  BlockCache cache(1 << 20);
  const auto c = make_cached_container(5, 2, 128);
  cache.insert(5, c);
  cache.invalidate(5);
  EXPECT_EQ(cache.find(5), nullptr);
  EXPECT_EQ(cache.bytes(), 0u);
}

// Fill workers share one cache mutex: lookups, inserts that evict, and
// invalidations race on a budget of four entries; TSan (ctest -L
// concurrency) checks the locking, and the charge never exceeds the budget.
TEST(BlockCache, ConcurrentUseStaysWithinBudget) {
  std::vector<std::shared_ptr<Container>> containers;
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    containers.push_back(make_cached_container(seed, 2, 1000));
  }
  const std::size_t charge = containers[0]->data_size() + 2 * 64;
  BlockCache cache(4 * charge);
  std::atomic<bool> failed{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      Xoshiro256ss rng(static_cast<std::uint64_t>(t) + 5);
      for (int i = 0; i < 2000; ++i) {
        const std::size_t k = rng.next_below(containers.size());
        const auto id = static_cast<ContainerId>(k + 1);
        switch (rng.next_below(4)) {
          case 0: cache.invalidate(id); break;
          case 1: cache.insert(id, containers[k]); break;
          default:
            if (const auto hit = cache.find(id);
                hit != nullptr && hit != containers[k]) {
              failed.store(true);
            }
        }
        if (cache.bytes() > 4 * charge) failed.store(true);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_FALSE(failed.load());
  EXPECT_GT(cache.evictions(), 0u);
}

Container make_store_container(std::uint64_t seed) {
  Container c(0, 64 * 1024);
  Xoshiro256ss rng(seed);
  for (std::size_t i = 0; i < 8; ++i) {
    std::vector<std::uint8_t> data(512 + rng.next_below(512));
    for (auto& b : data) b = static_cast<std::uint8_t>(rng.next());
    c.add(Fingerprint::from_seed(seed * 100 + i), data);
  }
  return c;
}

// Readers + a writer + an eraser hammering one FileContainerStore, so
// cache fills and invalidations run under contention; TSan (ctest -L
// concurrency) checks the locking.
TEST(FileStoreConcurrency, ReadersWriterAndEraserStayConsistent) {
  FileContainerStore store(fresh_dir("hds_store_hammer"));

  constexpr ContainerId kStable = 16;   // ids 1..16 are never erased
  constexpr ContainerId kVictims = 8;   // ids 17..24 get erased mid-run
  for (ContainerId id = 1; id <= kStable + kVictims; ++id) {
    ASSERT_EQ(store.write(make_store_container(
                  static_cast<std::uint64_t>(id))),
              id);
  }

  std::atomic<bool> failed{false};
  std::vector<std::thread> threads;

  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&store, &failed, t] {
      Xoshiro256ss rng(static_cast<std::uint64_t>(t) + 77);
      for (int i = 0; i < 300 && !failed.load(); ++i) {
        const auto id = static_cast<ContainerId>(
            1 + rng.next_below(kStable + kVictims));
        const auto seed = static_cast<std::uint64_t>(id);
        const auto fp = Fingerprint::from_seed(seed * 100 + i % 8);
        const auto got = store.read(id);
        if (got == nullptr) {
          // Only erased victims may vanish.
          if (id <= kStable) failed.store(true);
          continue;
        }
        if (!got->read(fp).has_value()) failed.store(true);
      }
    });
  }

  threads.emplace_back([&store, &failed] {  // writer
    for (std::uint64_t seed = 100; seed < 140 && !failed.load(); ++seed) {
      const auto id = store.write(make_store_container(seed));
      const auto back = store.read(id);
      if (back == nullptr ||
          !back->read(Fingerprint::from_seed(seed * 100)).has_value()) {
        failed.store(true);
      }
    }
  });

  threads.emplace_back([&store] {  // eraser
    for (ContainerId id = kStable + 1; id <= kStable + kVictims; ++id) {
      store.erase(id);
    }
  });

  for (auto& t : threads) t.join();
  EXPECT_FALSE(failed.load());

  // Post-conditions: every stable container still reads back intact.
  for (ContainerId id = 1; id <= kStable; ++id) {
    const auto back = store.read(id);
    ASSERT_NE(back, nullptr);
    EXPECT_EQ(back->chunk_count(), 8u);
  }
  for (ContainerId id = kStable + 1; id <= kStable + kVictims; ++id) {
    EXPECT_EQ(store.read(id), nullptr);
  }
}

// --- Restore read path (DESIGN.md §13) ------------------------------------

// Six containers on disk plus the reference bytes of every chunk.
class ContainerReadPath : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fresh_dir("hds_read_path");
    FileContainerStore seed(dir_);
    for (std::uint64_t s = 1; s <= 6; ++s) {
      const auto id = seed.write(make_store_container(s));
      const auto got = seed.read(id);
      ASSERT_NE(got, nullptr);
      for (std::size_t i = 0; i < 8; ++i) {
        const auto fp = Fingerprint::from_seed(s * 100 + i);
        const auto bytes = got->read(fp);
        ASSERT_TRUE(bytes.has_value());
        reference_[id][fp].assign(bytes->begin(), bytes->end());
      }
      ids_.push_back(id);
    }
  }

  // True when `got` holds exactly the reference bytes of every chunk.
  bool matches(ContainerId id, const Container* got) {
    if (got == nullptr) return false;
    for (const auto& [fp, bytes] : reference_.at(id)) {
      const auto read = got->read(fp);
      if (!read.has_value() || !std::equal(bytes.begin(), bytes.end(),
                                           read->begin(), read->end())) {
        return false;
      }
    }
    return true;
  }

  // Reads every container twice through a fresh store — once from the
  // device, once from the block cache; checks the bytes and returns the
  // store's logical read accounting.
  std::pair<std::uint64_t, std::uint64_t> run_reads() {
    FileContainerStore store(dir_, /*index_existing=*/true);
    for (int pass = 0; pass < 2; ++pass) {
      for (const auto id : ids_) {
        EXPECT_TRUE(matches(id, store.read(id).get())) << "container " << id;
      }
    }
    EXPECT_EQ(store.io_stats().block_cache_hits, ids_.size());
    return {store.stats().container_reads, store.stats().bytes_read};
  }

  std::filesystem::path dir_;
  std::vector<ContainerId> ids_;
  std::map<ContainerId, std::map<Fingerprint, std::vector<std::uint8_t>>>
      reference_;
};

// Forced short reads and EINTRs on the whole-file preads: the loop
// continues each one, so bytes and the §5.3 logical accounting match a
// fault-free run.
TEST_F(ContainerReadPath, InjectedShortReadsAndEintrHeal) {
  const auto baseline = run_reads();
  EXPECT_EQ(baseline.first, ids_.size() * 2);  // one miss + one hit each
  set_read_fault_plan({/*short_read_every_n=*/2, /*eintr_every_n=*/3});
  const auto faulted = run_reads();
  const auto injected = read_faults_injected();
  set_read_fault_plan({});
  EXPECT_EQ(faulted, baseline);
  EXPECT_GT(injected.short_reads, 0u);
  EXPECT_GT(injected.eintrs, 0u);
}

// A kFail-armed CrashInjector models a dying device: every read in the
// window fails as a counted ReadError (nullptr to the caller, never
// garbage), and reads recover once the device does.
TEST_F(ContainerReadPath, CrashPointTurnsReadsIntoReadErrors) {
  FileContainerStore store(dir_, /*index_existing=*/true);
  durable::CrashInjector::arm(1, durable::FaultMode::kFail);
  const auto failed_first = store.read(ids_[0]);
  const auto failed_second = store.read(ids_[1]);
  durable::CrashInjector::disarm();
  EXPECT_EQ(failed_first, nullptr);
  EXPECT_EQ(failed_second, nullptr);
  EXPECT_EQ(store.io_stats().read_errors, 2u);
  EXPECT_EQ(store.stats().container_reads, 0u);  // failures are not reads
  EXPECT_TRUE(matches(ids_[0], store.read(ids_[0]).get()));
  EXPECT_TRUE(matches(ids_[1], store.read(ids_[1]).get()));
}

// A container file truncated in place fails its framing check: that read
// returns nullptr (damage, not an I/O error) and caches nothing, while the
// neighbours still read.
TEST_F(ContainerReadPath, TruncatedContainerFailsAloneAndNeighboursStillRead) {
  FileContainerStore store(dir_, /*index_existing=*/true);
  const auto path = store.container_path(ids_[0]);
  std::filesystem::resize_file(path, std::filesystem::file_size(path) / 2);
  EXPECT_EQ(store.read(ids_[0]), nullptr);
  EXPECT_EQ(store.read(ids_[0]), nullptr);
  EXPECT_EQ(store.io_stats().read_errors, 0u);
  EXPECT_EQ(store.io_stats().block_cache_hits, 0u);
  for (std::size_t i = 1; i < ids_.size(); ++i) {
    EXPECT_TRUE(matches(ids_[i], store.read(ids_[i]).get()));
  }
  EXPECT_EQ(store.stats().container_reads, ids_.size() - 1);
}

TEST_F(ContainerReadPath, ReadMeterAttributesCallsToTheCaller) {
  FileContainerStore store(dir_, /*index_existing=*/true);
  ReadMeter a;
  ReadMeter b;
  ASSERT_NE(store.read(ids_[0], &a), nullptr);
  ASSERT_NE(store.read(ids_[1], &b), nullptr);
  ASSERT_NE(store.read(ids_[2], &b), nullptr);
  EXPECT_EQ(a.container_reads.load(), 1u);
  EXPECT_EQ(b.container_reads.load(), 2u);
  EXPECT_GT(a.bytes_read.load(), 0u);
  // Meters partition the store's global accounting exactly.
  EXPECT_EQ(a.container_reads.load() + b.container_reads.load(),
            store.stats().container_reads);
  EXPECT_EQ(a.bytes_read.load() + b.bytes_read.load(),
            store.stats().bytes_read);
}

// Two concurrent restore streams hammer one shared store: byte-identical
// results and exact per-stream accounting, with no cross-pollution between
// meters.
TEST_F(ContainerReadPath, ConcurrentStreamsKeepPerStreamAccounting) {
  FileContainerStore store(dir_, /*index_existing=*/true);
  constexpr int kRounds = 8;
  ReadMeter meters[2];
  std::atomic<int> failures{0};
  auto stream = [&](int which, bool reversed) {
    auto order = ids_;
    if (reversed) std::reverse(order.begin(), order.end());
    for (int round = 0; round < kRounds; ++round) {
      for (const auto id : order) {
        if (!matches(id, store.read(id, &meters[which]).get())) {
          failures.fetch_add(1);
        }
      }
    }
  };
  std::thread other(stream, 1, true);
  stream(0, false);
  other.join();
  EXPECT_EQ(failures.load(), 0);
  const auto per_stream = static_cast<std::uint64_t>(kRounds) * ids_.size();
  EXPECT_EQ(meters[0].container_reads.load(), per_stream);
  EXPECT_EQ(meters[1].container_reads.load(), per_stream);
  EXPECT_EQ(store.stats().container_reads, 2 * per_stream);
  EXPECT_EQ(meters[0].bytes_read.load(), meters[1].bytes_read.load());
}

// Two FAA restore streams, each filling on three workers, against one
// store: the fill above the pread loop must stay byte-correct and read each
// container exactly once per stream under real thread interleavings, and
// each stream's meter must charge it for its own reads only.
TEST_F(ContainerReadPath, ConcurrentPrefetchedStreamsStayExactlyOnce) {
  struct StoreFetcher final : ContainerFetcher {
    StoreFetcher(FileContainerStore& s, ReadMeter& m) : store(s), meter(m) {}
    std::shared_ptr<const Container> fetch(const ChunkLoc& loc) override {
      return store.read(loc.cid, &meter);
    }
    FileContainerStore& store;
    ReadMeter& meter;
  };
  FileContainerStore store(dir_, /*index_existing=*/true);
  std::vector<ChunkLoc> locs;
  for (const auto id : ids_) {
    for (const auto& [fp, bytes] : reference_[id]) {
      ChunkLoc loc;
      loc.fp = fp;
      loc.size = static_cast<std::uint32_t>(bytes.size());
      loc.cid = id;
      locs.push_back(loc);
    }
  }
  ReadMeter meters[2];
  std::atomic<int> failures{0};
  auto stream = [&](int which) {
    StoreFetcher base(store, meters[which]);
    RestoreConfig config;
    config.workers = 3;
    FaaRestore policy(config);
    std::size_t at = 0;
    const auto stats = policy.restore(
        locs, base,
        [&](const ChunkLoc& loc, std::span<const std::uint8_t> bytes) {
          const auto& want = reference_.at(loc.cid).at(loc.fp);
          if (at++ >= locs.size() ||
              !std::equal(bytes.begin(), bytes.end(), want.begin(),
                          want.end())) {
            failures.fetch_add(1);
          }
        });
    // One area holds the whole stream: one fetch per container, and this
    // stream's meter charges it for exactly those.
    EXPECT_EQ(stats.container_reads, ids_.size());
    EXPECT_EQ(stats.failed_chunks, 0u);
    EXPECT_EQ(meters[which].container_reads.load(), ids_.size());
  };
  std::thread other(stream, 1);
  stream(0);
  other.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(store.stats().container_reads, 2 * ids_.size());
  EXPECT_EQ(meters[0].container_reads.load() +
                meters[1].container_reads.load(),
            store.stats().container_reads);
  EXPECT_EQ(meters[0].bytes_read.load(), meters[1].bytes_read.load());
}

}  // namespace
}  // namespace hds
