// Tests for the container I/O fast path (DESIGN.md §10) and the restore
// read path under it (§13): the fd cache, the sharded block cache, the
// FileContainerStore under concurrent readers, a writer and an eraser, the
// pread loop's short-read/EINTR continuation and injected device failures,
// and per-stream ReadMeter accounting under concurrent multi-worker FAA
// restore streams (runs under TSan via the `concurrency` label).
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <fstream>
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
#include "storage/fd_cache.h"

#include "util/temp_dir.h"

namespace hds {
namespace {

std::filesystem::path fresh_dir(const char* name) {
  const auto dir = hds::testutil::unique_path(name);
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

std::filesystem::path write_file(const std::filesystem::path& dir, int n,
                                 std::size_t size) {
  const auto path = dir / ("f" + std::to_string(n));
  std::ofstream out(path, std::ios::binary);
  const std::vector<char> bytes(size, static_cast<char>('a' + n % 26));
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  return path;
}

TEST(FdCache, HitsAndOpensAreCounted) {
  const auto dir = fresh_dir("hds_fdcache_basic");
  const auto path = write_file(dir, 1, 100);
  FdCache cache(4);
  const auto a = cache.acquire(1, path);
  ASSERT_TRUE(a.valid());
  EXPECT_EQ(a.size(), 100u);
  const auto b = cache.acquire(1, path);
  ASSERT_TRUE(b.valid());
  EXPECT_EQ(cache.opens(), 1u);
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.open_fds(), 1u);
}

TEST(FdCache, EvictsDownToCapacityInLruOrder) {
  const auto dir = fresh_dir("hds_fdcache_lru");
  FdCache cache(2);
  for (int i = 1; i <= 3; ++i) {
    ASSERT_TRUE(cache.acquire(i, write_file(dir, i, 50)).valid());
  }
  EXPECT_EQ(cache.open_fds(), 2u);
  // 1 was least recently used and got evicted; re-acquiring reopens.
  (void)cache.acquire(1, dir / "f1");
  EXPECT_EQ(cache.opens(), 4u);
  // 2 and 3 were retained... but 2 just fell off when 1 came back; 3 hits.
  (void)cache.acquire(3, dir / "f3");
  EXPECT_EQ(cache.hits(), 1u);
}

TEST(FdCache, InvalidatedEntryStaysReadableThroughPinnedHandle) {
  const auto dir = fresh_dir("hds_fdcache_pin");
  const auto path = write_file(dir, 1, 64);
  FdCache cache(4);
  const auto handle = cache.acquire(1, path);
  ASSERT_TRUE(handle.valid());
  cache.invalidate(1);
  EXPECT_EQ(cache.open_fds(), 0u);
  // The handle pins the descriptor: the old inode is still readable.
  char byte = 0;
  EXPECT_EQ(::pread(handle.fd(), &byte, 1, 0), 1);
  EXPECT_EQ(byte, 'b');
}

TEST(FdCache, ZeroCapacityDisablesRetention) {
  const auto dir = fresh_dir("hds_fdcache_off");
  const auto path = write_file(dir, 1, 32);
  FdCache cache(0);
  EXPECT_TRUE(cache.acquire(1, path).valid());
  EXPECT_TRUE(cache.acquire(1, path).valid());
  EXPECT_EQ(cache.opens(), 2u);
  EXPECT_EQ(cache.hits(), 0u);
  EXPECT_EQ(cache.open_fds(), 0u);
}

TEST(FdCache, SetCapacityEvictsExcess) {
  const auto dir = fresh_dir("hds_fdcache_resize");
  FdCache cache(8);
  for (int i = 1; i <= 6; ++i) {
    ASSERT_TRUE(cache.acquire(i, write_file(dir, i, 16)).valid());
  }
  EXPECT_EQ(cache.open_fds(), 6u);
  cache.set_capacity(2);
  EXPECT_EQ(cache.open_fds(), 2u);
}

TEST(FdCache, AcquireOfMissingFileIsInvalid) {
  FdCache cache(4);
  EXPECT_FALSE(cache.acquire(9, "/nonexistent/f9").valid());
  EXPECT_EQ(cache.open_fds(), 0u);
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

TEST(BlockCache, FullEntrySatisfiesAnyLookup) {
  BlockCache cache(1 << 20, 2);
  const auto c = make_cached_container(1, 4, 512);
  cache.insert(1, c, c->data_size(), /*complete=*/true);
  EXPECT_TRUE(cache.find_full(1).has_value());
  const Fingerprint fps[] = {Fingerprint::from_seed(103)};
  const auto hit = cache.find_chunks(1, fps);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->full_data_size, c->data_size());
  EXPECT_EQ(cache.hits(), 2u);
}

TEST(BlockCache, PartialEntrySatisfiesOnlyCoveredLookups) {
  BlockCache cache(1 << 20, 2);
  const auto partial = make_cached_container(2, 2, 256);  // fps 200, 201
  cache.insert(2, partial, 10000, /*complete=*/false);
  EXPECT_FALSE(cache.find_full(2).has_value());
  const Fingerprint covered[] = {Fingerprint::from_seed(200)};
  const Fingerprint uncovered[] = {Fingerprint::from_seed(200),
                                   Fingerprint::from_seed(299)};
  ASSERT_TRUE(cache.find_chunks(2, covered).has_value());
  EXPECT_EQ(cache.find_chunks(2, covered)->full_data_size, 10000u);
  EXPECT_FALSE(cache.find_chunks(2, uncovered).has_value());
}

TEST(BlockCache, PartialNeverReplacesComplete) {
  BlockCache cache(1 << 20, 1);
  const auto full = make_cached_container(3, 4, 256);
  const auto partial = make_cached_container(3, 1, 256);
  cache.insert(3, full, full->data_size(), true);
  cache.insert(3, partial, full->data_size(), false);
  const auto hit = cache.find_full(3);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->container->chunk_count(), 4u);
}

TEST(BlockCache, EvictsLruWhenOverBudget) {
  BlockCache cache(8 * 1024, 1);
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    const auto c = make_cached_container(seed, 2, 1500);  // ~3 KiB each
    cache.insert(static_cast<ContainerId>(seed), c, c->data_size(), true);
  }
  EXPECT_GT(cache.evictions(), 0u);
  EXPECT_LE(cache.bytes(), 8u * 1024u);
  EXPECT_FALSE(cache.find_full(1).has_value());  // oldest went first
  EXPECT_TRUE(cache.find_full(3).has_value());
}

TEST(BlockCache, ZeroBudgetDisablesCaching) {
  BlockCache cache(0, 4);
  const auto c = make_cached_container(4, 2, 128);
  cache.insert(4, c, c->data_size(), true);
  EXPECT_FALSE(cache.find_full(4).has_value());
  EXPECT_EQ(cache.bytes(), 0u);
}

TEST(BlockCache, InvalidateDropsEntry) {
  BlockCache cache(1 << 20, 2);
  const auto c = make_cached_container(5, 2, 128);
  cache.insert(5, c, c->data_size(), true);
  cache.invalidate(5);
  EXPECT_FALSE(cache.find_full(5).has_value());
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

// Readers + a writer + an eraser hammering one FileContainerStore. Small
// caches so eviction, invalidation and the partial-read path all run under
// contention; TSan (ctest -L concurrency) checks the locking.
TEST(FileStoreConcurrency, ReadersWriterAndEraserStayConsistent) {
  FileStoreTuning tuning;
  tuning.fd_cache_slots = 4;
  tuning.block_cache_bytes = 64 * 1024;
  tuning.block_cache_shards = 2;
  FileContainerStore store(fresh_dir("hds_store_hammer"), false, tuning);

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
        std::shared_ptr<const Container> got;
        if (i % 2 == 0) {
          const Fingerprint fps[] = {fp};
          got = store.read_chunks(id, fps);
        } else {
          got = store.read(id);
        }
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

  // True when `got` holds exactly the reference bytes of every chunk in
  // `fps` (all of the container's chunks when `fps` is empty).
  bool matches(ContainerId id, const Container* got,
               std::span<const Fingerprint> fps = {}) {
    if (got == nullptr) return false;
    for (const auto& [fp, bytes] : reference_.at(id)) {
      if (!fps.empty() && std::find(fps.begin(), fps.end(), fp) == fps.end()) {
        continue;
      }
      const auto read = got->read(fp);
      if (!read.has_value() || !std::equal(bytes.begin(), bytes.end(),
                                           read->begin(), read->end())) {
        return false;
      }
    }
    return true;
  }

  // Reads every container once whole and once as a 3-chunk partial read
  // through a cache-less store; checks the bytes and returns the store's
  // logical read accounting.
  std::pair<std::uint64_t, std::uint64_t> run_reads() {
    FileStoreTuning tuning;
    tuning.block_cache_bytes = 0;
    FileContainerStore store(dir_, /*index_existing=*/true, tuning);
    for (const auto id : ids_) {
      EXPECT_TRUE(matches(id, store.read(id).get())) << "container " << id;
      std::vector<Fingerprint> subset;
      for (const auto& [fp, bytes] : reference_[id]) {
        if (subset.size() < 3) subset.push_back(fp);
      }
      EXPECT_TRUE(matches(id, store.read_chunks(id, subset).get(), subset))
          << "container " << id;
    }
    EXPECT_EQ(store.io_stats().partial_reads, ids_.size());
    return {store.stats().container_reads, store.stats().bytes_read};
  }

  std::filesystem::path dir_;
  std::vector<ContainerId> ids_;
  std::map<ContainerId, std::map<Fingerprint, std::vector<std::uint8_t>>>
      reference_;
};

// Forced short reads and EINTRs on the header, footer, extent and slurp
// preads: the loop continues each one, so bytes and the §5.3 logical
// accounting match a fault-free run.
TEST_F(ContainerReadPath, InjectedShortReadsAndEintrHeal) {
  const auto baseline = run_reads();
  EXPECT_EQ(baseline.first, ids_.size() * 2);  // one full + one partial each
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
  FileStoreTuning tuning;
  tuning.block_cache_bytes = 0;
  FileContainerStore store(dir_, /*index_existing=*/true, tuning);
  durable::CrashInjector::arm(1, durable::FaultMode::kFail);
  const auto failed_full = store.read(ids_[0]);
  const Fingerprint one[] = {reference_[ids_[1]].begin()->first};
  const auto failed_partial = store.read_chunks(ids_[1], one);
  durable::CrashInjector::disarm();
  EXPECT_EQ(failed_full, nullptr);
  EXPECT_EQ(failed_partial, nullptr);
  EXPECT_EQ(store.io_stats().read_errors, 2u);
  EXPECT_EQ(store.stats().container_reads, 0u);  // failures are not reads
  EXPECT_TRUE(matches(ids_[0], store.read(ids_[0]).get()));
  EXPECT_TRUE(matches(ids_[1], store.read_chunks(ids_[1], one).get(), one));
}

// A container truncated in place while the fd cache holds its descriptor:
// the stale size sends the pread loop past EOF, which must surface as a
// ReadError for that container alone.
TEST_F(ContainerReadPath, EofInsideARequestedRangeIsAReadError) {
  FileStoreTuning tuning;
  tuning.block_cache_bytes = 0;
  FileContainerStore store(dir_, /*index_existing=*/true, tuning);
  ASSERT_TRUE(matches(ids_[0], store.read(ids_[0]).get()));  // caches the fd
  const auto path = store.container_path(ids_[0]);
  std::filesystem::resize_file(path, std::filesystem::file_size(path) / 2);
  EXPECT_EQ(store.read(ids_[0]), nullptr);
  EXPECT_EQ(store.io_stats().read_errors, 1u);
  EXPECT_TRUE(matches(ids_[1], store.read(ids_[1]).get()));
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
  FileStoreTuning tuning;
  tuning.block_cache_bytes = 0;  // every read hits the device path
  FileContainerStore store(dir_, /*index_existing=*/true, tuning);
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
  FileStoreTuning tuning;
  tuning.block_cache_bytes = 0;
  FileContainerStore store(dir_, /*index_existing=*/true, tuning);
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
