// Parallel FAA fill (restore/faa.h): filling each assembly area from N
// containers at once must change NOTHING observable — restored bytes and
// every RestoreStats field match the serial run, damage included — and the
// workers must be joined however the restore ends. Tagged `concurrency` for
// the TSan CI job.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "backup/pipeline.h"
#include "chunking/chunk_stream.h"
#include "chunking/fastcdc.h"
#include "chunking/parallel_chunk.h"
#include "common/rng.h"
#include "common/thread_annotations.h"
#include "core/hidestore.h"
#include "obs/trace.h"
#include "restore/faa.h"

#include "util/temp_dir.h"

namespace {

using namespace hds;
namespace fs = std::filesystem;

std::vector<std::uint8_t> random_buffer(std::size_t n, std::uint64_t seed) {
  std::vector<std::uint8_t> data(n);
  Xoshiro256ss rng(seed);
  for (auto& b : data) b = static_cast<std::uint8_t>(rng.next());
  return data;
}

// Evolves a version: overwrite a region and append a little, the shape of
// an incremental backup.
std::vector<std::uint8_t> mutate(std::vector<std::uint8_t> data,
                                 std::uint64_t seed) {
  Xoshiro256ss rng(seed);
  const std::size_t region = data.size() / 8;
  const std::size_t at = static_cast<std::size_t>(rng.next()) %
                         (data.size() - region);
  for (std::size_t i = 0; i < region; ++i) {
    data[at + i] = static_cast<std::uint8_t>(rng.next());
  }
  for (std::size_t i = 0; i < 16 * 1024; ++i) {
    data.push_back(static_cast<std::uint8_t>(rng.next()));
  }
  return data;
}

std::vector<std::uint8_t> restore_bytes(BackupSystem& sys, VersionId version,
                                        RestoreStats* stats = nullptr) {
  std::vector<std::uint8_t> out;
  const auto report = sys.restore(
      version, [&](const ChunkLoc&, std::span<const std::uint8_t> bytes) {
        out.insert(out.end(), bytes.begin(), bytes.end());
      });
  if (stats != nullptr) *stats = report.stats;
  return out;
}

void expect_stats_equal(const RestoreStats& serial,
                        const RestoreStats& parallel) {
  EXPECT_EQ(serial.restored_bytes, parallel.restored_bytes);
  EXPECT_EQ(serial.restored_chunks, parallel.restored_chunks);
  EXPECT_EQ(serial.container_reads, parallel.container_reads);
  EXPECT_EQ(serial.cache_hits, parallel.cache_hits);
  EXPECT_EQ(serial.cache_evictions, parallel.cache_evictions);
  EXPECT_EQ(serial.failed_chunks, parallel.failed_chunks);
}

// `containers` containers of `chunks_each` chunks, walked sequentially.
struct StoredStream {
  MemoryContainerStore store;
  std::vector<ChunkLoc> stream;

  explicit StoredStream(int containers, int chunks_each = 4) {
    const auto payload = random_buffer(4 * 1024, 99);
    for (int c = 0; c < containers; ++c) {
      Container container(store.reserve_id(), kDefaultContainerSize);
      for (int k = 0; k < chunks_each; ++k) {
        Fingerprint fp;
        fp.bytes[0] = static_cast<std::uint8_t>(c);
        fp.bytes[1] = static_cast<std::uint8_t>(k);
        fp.bytes[2] = static_cast<std::uint8_t>(c >> 8);
        EXPECT_TRUE(container.add(fp, payload));
        stream.push_back(ChunkLoc{fp,
                                  static_cast<std::uint32_t>(payload.size()),
                                  container.id(), /*active=*/false});
      }
      store.put(std::move(container));
    }
  }
};

// Records which thread fetched which container, and how many fetches are
// running right now.
class RecordingFetcher final : public ContainerFetcher {
 public:
  explicit RecordingFetcher(ContainerStore& store,
                            std::chrono::microseconds delay = {})
      : store_(store), delay_(delay) {}

  std::shared_ptr<const Container> fetch(const ChunkLoc& loc) override {
    active_.fetch_add(1);
    {
      MutexLock lock(mu_);
      order_.push_back(loc.cid);
      threads_.insert(std::this_thread::get_id());
    }
    if (delay_.count() > 0) std::this_thread::sleep_for(delay_);
    if (throw_on_ == loc.cid) {
      active_.fetch_sub(1);
      throw std::runtime_error("fetch failed");
    }
    auto container = store_.read(loc.cid);
    active_.fetch_sub(1);
    return container;
  }

  std::vector<ContainerId> order() const {
    MutexLock lock(mu_);
    return order_;
  }
  std::set<std::thread::id> threads() const {
    MutexLock lock(mu_);
    return threads_;
  }
  [[nodiscard]] int active() const { return active_.load(); }
  void throw_on(ContainerId cid) { throw_on_ = cid; }

 private:
  ContainerStore& store_;
  std::chrono::microseconds delay_;
  std::atomic<int> active_{0};
  ContainerId throw_on_ = 0;
  mutable Mutex mu_;
  std::vector<ContainerId> order_ HDS_GUARDED_BY(mu_);
  std::set<std::thread::id> threads_ HDS_GUARDED_BY(mu_);
};

RestoreStats faa_restore(std::size_t workers, std::span<const ChunkLoc> stream,
                         ContainerFetcher& fetcher,
                         std::vector<std::uint8_t>* out = nullptr) {
  RestoreConfig config;
  config.workers = workers;
  FaaRestore policy(config);
  return policy.restore(
      stream, fetcher, [&](const ChunkLoc&, std::span<const std::uint8_t> b) {
        if (out != nullptr) out->insert(out->end(), b.begin(), b.end());
      });
}

TEST(FaaFill, OneWorkerIsTheCallingThreadInSerialOrder) {
  StoredStream s(6);
  RecordingFetcher fetcher(s.store);
  RestoreConfig config;
  FaaRestore policy(config);
  std::size_t fetched_before_sink = 0;
  const auto stats = policy.restore(
      s.stream, fetcher, [&](const ChunkLoc&, std::span<const std::uint8_t>) {
        if (fetched_before_sink == 0) {
          fetched_before_sink = fetcher.order().size();
        }
      });
  EXPECT_EQ(stats.container_reads, 6u);
  // Alone, the caller fills the whole area before the sink sees a byte,
  // so a sink that blocks cannot hold up the fill.
  EXPECT_EQ(fetched_before_sink, 6u);
  EXPECT_EQ(stats.cache_hits, s.stream.size() - 6);
  const std::set<std::thread::id> caller{std::this_thread::get_id()};
  EXPECT_EQ(fetcher.threads(), caller);
  std::vector<ContainerId> first_appearance;
  for (const auto& loc : s.stream) {
    if (first_appearance.empty() || first_appearance.back() != loc.cid) {
      first_appearance.push_back(loc.cid);
    }
  }
  EXPECT_EQ(fetcher.order(), first_appearance);
}

TEST(FaaFill, EachContainerReadOncePerAreaAtAnyWorkerCount) {
  StoredStream s(24);
  std::vector<std::uint8_t> serial_bytes;
  RecordingFetcher serial_fetcher(s.store);
  const auto serial = faa_restore(1, s.stream, serial_fetcher, &serial_bytes);
  for (const std::size_t workers : {2u, 4u, 8u}) {
    RecordingFetcher fetcher(s.store, std::chrono::microseconds(200));
    std::vector<std::uint8_t> bytes;
    const auto stats = faa_restore(workers, s.stream, fetcher, &bytes);
    EXPECT_EQ(bytes, serial_bytes) << workers;
    expect_stats_equal(serial, stats);
    auto order = fetcher.order();
    std::sort(order.begin(), order.end());
    EXPECT_EQ(std::adjacent_find(order.begin(), order.end()), order.end())
        << "a container was fetched twice in one area";
    EXPECT_EQ(order.size(), 24u);
  }
}

TEST(FaaFill, ThrowingSinkJoinsEveryWorker) {
  StoredStream s(32);
  RecordingFetcher fetcher(s.store, std::chrono::microseconds(300));
  RestoreConfig config;
  config.workers = 4;
  config.memory_budget = 64 * 1024;  // several areas: the throw is mid-area
  FaaRestore policy(config);
  std::size_t delivered = 0;
  EXPECT_THROW(
      (void)policy.restore(s.stream, fetcher,
                           [&](const ChunkLoc&, std::span<const std::uint8_t>) {
                             if (++delivered == 37) {
                               throw std::runtime_error("sink full");
                             }
                           }),
      std::runtime_error);
  EXPECT_EQ(delivered, 37u);
  // restore() returned, so every helper was joined: none is mid-fetch.
  EXPECT_EQ(fetcher.active(), 0);
  // The policy is reusable after the throw.
  std::vector<std::uint8_t> bytes;
  (void)policy.restore(
      s.stream, fetcher, [&](const ChunkLoc&, std::span<const std::uint8_t> b) {
        bytes.insert(bytes.end(), b.begin(), b.end());
      });
  EXPECT_EQ(bytes.size(), s.stream.size() * 4 * 1024);
}

TEST(FaaFill, ThrowingFetchOnAnyWorkerReachesTheCaller) {
  StoredStream s(16);
  RecordingFetcher fetcher(s.store, std::chrono::microseconds(200));
  fetcher.throw_on(s.stream[4 * 9].cid);
  EXPECT_THROW((void)faa_restore(4, s.stream, fetcher), std::runtime_error);
  EXPECT_EQ(fetcher.active(), 0);
}

// --- HiDeStore and pipeline: the workers behind restore() ---

// A file-backed chain with small containers, so old versions spread over
// many archival containers (partial reads and the block cache are on by
// default). One archival container is deleted and one chunk bit-flipped.
TEST(FaaFill, FileBackedChainWithDamageMatchesSerialAtAnyWorkerCount) {
  hds::testutil::TempDir dir("hds_faa_fill_chain");
  HiDeStoreConfig config;
  config.container_size = 64 * 1024;
  config.storage_dir = dir.path;
  std::vector<std::vector<std::uint8_t>> versions;
  {
    HiDeStore sys(config);
    const FastCdcChunker chunker;
    auto data = random_buffer(1024 * 1024, 7);
    for (int v = 0; v < 5; ++v) {
      versions.push_back(data);
      (void)sys.backup(chunk_bytes(chunker, data));
      data = mutate(std::move(data), 700 + v);
    }
    sys.save(dir.path);
  }
  std::vector<fs::path> files;
  for (const auto& entry : fs::directory_iterator(dir.path / "archival")) {
    files.push_back(entry.path());
  }
  std::sort(files.begin(), files.end());
  ASSERT_GE(files.size(), 4u);
  fs::remove(files[1]);
  {
    // A byte inside the data region of another container: one chunk's
    // payload no longer matches its CRC.
    std::fstream file(files[2], std::ios::in | std::ios::out |
                                    std::ios::binary);
    const auto at = static_cast<std::streamoff>(fs::file_size(files[2]) / 3);
    file.seekg(at);
    char byte = 0;
    file.read(&byte, 1);
    file.seekp(at);
    byte = static_cast<char>(byte ^ 0x10);
    file.write(&byte, 1);
  }

  std::vector<std::vector<std::uint8_t>> serial_bytes;
  std::vector<RestoreStats> serial_stats;
  std::uint64_t failed = 0;
  for (const std::size_t workers : {1u, 2u, 4u, 8u}) {
    // A fresh open per count, so every run starts from cold caches.
    auto sys = HiDeStore::open(dir.path);
    ASSERT_NE(sys, nullptr);
    sys->set_restore_workers(workers);
    for (VersionId v = 1; v <= versions.size(); ++v) {
      RestoreStats stats;
      auto bytes = restore_bytes(*sys, v, &stats);
      EXPECT_EQ(bytes.size(), versions[v - 1].size()) << workers;
      if (workers == 1) {
        failed += stats.failed_chunks;
        serial_bytes.push_back(std::move(bytes));
        serial_stats.push_back(stats);
      } else {
        EXPECT_EQ(bytes, serial_bytes[v - 1]) << "v" << v << " x" << workers;
        expect_stats_equal(serial_stats[v - 1], stats);
      }
    }
  }
  EXPECT_GT(failed, 0u);  // the damage was reached, and counted alike
  // The undamaged newest version comes back exactly.
  EXPECT_EQ(serial_bytes.back(), versions.back());
}

TEST(Pipeline, ReadAheadMatchesSerialRestore) {
  // Historical name: the FAA fill workers read ahead of the drain.
  auto sys = make_baseline(BaselineKind::kDdfs);
  const FastCdcChunker chunker;
  auto data = random_buffer(2 * 1024 * 1024, 1);
  std::vector<std::vector<std::uint8_t>> versions;
  for (int v = 0; v < 3; ++v) {
    versions.push_back(data);
    sys->backup(chunk_bytes(chunker, data));
    data = mutate(std::move(data), 100 + v);
  }

  for (VersionId v = 1; v <= 3; ++v) {
    RestoreStats stats[2];
    std::vector<std::uint8_t> out[2];
    for (const std::size_t workers : {1u, 4u}) {
      RestoreConfig config;
      config.workers = workers;
      FaaRestore policy(config);
      const std::size_t i = workers == 1 ? 0 : 1;
      stats[i] = sys->restore_with(
                        v, policy,
                        [&](const ChunkLoc&, std::span<const std::uint8_t> b) {
                          out[i].insert(out[i].end(), b.begin(), b.end());
                        })
                     .stats;
    }
    EXPECT_EQ(out[0], versions[v - 1]);
    EXPECT_EQ(out[1], versions[v - 1]);
    expect_stats_equal(stats[0], stats[1]);
  }
}

TEST(HiDeStore, ReadAheadMatchesSerialRestore) {
  HiDeStoreConfig config;
  HiDeStore serial_sys(config);
  HiDeStore parallel_sys(config);
  parallel_sys.set_restore_workers(6);

  const FastCdcChunker chunker;
  auto data = random_buffer(2 * 1024 * 1024, 2);
  std::vector<std::vector<std::uint8_t>> versions;
  for (int v = 0; v < 4; ++v) {
    versions.push_back(data);
    const auto stream = chunk_bytes(chunker, data);
    serial_sys.backup(stream);
    parallel_sys.backup(stream);
    data = mutate(std::move(data), 200 + v);
  }

  // Older versions walk archival containers; the latest mostly reads the
  // active pool, which the workers fetch from concurrently too. Both must
  // report the same cross-checked container-read count as the serial run.
  for (VersionId v = 1; v <= 4; ++v) {
    RestoreStats serial_stats, parallel_stats;
    const auto serial = restore_bytes(serial_sys, v, &serial_stats);
    const auto parallel = restore_bytes(parallel_sys, v, &parallel_stats);
    EXPECT_EQ(serial, versions[v - 1]);
    EXPECT_EQ(parallel, versions[v - 1]);
    expect_stats_equal(serial_stats, parallel_stats);
  }
}

TEST(HiDeStore, PartialRestoreIgnoresReadAhead) {
  // restore_range() runs the caller's policy as configured, whatever
  // set_restore_workers() says; a multi-worker policy is exact too.
  HiDeStore sys;
  sys.set_restore_workers(8);
  const FastCdcChunker chunker;
  const auto data = random_buffer(1024 * 1024, 3);
  sys.backup(chunk_bytes(chunker, data));
  sys.backup(chunk_bytes(chunker, mutate(data, 300)));

  const std::uint64_t offset = 200 * 1024, length = 150 * 1024;
  const std::vector<std::uint8_t> expected(data.begin() + offset,
                                           data.begin() + offset + length);
  for (const std::size_t workers : {1u, 4u}) {
    RestoreConfig config;
    config.workers = workers;
    FaaRestore policy(config);
    std::vector<std::uint8_t> out;
    sys.restore_range(1, offset, length, policy,
                      [&](const ChunkLoc&, std::span<const std::uint8_t> b) {
                        out.insert(out.end(), b.begin(), b.end());
                      });
    EXPECT_EQ(out, expected) << workers;
  }
}

TEST(HiDeStore, ParallelBackupReadAheadRestoreRoundTrip) {
  // The whole concurrent path end to end: multi-threaded chunking feeds
  // backups, restores fill on four workers, and every version comes back
  // bit-identical.
  HiDeStore sys;
  sys.set_restore_workers(4);
  const FastCdcChunker chunker;
  auto data = random_buffer(3 * 1024 * 1024, 4);
  std::vector<std::vector<std::uint8_t>> versions;
  for (int v = 0; v < 3; ++v) {
    versions.push_back(data);
    sys.backup(chunk_bytes_parallel(chunker, data, 4));
    data = mutate(std::move(data), 400 + v);
  }
  for (VersionId v = 1; v <= 3; ++v) {
    EXPECT_EQ(restore_bytes(sys, v), versions[v - 1]);
  }
}

TEST(FaaFill, WorkersTraceFillSpansOnTheirOwnTracks) {
  HiDeStoreConfig config;
  config.container_size = 64 * 1024;
  HiDeStore sys(config);
  const FastCdcChunker chunker;
  auto data = random_buffer(1024 * 1024, 5);
  for (int v = 0; v < 3; ++v) {
    sys.backup(chunk_bytes(chunker, data));
    data = mutate(std::move(data), 500 + v);
  }
  obs::Tracer tracer;
  sys.set_tracer(&tracer);
  sys.set_restore_workers(4);
  RestoreStats stats;
  (void)restore_bytes(sys, 1, &stats);
  sys.set_tracer(nullptr);

  std::size_t fills = 0;
  std::uint64_t filled_bytes = 0;
  bool named = false;
  for (const auto& e : tracer.events()) {
    if (e.name == "faa_fill") {
      ++fills;
      EXPECT_NE(e.args.find("\"cid\""), std::string::npos);
      const auto at = e.args.find("\"bytes\":");
      ASSERT_NE(at, std::string::npos);
      filled_bytes += std::stoull(e.args.substr(at + 8));
    }
    if (e.ph == 'M' && e.args.find("restore_fill_0") != std::string::npos) {
      named = true;
    }
  }
  EXPECT_EQ(fills, stats.container_reads);  // one span per fetch
  EXPECT_EQ(filled_bytes, stats.restored_bytes);
  EXPECT_TRUE(named);

  const auto ops = sys.profiler().recent();
  ASSERT_FALSE(ops.empty());
  const auto& restore = ops.back();
  double policy_ms = -1.0;
  for (const auto& phase : restore.phases) {
    if (phase.name == "policy_restore") policy_ms = phase.wall_ms;
  }
  ASSERT_GE(policy_ms, 0.0);
  for (const auto& phase : restore.phases) {
    // Every wait is one accumulated phase, inside policy_restore.
    if (phase.name == "policy_restore/fill_wait") {
      EXPECT_LE(phase.wall_ms, policy_ms);
    }
  }
  EXPECT_GT(restore.queue_depth_peak, 0.0);  // containers in flight
  EXPECT_LE(restore.queue_depth_peak, 4.0);
}

}  // namespace
