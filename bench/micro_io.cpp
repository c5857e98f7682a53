// Micro-benchmarks for the container read path (DESIGN.md §10): a cold
// whole-file read, a block-cache hit, serving chunks from a loaded
// container, and the CRC-carrying staged copy batched compaction/eviction
// uses; and for the repository state every CLI command opens and every
// committing command saves (DESIGN.md §9): a metadata-only state file
// beside one file per active container, of which a save rewrites only the
// ones a version changed.
// CI runs this with --benchmark_out=BENCH_io.json (artifact "BENCH_io").
#include <benchmark/benchmark.h>

#include <algorithm>
#include <filesystem>
#include <memory>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "core/hidestore.h"
#include "storage/container_store.h"

namespace {

using namespace hds;

constexpr std::size_t kChunks = 1000;
constexpr std::size_t kChunkBytes = 4096;

Container filled_container() {
  Container c(0, 4 * 1024 * 1024 + 64 * 1024);
  for (std::size_t i = 0; i < kChunks; ++i) {
    std::vector<std::uint8_t> data(kChunkBytes);
    generate_chunk_content(i, kChunkBytes, data.data());
    c.add(Fingerprint::from_seed(i), data);
  }
  return c;
}

// One ~4 MiB container in a scratch directory.
struct StoreFixture {
  std::filesystem::path dir;
  std::unique_ptr<FileContainerStore> store;
  ContainerId id = 0;

  explicit StoreFixture(const char* name)
      : dir(std::filesystem::temp_directory_path() / name) {
    std::filesystem::remove_all(dir);
    store = std::make_unique<FileContainerStore>(dir);
    id = store->write(filled_container());
  }
  ~StoreFixture() {
    store.reset();
    std::filesystem::remove_all(dir);
  }
};

// Cold read: each iteration reads through a freshly opened store (opened
// outside the timed region), so the whole file comes off the page cache,
// is parsed and has every payload CRC-checked.
void BM_FileReadSlurp(benchmark::State& state) {
  StoreFixture fx("hds_micro_io_slurp");
  for (auto _ : state) {
    state.PauseTiming();
    fx.store = std::make_unique<FileContainerStore>(fx.dir, true);
    state.ResumeTiming();
    benchmark::DoNotOptimize(fx.store->read(fx.id));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kChunks * kChunkBytes));
}
BENCHMARK(BM_FileReadSlurp);

// Block-cache hit: the container is resident after the warm-up read, so
// the loop measures pure cache lookup + accounting.
void BM_FileReadBlockCacheHit(benchmark::State& state) {
  StoreFixture fx("hds_micro_io_hit");
  benchmark::DoNotOptimize(fx.store->read(fx.id));  // warm
  for (auto _ : state) {
    benchmark::DoNotOptimize(fx.store->read(fx.id));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kChunks * kChunkBytes));
}
BENCHMARK(BM_FileReadBlockCacheHit);

// Every chunk of a loaded ~4 MiB container, as a restore serves them: a
// fixed fingerprint vector walked in storage-offset order. Each payload
// was CRC-checked once when the container loaded, so a read is a table
// lookup; a read-time CRC would pin this to BM_Crc32's rate. The lookups
// are ~10 µs in all, so the run is long enough (MinTime) for repeated runs
// to agree; walking the hash table's own order instead made the row swing
// by ~3x between runs of one binary.
void BM_ContainerRead(benchmark::State& state) {
  const auto loaded = Container::deserialize(filled_container().serialize());
  std::vector<std::pair<std::uint32_t, Fingerprint>> by_offset;
  for (const auto& [fp, entry] : loaded->entries()) {
    by_offset.emplace_back(entry.offset, fp);
  }
  std::sort(by_offset.begin(), by_offset.end());
  std::vector<Fingerprint> order;
  for (const auto& [offset, fp] : by_offset) order.push_back(fp);
  for (auto _ : state) {
    for (const Fingerprint& fp : order) {
      benchmark::DoNotOptimize(loaded->read(fp));
    }
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kChunks * kChunkBytes));
}
BENCHMARK(BM_ContainerRead)->MinTime(6.0);

// Batched eviction/compaction staging: copying chunks between containers
// with the already-verified CRC carried over (add_with_crc) vs recomputing
// it per chunk (add). The delta is the CRC pass batched I/O avoids.
void BM_StagedCopyKnownCrc(benchmark::State& state) {
  const auto src = filled_container();
  for (auto _ : state) {
    Container dst(2, 4 * 1024 * 1024 + 64 * 1024);
    for (const auto& [fp, entry] : src.entries()) {
      dst.add_with_crc(fp, *src.read(fp), entry.crc);
    }
    benchmark::DoNotOptimize(dst.chunk_count());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kChunks * kChunkBytes));
}
BENCHMARK(BM_StagedCopyKnownCrc);

void BM_StagedCopyRecomputedCrc(benchmark::State& state) {
  const auto src = filled_container();
  for (auto _ : state) {
    Container dst(2, 4 * 1024 * 1024 + 64 * 1024);
    for (const auto& [fp, entry] : src.entries()) {
      dst.add(fp, *src.read(fp));
    }
    benchmark::DoNotOptimize(dst.chunk_count());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kChunks * kChunkBytes));
}
BENCHMARK(BM_StagedCopyRecomputedCrc);

// A file-backed store whose active pool holds ~32 MiB (one 8192-chunk
// version, all of it hot, in eight 4 MiB active container files), about
// the state a `nightly` perfbench command opens and saves. The state file
// is the pool's listing plus one recipe.
constexpr std::size_t kStateChunks = 8192;

ChunkRecord state_chunk(std::uint64_t seed) {
  ChunkRecord chunk;
  chunk.content_seed = seed;
  chunk.fp = Fingerprint::from_seed(seed);
  chunk.size = kChunkBytes;
  return chunk;
}

VersionStream state_version() {
  VersionStream stream;
  for (std::size_t i = 0; i < kStateChunks; ++i) {
    stream.chunks.push_back(state_chunk(i));
  }
  return stream;
}

struct StateFixture {
  std::filesystem::path dir;
  std::uintmax_t state_bytes = 0;

  explicit StateFixture(const char* name)
      : dir(std::filesystem::temp_directory_path() / name) {
    std::filesystem::remove_all(dir);
    HiDeStoreConfig config;
    config.storage_dir = dir;
    HiDeStore sys(config);
    (void)sys.backup(state_version());
    sys.save(dir);
    for (const auto& entry : std::filesystem::directory_iterator(dir)) {
      if (entry.path().extension() == ".hds") {
        state_bytes = entry.file_size();
      }
    }
  }
  ~StateFixture() { std::filesystem::remove_all(dir); }
};

// One open of a committed repository: read the state file, check its seal,
// parse the recipes and the pool's listing, rebuild the fingerprint cache.
// No active container loads.
void BM_StateOpen(benchmark::State& state) {
  StateFixture fx("hds_micro_io_state_open");
  for (auto _ : state) {
    benchmark::DoNotOptimize(HiDeStore::open(fx.dir));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(fx.state_bytes));
}
BENCHMARK(BM_StateOpen)->Unit(benchmark::kMillisecond);

// One save of the same store with nothing changed (what `expire` and
// `flatten` pay): stage the next epoch's state file and commit it to the
// MANIFEST. No container file is written.
void BM_StateSave(benchmark::State& state) {
  StateFixture fx("hds_micro_io_state_save");
  auto sys = HiDeStore::open(fx.dir);
  for (auto _ : state) {
    sys->save(fx.dir);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(fx.state_bytes));
}
BENCHMARK(BM_StateSave)->Unit(benchmark::kMillisecond);

// The save a `nightly` backup pays: a version that replaced a clustered 1%
// of the chunks (backed up, with the oldest version expired, outside the
// timed region) dirties the containers its cold chunks leave and the one
// its new chunks enter; the save rewrites those files and the state.
void BM_StateSaveOneEdit(benchmark::State& state) {
  StateFixture fx("hds_micro_io_state_save_edit");
  auto sys = HiDeStore::open(fx.dir);
  constexpr std::size_t kEdited = kStateChunks / 100;
  VersionStream current = state_version();
  std::uint64_t seed = kStateChunks;
  for (auto _ : state) {
    state.PauseTiming();
    const std::size_t at = (seed * 2654435761u) % (kStateChunks - kEdited);
    for (std::size_t i = at; i < at + kEdited; ++i) {
      current.chunks[i] = state_chunk(seed++);
    }
    (void)sys->backup(current);
    if (sys->latest_version() > 2) {
      (void)sys->delete_versions_up_to(sys->latest_version() - 2);
    }
    state.ResumeTiming();
    sys->save(fx.dir);
  }
}
BENCHMARK(BM_StateSaveOneEdit)->Unit(benchmark::kMillisecond);

}  // namespace

// Custom main so the result JSON carries this binary's own build type
// (context key "build_type"). The stock "library_build_type" key describes
// the prebuilt benchmark library, which stays "debug" on distro packages
// even when this code is -O2 — tools/bench_gate.py prefers our key and
// softens comparisons involving debug builds.
int main(int argc, char** argv) {
#ifdef HDS_BENCH_BUILD_TYPE
  benchmark::AddCustomContext("build_type", HDS_BENCH_BUILD_TYPE);
#endif
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
