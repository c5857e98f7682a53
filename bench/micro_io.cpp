// Micro-benchmarks for the container I/O fast path (DESIGN.md §10): slurp
// vs footer-index partial reads, fd-cache descriptor reuse, block-cache
// hits, serving chunks from a loaded container, and the CRC-carrying
// staged copy batched compaction/eviction uses.
// CI runs this with --benchmark_out=BENCH_io.json (artifact "BENCH_io").
#include <benchmark/benchmark.h>

#include <filesystem>
#include <memory>
#include <vector>

#include "common/rng.h"
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

// One ~4 MiB container in a scratch directory, tuned per benchmark.
struct StoreFixture {
  std::filesystem::path dir;
  std::unique_ptr<FileContainerStore> store;
  ContainerId id = 0;

  StoreFixture(const char* name, const FileStoreTuning& tuning)
      : dir(std::filesystem::temp_directory_path() / name) {
    std::filesystem::remove_all(dir);
    store = std::make_unique<FileContainerStore>(dir, false, tuning);
    id = store->write(filled_container());
  }
  ~StoreFixture() {
    store.reset();
    std::filesystem::remove_all(dir);
  }
};

// Every `n` requested fingerprints spread evenly across the container.
std::vector<Fingerprint> spread_fps(std::size_t n) {
  std::vector<Fingerprint> fps;
  for (std::size_t i = 0; i < n; ++i) {
    fps.push_back(Fingerprint::from_seed(i * (kChunks / n)));
  }
  return fps;
}

// Baseline: whole-file slurp (caches off) — what every read cost before
// the footer index existed.
void BM_FileReadSlurp(benchmark::State& state) {
  FileStoreTuning tuning;
  tuning.block_cache_bytes = 0;
  StoreFixture fx("hds_micro_io_slurp", tuning);
  for (auto _ : state) {
    benchmark::DoNotOptimize(fx.store->read(fx.id));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kChunks * kChunkBytes));
}
BENCHMARK(BM_FileReadSlurp);

// Footer-index partial read of Arg(0) chunks (caches off): preads exactly
// header + footer + the coalesced extents.
void BM_FilePartialRead(benchmark::State& state) {
  FileStoreTuning tuning;
  tuning.block_cache_bytes = 0;
  StoreFixture fx("hds_micro_io_partial", tuning);
  const auto fps = spread_fps(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(fx.store->read_chunks(fx.id, fps));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(fps.size() * kChunkBytes));
}
BENCHMARK(BM_FilePartialRead)->Arg(1)->Arg(10)->Arg(100);

// Same single-chunk partial read with the fd cache disabled: isolates the
// open/fstat/close pair the cache removes from every read.
void BM_FilePartialReadNoFdCache(benchmark::State& state) {
  FileStoreTuning tuning;
  tuning.block_cache_bytes = 0;
  tuning.fd_cache_slots = 0;
  StoreFixture fx("hds_micro_io_nofd", tuning);
  const auto fps = spread_fps(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(fx.store->read_chunks(fx.id, fps));
  }
}
BENCHMARK(BM_FilePartialReadNoFdCache);

// Block-cache hit: the container is resident after the warm-up read, so
// the loop measures pure cache lookup + accounting.
void BM_FileReadBlockCacheHit(benchmark::State& state) {
  StoreFixture fx("hds_micro_io_hit", FileStoreTuning{});
  benchmark::DoNotOptimize(fx.store->read(fx.id));  // warm
  for (auto _ : state) {
    benchmark::DoNotOptimize(fx.store->read(fx.id));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kChunks * kChunkBytes));
}
BENCHMARK(BM_FileReadBlockCacheHit);

// Every chunk of a loaded ~4 MiB container, as a restore serves them. Each
// payload was CRC-checked once when the container loaded, so a read is a
// table lookup; a read-time CRC would pin this to BM_Crc32's rate.
void BM_ContainerRead(benchmark::State& state) {
  const auto loaded = Container::deserialize(filled_container().serialize());
  for (auto _ : state) {
    for (const auto& [fp, entry] : loaded->entries()) {
      benchmark::DoNotOptimize(loaded->read(fp));
    }
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kChunks * kChunkBytes));
}
BENCHMARK(BM_ContainerRead);

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
