// Micro-benchmarks for the container read path (DESIGN.md §10): a cold
// whole-file read, a block-cache hit, serving chunks from a loaded
// container, and the CRC-carrying staged copy batched compaction/eviction
// uses.
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
