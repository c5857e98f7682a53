// Micro-benchmarks for the concurrency layer (google-benchmark):
//   * BM_ParallelChunk/threads:N — parallel chunk+fingerprint ingest
//     (parallel_chunk.h) at 1/2/4/8 worker threads. The 1-thread row is the
//     serial chunk_bytes() path, so the ratio is the pipeline speedup.
//   * BM_FaaRestore/workers:N — whole-version FAA restore whose assembly
//     areas fill from N containers at once (1 = the calling thread alone),
//     over 512 KiB containers so even the small input spans 16 of them.
//
// Scaling only shows on multi-core hardware; every configuration produces
// byte-identical output regardless (asserted by the concurrency tests, not
// here). Set HDS_BENCH_SMALL=1 for a 4× smaller input.
#include <benchmark/benchmark.h>

#include <cstdlib>

#include "backup/pipeline.h"
#include "chunking/chunk_stream.h"
#include "chunking/fastcdc.h"
#include "chunking/parallel_chunk.h"
#include "common/rng.h"
#include "restore/faa.h"

namespace {

using namespace hds;

bool small_mode() {
  const char* env = std::getenv("HDS_BENCH_SMALL");
  return env != nullptr && env[0] == '1';
}

std::size_t ingest_bytes() {
  return (small_mode() ? 8 : 32) * std::size_t{1024} * 1024;
}

const std::vector<std::uint8_t>& ingest_buffer() {
  static const std::vector<std::uint8_t> data = [] {
    std::vector<std::uint8_t> bytes(ingest_bytes());
    Xoshiro256ss rng(1);
    for (auto& b : bytes) b = static_cast<std::uint8_t>(rng.next());
    return bytes;
  }();
  return data;
}

void BM_ParallelChunk(benchmark::State& state) {
  const auto& data = ingest_buffer();
  const FastCdcChunker chunker;
  const auto threads = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    auto stream = chunk_bytes_parallel(chunker, data, threads);
    benchmark::DoNotOptimize(stream.chunks.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(data.size()));
}
BENCHMARK(BM_ParallelChunk)
    ->ArgName("threads")
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

void BM_FaaRestore(benchmark::State& state) {
  const auto& data = ingest_buffer();
  const FastCdcChunker chunker;
  PipelineConfig pipeline_config;
  pipeline_config.container_size = 512 * 1024;
  auto sys = make_baseline(BaselineKind::kDdfs, pipeline_config);
  const auto version = sys->backup(chunk_bytes(chunker, data)).version;
  RestoreConfig config;
  config.workers = static_cast<std::size_t>(state.range(0));
  FaaRestore policy(config);
  std::uint64_t restored = 0;
  for (auto _ : state) {
    restored = 0;
    const auto report = sys->restore_with(
        version, policy,
        [&](const ChunkLoc&, std::span<const std::uint8_t> bytes) {
          restored += bytes.size();
        });
    benchmark::DoNotOptimize(report.stats.container_reads);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(restored));
}
BENCHMARK(BM_FaaRestore)
    ->ArgName("workers")
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

}  // namespace

// Custom main: stamp the binary's own build type into the result JSON so
// tools/bench_gate.py can tell an -O2 run from a debug one (see
// micro_io.cpp for the full rationale).
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
