// Micro-benchmarks: chunking and hashing throughput (google-benchmark).
// These are the per-byte costs of the backup pipeline's front end. SHA-1
// runs on whichever block function Sha1 dispatches to (common/sha1_blocks.h).
// CRC-32 is the integrity kernel every container and state load runs.
#include <benchmark/benchmark.h>

#include "chunking/chunker.h"
#include "common/crc32.h"
#include "common/rng.h"
#include "common/sha1.h"

namespace {

using namespace hds;

std::vector<std::uint8_t> random_buffer(std::size_t n) {
  std::vector<std::uint8_t> data(n);
  Xoshiro256ss rng(1);
  for (auto& b : data) b = static_cast<std::uint8_t>(rng.next());
  return data;
}

void BM_Sha1(benchmark::State& state) {
  const auto data = random_buffer(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(Sha1::digest(data.data(), data.size()));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_Sha1)->Arg(4 * 1024)->Arg(64 * 1024)->Arg(1024 * 1024);

void BM_Crc32(benchmark::State& state) {
  const auto data = random_buffer(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(crc32(data));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_Crc32)->Arg(4 * 1024)->Arg(64 * 1024)->Arg(1024 * 1024);

template <ChunkerKind Kind>
void BM_Chunker(benchmark::State& state) {
  const auto chunker = make_chunker(Kind);
  const auto data = random_buffer(4 * 1024 * 1024);
  std::vector<std::size_t> lengths;
  std::int64_t chunks = 0;
  for (auto _ : state) {
    lengths.clear();
    chunker->chunk(data, lengths);
    benchmark::DoNotOptimize(lengths.data());
    chunks += static_cast<std::int64_t>(lengths.size());
  }
  if constexpr (Kind == ChunkerKind::kFixed) {
    // Fixed-size chunking never reads the bytes, so a byte rate would only
    // measure the loop that emits lengths. Report cuts per second instead.
    state.counters["chunks_per_second"] = benchmark::Counter(
        static_cast<double>(chunks), benchmark::Counter::kIsRate);
  } else {
    state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(data.size()));
  }
}
BENCHMARK(BM_Chunker<ChunkerKind::kFixed>)->Name("BM_Chunker/fixed");
BENCHMARK(BM_Chunker<ChunkerKind::kRabin>)->Name("BM_Chunker/rabin");
BENCHMARK(BM_Chunker<ChunkerKind::kTttd>)->Name("BM_Chunker/tttd");
BENCHMARK(BM_Chunker<ChunkerKind::kFastCdc>)->Name("BM_Chunker/fastcdc");
BENCHMARK(BM_Chunker<ChunkerKind::kAe>)->Name("BM_Chunker/ae");

}  // namespace

// Custom main so the result JSON carries this binary's own build type
// (context key "build_type"), which tools/bench_gate.py reads.
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
