// Shared types of the benchmark driver: run options, the result of one run,
// sample statistics, and the per-layer trace accumulator.
#pragma once

#include <cstdint>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

// Input sizes of every workload; `smoke` shrinks them to seconds in total.
struct Sizes {
  std::uint64_t nightly_tree = 32ull << 20;
  int nightly_keep = 2;            // rolling window of retained versions
  int nightly_file_restores = 3;   // restore-file calls per version
  std::uint64_t chain_tree = 16ull << 20;
  int chain_versions = 16;         // restore_all chain length, kept constant
  std::uint64_t tenant_file = 24ull << 20;
  int setup_reps = 3;              // setup_s is the median of this many
  int min_cycles = 2;              // versions done even past --seconds

  static Sizes smoke();
};

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::filesystem::path tool;  // hds_tool binary
  std::filesystem::path work;  // scratch root for this run
  std::string commit = "unknown";
  Sizes sizes;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Outcome {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  // Human-readable report lines, printed before the JSON result.
  std::vector<std::string> report;

  void op(bool ok, const std::string& what);
  void metric(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  void line(std::string text) { report.push_back(std::move(text)); }
};

double median(std::vector<double> v);
double sum(const std::vector<double>& v);
// "n=<count> p50=<median> max=<max>" in the given scale.
std::string describe(const std::vector<double>& v, double scale,
                     const char* unit);

// Per-layer accounting of a traced run. Each replayed operation has a wall
// time and top-level spans around the calls into each layer; spans may have
// child phases (profiler phases, sink writes) whose time is subtracted to
// give the parent's self time.
struct SpanStat {
  double total_ms = 0.0;
  double child_ms = 0.0;
  std::uint64_t count = 0;
};

struct OpTrace {
  std::vector<double> wall_ms;       // replayed (traced) op walls
  std::vector<double> untraced_ms;   // the same op kind through CLI/service
  double spanned_ms = 0.0;           // Σ top-level spans
  std::map<std::string, SpanStat> spans;
  std::map<std::string, SpanStat> children;  // "<parent>/<child>"
};

struct Layers {
  std::map<std::string, OpTrace> ops;
  // Counters and sums by name (bytes, counts, ms); see replay.cpp for the
  // names each replay adds to.
  std::map<std::string, double> sums;
  std::map<std::string, std::vector<double>> samples;

  void add(const std::string& name, double v) { sums[name] += v; }
  [[nodiscard]] double get(const std::string& name) const {
    const auto it = sums.find(name);
    return it == sums.end() ? 0.0 : it->second;
  }
  void merge(const Layers& other);
};

// The metric names every run reports, in BENCHMARK.json order: the
// end-to-end set with tracing off, the per-layer set with tracing on.
const std::vector<std::string>& end_to_end_names();
const std::vector<std::string>& per_layer_names();

// Workloads (workloads.cpp). Each fills the metrics of its trace mode.
Outcome run_cli_workload(const Options& options);  // nightly, restore_all
Outcome run_tenants(const Options& options);

// Per-layer metrics and report table from a traced run (workloads.cpp).
void layer_metrics(Layers& layers, Outcome& out);

}  // namespace perfbench
