// hds_bench — the benchmark driver behind perfbench/run.py.
//
//   hds_bench --tool=<hds_tool> --work=<dir> --workload=nightly|restore_all|
//             tenants --seed=N --seconds=S --trace=0|1 [--commit=<id>]
//   hds_bench --tool=<hds_tool> --work=<dir> --smoke
//   hds_bench --list-metrics     (end-to-end names, a blank line, per-layer)
//
// Prints a report (environment stamp, per-op and per-layer tables) and, as
// the last line of stdout, one JSON object:
//   {"correct": .., "attempted": .., "failed": .., "metrics": {name:
//    {"value": .., "unit": ..}}}
// Exit status 0 when the run completed (even with failed ops, which the
// JSON reports), 1 when it could not run at all.
#include <sys/utsname.h>
#include <cpuid.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <set>
#include <string>

#include "bench.h"
#include "gen.h"
#include "replay.h"

namespace perfbench {

namespace fs = std::filesystem;

Sizes Sizes::smoke() {
  Sizes s;
  s.nightly_tree = 2ull << 20;
  s.nightly_keep = 2;
  s.nightly_file_restores = 2;
  s.chain_tree = 1ull << 20;
  s.chain_versions = 4;
  s.tenant_file = 1ull << 20;
  s.setup_reps = 2;
  s.min_cycles = 2;
  return s;
}

void Outcome::op(bool ok, const std::string& what) {
  ++attempted;
  if (ok) return;
  ++failed;
  correct = false;
  line("FAILED: " + what);
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double sum(const std::vector<double>& v) {
  double total = 0.0;
  for (const double x : v) total += x;
  return total;
}

std::string describe(const std::vector<double>& v, double scale,
                     const char* unit) {
  if (v.empty()) return "n=0";
  char buf[160];
  std::snprintf(buf, sizeof buf, "n=%zu p50=%.3f %s max=%.3f %s", v.size(),
                median(v) * scale, unit,
                *std::max_element(v.begin(), v.end()) * scale, unit);
  return buf;
}

const std::vector<std::string>& end_to_end_names() {
  static const std::vector<std::string> names = {
      "backup_MBps", "backup_p50_s", "restore_MBps", "restore_p50_s",
      "list_p50_ms", "space_amp",    "dedup_ratio",  "speed_factor",
      "peak_rss_MB", "setup_s"};
  return names;
}

const std::vector<std::string>& per_layer_names() {
  static const std::vector<std::string> names = {
      "snapshot.ms",
      "chunking.scan_MBps",
      "chunking.hash_MBps",
      "chunking.ms",
      "chunking.parallel_eff",
      "core.open_ms",
      "core.backup_ms",
      "core.dedup_ms",
      "core.move_and_merge_ms",
      "core.recipe_update_ms",
      "core.shard_skew",
      "core.dedup_hit_ratio",
      "core.cold_MB_moved",
      "core.containers_merged",
      "core.save_ms",
      "core.state_MB",
      "core.delete_ms",
      "core.containers_erased",
      "core.chunks_scanned",
      "backup.catalog_ms",
      "restore.resolve_ms",
      "restore.policy_ms",
      "restore.chain_hops",
      "restore.sink_ms",
      "restore.prefetch_waste_ratio",
      "storage.physical_read_ratio",
      "storage.block_cache_hit_ratio",
      "storage.fd_cache_hit_ratio",
      "storage.partial_read_share",
      "storage.crc_MBps",
      "storage.write_amp",
      "service.backup_call_ms",
      "service.restore_call_ms",
      "service.wire_ms",
      "trace.unattributed_pct",
      "trace.unattributed_pct.backup",
      "trace.unattributed_pct.restore",
      "trace.overhead_pct"};
  return names;
}

namespace {

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string result_json(const Outcome& out) {
  std::string s = "{\"correct\": ";
  s += out.correct ? "true" : "false";
  s += ", \"attempted\": " + std::to_string(out.attempted);
  s += ", \"failed\": " + std::to_string(out.failed);
  s += ", \"metrics\": {";
  for (std::size_t i = 0; i < out.metrics.size(); ++i) {
    const auto& m = out.metrics[i];
    if (i > 0) s += ", ";
    s += json_string(m.name) + ": {\"value\": " + json_number(m.value) +
         ", \"unit\": " + json_string(m.unit) + "}";
  }
  return s + "}}";
}

// The environment every result is stamped with.
std::string env_stamp(const Options& o) {
  unsigned a = 0, b = 0, c = 0, d = 0;
  bool sha = false, avx2 = false, avx512 = false;
  if (__get_cpuid_count(7, 0, &a, &b, &c, &d) != 0) {
    avx2 = (b >> 5) & 1;
    avx512 = (b >> 16) & 1;
    sha = (b >> 29) & 1;
  }
  utsname u{};
  uname(&u);
  fs::create_directories(o.work);
  const auto [backend, gauge] = probe_io_backend(o.work / "io_probe");
  fs::remove_all(o.work / "io_probe");
  const std::string build = HDS_BENCH_BUILD_TYPE;
  std::string s = "{\"build_type\": " + json_string(build);
  s += ", \"comparable\": ";
  s += build == "Release" ? "true" : "false";
  s += ", \"cpus\": " + std::to_string(sysconf(_SC_NPROCESSORS_ONLN));
  s += ", \"sha_ni\": " + std::string(sha ? "true" : "false");
  s += ", \"avx2\": " + std::string(avx2 ? "true" : "false");
  s += ", \"avx512f\": " + std::string(avx512 ? "true" : "false");
  s += ", \"io_backend\": " + json_string(backend);
  s += ", \"io_backend_gauge\": " + std::to_string(gauge);
  s += ", \"kernel\": " + json_string(std::string(u.sysname) + " " + u.release);
  s += ", \"commit\": " + json_string(o.commit);
  s += ", \"workload\": " + json_string(o.workload);
  s += ", \"seed\": " + std::to_string(o.seed);
  s += ", \"seconds\": " + json_number(o.seconds);
  s += ", \"trace\": " + std::to_string(o.trace ? 1 : 0);
  return s + "}";
}

Outcome run(const Options& o) {
  Outcome out;
  const std::string check = generator_selfcheck(o.seed);
  if (o.workload == "tenants") {
    out = run_tenants(o);
  } else {
    out = run_cli_workload(o);
  }
  out.op(check.empty(), "generator self-check: " + check);
  return out;
}

void print(const Options& o, const Outcome& out) {
  std::printf("# env %s\n", env_stamp(o).c_str());
  for (const auto& l : out.report) std::printf("# %s\n", l.c_str());
  std::printf("%s\n", result_json(out).c_str());
  std::fflush(stdout);
}

// Every workload in both trace modes at tiny sizes: each run must be
// correct and report exactly the declared metrics, each with a unit.
int smoke(Options o) {
  o.sizes = Sizes::smoke();
  o.seconds = 0.5;
  int bad = 0;
  for (const char* workload : {"nightly", "restore_all", "tenants"}) {
    for (const bool trace : {false, true}) {
      o.workload = workload;
      o.trace = trace;
      const Outcome out = run(o);
      const auto& want = trace ? per_layer_names() : end_to_end_names();
      std::set<std::string> got;
      std::string problems;
      for (const auto& m : out.metrics) {
        got.insert(m.name);
        if (m.unit.empty() || !std::isfinite(m.value)) {
          problems += " " + m.name + "(no unit or not finite)";
        }
      }
      for (const auto& name : want) {
        if (!got.contains(name)) problems += " missing:" + name;
      }
      if (got.size() != want.size()) problems += " extra metrics";
      if (!out.correct) problems += " incorrect";
      if (trace == false) {
        for (const auto& m : out.metrics) {
          if (m.value <= 0.0) problems += " zero:" + m.name;
        }
      }
      std::printf("# smoke %-11s trace=%d %s\n", workload, trace ? 1 : 0,
                  problems.empty() ? "ok" : problems.c_str());
      for (const auto& l : out.report) {
        if (l.rfind("FAILED", 0) == 0) std::printf("#   %s\n", l.c_str());
      }
      bad += problems.empty() ? 0 : 1;
    }
  }
  std::printf("# smoke %s\n", bad == 0 ? "passed" : "FAILED");
  return bad == 0 ? 0 : 1;
}

bool flag(const std::string& arg, const char* name, std::string& value) {
  const std::string prefix = std::string("--") + name + "=";
  if (arg.rfind(prefix, 0) != 0) return false;
  value = arg.substr(prefix.size());
  return true;
}

}  // namespace

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options o;
  bool smoke_mode = false;
  try {
    if (argc == 2 && std::strcmp(argv[1], "--list-metrics") == 0) {
      for (const auto& n : end_to_end_names()) std::printf("%s\n", n.c_str());
      std::printf("\n");
      for (const auto& n : per_layer_names()) std::printf("%s\n", n.c_str());
      return 0;
    }
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      std::string v;
      if (arg == "--smoke") {
        smoke_mode = true;
      } else if (flag(arg, "workload", v)) {
        o.workload = v;
      } else if (flag(arg, "seed", v)) {
        o.seed = std::stoull(v);
      } else if (flag(arg, "seconds", v)) {
        o.seconds = std::stod(v);
      } else if (flag(arg, "trace", v)) {
        o.trace = v == "1";
      } else if (flag(arg, "tool", v)) {
        o.tool = v;
      } else if (flag(arg, "work", v)) {
        o.work = v;
      } else if (flag(arg, "commit", v)) {
        o.commit = v;
      } else {
        std::fprintf(stderr, "hds_bench: unknown argument %s\n", arg.c_str());
        return 1;
      }
    }
    if (o.tool.empty() || o.work.empty() || !fs::exists(o.tool)) {
      std::fprintf(stderr, "hds_bench: --tool=<hds_tool> and --work=<dir> "
                           "are required\n");
      return 1;
    }
    o.tool = fs::absolute(o.tool);
    if (smoke_mode) return smoke(o);
    if (o.workload != "nightly" && o.workload != "restore_all" &&
        o.workload != "tenants") {
      std::fprintf(stderr, "hds_bench: unknown workload '%s'\n",
                   o.workload.c_str());
      return 1;
    }
    print(o, run(o));
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "hds_bench: %s\n", e.what());
    return 1;
  }
}
