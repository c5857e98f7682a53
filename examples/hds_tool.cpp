// hds_tool: a persistent command-line backup tool. It is a thin CLI over
// hds::Repository (src/service/repository.h), which owns every repository
// rule; this file parses flags and prints results.
//
//   init    <repo> [--shards=N]          create a repository (N>1 partitions
//                                        the fingerprint space, DESIGN.md
//                                        §16; default 1 = legacy layout)
//   backup  <repo> <file-or-dir>         ingest the next version
//   list    <repo>                       show retained versions
//   restore <repo> <version> <outfile>   write a version's bytes
//   restore <repo> all <outprefix>       every retained version to
//                                        <outprefix><v>
//   expire  <repo> <up-to-version>       drop old versions (no GC)
//   flatten <repo>                       run Algorithm 1 offline
//   files   <repo> <version>             list cataloged files
//   restore-file <repo> <version> <path> <outfile>
//                                        pull ONE file out of a snapshot
//   stats   <repo> [--json]              export the metrics registry
//   fsck    <repo> [--json]              verify every store invariant (exit
//                                        0 clean, 1 violations)
//   recover <repo> [--json]              run crash recovery, print its
//                                        report (exit 0 if it opened)
//   profile <repo>                       recent per-operation profiles
//   serve-metrics <repo> [--port=N]      serve /metrics, /profiles and
//                                        /healthz on 127.0.0.1 until Ctrl-C
//   serve <repo> [--port=N] [--max-sessions=N] [--pending-sessions=N]
//         [--tenant-quota-mb=N] [--metrics-port=N]
//                                        multi-tenant loopback service, one
//                                        namespace per tenant over a shared
//                                        container store (DESIGN.md §15)
//   client ping|backup|restore|list|stats|fsck [<tenant> ...] --port=N
//                                        serve-protocol client (exit 0 ok,
//                                        1 error, 3 busy/over-quota)
//
// Every command runs crash recovery on open, with a one-line notice on
// stderr when it repaired anything. Flags for any command:
//   --metrics-out=<file>   JSON metrics snapshot after the command
//   --trace-out=<file>     Chrome trace_event JSON of the command's phases
//   --profile-out=<file>   this invocation's per-operation profiles
//   --threads=N            backup: chunk+fingerprint on N threads; restore:
//                          fill each assembly area from N containers at
//                          once. 0 = serial
//   --shards=N             init: the shard count (1-64); elsewhere: assert
//                          the repository records exactly N shards
//   HDS_LOG=<level>        structured key=value logs on stderr
// Every backup/restore appends its profile to <repo>/profiles.jsonl
// (bounded history; `profile` and /profiles read it).
#include <signal.h>

#include <algorithm>
#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/parse.h"
#include "obs/http.h"
#include "obs/metrics.h"
#include "obs/profiler.h"
#include "obs/trace.h"
#include "service/client.h"
#include "service/repository.h"
#include "service/server.h"
#include "storage/durable.h"
#include "verify/fsck.h"

namespace fs = std::filesystem;

namespace {

using namespace hds;

// A restore's output file. Callers open it only once the restore is known
// to be possible, so a refused restore leaves any existing file untouched.
// Chunks gather in a 1 MiB buffer: the stream's own buffer passes any write
// over 1 KiB straight to the kernel, one syscall per chunk.
class OutputFile {
 public:
  explicit OutputFile(const std::string& path)
      : path_(path), out_(path, std::ios::binary | std::ios::trunc) {
    if (!out_) throw RepositoryError("cannot open " + path);
    buffer_.reserve(kBufferBytes);
  }

  void write(std::span<const std::uint8_t> bytes) {
    if (buffer_.size() + bytes.size() > kBufferBytes) flush_buffer();
    if (bytes.size() >= kBufferBytes) {
      put(bytes);
    } else {
      buffer_.insert(buffer_.end(), bytes.begin(), bytes.end());
    }
  }

  [[nodiscard]] ChunkSink sink() {
    return [this](const ChunkLoc&, std::span<const std::uint8_t> bytes) {
      write(bytes);
    };
  }

  void finish() {
    flush_buffer();
    out_.flush();
    if (!out_) throw RepositoryError("short write to " + path_);
  }

 private:
  static constexpr std::size_t kBufferBytes = std::size_t{1} << 20;

  void put(std::span<const std::uint8_t> bytes) {
    out_.write(reinterpret_cast<const char*>(bytes.data()),
               static_cast<std::streamsize>(bytes.size()));
  }
  void flush_buffer() {
    put(buffer_);
    buffer_.clear();
  }

  std::string path_;
  std::ofstream out_;
  std::vector<std::uint8_t> buffer_;
};

int usage() {
  std::fprintf(stderr,
               "usage: hds_tool init|backup|list|restore|expire|flatten|"
               "files|restore-file|stats|fsck|recover|profile|serve-metrics "
               "<repo> [args]\n"
               "       hds_tool serve <repo> [--port=N] [--max-sessions=N] "
               "[--pending-sessions=N]\n"
               "                [--tenant-quota-mb=N] [--metrics-port=N]\n"
               "       hds_tool client ping|backup|restore|list|stats|fsck "
               "[<tenant> ...] --port=N\n"
               "       [--metrics-out=<file>] [--trace-out=<file>] "
               "[--profile-out=<file>]\n"
               "       [--json] [--threads=N] [--port=N] [--shards=N]\n"
               "       (restore accepts `all <outprefix>` to write every "
               "version)\n");
  return 2;
}

// Numeric flags and their caps. Checked parsing rejects garbage, trailing
// junk and out-of-range values (exit 2) instead of strtoul's silent 0 /
// wraparound, so a typo cannot quietly select a default.
constexpr std::pair<std::string_view, std::uint64_t> kNumericFlags[] = {
    {"threads", 4096},
    {"port", 65535},
    {"metrics-port", 65535},
    {"max-sessions", 1024},
    {"pending-sessions", 65536},
    {"tenant-quota-mb", 1ull << 30},
    {"shards", kMaxShards}};

struct Options {
  std::string metrics_out;
  std::string trace_out;
  std::string profile_out;
  bool json = false;
  // Numeric flags as given, by name; absent ones take their defaults.
  std::map<std::string, std::uint64_t, std::less<>> numbers;

  [[nodiscard]] bool has(std::string_view name) const {
    return numbers.find(name) != numbers.end();
  }
  [[nodiscard]] std::size_t number(std::string_view name,
                                   std::uint64_t fallback = 0) const {
    const auto it = numbers.find(name);
    return static_cast<std::size_t>(it == numbers.end() ? fallback
                                                        : it->second);
  }
};

// Splits argv into `options` (`--name` / `--name=value`) and positional
// `args`. False (after complaining) on an unknown or invalid flag.
bool parse_args(int argc, char** argv, Options& options,
                std::vector<std::string>& args) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      args.push_back(arg);
      continue;
    }
    const auto eq = arg.find('=');
    const bool valued = eq != std::string::npos;
    const std::string name = arg.substr(2, valued ? eq - 2 : arg.size());
    const std::string value = valued ? arg.substr(eq + 1) : "";
    const auto* numeric = std::find_if(
        std::begin(kNumericFlags), std::end(kNumericFlags),
        [&](const auto& flag) { return flag.first == name; });
    if (!valued && name == "json") {
      options.json = true;
    } else if (valued && name == "metrics-out") {
      options.metrics_out = value;
    } else if (valued && name == "trace-out") {
      options.trace_out = value;
    } else if (valued && name == "profile-out") {
      options.profile_out = value;
    } else if (valued && numeric != std::end(kNumericFlags)) {
      const auto parsed = parse_uint(value, numeric->second);
      if (!parsed.has_value()) {
        std::fprintf(stderr,
                     "error: --%s wants an unsigned integer <= %llu, got "
                     "'%s'\n",
                     name.c_str(),
                     static_cast<unsigned long long>(numeric->second),
                     value.c_str());
        std::exit(2);
      }
      options.numbers[name] = *parsed;
    } else {
      std::fprintf(stderr, "error: unknown option %s\n", arg.c_str());
      return false;
    }
  }
  if (options.number("shards", 1) == 0) {
    std::fprintf(stderr, "error: --shards wants 1..%zu\n", kMaxShards);
    return false;
  }
  return true;
}

// Positional version-number arguments get the same checked parse.
std::optional<VersionId> parse_version_arg(const std::string& text) {
  const auto value = parse_uint(text, UINT32_MAX);
  if (!value.has_value()) {
    std::fprintf(stderr, "error: '%s' is not a version number\n",
                 text.c_str());
    return std::nullopt;
  }
  return static_cast<VersionId>(*value);
}

// --- Per-operation profile history (<repo>/profiles.jsonl) ---
// hds_tool is one process per command, so the in-memory profiler ring dies
// with each invocation; the repository keeps a bounded JSONL history
// instead. One OpProfile JSON object per line, oldest first; `profile` and
// the /profiles endpoint render it back as {"ops":[...]}. Op ids restart
// per invocation (they order ops within one command, not across).
constexpr std::size_t kProfileHistory = 64;

std::vector<std::string> read_profile_lines(const fs::path& repo) {
  std::vector<std::string> lines;
  std::ifstream in(repo / "profiles.jsonl");
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty()) lines.push_back(line);
  }
  return lines;
}

void append_profiles(const fs::path& repo,
                     const std::vector<obs::OpProfile>& ops) {
  if (ops.empty()) return;
  auto lines = read_profile_lines(repo);
  for (const auto& op : ops) lines.push_back(op.to_json());
  if (lines.size() > kProfileHistory) {
    lines.erase(lines.begin(),
                lines.end() - static_cast<std::ptrdiff_t>(kProfileHistory));
  }
  std::string text;
  for (const auto& l : lines) {
    text += l;
    text += '\n';
  }
  try {
    durable::atomic_write_file(repo / "profiles.jsonl", text);
  } catch (const durable::WriteError& e) {
    // History is advisory; losing it must not fail the backup/restore.
    std::fprintf(stderr, "warning: cannot update profiles.jsonl: %s\n",
                 e.what());
  }
}

std::string profiles_json(const fs::path& repo) {
  const auto lines = read_profile_lines(repo);
  std::string out = "{\"ops\":[";
  for (std::size_t i = 0; i < lines.size(); ++i) {
    if (i > 0) out += ',';
    out += lines[i];
  }
  out += "]}\n";
  return out;
}

// Writes the metrics snapshot / trace / profile files if requested.
// Returns false (and complains) on I/O failure so commands fail loudly.
bool finish_observability(Repository& repository, const Options& options,
                          const obs::Tracer& tracer) {
  bool ok = true;
  const auto write = [&ok](const std::string& path, const char* what,
                           const std::function<std::string()>& render) {
    if (path.empty()) return;
    try {
      durable::atomic_write_file(path, std::string_view(render()));
    } catch (const durable::WriteError& e) {
      std::fprintf(stderr, "error: cannot write %s to %s: %s\n", what,
                   path.c_str(), e.what());
      ok = false;
    }
  };
  write(options.metrics_out, "metrics", [&repository] {
    return obs::to_json(repository.router().metric_parts());
  });
  if (!options.trace_out.empty() && !tracer.dump(options.trace_out)) {
    std::fprintf(stderr, "error: cannot write trace to %s\n",
                 options.trace_out.c_str());
    ok = false;
  }
  write(options.profile_out, "profiles", [&repository] {
    return obs::profiles_to_json(repository.recent_profiles());
  });
  return ok;
}

// Blocks SIGINT/SIGTERM before any thread spawns, so every thread inherits
// the mask and wait_for_stop() is the only consumer.
sigset_t block_stop_signals() {
  sigset_t sigs;
  sigemptyset(&sigs);
  sigaddset(&sigs, SIGINT);
  sigaddset(&sigs, SIGTERM);
  pthread_sigmask(SIG_BLOCK, &sigs, nullptr);
  return sigs;
}

void wait_for_stop(const sigset_t& sigs) {
  int sig = 0;
  sigwait(&sigs, &sig);
}

// Routes /metrics (Prometheus text from `render`) and /healthz.
void route_metrics(obs::HttpServer& http,
                   std::function<std::string()> render) {
  http.route("/metrics", [render = std::move(render)] {
    obs::HttpServer::Response resp;
    resp.content_type = "text/plain; version=0.0.4; charset=utf-8";
    resp.body = render();
    return resp;
  });
  http.route("/healthz", [] {
    obs::HttpServer::Response resp;
    resp.content_type = "application/json";
    resp.body = "{\"status\":\"ok\"}\n";
    return resp;
  });
}

int serve(const fs::path& repo, const Options& options) {
  const sigset_t sigs = block_stop_signals();
  const std::size_t max_sessions = options.number("max-sessions", 4);
  service::ServeConfig config;
  config.repo = repo;
  config.port = static_cast<std::uint16_t>(options.number("port"));
  config.max_sessions = max_sessions;
  config.pending_sessions = options.number("pending-sessions") == 0
                                ? 2 * max_sessions
                                : options.number("pending-sessions");
  config.tenant_quota_bytes =
      std::uint64_t{options.number("tenant-quota-mb")} << 20;
  config.shards = options.number("shards", 1);
  service::ServeServer server(config);
  std::string error;
  if (!server.start(&error)) {
    std::fprintf(stderr, "error: %s\n", error.c_str());
    return 1;
  }
  const bool metrics = options.has("metrics-port");
  obs::HttpServer http(
      static_cast<std::uint16_t>(options.number("metrics-port")));
  if (metrics) {
    route_metrics(http, [&server] {
      return obs::to_prometheus(server.metric_parts());
    });
    if (!http.start()) {
      std::fprintf(stderr, "error: cannot listen on 127.0.0.1:%zu: %s\n",
                   options.number("metrics-port"), std::strerror(errno));
      return 1;
    }
    std::printf("metrics on http://127.0.0.1:%u/metrics\n", http.port());
  }
  std::printf("serving tenants on 127.0.0.1:%u (%zu session slots) — "
              "SIGTERM/Ctrl-C stops\n",
              server.port(), max_sessions);
  std::fflush(stdout);
  wait_for_stop(sigs);
  if (metrics) http.stop();
  server.stop();
  std::printf("stopped\n");
  return 0;
}

int client(const std::vector<std::string>& args, const Options& options) {
  // args[1] is the sub-operation, not a repository.
  const std::string& op = args[1];
  const auto port = static_cast<std::uint16_t>(options.number("port"));
  if (port == 0) {
    std::fprintf(stderr, "error: client mode needs --port=N\n");
    return usage();
  }
  service::ServeClient conn;
  if (!conn.connect(port)) {
    std::fprintf(stderr, "error: cannot connect to 127.0.0.1:%u\n", port);
    return 1;
  }
  // Operation -> (opcode, positional arguments it needs).
  static const std::map<std::string, std::pair<service::Op, std::size_t>>
      kOps = {{"ping", {service::Op::kPing, 2}},
              {"backup", {service::Op::kBackup, 4}},
              {"restore", {service::Op::kRestore, 5}},
              {"list", {service::Op::kList, 3}},
              {"stats", {service::Op::kStats, 3}},
              {"fsck", {service::Op::kFsck, 3}}};
  const auto known = kOps.find(op);
  if (known == kOps.end()) {
    std::fprintf(stderr, "error: unknown client operation '%s'\n",
                 op.c_str());
    return usage();
  }
  if (args.size() < known->second.second) return usage();
  service::Request req;
  req.op = known->second.first;
  if (req.op != service::Op::kPing) req.tenant = args[2];
  if (req.op == service::Op::kBackup) {
    req.data = Repository::snapshot(args[3]);
    req.label = args[3];
  } else if (req.op == service::Op::kRestore && args[3] != "latest") {
    const auto version = parse_version_arg(args[3]);
    if (!version.has_value()) return usage();
    req.version = *version;
  }
  const auto resp = conn.call(req);
  if (!resp.has_value()) {
    std::fprintf(stderr, "error: server connection failed\n");
    return 1;
  }
  if (!resp->message.empty()) {
    std::fprintf(resp->status == service::Status::kOk ? stdout : stderr,
                 "%s\n", resp->message.c_str());
  }
  if (resp->status == service::Status::kOk &&
      req.op == service::Op::kRestore) {
    OutputFile out(args[4]);
    out.write(resp->data);
    out.finish();
  } else if (!resp->data.empty()) {
    std::fwrite(resp->data.data(), 1, resp->data.size(), stdout);
  }
  switch (resp->status) {
    case service::Status::kOk: return 0;
    case service::Status::kError: return 1;
    case service::Status::kBusy:
    case service::Status::kQuotaExceeded: return 3;
  }
  return 1;
}

int serve_metrics(const fs::path& repo, ShardRouter& sys,
                  const Options& options) {
  const sigset_t sigs = block_stop_signals();
  const auto port = static_cast<std::uint16_t>(options.number("port"));
  obs::HttpServer server(port);
  route_metrics(server,
                [&sys] { return obs::to_prometheus(sys.metric_parts()); });
  server.route("/profiles", [&repo] {
    // Re-read per request: other hds_tool invocations append to the
    // history while we serve.
    obs::HttpServer::Response resp;
    resp.content_type = "application/json";
    resp.body = profiles_json(repo);
    return resp;
  });
  if (!server.start()) {
    std::fprintf(stderr, "error: cannot listen on 127.0.0.1:%u: %s\n", port,
                 std::strerror(errno));
    return 1;
  }
  std::printf("serving http://127.0.0.1:%u  (/metrics /profiles /healthz) "
              "— Ctrl-C stops\n",
              server.port());
  std::fflush(stdout);
  wait_for_stop(sigs);
  server.stop();
  std::printf("stopped after %llu requests\n",
              static_cast<unsigned long long>(server.requests_served()));
  return 0;
}

// The commands that run over an opened repository.
int run_command(const std::vector<std::string>& args, const Options& options,
                Repository& repository) {
  const std::string& command = args[0];
  const fs::path repo = args[1];
  ShardRouter& sys = repository.router();

  if (command == "stats") {
    const auto parts = sys.metric_parts();
    const auto text =
        options.json ? obs::to_json(parts) : obs::to_prometheus(parts);
    std::fwrite(text.data(), 1, text.size(), stdout);
    return 0;
  }
  if (command == "fsck") {
    const auto report = verify::run_fsck(sys);
    const auto text = options.json ? report.to_json() : report.to_text();
    std::fwrite(text.data(), 1, text.size(), stdout);
    return report.clean() ? 0 : 1;
  }
  if (command == "profile") {
    const auto text = profiles_json(repo);
    std::fwrite(text.data(), 1, text.size(), stdout);
    return 0;
  }
  if (command == "serve-metrics") return serve_metrics(repo, sys, options);

  if (command == "backup") {
    if (args.size() < 3) return usage();
    const auto report = repository.backup(args[2], options.number("threads"));
    std::printf("version %u: %.2f MB logical, %.2f MB stored (%.1f%% new), "
                "%zu chunks\n",
                report.version,
                static_cast<double>(report.logical_bytes) / (1 << 20),
                static_cast<double>(report.stored_bytes) / (1 << 20),
                report.logical_bytes == 0
                    ? 0.0
                    : 100.0 * static_cast<double>(report.stored_bytes) /
                          static_cast<double>(report.logical_bytes),
                static_cast<std::size_t>(report.logical_chunks));
    return 0;
  }

  if (command == "list") {
    std::printf("%-8s  %-12s  %-8s\n", "version", "size", "chunks");
    for (const VersionId v : sys.versions()) {
      std::printf("%-8u  %9.2f MB  %-8zu\n", v,
                  static_cast<double>(sys.version_logical_bytes(v)) /
                      (1 << 20),
                  sys.version_chunk_count(v));
    }
    std::printf("dedup ratio: %.2f%%; archival containers: %zu; active "
                "containers: %zu\n",
                sys.dedup_ratio() * 100.0, sys.archival_container_count(),
                sys.active_container_count());
    return 0;
  }

  if (command == "restore") {
    if (args.size() < 4) return usage();
    const auto restore_one = [&](VersionId version,
                                 const std::string& outfile) -> int {
      repository.require_retained(version);
      OutputFile out(outfile);
      const auto report = repository.restore(version, out.sink());
      out.finish();
      std::printf("restored v%u: %.2f MB, %llu container reads, "
                  "%.2f MB/read, %llu failed chunks\n",
                  version,
                  static_cast<double>(report.stats.restored_bytes) /
                      (1 << 20),
                  static_cast<unsigned long long>(
                      report.stats.container_reads),
                  report.stats.speed_factor(),
                  static_cast<unsigned long long>(
                      report.stats.failed_chunks));
      return report.stats.failed_chunks == 0 ? 0 : 1;
    };
    if (args[2] == "all") {
      // Oldest-first: old versions chase recipe chains into archival
      // containers, which the block cache then serves to later versions.
      int worst = 0;
      for (const VersionId v : repository.versions()) {
        worst |= restore_one(v, args[3] + std::to_string(v));
      }
      return worst;
    }
    const auto version = parse_version_arg(args[2]);
    if (!version.has_value()) return usage();
    return restore_one(*version, args[3]);
  }

  if (command == "expire") {
    if (args.size() < 3) return usage();
    const auto upto = parse_version_arg(args[2]);
    if (!upto.has_value()) return usage();
    const auto report = repository.expire(*upto);
    std::printf("expired %zu versions: %zu containers erased, %.2f MB "
                "reclaimed, %llu chunks scanned\n",
                report.versions_deleted, report.containers_erased,
                static_cast<double>(report.bytes_reclaimed) / (1 << 20),
                static_cast<unsigned long long>(report.chunks_scanned));
    return 0;
  }

  if (command == "files") {
    if (args.size() < 3) return usage();
    const auto version = parse_version_arg(args[2]);
    if (!version.has_value()) return usage();
    const auto* files = repository.files(*version);
    if (files == nullptr) {
      std::fprintf(stderr, "error: no catalog for version %u\n", *version);
      return 1;
    }
    for (const auto& entry : *files) {
      std::printf("%10llu  %s\n",
                  static_cast<unsigned long long>(entry.length),
                  entry.path.c_str());
    }
    return 0;
  }

  if (command == "restore-file") {
    if (args.size() < 5) return usage();
    const auto version = parse_version_arg(args[2]);
    if (!version.has_value()) return usage();
    const auto entry = repository.find_file(*version, args[3]);
    OutputFile out(args[4]);
    const auto report = repository.restore_file(*version, entry, out.sink());
    out.finish();
    std::printf("restored %s (%llu bytes) with %llu container reads\n",
                args[3].c_str(),
                static_cast<unsigned long long>(report.stats.restored_bytes),
                static_cast<unsigned long long>(
                    report.stats.container_reads));
    return 0;
  }

  if (command == "flatten") {
    std::printf("flattened recipe chains: %zu entries rewritten\n",
                repository.flatten());
    return 0;
  }
  return usage();
}

int run(const std::vector<std::string>& args, const Options& options) {
  const std::string& command = args[0];
  const fs::path repo = args[1];
  if (command == "init") {
    // File-backed repository: archival containers are individual files
    // under <repo>/archival (per shard_<i>/ when sharded); the manifest
    // stays small. --shards=1 (the default) keeps the legacy layout.
    ShardRouterConfig config;
    config.shards = options.number("shards", 1);
    config.base.storage_dir = repo;
    (void)Repository::create(config);
    std::printf("initialized empty repository at %s (%zu shard%s)\n",
                repo.string().c_str(), config.shards,
                config.shards == 1 ? "" : "s");
    return 0;
  }
  if (command == "serve") return serve(repo, options);
  if (command == "client") return client(args, options);

  // --shards=N on any other command asserts the recorded count.
  RecoveryReport recovery;
  auto repository =
      Repository::open(repo, options.number("shards"), &recovery);
  if (command == "recover") {
    // `recover` reports instead of complaining: a failed open IS its output.
    const auto text =
        options.json ? recovery.to_json() + "\n" : recovery.to_text();
    std::fwrite(text.data(), 1, text.size(), stdout);
    return recovery.opened ? 0 : 1;
  }
  if (!repository) {
    std::fprintf(stderr, "error: %s is not a repository (run init)\n",
                 repo.string().c_str());
    return 1;
  }
  if (recovery.performed) {
    std::fprintf(stderr,
                 "recovery: repaired to epoch %llu (version %u); run "
                 "`hds_tool recover %s` for details\n",
                 static_cast<unsigned long long>(recovery.committed_epoch),
                 recovery.committed_version, repo.string().c_str());
  }
  ShardRouter& sys = repository->router();
  // The tracer lives at tool scope so every phase of the command — chunking
  // included — lands in one timeline.
  obs::Tracer tracer;
  if (!options.trace_out.empty()) repository->set_tracer(&tracer);
  // Whole-version restores fill each assembly area from N containers at
  // once.
  if (const std::size_t threads = options.number("threads"); threads > 1) {
    sys.set_restore_workers(threads);
  }

  int rc = 1;
  try {
    rc = run_command(args, options, *repository);
  } catch (const std::runtime_error& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
  }
  repository->set_tracer(nullptr);
  // No-op when the command ran no profiled op.
  append_profiles(repo, repository->recent_profiles());
  if (!finish_observability(*repository, options, tracer)) return 1;
  return rc;
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  std::vector<std::string> args;
  if (!parse_args(argc, argv, options, args) || args.size() < 2) {
    return usage();
  }
  try {
    return run(args, options);
  } catch (const std::runtime_error& e) {
    // Repository refusals, shard-count mismatches and write failures.
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
