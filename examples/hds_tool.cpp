// hds_tool: a persistent command-line backup tool over HiDeStore.
//
// A repository directory holds the full system state between invocations
// (HiDeStore::save/load), so this behaves like a real incremental backup
// utility:
//
//   hds_tool init    <repo> [--shards=N]         create a repository
//                                                (N>1 partitions the
//                                                fingerprint space over N
//                                                shards, DESIGN.md §16;
//                                                default 1 = legacy layout)
//   hds_tool backup  <repo> <file-or-dir>        ingest the next version
//   hds_tool list    <repo>                      show retained versions
//   hds_tool restore <repo> <version> <outfile>  write a version's bytes
//   hds_tool restore <repo> all <outprefix>      write every retained
//                                                version to <outprefix><v>
//   hds_tool expire  <repo> <up-to-version>      drop old versions (no GC)
//   hds_tool flatten <repo>                      run Algorithm 1 offline
//   hds_tool files   <repo> <version>            list cataloged files
//   hds_tool restore-file <repo> <version> <path> <outfile>
//                                                pull ONE file out of a
//                                                snapshot (partial restore)
//   hds_tool stats   <repo> [--json]             export the metrics registry
//                                                (Prometheus text by default)
//   hds_tool fsck    <repo> [--json]             verify every store invariant
//                                                (exit 0 clean, 1 violations)
//   hds_tool recover <repo> [--json]             run crash recovery and print
//                                                its report (exit 0 if the
//                                                repository opened, 1 if not)
//   hds_tool profile <repo>                      print recent per-operation
//                                                profiles ({"ops":[...]} —
//                                                phase wall/CPU, bytes,
//                                                cache economics)
//   hds_tool serve-metrics <repo> [--port=N]     serve /metrics (Prometheus),
//                                                /profiles and /healthz on
//                                                127.0.0.1 until Ctrl-C
//   hds_tool serve <repo> [--port=N] [--max-sessions=N]
//                  [--pending-sessions=N] [--tenant-quota-mb=N]
//                  [--metrics-port=N]            multi-tenant service: accept
//                                                concurrent backup/restore/
//                                                list/stats/fsck sessions
//                                                over a loopback socket, one
//                                                namespace per tenant over a
//                                                shared container store
//                                                (DESIGN.md §15)
//   hds_tool client ping --port=N                serve-protocol client mode
//   hds_tool client backup <tenant> <file-or-dir> --port=N
//   hds_tool client restore <tenant> <version|latest> <outfile> --port=N
//   hds_tool client list|stats|fsck <tenant> --port=N
//                                                (exit 0 ok, 1 error,
//                                                3 busy/over-quota)
//
// Every command runs crash recovery on open: an interrupted backup rolls
// back to the last committed version, with a one-line notice on stderr
// (run `recover` for the full report).
//
// Observability flags (any command):
//   --metrics-out=<file>   write a JSON metrics snapshot after the command
//   --trace-out=<file>     record phase spans, dump Chrome trace_event JSON
//                          (restores with --threads also get cross-thread
//                          flow arrows and I/O-wait spans)
//   --profile-out=<file>   write this invocation's per-operation profiles
//                          as {"ops":[...]} JSON
//   HDS_LOG=<level>        structured key=value logs on stderr
//
// Every backup/restore additionally appends its profile to
// <repo>/profiles.jsonl (bounded history; `profile` and /profiles read it).
//
// Concurrency:
//   --threads=N            backup: chunk+fingerprint on N worker threads
//                          (parallel_chunk.h, byte-identical to serial);
//                          restore: prefetch containers 2N ahead of the
//                          policy (read_ahead.h). 0 (default) = serial.
//
// Sharding (any command; DESIGN.md §16):
//   --shards=N             on init: fix the repository's shard count (1-64);
//                          elsewhere: assert the repository records exactly
//                          N shards (a mismatch is refused with a clear
//                          error, never reinterpreted)
//
// I/O fast path (any command; DESIGN.md §10):
//   --block-cache-mb=N     byte budget of the archival block cache (0
//                          disables it; default 32)
//   --no-partial-reads     slurp whole container files instead of using
//                          the format-3 footer index
//
// Directories are serialized as path+size headers followed by file bytes
// (same layout as examples/backup_directory), so a restore of a directory
// backup reproduces that serialized stream.
#include <signal.h>

#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "backup/catalog.h"
#include "chunking/chunk_stream.h"
#include "chunking/parallel_chunk.h"
#include "chunking/tttd.h"
#include "common/parse.h"
#include "core/hidestore.h"
#include "core/shard_router.h"
#include "obs/http.h"
#include "obs/metrics.h"
#include "obs/profiler.h"
#include "obs/trace.h"
#include "service/client.h"
#include "service/server.h"
#include "storage/durable.h"
#include "verify/fsck.h"

namespace fs = std::filesystem;

namespace {

using namespace hds;

std::vector<std::uint8_t> read_file(const fs::path& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) {
    std::fprintf(stderr, "error: cannot open %s for reading\n",
                 path.string().c_str());
    std::exit(1);
  }
  std::vector<std::uint8_t> bytes(static_cast<std::size_t>(in.tellg()));
  in.seekg(0);
  in.read(reinterpret_cast<char*>(bytes.data()),
          static_cast<std::streamsize>(bytes.size()));
  if (!in || static_cast<std::size_t>(in.gcount()) != bytes.size()) {
    std::fprintf(stderr, "error: short read on %s\n", path.string().c_str());
    std::exit(1);
  }
  return bytes;
}

// Serializes the source into one stream, recording each file's byte range
// so single files can be pulled back out (catalog).
std::vector<std::uint8_t> snapshot_source(const fs::path& source,
                                          std::vector<CatalogEntry>& files) {
  if (fs::is_regular_file(source)) {
    auto bytes = read_file(source);
    files.push_back({source.string(), 0, bytes.size()});
    return bytes;
  }
  std::vector<fs::path> paths;
  for (const auto& entry : fs::recursive_directory_iterator(source)) {
    if (entry.is_regular_file()) paths.push_back(entry.path());
  }
  std::sort(paths.begin(), paths.end());
  std::vector<std::uint8_t> stream;
  for (const auto& path : paths) {
    const std::string header =
        path.string() + "\n" + std::to_string(fs::file_size(path)) + "\n";
    stream.insert(stream.end(), header.begin(), header.end());
    const auto bytes = read_file(path);
    files.push_back({fs::relative(path, source).string(), stream.size(),
                     bytes.size()});
    stream.insert(stream.end(), bytes.begin(), bytes.end());
  }
  return stream;
}

FileCatalog load_catalog(const fs::path& repo) {
  const auto file = repo / "catalog.hds";
  if (!fs::exists(file)) return {};
  const auto bytes = read_file(file);
  auto catalog = FileCatalog::deserialize(bytes);
  return catalog ? std::move(*catalog) : FileCatalog{};
}

// Atomic: a crash mid-write never leaves a torn catalog. Fails loudly —
// a silently dropped catalog would strand restore-file.
void save_catalog(const fs::path& repo, const FileCatalog& catalog) {
  try {
    durable::atomic_write_file(repo / "catalog.hds", catalog.serialize());
  } catch (const durable::WriteError& e) {
    std::fprintf(stderr, "error: cannot write catalog: %s\n", e.what());
    std::exit(1);
  }
}

// Drops catalog entries for versions the store no longer retains (expired,
// or rolled back by crash recovery).
void trim_catalog(const fs::path& repo, const ShardRouter& sys) {
  auto catalog = load_catalog(repo);
  bool changed = false;
  for (const VersionId v : catalog.versions()) {
    if (v > sys.latest_version() || v < sys.oldest_version()) {
      changed = catalog.erase_version(v) || changed;
    }
  }
  if (changed) save_catalog(repo, catalog);
}

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
               "       [--block-cache-mb=N] [--no-partial-reads]\n"
               "       (restore accepts `all <outprefix>` to write every "
               "version)\n");
  return 2;
}

// Checked numeric-flag parsing: rejects garbage, trailing junk and
// out-of-range values instead of strtoul's silent 0 / wraparound, and exits
// with the usage status so a typo cannot quietly select a default.
std::uint64_t parse_flag_uint(const std::string& arg, std::size_t prefix_len,
                              std::uint64_t max) {
  const auto value = hds::parse_uint(
      std::string_view(arg).substr(prefix_len), max);
  if (!value.has_value()) {
    std::fprintf(stderr,
                 "error: %.*s wants an unsigned integer <= %llu, got '%s'\n",
                 static_cast<int>(prefix_len - 1), arg.c_str(),
                 static_cast<unsigned long long>(max),
                 arg.c_str() + prefix_len);
    std::exit(2);
  }
  return *value;
}

// Positional version-number arguments get the same checked parse.
std::optional<VersionId> parse_version_arg(const char* text) {
  const auto value = hds::parse_uint(text, UINT32_MAX);
  if (!value.has_value()) {
    std::fprintf(stderr, "error: '%s' is not a version number\n", text);
    return std::nullopt;
  }
  return static_cast<VersionId>(*value);
}

struct ObsOptions {
  std::string metrics_out;
  std::string trace_out;
  std::string profile_out;
  bool json = false;
  std::size_t threads = 0;
  // serve-metrics listen port; 0 = ephemeral (printed at startup).
  std::uint16_t port = 0;
  // SIZE_MAX = flag absent (keep the default budget).
  std::size_t block_cache_mb = SIZE_MAX;
  bool no_partial_reads = false;
  // serve mode.
  std::size_t max_sessions = 4;
  std::size_t pending_sessions = 0;  // 0 = 2 * max_sessions
  std::uint64_t tenant_quota_mb = 0;  // 0 = unlimited
  std::uint16_t metrics_port = 0;
  bool metrics_port_set = false;
  // Fingerprint-space shards (DESIGN.md §16). `init --shards=N` fixes the
  // repository's shard count; on every other command the flag is an
  // assertion checked against what the repository records.
  std::size_t shards = 1;
  bool shards_set = false;
};

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

void append_profiles(const fs::path& repo, const obs::OpProfiler& profiler) {
  const auto ops = profiler.recent();
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

// Writes the metrics snapshot / trace file if requested. Returns false (and
// complains) on I/O failure so commands can fail loudly.
bool finish_observability(ShardRouter& sys, const ObsOptions& options,
                          const obs::Tracer& tracer) {
  bool ok = true;
  if (!options.metrics_out.empty()) {
    sys.refresh_gauges();
    try {
      durable::atomic_write_file(options.metrics_out,
                                 std::string_view(sys.metrics().to_json()));
    } catch (const durable::WriteError& e) {
      std::fprintf(stderr, "error: cannot write metrics to %s: %s\n",
                   options.metrics_out.c_str(), e.what());
      ok = false;
    }
  }
  if (!options.trace_out.empty() && !tracer.dump(options.trace_out)) {
    std::fprintf(stderr, "error: cannot write trace to %s\n",
                 options.trace_out.c_str());
    ok = false;
  }
  if (!options.profile_out.empty()) {
    try {
      durable::atomic_write_file(options.profile_out,
                                 std::string_view(sys.profiler().to_json()));
    } catch (const durable::WriteError& e) {
      std::fprintf(stderr, "error: cannot write profiles to %s: %s\n",
                   options.profile_out.c_str(), e.what());
      ok = false;
    }
  }
  return ok;
}

// `expected_shards` == 0 accepts whatever the repository records; nonzero
// (the user passed --shards=N) must match or the open is refused.
std::unique_ptr<ShardRouter> open_repo(const fs::path& repo,
                                       std::size_t expected_shards,
                                       RecoveryReport& recovery) {
  try {
    auto sys = ShardRouter::open(repo, expected_shards, &recovery);
    if (!sys) {
      std::fprintf(stderr, "error: %s is not a repository (run init)\n",
                   repo.string().c_str());
    }
    return sys;
  } catch (const ShardMismatchError& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return nullptr;
  }
}

}  // namespace

int main(int argc, char** argv) {
  ObsOptions options;
  std::vector<std::string> args;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--metrics-out=", 0) == 0) {
      options.metrics_out = arg.substr(14);
    } else if (arg.rfind("--trace-out=", 0) == 0) {
      options.trace_out = arg.substr(12);
    } else if (arg.rfind("--profile-out=", 0) == 0) {
      options.profile_out = arg.substr(14);
    } else if (arg == "--json") {
      options.json = true;
    } else if (arg.rfind("--threads=", 0) == 0) {
      options.threads =
          static_cast<std::size_t>(parse_flag_uint(arg, 10, 4096));
    } else if (arg.rfind("--port=", 0) == 0) {
      options.port = static_cast<std::uint16_t>(parse_flag_uint(arg, 7,
                                                                65535));
    } else if (arg.rfind("--metrics-port=", 0) == 0) {
      options.metrics_port =
          static_cast<std::uint16_t>(parse_flag_uint(arg, 15, 65535));
      options.metrics_port_set = true;
    } else if (arg.rfind("--max-sessions=", 0) == 0) {
      options.max_sessions =
          static_cast<std::size_t>(parse_flag_uint(arg, 15, 1024));
    } else if (arg.rfind("--pending-sessions=", 0) == 0) {
      options.pending_sessions =
          static_cast<std::size_t>(parse_flag_uint(arg, 19, 65536));
    } else if (arg.rfind("--tenant-quota-mb=", 0) == 0) {
      options.tenant_quota_mb = parse_flag_uint(arg, 18, 1ull << 30);
    } else if (arg.rfind("--block-cache-mb=", 0) == 0) {
      options.block_cache_mb =
          static_cast<std::size_t>(parse_flag_uint(arg, 17, 1ull << 20));
    } else if (arg == "--no-partial-reads") {
      options.no_partial_reads = true;
    } else if (arg.rfind("--shards=", 0) == 0) {
      options.shards =
          static_cast<std::size_t>(parse_flag_uint(arg, 9, kMaxShards));
      if (options.shards == 0) {
        std::fprintf(stderr, "error: --shards wants 1..%zu\n", kMaxShards);
        return usage();
      }
      options.shards_set = true;
    } else if (arg.rfind("--", 0) == 0) {
      std::fprintf(stderr, "error: unknown option %s\n", arg.c_str());
      return usage();
    } else {
      args.push_back(arg);
    }
  }
  if (args.size() < 2) return usage();
  const std::string command = args[0];
  const fs::path repo = args[1];
  const auto arg_at = [&](std::size_t i) -> const char* {
    return args[i].c_str();
  };

  if (command == "init") {
    if (fs::exists(repo / "state.hds") ||
        ShardRouter::detect_shards(repo) != 0) {
      std::fprintf(stderr, "error: repository already exists\n");
      return 1;
    }
    // File-backed repository: archival containers are individual files
    // under <repo>/archival (per shard_<i>/ when sharded); the manifest
    // stays small. --shards=1 (the default) keeps the legacy layout.
    ShardRouterConfig config;
    config.shards = options.shards;
    config.base.storage_dir = repo;
    ShardRouter sys(config);
    sys.save(repo);
    std::printf("initialized empty repository at %s (%zu shard%s)\n",
                repo.string().c_str(), options.shards,
                options.shards == 1 ? "" : "s");
    return 0;
  }

  if (command == "serve") {
    // Block SIGINT/SIGTERM before any thread spawns so every thread
    // inherits the mask and sigwait() below is the only consumer.
    sigset_t sigs;
    sigemptyset(&sigs);
    sigaddset(&sigs, SIGINT);
    sigaddset(&sigs, SIGTERM);
    pthread_sigmask(SIG_BLOCK, &sigs, nullptr);
    service::ServeConfig serve_config;
    serve_config.repo = repo;
    serve_config.port = options.port;
    serve_config.max_sessions = options.max_sessions;
    serve_config.pending_sessions = options.pending_sessions == 0
                                        ? 2 * options.max_sessions
                                        : options.pending_sessions;
    serve_config.tenant_quota_bytes = options.tenant_quota_mb * (1ull << 20);
    serve_config.shards = options.shards;
    if (options.block_cache_mb != SIZE_MAX) {
      serve_config.tenant_config.io_tuning.block_cache_bytes =
          options.block_cache_mb * (1 << 20);
    }
    serve_config.tenant_config.io_tuning.partial_reads =
        !options.no_partial_reads;
    service::ServeServer server(serve_config);
    std::string error;
    if (!server.start(&error)) {
      std::fprintf(stderr, "error: %s\n", error.c_str());
      return 1;
    }
    obs::HttpServer http(options.metrics_port);
    if (options.metrics_port_set) {
      http.route("/metrics", [&server] {
        obs::HttpServer::Response resp;
        server.refresh_metrics();
        resp.content_type = "text/plain; version=0.0.4; charset=utf-8";
        resp.body = server.metrics().to_prometheus();
        return resp;
      });
      http.route("/healthz", [] {
        obs::HttpServer::Response resp;
        resp.content_type = "application/json";
        resp.body = "{\"status\":\"ok\"}\n";
        return resp;
      });
      if (!http.start()) {
        std::fprintf(stderr, "error: cannot listen on 127.0.0.1:%u: %s\n",
                     options.metrics_port, std::strerror(errno));
        return 1;
      }
      std::printf("metrics on http://127.0.0.1:%u/metrics\n", http.port());
    }
    std::printf("serving tenants on 127.0.0.1:%u (%zu session slots) — "
                "SIGTERM/Ctrl-C stops\n",
                server.port(), options.max_sessions);
    std::fflush(stdout);
    int sig = 0;
    sigwait(&sigs, &sig);
    if (options.metrics_port_set) http.stop();
    server.stop();
    std::printf("stopped\n");
    return 0;
  }

  if (command == "client") {
    // args[1] is the sub-operation, not a repository.
    const std::string op = args[1];
    if (options.port == 0) {
      std::fprintf(stderr, "error: client mode needs --port=N\n");
      return usage();
    }
    service::ServeClient client;
    if (!client.connect(options.port)) {
      std::fprintf(stderr, "error: cannot connect to 127.0.0.1:%u\n",
                   options.port);
      return 1;
    }
    service::Request req;
    std::string outfile;
    if (op == "ping") {
      req.op = service::Op::kPing;
    } else if (op == "backup") {
      if (args.size() < 4) return usage();
      req.op = service::Op::kBackup;
      req.tenant = args[2];
      const fs::path source = args[3];
      if (!fs::exists(source)) {
        std::fprintf(stderr, "error: no such file or directory: %s\n",
                     source.string().c_str());
        return 1;
      }
      std::vector<CatalogEntry> ignored;
      req.data = snapshot_source(source, ignored);
      req.label = source.string();
    } else if (op == "restore") {
      if (args.size() < 5) return usage();
      req.op = service::Op::kRestore;
      req.tenant = args[2];
      if (args[3] != "latest") {
        const auto version = parse_version_arg(args[3].c_str());
        if (!version.has_value()) return usage();
        req.version = *version;
      }
      outfile = args[4];
    } else if (op == "list" || op == "stats" || op == "fsck") {
      if (args.size() < 3) return usage();
      req.op = op == "list" ? service::Op::kList
               : op == "stats" ? service::Op::kStats
                               : service::Op::kFsck;
      req.tenant = args[2];
    } else {
      std::fprintf(stderr, "error: unknown client operation '%s'\n",
                   op.c_str());
      return usage();
    }
    const auto resp = client.call(req);
    if (!resp.has_value()) {
      std::fprintf(stderr, "error: server connection failed\n");
      return 1;
    }
    if (!resp->message.empty()) {
      std::fprintf(resp->status == service::Status::kOk ? stdout : stderr,
                   "%s\n", resp->message.c_str());
    }
    if (resp->status == service::Status::kOk && !outfile.empty()) {
      std::ofstream out(outfile, std::ios::binary | std::ios::trunc);
      out.write(reinterpret_cast<const char*>(resp->data.data()),
                static_cast<std::streamsize>(resp->data.size()));
      out.flush();
      if (!out) {
        std::fprintf(stderr, "error: short write to %s\n", outfile.c_str());
        return 1;
      }
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

  RecoveryReport recovery;
  const std::size_t expected_shards =
      options.shards_set ? options.shards : 0;
  std::unique_ptr<ShardRouter> sys;
  if (command == "recover") {
    // `recover` reports instead of complaining: a failed open IS its output.
    try {
      sys = ShardRouter::open(repo, expected_shards, &recovery);
    } catch (const ShardMismatchError& e) {
      std::fprintf(stderr, "error: %s\n", e.what());
      return 1;
    }
  } else {
    sys = open_repo(repo, expected_shards, recovery);
  }

  if (command == "recover") {
    const auto text =
        options.json ? recovery.to_json() + "\n" : recovery.to_text();
    std::fwrite(text.data(), 1, text.size(), stdout);
    if (sys) trim_catalog(repo, *sys);
    return recovery.opened ? 0 : 1;
  }
  if (!sys) return 1;
  if (recovery.performed) {
    std::fprintf(stderr,
                 "recovery: repaired to epoch %llu (version %u); run "
                 "`hds_tool recover %s` for details\n",
                 static_cast<unsigned long long>(recovery.committed_epoch),
                 recovery.committed_version, repo.string().c_str());
    trim_catalog(repo, *sys);
  }

  // The tracer lives at tool scope so every phase of the command — chunking
  // included — lands in one timeline.
  obs::Tracer tracer;
  if (!options.trace_out.empty()) sys->set_tracer(&tracer);
  // Overlap container reads with chunk assembly on whole-version restores:
  // a 2N-deep prefetch window with N overlapping container reads in flight.
  if (options.threads > 1) {
    sys->set_read_ahead(2 * options.threads, options.threads);
  }
  if (options.block_cache_mb != SIZE_MAX || options.no_partial_reads) {
    FileStoreTuning tuning;
    if (options.block_cache_mb != SIZE_MAX) {
      tuning.block_cache_bytes = options.block_cache_mb * (1 << 20);
    }
    tuning.partial_reads = !options.no_partial_reads;
    sys->set_io_tuning(tuning);
  }

  const int rc = [&]() -> int {
  if (command == "stats") {
    sys->refresh_gauges();
    const auto text = options.json ? sys->metrics().to_json()
                                   : sys->metrics().to_prometheus();
    std::fwrite(text.data(), 1, text.size(), stdout);
    return 0;
  }

  if (command == "fsck") {
    const auto report = verify::run_fsck(*sys);
    const auto text = options.json ? report.to_json() : report.to_text();
    std::fwrite(text.data(), 1, text.size(), stdout);
    return report.clean() ? 0 : 1;
  }

  if (command == "profile") {
    const auto text = profiles_json(repo);
    std::fwrite(text.data(), 1, text.size(), stdout);
    return 0;
  }

  if (command == "serve-metrics") {
    // Block SIGINT/SIGTERM before any thread spawns so every thread
    // inherits the mask and sigwait() below is the only consumer.
    sigset_t sigs;
    sigemptyset(&sigs);
    sigaddset(&sigs, SIGINT);
    sigaddset(&sigs, SIGTERM);
    pthread_sigmask(SIG_BLOCK, &sigs, nullptr);
    obs::HttpServer server(options.port);
    server.route("/metrics", [&] {
      obs::HttpServer::Response resp;
      sys->refresh_gauges();
      resp.content_type = "text/plain; version=0.0.4; charset=utf-8";
      resp.body = sys->metrics().to_prometheus();
      return resp;
    });
    server.route("/profiles", [&] {
      // Re-read per request: other hds_tool invocations append to the
      // history while we serve.
      obs::HttpServer::Response resp;
      resp.content_type = "application/json";
      resp.body = profiles_json(repo);
      return resp;
    });
    server.route("/healthz", [&] {
      obs::HttpServer::Response resp;
      resp.content_type = "application/json";
      resp.body = "{\"status\":\"ok\"}\n";
      return resp;
    });
    if (!server.start()) {
      std::fprintf(stderr, "error: cannot listen on 127.0.0.1:%u: %s\n",
                   options.port, std::strerror(errno));
      return 1;
    }
    std::printf("serving http://127.0.0.1:%u  (/metrics /profiles /healthz) "
                "— Ctrl-C stops\n",
                server.port());
    std::fflush(stdout);
    int sig = 0;
    sigwait(&sigs, &sig);
    server.stop();
    std::printf("stopped after %llu requests\n",
                static_cast<unsigned long long>(server.requests_served()));
    return 0;
  }

  if (command == "backup") {
    if (args.size() < 3) return usage();
    const fs::path source = arg_at(2);
    if (!fs::exists(source)) {
      std::fprintf(stderr, "error: no such file or directory: %s\n",
                   source.string().c_str());
      return 1;
    }
    std::vector<CatalogEntry> files;
    obs::Span snapshot_span = tracer.span("snapshot_source");
    const auto snapshot = snapshot_source(source, files);
    snapshot_span.end();
    TttdChunker chunker;
    obs::Span chunk_span = tracer.span("chunking");
    VersionStream stream;
    if (options.threads > 1) {
      ParallelChunkConfig chunk_config;
      chunk_config.threads = options.threads;
      chunk_config.metrics = &sys->metrics();
      if (!options.trace_out.empty()) chunk_config.tracer = &tracer;
      const ParallelChunkPipeline pipeline(chunker, chunk_config);
      stream = pipeline.run(snapshot);
    } else {
      stream = chunk_bytes(chunker, snapshot);
    }
    chunk_span.end();
    const auto report = sys->backup(stream);
    auto catalog = load_catalog(repo);
    catalog.add_version(report.version, std::move(files));
    save_catalog(repo, catalog);
    sys->save(repo);
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
    for (const VersionId v : sys->versions()) {
      std::printf("%-8u  %9.2f MB  %-8zu\n", v,
                  static_cast<double>(sys->version_logical_bytes(v)) /
                      (1 << 20),
                  sys->version_chunk_count(v));
    }
    std::printf("dedup ratio: %.2f%%; archival containers: %zu; active "
                "containers: %zu\n",
                sys->dedup_ratio() * 100.0, sys->archival_container_count(),
                sys->active_container_count());
    return 0;
  }

  if (command == "restore") {
    if (args.size() < 4) return usage();
    const auto restore_one = [&](VersionId version,
                                 const std::string& outfile) -> int {
      std::ofstream out(outfile, std::ios::binary | std::ios::trunc);
      if (!out) {
        std::fprintf(stderr, "error: cannot open %s\n", outfile.c_str());
        return 1;
      }
      const auto report = sys->restore(
          version, [&](const ChunkLoc&, std::span<const std::uint8_t> bytes) {
            out.write(reinterpret_cast<const char*>(bytes.data()),
                      static_cast<std::streamsize>(bytes.size()));
          });
      if (report.stats.restored_chunks == 0) {
        std::fprintf(stderr, "error: no such version: %u\n", version);
        return 1;
      }
      out.flush();
      if (!out) {
        std::fprintf(stderr, "error: short write to %s\n", outfile.c_str());
        return 1;
      }
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
    if (std::strcmp(arg_at(2), "all") == 0) {
      // Oldest-first: old versions chase recipe chains into archival
      // containers, exactly where the partial-read fast path applies.
      int worst = 0;
      for (const VersionId v : sys->versions()) {
        worst |= restore_one(v, std::string(arg_at(3)) + std::to_string(v));
      }
      return worst;
    }
    const auto version = parse_version_arg(arg_at(2));
    if (!version.has_value()) return usage();
    return restore_one(*version, arg_at(3));
  }

  if (command == "expire") {
    if (args.size() < 3) return usage();
    const auto upto = parse_version_arg(arg_at(2));
    if (!upto.has_value()) return usage();
    const auto report = sys->delete_versions_up_to(*upto);
    sys->save(repo);
    std::printf("expired %zu versions: %zu containers erased, %.2f MB "
                "reclaimed, %llu chunks scanned\n",
                report.versions_deleted, report.containers_erased,
                static_cast<double>(report.bytes_reclaimed) / (1 << 20),
                static_cast<unsigned long long>(report.chunks_scanned));
    return 0;
  }

  if (command == "files") {
    if (args.size() < 3) return usage();
    const auto parsed = parse_version_arg(arg_at(2));
    if (!parsed.has_value()) return usage();
    const VersionId version = *parsed;
    const auto catalog = load_catalog(repo);
    const auto* files = catalog.files(version);
    if (files == nullptr) {
      std::fprintf(stderr, "error: no catalog for version %u\n", version);
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
    const auto parsed = parse_version_arg(arg_at(2));
    if (!parsed.has_value()) return usage();
    const VersionId version = *parsed;
    const auto catalog = load_catalog(repo);
    const auto entry = catalog.find(version, arg_at(3));
    if (!entry) {
      std::fprintf(stderr, "error: %s not in version %u\n", arg_at(3),
                   version);
      return 1;
    }
    std::ofstream out(arg_at(4), std::ios::binary | std::ios::trunc);
    if (!out) {
      std::fprintf(stderr, "error: cannot open %s\n", arg_at(4));
      return 1;
    }
    const auto report = sys->restore_range(
        version, entry->offset, entry->length,
        [&](const ChunkLoc&, std::span<const std::uint8_t> bytes) {
          out.write(reinterpret_cast<const char*>(bytes.data()),
                    static_cast<std::streamsize>(bytes.size()));
        });
    out.flush();
    if (!out) {
      std::fprintf(stderr, "error: short write to %s\n", arg_at(4));
      return 1;
    }
    std::printf("restored %s (%llu bytes) with %llu container reads\n",
                arg_at(3), static_cast<unsigned long long>(entry->length),
                static_cast<unsigned long long>(
                    report.stats.container_reads));
    return 0;
  }

  if (command == "flatten") {
    const auto updated = sys->flatten_recipes();
    sys->save(repo);
    std::printf("flattened recipe chains: %zu entries rewritten\n", updated);
    return 0;
  }

  return usage();
  }();

  sys->set_tracer(nullptr);
  append_profiles(repo, sys->profiler());  // no-op when the command ran none
  if (!finish_observability(*sys, options, tracer)) return 1;
  return rc;
}
