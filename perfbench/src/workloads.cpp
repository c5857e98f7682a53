// The three workloads. Untraced runs time hds_tool commands (and serve
// requests) from outside; traced runs alternate them with in-process
// replays (replay.h) and report per-layer metrics instead.
#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <sstream>
#include <barrier>
#include <functional>
#include <thread>

#include "bench.h"
#include "gen.h"
#include "proc.h"
#include "replay.h"
#include "service/client.h"

namespace perfbench {

namespace fs = std::filesystem;

namespace {

constexpr double kMiB = 1024.0 * 1024.0;

std::string fmt(const char* format, ...) __attribute__((format(printf, 1, 2)));
std::string fmt(const char* format, ...) {
  char buf[512];
  va_list args;
  va_start(args, format);
  std::vsnprintf(buf, sizeof buf, format, args);
  va_end(args);
  return buf;
}

std::uint64_t dir_bytes(const fs::path& dir) {
  std::uint64_t total = 0;
  for (const auto& e : fs::recursive_directory_iterator(dir)) {
    if (e.is_regular_file()) total += e.file_size();
  }
  return total;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

// What one retained version must restore to.
struct Expected {
  Digest stream;
  std::uint64_t size = 0;
  std::map<std::string, Digest> files;
};

Expected expect(const Tree& tree, const std::string& root) {
  Expected e{tree.stream_digest(root), tree.stream_size(root), {}};
  for (const auto& [path, bytes] : tree.files()) e.files[path] = digest_of(bytes);
  return e;
}

// Op walls (seconds) and volumes gathered over a run, by op kind.
struct OpLog {
  std::map<std::string, std::vector<double>> wall_s;
  // Timed backups are all incremental: every repository's first version is
  // made during set-up.
  double backup_logical = 0, backup_stored = 0;
  double restored_bytes = 0, container_reads = 0;
  double peak_rss_mb = 0;
};

// Runs hds_tool commands one at a time, recording each one's wall time
// and peak RSS.
class Cli {
 public:
  Cli(const Options& o, OpLog& log, fs::path scratch)
      : o_(o), log_(log), scratch_(std::move(scratch)) {}

  ProcResult run(const std::string& kind, std::vector<std::string> args) {
    args.insert(args.begin(), o_.tool.string());
    quiesce(scratch_);
    auto r = run_proc(args, scratch_);
    log_.wall_s[kind].push_back(r.wall_s);
    log_.peak_rss_mb = std::max(log_.peak_rss_mb, r.max_rss_mb);
    return r;
  }

 private:
  const Options& o_;
  OpLog& log_;
  fs::path scratch_;
};

// Why a command failed: its exit status and the start of what it printed
// (fsck reports violations on stdout, other errors go to stderr).
std::string why(const ProcResult& r) {
  if (r.exit_code == 0) return {};
  std::string text = r.err.empty() ? r.out : r.err;
  std::replace(text.begin(), text.end(), '\n', ' ');
  return " (exit " + std::to_string(r.exit_code) + ": " + text.substr(0, 400) +
         ")";
}

// Sum of "<n> container reads" over hds_tool restore output lines.
double parse_container_reads(const std::string& text) {
  double reads = 0;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    double mb = 0;
    unsigned long long n = 0;
    unsigned v = 0;
    if (std::sscanf(line.c_str(), "restored v%u: %lf MB, %llu container reads",
                    &v, &mb, &n) == 3) {
      reads += static_cast<double>(n);
    }
  }
  return reads;
}

bool digest_matches(const fs::path& file, const Digest& want) {
  try {
    return digest_of_file(file) == want;
  } catch (const std::exception&) {
    return false;
  }
}

void end_to_end(Outcome& out, const OpLog& log,
                const std::vector<double>& setup, double space_amp) {
  const auto get = [&](const char* kind) -> const std::vector<double>& {
    static const std::vector<double> none;
    const auto it = log.wall_s.find(kind);
    return it == log.wall_s.end() ? none : it->second;
  };
  const auto& backups = get("backup");
  const auto& restores = get("restore");
  out.metric("setup_s", median(setup), "s");
  out.metric("backup_MBps", ratio(log.backup_logical / kMiB, sum(backups)),
             "MB/s");
  out.metric("backup_p50_s", median(backups), "s");
  out.metric("restore_MBps", ratio(log.restored_bytes / kMiB, sum(restores)),
             "MB/s");
  out.metric("restore_p50_s", median(restores), "s");
  out.metric("list_p50_ms", median(get("list")) * 1e3, "ms");
  out.metric("space_amp", space_amp, "ratio");
  out.metric("dedup_ratio",
             ratio(log.backup_logical - log.backup_stored, log.backup_logical),
             "ratio");
  out.metric("speed_factor",
             ratio(log.restored_bytes / kMiB, log.container_reads), "MB/read");
  out.metric("peak_rss_MB", log.peak_rss_mb, "MB");
  out.line(fmt("setup: %s", describe(setup, 1.0, "s").c_str()));
  for (const auto& [kind, walls] : log.wall_s) {
    out.line(fmt("op %-12s %s", kind.c_str(), describe(walls, 1e3, "ms").c_str()));
  }
  out.line(fmt("fail_ratio: %" PRIu64 " failed / %" PRIu64 " attempted = %.4f",
               out.failed, out.attempted,
               ratio(static_cast<double>(out.failed),
                     static_cast<double>(out.attempted))));
}

}  // namespace

Outcome run_cli_workload(const Options& o) {
  const bool nightly = o.workload == "nightly";
  const Sizes& z = o.sizes;
  const std::uint64_t tree_bytes = nightly ? z.nightly_tree : z.chain_tree;
  const int chain = nightly ? 1 : z.chain_versions;
  const int keep = nightly ? z.nightly_keep : z.chain_versions;
  const double frac = nightly ? 0.03 : 0.08;
  // restore_all rolls its tree (churn 0): a long retained chain must never
  // see a chunk leave and come back (see README.md, "fsck").
  const int churn = nightly ? 4 : 0;
  const int file_restores = nightly ? z.nightly_file_restores : 0;

  Outcome out;
  OpLog log;
  Layers layers;
  const fs::path dir = fs::absolute(o.work / o.workload);
  const fs::path repo = dir / "repo";
  const fs::path tree_dir = dir / "tree";
  const fs::path scratch = dir / "tmp";
  const std::string root = tree_dir.string();

  // Set-up: the generated tree plus a repository holding `chain` versions.
  std::unique_ptr<Tree> tree;
  std::map<std::uint32_t, Expected> retained;
  std::vector<double> setup;
  for (int rep = 0; rep < z.setup_reps; ++rep) {
    tree.reset();
    fs::remove_all(dir);
    fs::create_directories(scratch);
    quiesce(dir);
    const double t0 = now_s();
    tree = std::make_unique<Tree>(o.seed, tree_bytes, nightly);
    retained.clear();
    build_chain(repo, *tree, root, chain, frac, churn,
                [&](std::uint32_t v) { retained[v] = expect(*tree, root); });
    tree->write(tree_dir);
    setup.push_back(now_s() - t0);
  }

  Cli cli(o, log, scratch);
  CliReplay replay(layers, repo);
  Rng pick(o.seed ^ 0x9e3779b97f4a7c15ull);
  const std::string out_file = (scratch / "restored").string();
  const double start = now_s();
  for (int cycle = 0; cycle < z.min_cycles || now_s() - start < o.seconds;
       ++cycle) {
    // Traced runs alternate: even cycles through hds_tool, odd ones replayed.
    const bool traced = o.trace && cycle % 2 == 1;
    if (nightly) {
      tree->evolve(frac, churn);
    } else {
      tree->roll(frac);
    }
    tree->write(tree_dir);
    const std::uint32_t want = retained.rbegin()->first + 1;

    // backup --threads=4
    std::uint32_t version = 0;
    std::string failure;
    if (traced) {
      version = replay.backup(tree_dir, 4);
    } else {
      const auto r = cli.run("backup", {"backup", repo.string(), root,
                                        "--threads=4"});
      double logical = 0, stored = 0;
      if (std::sscanf(r.out.c_str(), "version %u: %lf MB logical, %lf MB stored",
                      &version, &logical, &stored) == 3) {
        log.backup_logical += logical * kMiB;
        log.backup_stored += stored * kMiB;
      }
      failure = why(r);
    }
    out.op(version == want && failure.empty(),
           fmt("backup made version %u, want %u", version, want) + failure);
    retained[want] = expect(*tree, root);

    // list
    if (traced) {
      replay.list();
    } else {
      const auto r = cli.run("list", {"list", repo.string()});
      const auto lines = std::count(r.out.begin(), r.out.end(), '\n');
      out.op(lines == static_cast<long>(retained.size()) + 2 && r.exit_code == 0,
             fmt("list printed %ld lines for %zu versions", lines,
                 retained.size()) + why(r));
    }

    // restore: the latest version (nightly) or every version (restore_all)
    std::string restore_failure;
    if (nightly) {
      bool ok = true;
      if (traced) {
        ok = replay.restore(want, out_file);
      } else {
        const auto r = cli.run("restore", {"restore", repo.string(),
                                           std::to_string(want), out_file});
        log.restored_bytes += static_cast<double>(retained[want].size);
        log.container_reads += parse_container_reads(r.out);
        restore_failure = why(r);
      }
      out.op(ok && restore_failure.empty() &&
                 digest_matches(out_file, retained[want].stream),
             fmt("restore of version %u differs from its input", want) +
                 restore_failure);
      fs::remove(out_file);
    } else {
      const std::string prefix = (scratch / "all.v").string();
      bool ok = true;
      if (traced) {
        ok = replay.restore_all(prefix, 4);
      } else {
        const auto r = cli.run("restore", {"restore", repo.string(), "all",
                                           prefix, "--threads=4"});
        log.container_reads += parse_container_reads(r.out);
        for (const auto& [v, e] : retained) {
          log.restored_bytes += static_cast<double>(e.size);
        }
        restore_failure = why(r);
      }
      // One operation, correct only if every version's output is.
      for (const auto& [v, e] : retained) {
        const fs::path file = prefix + std::to_string(v);
        if (!digest_matches(file, e.stream)) {
          ok = false;
          restore_failure += fmt(" version %u differs from its input;", v);
        }
        fs::remove(file);
      }
      out.op(ok && restore_failure.empty(), "restore all" + restore_failure);
    }

    // restore-file of random files from random retained versions
    for (int i = 0; i < file_restores; ++i) {
      auto it = retained.begin();
      std::advance(it, static_cast<long>(pick.range(0, retained.size() - 1)));
      const auto& files = it->second.files;
      auto f = files.begin();
      std::advance(f, static_cast<long>(pick.range(0, files.size() - 1)));
      bool ok = true;
      std::string file_failure;
      if (traced) {
        ok = replay.restore_file(it->first, f->first, out_file);
      } else {
        file_failure = why(cli.run(
            "restore_file", {"restore-file", repo.string(),
                             std::to_string(it->first), f->first, out_file}));
      }
      out.op(ok && file_failure.empty() && digest_matches(out_file, f->second),
             fmt("restore-file %s of version %u differs", f->first.c_str(),
                 it->first) + file_failure);
      fs::remove(out_file);
    }

    // expire down to the rolling window
    if (static_cast<int>(retained.size()) > keep) {
      const std::uint32_t upto = want - static_cast<std::uint32_t>(keep);
      if (traced) {
        replay.expire(upto);
      } else {
        const auto r = cli.run("expire", {"expire", repo.string(),
                                          std::to_string(upto)});
        unsigned long long scanned = 1;
        const auto at = r.out.find("reclaimed, ");
        if (at != std::string::npos) {
          std::sscanf(r.out.c_str() + at, "reclaimed, %llu", &scanned);
        }
        out.op(scanned == 0 && r.exit_code == 0,
               fmt("expire scanned %llu chunks", scanned) + why(r));
      }
      retained.erase(retained.begin(), retained.upper_bound(upto));
    }
  }

  const auto fsck = cli.run("fsck", {"fsck", repo.string()});
  out.op(fsck.exit_code == 0, "fsck" + why(fsck));

  std::uint64_t logical_retained = 0;
  for (const auto& [v, e] : retained) logical_retained += e.size;
  const double space_amp = ratio(static_cast<double>(dir_bytes(repo)),
                                 static_cast<double>(logical_retained));
  if (!o.trace) {
    end_to_end(out, log, setup, space_amp);
  } else {
    for (const auto& [kind, walls] : log.wall_s) {
      auto& trace = layers.ops[kind == "restore" && !nightly ? "restore_all" : kind];
      for (const double w : walls) trace.untraced_ms.push_back(w * 1e3);
    }
    layer_metrics(layers, out);
  }
  fs::remove_all(dir);
  return out;
}

namespace {

// One tenant: its connection, its data and what its operations measured.
class Tenant {
 public:
  Tenant(const Options& o, int index)
      : name_("t" + std::to_string(index)),
        rng_(o.seed * 1000003ull + static_cast<std::uint64_t>(index)),
        data_(o.sizes.tenant_file) {
    rng_.fill(data_.data(), data_.size());
  }

  bool connect(std::uint16_t port) {
    if (client_.connect(port, 120)) return true;
    failures.push_back(name_ + ": cannot connect");
    return false;
  }

  // One version: backup, list, restore `latest` and compare. `timed` ops go
  // into the op samples (set-up ops do not). False ends the tenant's loop.
  bool push(bool timed) {
    using namespace hds::service;
    if (version > 0) roll_buffer(rng_, data_, 0.2);
    const int v = version + 1;
    const auto call = [&](Op op, std::vector<double>& walls) {
      Request req;
      req.op = op;
      req.tenant = name_;
      if (op == Op::kBackup) {
        req.label = "gcc.tar";
        req.data = data_;
      }
      const double t0 = now_s();
      auto resp = client_.call(req);
      if (timed) walls.push_back(now_s() - t0);
      ++ops;
      return resp;
    };
    auto resp = call(Op::kBackup, backup_s);
    if (!resp || resp->status != Status::kOk ||
        field(resp->message, "version") != static_cast<std::uint64_t>(v)) {
      failures.push_back(name_ + " backup v" + std::to_string(v) + ": " +
                         (resp ? resp->message : "connection lost"));
      return false;
    }
    version = v;
    if (timed) {
      logical += static_cast<double>(field(resp->message, "logical_bytes"));
      stored += static_cast<double>(field(resp->message, "stored_bytes"));
    }
    resp = call(Op::kList, list_s);
    if (!resp || resp->status != Status::kOk ||
        resp->message != std::to_string(v) + " version(s)") {
      failures.push_back(name_ + " list: " + (resp ? resp->message : "lost"));
    }
    resp = call(Op::kRestore, restore_s);
    if (!resp || resp->status != Status::kOk || resp->data != data_) {
      failures.push_back(name_ + " restore v" + std::to_string(v) +
                         " differs from its input");
      return false;
    }
    if (timed) {
      restored += static_cast<double>(resp->data.size());
      reads += static_cast<double>(field(resp->message, "container_reads"));
    }
    return true;
  }

  void fsck() {
    hds::service::Request req;
    req.op = hds::service::Op::kFsck;
    req.tenant = name_;
    const auto resp = client_.call(req);
    ++ops;
    if (!resp || resp->status != hds::service::Status::kOk) {
      std::string why =
          resp ? resp->message + " " +
                     std::string(resp->data.begin(), resp->data.end())
               : "connection lost";
      std::replace(why.begin(), why.end(), '\n', ' ');
      failures.push_back(name_ + " fsck: " + why.substr(0, 600));
    }
  }

  int version = 0;
  std::uint64_t ops = 0;
  std::vector<double> backup_s, restore_s, list_s;
  double logical = 0, stored = 0, restored = 0, reads = 0;
  std::vector<std::string> failures;

 private:
  static std::uint64_t field(const std::string& text, const std::string& key) {
    const auto at = text.find(key + "=");
    if (at == std::string::npos) return 0;
    return std::strtoull(text.c_str() + at + key.size() + 1, nullptr, 10);
  }

  std::string name_;
  Rng rng_;
  std::vector<std::uint8_t> data_;
  hds::service::ServeClient client_;
};

constexpr int kSpaceAtVersion = 4;

// The server's work for one tenant, replayed in-process for the same
// version sequence.
void tenant_replay(const Options& o, int index, int versions,
                   const fs::path& dir, Layers& layers,
                   std::vector<std::string>& failures) {
  Rng rng(o.seed * 1000003ull + static_cast<std::uint64_t>(index));
  std::vector<std::uint8_t> data(o.sizes.tenant_file);
  rng.fill(data.data(), data.size());
  TenantReplay replay(layers, dir, 4);
  std::vector<std::uint8_t> restored;
  for (int v = 1; v <= versions; ++v) {
    if (v > 1) roll_buffer(rng, data, 0.2);
    const auto version = replay.backup(data, "gcc.tar");
    const bool ok = replay.restore_latest(restored);
    if (version != static_cast<std::uint32_t>(v) || !ok || restored != data) {
      failures.push_back("replayed tenant " + std::to_string(index) +
                         " version " + std::to_string(v) + " differs");
    }
  }
}

// Runs fn(i) on one thread per tenant and joins them.
void per_tenant(int n, const std::function<void(int)>& fn) {
  std::vector<std::thread> threads;
  for (int i = 0; i < n; ++i) threads.emplace_back(fn, i);
  for (auto& th : threads) th.join();
}

}  // namespace

Outcome run_tenants(const Options& o) {
  constexpr int kTenants = 2;
  Outcome out;
  const fs::path dir = fs::absolute(o.work / o.workload);
  const fs::path repo = dir / "repo";
  const std::vector<std::string> argv = {o.tool.string(), "serve", repo.string(),
                                         "--shards=4", "--port=0"};
  // Set-up: generate both tenants' data, start the server on a fresh repo
  // and push each tenant's first (full) version.
  double peak_rss = 0;
  std::vector<double> setup;
  std::unique_ptr<ServerProc> server;
  std::vector<std::unique_ptr<Tenant>> tenants;
  for (int rep = 0; rep < o.sizes.setup_reps; ++rep) {
    tenants.clear();
    if (server) peak_rss = std::max(peak_rss, server->stop().max_rss_mb);
    fs::remove_all(dir);
    fs::create_directories(dir);
    quiesce(dir);
    const double t0 = now_s();
    for (int t = 0; t < kTenants; ++t) {
      tenants.push_back(std::make_unique<Tenant>(o, t));
    }
    std::string error;
    server = std::make_unique<ServerProc>();
    if (!server->start(argv, dir / "serve.err", &error)) {
      throw std::runtime_error(error);
    }
    per_tenant(kTenants, [&](int t) {
      if (tenants[t]->connect(server->port())) tenants[t]->push(false);
    });
    setup.push_back(now_s() - t0);
  }

  // Tenants push their versions in rounds: each round every tenant backs
  // up, lists and restores one version, so the two sessions always overlap
  // the same way. Space is measured after round kSpaceAtVersion, so it does
  // not drift with how many versions a run gets through.
  double space_amp = 0;
  int versions = 1;  // the base version pushed during set-up
  bool more = true;
  const double start = now_s();
  std::barrier<std::function<void()>> round(kTenants, [&] {
    ++versions;
    if (versions == kSpaceAtVersion) {
      space_amp = ratio(static_cast<double>(dir_bytes(repo)),
                        static_cast<double>(kTenants * kSpaceAtVersion) *
                            static_cast<double>(o.sizes.tenant_file));
    }
    more = versions < kSpaceAtVersion || now_s() - start < o.seconds;
  });
  per_tenant(kTenants, [&](int t) {
    Tenant& tenant = *tenants[t];
    if (tenant.version != 1) {
      round.arrive_and_drop();
      return;
    }
    while (more) {
      if (!tenant.push(true)) {
        round.arrive_and_drop();
        return;
      }
      round.arrive_and_wait();
    }
    tenant.fsck();
  });
  const auto stopped = server->stop();
  peak_rss = std::max(peak_rss, stopped.max_rss_mb);
  out.op(stopped.exit_code == 0, "serve exited " +
                                     std::to_string(stopped.exit_code));

  OpLog log;
  for (const auto& t : tenants) {
    out.attempted += t->ops - t->failures.size();
    for (const auto& f : t->failures) out.op(false, f);
    auto& w = log.wall_s;
    w["backup"].insert(w["backup"].end(), t->backup_s.begin(), t->backup_s.end());
    w["restore"].insert(w["restore"].end(), t->restore_s.begin(),
                        t->restore_s.end());
    w["list"].insert(w["list"].end(), t->list_s.begin(), t->list_s.end());
    log.backup_logical += t->logical;
    log.backup_stored += t->stored;
    log.restored_bytes += t->restored;
    log.container_reads += t->reads;
  }
  log.peak_rss_mb = peak_rss;
  if (!o.trace) {
    end_to_end(out, log, setup, space_amp);
  } else {
    std::vector<Layers> per(kTenants);
    std::vector<std::vector<std::string>> failures(kTenants);
    per_tenant(kTenants, [&](int t) {
      try {
        tenant_replay(o, t, tenants[t]->version,
                      dir / ("replay" + std::to_string(t)), per[t], failures[t]);
      } catch (const std::exception& e) {
        failures[t].push_back(e.what());
      }
    });
    Layers layers;
    for (int t = 0; t < kTenants; ++t) {
      layers.merge(per[t]);
      for (const auto& f : failures[t]) out.op(false, f);
    }
    for (const char* kind : {"backup", "restore"}) {
      for (const double w : log.wall_s[kind]) {
        layers.ops[kind].untraced_ms.push_back(w * 1e3);
      }
    }
    layers.add("service.calls", 1);
    layer_metrics(layers, out);
  }
  fs::remove_all(dir);
  return out;
}

void Layers::merge(const Layers& other) {
  for (const auto& [kind, t] : other.ops) {
    auto& mine = ops[kind];
    mine.wall_ms.insert(mine.wall_ms.end(), t.wall_ms.begin(), t.wall_ms.end());
    mine.untraced_ms.insert(mine.untraced_ms.end(), t.untraced_ms.begin(),
                            t.untraced_ms.end());
    mine.spanned_ms += t.spanned_ms;
    for (const auto& [name, s] : t.spans) {
      auto& m = mine.spans[name];
      m.total_ms += s.total_ms;
      m.child_ms += s.child_ms;
      m.count += s.count;
    }
    for (const auto& [name, s] : t.children) {
      auto& m = mine.children[name];
      m.total_ms += s.total_ms;
      m.count += s.count;
    }
  }
  for (const auto& [name, v] : other.sums) sums[name] += v;
  for (const auto& [name, v] : other.samples) {
    samples[name].insert(samples[name].end(), v.begin(), v.end());
  }
}

namespace {

double span_mean(const Layers& layers, const std::string& name) {
  double total = 0;
  std::uint64_t count = 0;
  for (const auto& [kind, t] : layers.ops) {
    const auto it = t.spans.find(name);
    if (it == t.spans.end()) continue;
    total += it->second.total_ms;
    count += it->second.count;
  }
  return count == 0 ? 0.0 : total / static_cast<double>(count);
}

double sample_median(const Layers& layers, const std::string& name) {
  const auto it = layers.samples.find(name);
  return it == layers.samples.end() ? 0.0 : median(it->second);
}

double unattributed_pct(const OpTrace& t) {
  const double wall = sum(t.wall_ms);
  return wall > 0 ? 100.0 * (wall - t.spanned_ms) / wall : 0.0;
}

}  // namespace

void layer_metrics(Layers& L, Outcome& out) {
  const double backups = L.get("backup.ops");
  const double versions = L.get("restore.versions");
  const double reads = L.get("storage.container_reads");
  const double hits = L.get("counter.t0_hits") + L.get("counter.t1_hits") +
                      L.get("counter.t2_hits");
  const double chunks = L.get("counter.chunks_processed");
  const bool service = L.get("service.calls") > 0;
  const auto op_median = [&](const char* kind, bool untraced) {
    const auto it = L.ops.find(kind);
    if (it == L.ops.end()) return 0.0;
    return median(untraced ? it->second.untraced_ms : it->second.wall_ms);
  };

  out.metric("snapshot.ms", span_mean(L, "snapshot"), "ms");
  out.metric("chunking.scan_MBps", sample_median(L, "chunking.scan_MBps"), "MB/s");
  out.metric("chunking.hash_MBps", sample_median(L, "chunking.hash_MBps"), "MB/s");
  out.metric("chunking.ms", span_mean(L, "chunking"), "ms");
  out.metric("chunking.parallel_eff", sample_median(L, "chunking.parallel_eff"),
             "ratio");
  out.metric("core.open_ms", span_mean(L, "core.open"), "ms");
  out.metric("core.backup_ms", span_mean(L, "core.backup"), "ms");
  out.metric("core.dedup_ms", ratio(L.get("phase.dedup_ms"), backups), "ms");
  out.metric("core.move_and_merge_ms",
             ratio(L.get("phase.move_and_merge_ms"), backups), "ms");
  out.metric("core.recipe_update_ms",
             ratio(L.get("phase.recipe_update_ms"), backups), "ms");
  out.metric("core.shard_skew", sample_median(L, "core.shard_skew"), "ratio");
  out.metric("core.dedup_hit_ratio", ratio(hits, chunks), "ratio");
  out.metric("core.cold_MB_moved",
             ratio(L.get("counter.cold_bytes_moved") / kMiB, backups), "MB");
  out.metric("core.containers_merged",
             ratio(L.get("counter.containers_merged"), backups), "count");
  out.metric("core.save_ms", span_mean(L, "core.save"), "ms");
  out.metric("core.state_MB",
             ratio(L.get("core.state_bytes") / kMiB, L.get("core.saves")), "MB");
  out.metric("core.delete_ms", span_mean(L, "core.delete"), "ms");
  out.metric("core.containers_erased",
             ratio(L.get("core.containers_erased"), L.get("core.deletes")),
             "count");
  out.metric("core.chunks_scanned", L.get("core.chunks_scanned"), "count");
  out.metric("backup.catalog_ms", span_mean(L, "backup.catalog"), "ms");
  out.metric("restore.resolve_ms",
             ratio(L.get("phase.resolve_recipe_ms"), versions), "ms");
  out.metric("restore.policy_ms",
             ratio(L.get("phase.policy_restore_ms"), versions), "ms");
  out.metric("restore.chain_hops",
             ratio(L.get("counter.restore_chain_hops"), versions), "count");
  out.metric("restore.sink_ms", ratio(L.get("restore.sink_ms"), versions), "ms");
  out.metric("restore.prefetch_waste_ratio",
             ratio(L.get("counter.restore_prefetch_wasted"),
                   L.get("restore.reads")),
             "ratio");
  out.metric("storage.physical_read_ratio",
             ratio(L.get("storage.bytes_read_physical"),
                   L.get("storage.bytes_read")),
             "ratio");
  const double bc_hits = L.get("storage.block_cache_hits");
  const double bc_miss = L.get("storage.block_cache_misses");
  out.metric("storage.block_cache_hit_ratio", ratio(bc_hits, bc_hits + bc_miss),
             "ratio");
  const double fd_hits = L.get("storage.fd_cache_hits");
  const double fd_opens = L.get("storage.fd_cache_opens");
  out.metric("storage.fd_cache_hit_ratio", ratio(fd_hits, fd_hits + fd_opens),
             "ratio");
  out.metric("storage.partial_read_share",
             ratio(L.get("storage.partial_reads"), reads), "ratio");
  out.metric("storage.crc_MBps", sample_median(L, "storage.crc_MBps"), "MB/s");
  const double written = L.get("storage.container_bytes_written") +
                         L.get("backup.state_bytes");
  out.metric("storage.write_amp", ratio(written, L.get("backup.logical_bytes")),
             "ratio");
  const double call_backup = service ? op_median("backup", true) : 0.0;
  out.metric("service.backup_call_ms", call_backup, "ms");
  out.metric("service.restore_call_ms",
             service ? op_median("restore", true) : 0.0, "ms");
  out.metric("service.wire_ms",
             service ? call_backup - op_median("backup", false) : 0.0, "ms");

  double wall = 0, spanned = 0, traced = 0, untraced = 0;
  for (const auto& [kind, t] : L.ops) {
    wall += sum(t.wall_ms);
    spanned += t.spanned_ms;
    if (!t.wall_ms.empty() && !t.untraced_ms.empty()) {
      traced += median(t.wall_ms);
      untraced += median(t.untraced_ms);
    }
  }
  const auto kind_pct = [&](const char* kind) {
    const auto it = L.ops.find(kind);
    return it == L.ops.end() ? 0.0 : unattributed_pct(it->second);
  };
  out.metric("trace.unattributed_pct", ratio(100.0 * (wall - spanned), wall), "%");
  out.metric("trace.unattributed_pct.backup", kind_pct("backup"), "%");
  out.metric("trace.unattributed_pct.restore",
             L.ops.count("restore_all") ? kind_pct("restore_all")
                                        : kind_pct("restore"),
             "%");
  out.metric("trace.overhead_pct", ratio(100.0 * (traced - untraced), untraced),
             "%");

  // The per-layer table: per op kind, each span's total, count and self
  // time, its share of the op's wall, and what no span covers.
  for (const auto& [kind, t] : L.ops) {
    const double op_wall = sum(t.wall_ms);
    const double untraced_p50 = median(t.untraced_ms);
    out.line(fmt("op %s: traced %s; untraced %s; overhead %.1f%%; "
                 "unattributed %.1f%% (%.1f of %.1f ms)",
                 kind.c_str(), describe(t.wall_ms, 1.0, "ms").c_str(),
                 describe(t.untraced_ms, 1.0, "ms").c_str(),
                 t.wall_ms.empty() ? 0.0
                                   : 100.0 * ratio(median(t.wall_ms) - untraced_p50,
                                                   untraced_p50),
                 unattributed_pct(t), op_wall - t.spanned_ms, op_wall));
    for (const auto& [name, s] : t.spans) {
      out.line(fmt("  %-16s total %9.1f ms  n=%-4" PRIu64
                   " self %9.1f ms  %5.1f%% of wall",
                   name.c_str(), s.total_ms, s.count, s.total_ms - s.child_ms,
                   100.0 * ratio(s.total_ms, op_wall)));
      for (const auto& [child, c] : t.children) {
        if (child.rfind(name + "/", 0) != 0) continue;
        out.line(fmt("    %-26s %9.1f ms  n=%" PRIu64, child.c_str(),
                     c.total_ms, c.count));
      }
    }
  }
  out.line(fmt("ratios: dedup hits %.0f / chunks %.0f; block cache hits %.0f / "
               "lookups %.0f; fd cache hits %.0f / acquires %.0f; partial reads "
               "%.0f / container reads %.0f; physical %.1f MB / logical read "
               "%.1f MB; prefetch wasted %.0f / restore reads %.0f; written "
               "%.1f MB / backed up %.1f MB; chain hops %.0f / versions %.0f",
               hits, chunks, bc_hits, bc_hits + bc_miss, fd_hits,
               fd_hits + fd_opens, L.get("storage.partial_reads"), reads,
               L.get("storage.bytes_read_physical") / kMiB,
               L.get("storage.bytes_read") / kMiB,
               L.get("counter.restore_prefetch_wasted"), L.get("restore.reads"),
               written / kMiB, L.get("backup.logical_bytes") / kMiB,
               L.get("counter.restore_chain_hops"), versions));
}

}  // namespace perfbench
