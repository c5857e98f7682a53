#include "replay.h"

#include <algorithm>
#include <fstream>
#include <utility>

#include "backup/catalog.h"
#include "chunking/chunk_stream.h"
#include "chunking/parallel_chunk.h"
#include "chunking/tttd.h"
#include "common/crc32.h"
#include "common/sha1.h"
#include "common/units.h"
#include "core/shard_router.h"
#include "proc.h"
#include "storage/container_store.h"
#include "storage/durable.h"

namespace perfbench {

namespace fs = std::filesystem;
using hds::ShardRouter;

namespace {

double ms_since(double t0) { return (now_s() - t0) * 1e3; }

// One replayed operation: its wall time and the top-level spans inside it.
class OpScope {
 public:
  OpScope(Layers& layers, std::string kind)
      : trace_(layers.ops[kind]), t0_(now_s()) {}
  ~OpScope() { trace_.wall_ms.push_back(ms_since(t0_)); }
  OpScope(const OpScope&) = delete;
  OpScope& operator=(const OpScope&) = delete;

  template <class F>
  decltype(auto) span(const std::string& name, F&& fn) {
    const double t0 = now_s();
    struct Done {
      OpScope* self;
      const std::string& name;
      double t0;
      ~Done() {
        const double ms = ms_since(t0);
        auto& s = self->trace_.spans[name];
        s.total_ms += ms;
        s.count += 1;
        self->trace_.spanned_ms += ms;
      }
    } done{this, name, t0};
    return fn();
  }

  // Time inside span `parent` that a finer layer accounts for. A nested
  // child (inside another child) is shown but not subtracted again.
  void child(const std::string& parent, const std::string& name, double ms,
             bool nested = false) {
    auto& c = trace_.children[parent + "/" + name];
    c.total_ms += ms;
    c.count += 1;
    if (!nested) trace_.spans[parent].child_ms += ms;
  }

 private:
  OpTrace& trace_;
  double t0_;
};

std::uint64_t counter_sum(ShardRouter& sys, const char* name) {
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < sys.shard_count(); ++i) {
    if (const auto* c = sys.shard(i).metrics().find_counter(name)) {
      total += c->value();
    }
  }
  return total;
}

using IoSnapshot = std::map<std::string, double>;

// The storage and core counters the layer metrics use, summed over shards.
IoSnapshot io_snapshot(ShardRouter& sys) {
  IoSnapshot s;
  for (std::size_t i = 0; i < sys.shard_count(); ++i) {
    auto& store = sys.shard(i).archival_store();
    const auto& st = store.stats();
    s["storage.bytes_read"] += static_cast<double>(st.bytes_read.load());
    s["storage.bytes_read_physical"] +=
        static_cast<double>(st.bytes_read_physical.load());
    s["storage.container_bytes_written"] +=
        static_cast<double>(st.bytes_written.load());
    s["storage.container_reads"] +=
        static_cast<double>(st.container_reads.load());
    hds::FileContainerStore* file =
        sys.shard_count() == 1 ? sys.file_store()
                               : dynamic_cast<hds::FileContainerStore*>(&store);
    if (file == nullptr) continue;
    const auto io = file->io_stats();
    s["storage.fd_cache_hits"] += static_cast<double>(io.fd_cache_hits);
    s["storage.fd_cache_opens"] += static_cast<double>(io.fd_cache_opens);
    s["storage.block_cache_hits"] += static_cast<double>(io.block_cache_hits);
    s["storage.block_cache_misses"] +=
        static_cast<double>(io.block_cache_misses);
    s["storage.partial_reads"] += static_cast<double>(io.partial_reads);
  }
  for (const char* name :
       {"restore_chain_hops", "restore_prefetch_wasted", "chunks_processed",
        "t0_hits", "t1_hits", "t2_hits", "cold_bytes_moved",
        "containers_merged", "containers_erased"}) {
    s[std::string("counter.") + name] =
        static_cast<double>(counter_sum(sys, name));
  }
  return s;
}

void add_delta(Layers& layers, const IoSnapshot& before,
               const IoSnapshot& after) {
  for (const auto& [name, value] : after) {
    const auto it = before.find(name);
    layers.add(name, value - (it == before.end() ? 0.0 : it->second));
  }
}

// Profiles the shards committed for the op just run, newest per shard.
std::vector<hds::obs::OpProfile> newest_profiles(ShardRouter& sys,
                                                 const std::string& kind) {
  std::vector<hds::obs::OpProfile> out;
  for (std::size_t i = 0; i < sys.shard_count(); ++i) {
    auto recent = sys.shard(i).profiler().recent();
    for (auto it = recent.rbegin(); it != recent.rend(); ++it) {
      if (it->kind == kind) {
        out.push_back(*it);
        break;
      }
    }
  }
  return out;
}

// Adds the profiler phases of `kind` as children of span `parent`, summed
// over shards; per-shard op walls feed the skew samples.
void profile_children(OpScope& op, Layers& layers, ShardRouter& sys,
                      const std::string& kind, const std::string& parent) {
  const auto profiles = newest_profiles(sys, kind);
  std::map<std::string, double> phase_ms;
  double max_wall = 0.0;
  double sum_wall = 0.0;
  for (const auto& p : profiles) {
    for (const auto& ph : p.phases) phase_ms[ph.name] += ph.wall_ms;
    max_wall = std::max(max_wall, p.wall_ms);
    sum_wall += p.wall_ms;
  }
  // Shards run in parallel: a child's share of the parent is its mean over
  // shards, so children never exceed the parent's wall.
  const double n = profiles.empty() ? 1.0 : static_cast<double>(profiles.size());
  for (const auto& [name, ms] : phase_ms) {
    op.child(parent, name, ms / n);
    layers.add("phase." + name + "_ms", ms);
  }
  if (kind == "backup" && sum_wall > 0.0) {
    layers.samples["core.shard_skew"].push_back(max_wall / (sum_wall / n));
  }
}

std::vector<std::uint8_t> read_file(const fs::path& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) throw std::runtime_error("cannot open " + path.string());
  std::vector<std::uint8_t> bytes(static_cast<std::size_t>(in.tellg()));
  in.seekg(0);
  in.read(reinterpret_cast<char*>(bytes.data()),
          static_cast<std::streamsize>(bytes.size()));
  if (!in) throw std::runtime_error("short read on " + path.string());
  return bytes;
}

// hds_tool's snapshot_source(): files in path order, each preceded by a
// "<path>\n<size>\n" header, with a catalog entry per file.
std::vector<std::uint8_t> snapshot_source(const fs::path& source,
                                          std::vector<hds::CatalogEntry>& files) {
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

hds::FileCatalog load_catalog(const fs::path& file) {
  if (!fs::exists(file)) return {};
  auto catalog = hds::FileCatalog::deserialize(read_file(file));
  return catalog ? std::move(*catalog) : hds::FileCatalog{};
}

// hds_tool appends each command's op profiles to <repo>/profiles.jsonl
// (newest 64 lines, atomic rewrite).
void append_profiles(const fs::path& repo, ShardRouter& sys) {
  const auto ops = sys.profiler().recent();
  if (ops.empty()) return;
  std::vector<std::string> lines;
  {
    std::ifstream in(repo / "profiles.jsonl");
    std::string line;
    while (std::getline(in, line)) {
      if (!line.empty()) lines.push_back(line);
    }
  }
  for (const auto& op : ops) lines.push_back(op.to_json());
  if (lines.size() > 64) {
    lines.erase(lines.begin(), lines.end() - 64);
  }
  std::string text;
  for (const auto& l : lines) text += l + "\n";
  hds::durable::atomic_write_file(repo / "profiles.jsonl", text);
}

std::uint64_t state_bytes(const fs::path& repo) {
  std::uint64_t total = 0;
  for (const auto& e : fs::recursive_directory_iterator(repo)) {
    if (!e.is_regular_file()) continue;
    const std::string name = e.path().filename().string();
    if (name.rfind("state", 0) == 0 || name.rfind("router", 0) == 0 ||
        name == "MANIFEST") {
      total += e.file_size();
    }
  }
  return total;
}

std::unique_ptr<ShardRouter> open_router(OpScope& op, const fs::path& repo) {
  hds::RecoveryReport recovery;
  auto sys = op.span("core.open",
                     [&] { return ShardRouter::open(repo, 0, &recovery); });
  if (!sys) throw std::runtime_error("cannot open " + repo.string());
  return sys;
}

void close_router(OpScope& op, const fs::path& repo,
                  std::unique_ptr<ShardRouter>& sys) {
  op.span("cli.profiles", [&] { append_profiles(repo, *sys); });
  op.span("cli.close", [&] { sys.reset(); });
}

hds::VersionStream chunk(OpScope& op, Layers& layers,
                         std::span<const std::uint8_t> data,
                         std::size_t threads) {
  const hds::TttdChunker chunker;
  // Serial chunking runs on this thread alone; other replay threads may be
  // busy at the same time, so only a parallel run reads the process clock.
  const bool serial = threads <= 1;
  const double c0 = cpu_s(serial);
  const double t0 = now_s();
  auto stream = op.span("chunking", [&] {
    if (threads > 1) {
      hds::ParallelChunkConfig config;
      config.threads = threads;
      const hds::ParallelChunkPipeline pipeline(chunker, config);
      return pipeline.run(data);
    }
    return hds::chunk_bytes(chunker, data);
  });
  const double wall = now_s() - t0;
  layers.samples["chunking.parallel_eff"].push_back(
      (cpu_s(serial) - c0) /
      (wall * static_cast<double>(std::max<std::size_t>(threads, 1))));
  layers.add("chunking.bytes", static_cast<double>(data.size()));
  return stream;
}

// Reading counters and profiles is the tracer's own work; its span keeps it
// out of the unattributed remainder.
constexpr const char* kBookkeeping = "trace.bookkeeping";

std::uint32_t ingest(OpScope& op, Layers& layers, ShardRouter& sys,
                     const hds::VersionStream& stream) {
  const auto before = op.span(kBookkeeping, [&] { return io_snapshot(sys); });
  const auto report = op.span("core.backup", [&] { return sys.backup(stream); });
  op.span(kBookkeeping, [&] {
    profile_children(op, layers, sys, "backup", "core.backup");
    add_delta(layers, before, io_snapshot(sys));
  });
  layers.add("backup.logical_bytes", static_cast<double>(report.logical_bytes));
  layers.add("backup.ops", 1);
  return report.version;
}

void save(OpScope& op, Layers& layers, ShardRouter& sys, const fs::path& dir,
          bool backup) {
  op.span("core.save", [&] { sys.save(dir); });
  const auto bytes = op.span(
      kBookkeeping, [&] { return static_cast<double>(state_bytes(dir)); });
  layers.add("core.state_bytes", bytes);
  layers.add("core.saves", 1);
  if (backup) layers.add("backup.state_bytes", bytes);
}

using Writer = std::function<void(std::span<const std::uint8_t>)>;

bool restore_into(OpScope& op, Layers& layers, ShardRouter& sys,
                  std::uint32_t version, const Writer& write) {
  double sink_ms = 0.0;
  const auto before = op.span(kBookkeeping, [&] { return io_snapshot(sys); });
  const auto report = op.span("restore", [&] {
    return sys.restore(version, [&](const hds::ChunkLoc&,
                                    std::span<const std::uint8_t> bytes) {
      const double t0 = now_s();
      write(bytes);
      sink_ms += ms_since(t0);
    });
  });
  op.child("restore", "policy_restore/sink", sink_ms, true);
  op.span(kBookkeeping, [&] {
    profile_children(op, layers, sys, "restore", "restore");
    add_delta(layers, before, io_snapshot(sys));
  });
  layers.add("restore.sink_ms", sink_ms);
  layers.add("restore.versions", 1);
  layers.add("restore.bytes", static_cast<double>(report.stats.restored_bytes));
  layers.add("restore.reads", static_cast<double>(report.stats.container_reads));
  return report.stats.failed_chunks == 0 && report.stats.restored_chunks > 0;
}

Writer to_stream(std::ostream& out) {
  return [&out](std::span<const std::uint8_t> bytes) {
    out.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
  };
}

}  // namespace

CliReplay::CliReplay(Layers& layers, fs::path repo)
    : layers_(layers), repo_(std::move(repo)) {}

std::uint32_t CliReplay::backup(const fs::path& source, std::size_t threads) {
  quiesce(repo_);
  std::vector<std::uint8_t> snapshot;
  std::uint32_t version = 0;
  {
    OpScope op(layers_, "backup");
    auto sys = open_router(op, repo_);
    std::vector<hds::CatalogEntry> files;
    snapshot =
        op.span("snapshot", [&] { return snapshot_source(source, files); });
    const auto stream = chunk(op, layers_, snapshot, threads);
    version = ingest(op, layers_, *sys, stream);
    op.span("backup.catalog", [&] {
      auto catalog = load_catalog(repo_ / "catalog.hds");
      catalog.add_version(version, std::move(files));
      hds::durable::atomic_write_file(repo_ / "catalog.hds",
                                      catalog.serialize());
    });
    save(op, layers_, *sys, repo_, true);
    close_router(op, repo_, sys);
  }
  measure_kernels(layers_, std::span(snapshot).first(
                               std::min<std::size_t>(snapshot.size(), 8 << 20)));
  return version;
}

void CliReplay::list() {
  quiesce(repo_);
  OpScope op(layers_, "list");
  auto sys = open_router(op, repo_);
  op.span("list.scan", [&] {
    std::string text;
    for (const auto v : sys->versions()) {
      text += std::to_string(v) + " " +
              std::to_string(sys->version_logical_bytes(v)) + " " +
              std::to_string(sys->version_chunk_count(v)) + "\n";
    }
    text += std::to_string(sys->dedup_ratio()) + " " +
            std::to_string(sys->archival_container_count()) + " " +
            std::to_string(sys->active_container_count());
    return text;
  });
  close_router(op, repo_, sys);
}

bool CliReplay::restore(std::uint32_t version, const fs::path& out) {
  quiesce(repo_);
  OpScope op(layers_, "restore");
  auto sys = open_router(op, repo_);
  std::ofstream file(out, std::ios::binary | std::ios::trunc);
  const bool ok = restore_into(op, layers_, *sys, version, to_stream(file));
  op.span("restore.flush", [&] { file.close(); });
  close_router(op, repo_, sys);
  return ok;
}

bool CliReplay::restore_all(const std::string& prefix, std::size_t threads) {
  quiesce(repo_);
  OpScope op(layers_, "restore_all");
  auto sys = open_router(op, repo_);
  if (threads > 1) sys->set_read_ahead(2 * threads, threads);
  bool ok = true;
  for (const auto v : sys->versions()) {
    std::ofstream file(prefix + std::to_string(v),
                       std::ios::binary | std::ios::trunc);
    ok = restore_into(op, layers_, *sys, v, to_stream(file)) && ok;
    op.span("restore.flush", [&] { file.close(); });
  }
  close_router(op, repo_, sys);
  return ok;
}

bool CliReplay::restore_file(std::uint32_t version, const std::string& path,
                             const fs::path& out) {
  quiesce(repo_);
  OpScope op(layers_, "restore_file");
  auto sys = open_router(op, repo_);
  const auto entry = op.span("backup.catalog", [&] {
    return load_catalog(repo_ / "catalog.hds").find(version, path);
  });
  bool ok = false;
  if (entry) {
    std::ofstream file(out, std::ios::binary | std::ios::trunc);
    const auto before =
        op.span(kBookkeeping, [&] { return io_snapshot(*sys); });
    const auto report = op.span("restore", [&] {
      return sys->restore_range(
          version, entry->offset, entry->length,
          [&](const hds::ChunkLoc&, std::span<const std::uint8_t> bytes) {
            file.write(reinterpret_cast<const char*>(bytes.data()),
                       static_cast<std::streamsize>(bytes.size()));
          });
    });
    op.span(kBookkeeping,
            [&] { add_delta(layers_, before, io_snapshot(*sys)); });
    op.span("restore.flush", [&] { file.close(); });
    ok = report.stats.failed_chunks == 0;
  }
  close_router(op, repo_, sys);
  return ok;
}

void CliReplay::expire(std::uint32_t upto) {
  quiesce(repo_);
  OpScope op(layers_, "expire");
  auto sys = open_router(op, repo_);
  const auto report =
      op.span("core.delete", [&] { return sys->delete_versions_up_to(upto); });
  layers_.add("core.containers_erased",
              static_cast<double>(report.containers_erased));
  layers_.add("core.chunks_scanned", static_cast<double>(report.chunks_scanned));
  layers_.add("core.deletes", 1);
  save(op, layers_, *sys, repo_, false);
  close_router(op, repo_, sys);
}

TenantReplay::TenantReplay(Layers& layers, fs::path dir, std::size_t shards)
    : layers_(layers), dir_(std::move(dir)) {
  OpScope op(layers_, "open");
  fs::create_directories(dir_);
  hds::ShardRouterConfig config;
  config.shards = shards;
  config.base.storage_dir = dir_;
  op.span("core.open", [&] {
    sys_ = std::make_unique<ShardRouter>(config);
    sys_->save(dir_);
  });
}

TenantReplay::~TenantReplay() = default;

std::uint32_t TenantReplay::backup(std::span<const std::uint8_t> data,
                                   const std::string& label) {
  std::uint32_t version = 0;
  {
    OpScope op(layers_, "backup");
    const auto stream = chunk(op, layers_, data, 1);
    version = ingest(op, layers_, *sys_, stream);
    op.span("backup.catalog", [&] {
      auto catalog = load_catalog(dir_ / "catalog.hds");
      catalog.add_version(version, {{label, 0, data.size()}});
      hds::durable::atomic_write_file(dir_ / "catalog.hds",
                                      catalog.serialize());
    });
    save(op, layers_, *sys_, dir_, true);
  }
  measure_kernels(layers_, data.first(std::min<std::size_t>(data.size(), 8 << 20)));
  return version;
}

bool TenantReplay::restore_latest(std::vector<std::uint8_t>& out) {
  OpScope op(layers_, "restore");
  out.clear();
  // The server appends each chunk to the response buffer.
  return restore_into(op, layers_, *sys_, sys_->latest_version(),
                      [&](std::span<const std::uint8_t> bytes) {
                        out.insert(out.end(), bytes.begin(), bytes.end());
                      });
}

void measure_kernels(Layers& layers, std::span<const std::uint8_t> sample) {
  if (sample.empty()) return;
  const hds::TttdChunker chunker;
  std::vector<std::size_t> lengths;
  double t0 = now_s();
  chunker.chunk(sample, lengths);
  const double mb = static_cast<double>(sample.size()) / (1 << 20);
  layers.samples["chunking.scan_MBps"].push_back(mb / (now_s() - t0));
  t0 = now_s();
  std::size_t at = 0;
  std::uint8_t sink = 0;
  for (const auto len : lengths) {
    sink ^= hds::Sha1::digest(sample.subspan(at, len)).bytes[0];
    at += len;
  }
  layers.samples["chunking.hash_MBps"].push_back(mb / (now_s() - t0));
  // Container-sized CRC passes over the same bytes.
  const std::size_t block =
      std::min<std::size_t>(hds::kDefaultContainerSize, sample.size());
  t0 = now_s();
  std::uint32_t crc = 0;
  std::size_t done = 0;
  for (std::size_t off = 0; off + block <= sample.size(); off += block) {
    crc ^= hds::crc32(sample.subspan(off, block));
    done += block;
  }
  layers.samples["storage.crc_MBps"].push_back(
      static_cast<double>(done) / (1 << 20) / (now_s() - t0));
  // Keeps the digests live so the timed loops cannot be optimized away.
  layers.add("kernel.sink", static_cast<double>(sink ^ (crc & 1)));
}

void build_chain(const fs::path& repo, Tree& tree, const std::string& root,
                 int versions, double frac, int churn,
                 const std::function<void(std::uint32_t)>& on_version) {
  fs::remove_all(repo);
  hds::ShardRouterConfig config;
  config.shards = 1;
  config.base.storage_dir = repo;
  ShardRouter sys(config);
  sys.save(repo);
  hds::FileCatalog catalog;
  const hds::TttdChunker chunker;
  hds::ParallelChunkConfig chunk_config;
  chunk_config.threads = 4;
  const hds::ParallelChunkPipeline pipeline(chunker, chunk_config);
  for (int i = 0; i < versions; ++i) {
    if (i > 0 && churn > 0) tree.evolve(frac, churn);
    if (i > 0 && churn == 0) tree.roll(frac);
    const auto snapshot = tree.serialize(root);
    const auto report = sys.backup(pipeline.run(snapshot));
    std::vector<hds::CatalogEntry> files;
    std::uint64_t offset = 0;
    for (const auto& [path, bytes] : tree.files()) {
      offset += (root + "/" + path).size() + 2 +
                std::to_string(bytes.size()).size();
      files.push_back({path, offset, bytes.size()});
      offset += bytes.size();
    }
    catalog.add_version(report.version, std::move(files));
    on_version(report.version);
  }
  hds::durable::atomic_write_file(repo / "catalog.hds", catalog.serialize());
  sys.save(repo);
}

std::pair<std::string, int> probe_io_backend(const fs::path& dir) {
  const hds::FileContainerStore store(dir);
  return {std::string(store.io_backend_name()),
          static_cast<int>(store.io_backend())};
}

}  // namespace perfbench
