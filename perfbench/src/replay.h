// The traced side of the benchmark: in-process replays of what one
// hds_tool command or one serve request does, through the library's public
// calls, with a span around each call into a layer. Layer counters are
// read through the public accessors (metrics(), shard(i).profiler(),
// the file store's io_stats(), archival_store().stats()).
//
// Also the set-up builder, which makes a repository exactly as
// `hds_tool init` + N × `hds_tool backup` would, in one process.
#pragma once

#include <cstdint>
#include <filesystem>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "bench.h"
#include "gen.h"

namespace hds {
class ShardRouter;
}

namespace perfbench {

// One hds_tool command per call: open, body, close — as the CLI runs it.
// backup() returns the version it made; restores return whether every
// chunk was delivered.
class CliReplay {
 public:
  CliReplay(Layers& layers, std::filesystem::path repo);

  std::uint32_t backup(const std::filesystem::path& source,
                       std::size_t threads);
  void list();
  bool restore(std::uint32_t version, const std::filesystem::path& out);
  // `restore all <prefix> --threads=N`: every retained version, oldest
  // first, with the CLI's read-ahead settings.
  bool restore_all(const std::string& prefix, std::size_t threads);
  bool restore_file(std::uint32_t version, const std::string& path,
                    const std::filesystem::path& out);
  void expire(std::uint32_t upto);

 private:
  Layers& layers_;
  std::filesystem::path repo_;
};

// The server's request sequence for one tenant (chunk → backup → catalog
// write → save; restore into a buffer) on a router this object keeps open,
// as a serve session does.
class TenantReplay {
 public:
  TenantReplay(Layers& layers, std::filesystem::path dir, std::size_t shards);
  ~TenantReplay();
  TenantReplay(const TenantReplay&) = delete;
  TenantReplay& operator=(const TenantReplay&) = delete;

  std::uint32_t backup(std::span<const std::uint8_t> data,
                       const std::string& label);
  bool restore_latest(std::vector<std::uint8_t>& out);

 private:
  Layers& layers_;
  std::filesystem::path dir_;
  std::unique_ptr<hds::ShardRouter> sys_;
};

// Chunk-boundary scan and SHA-1 rates over `sample`; CRC-32 rate over
// container-sized buffers.
void measure_kernels(Layers& layers, std::span<const std::uint8_t> sample);

// Builds `versions` versions of `tree` (evolved by `frac`/`churn` between
// versions, or rolled by `frac` when `churn` is 0) into a fresh single-shard
// repository at `repo`, backing each up as the directory `root` — the same recipes, containers and catalog as
// `hds_tool init` followed by that many `hds_tool backup --threads=4`,
// saved once at the end. `on_version(v)` runs after version v is ingested.
void build_chain(const std::filesystem::path& repo, Tree& tree,
                 const std::string& root, int versions, double frac,
                 int churn, const std::function<void(std::uint32_t)>& on_version);

// The resolved archival read backend on this machine ("uring", "threads",
// "sync") and its io_backend gauge value, from a default-tuned file store.
std::pair<std::string, int> probe_io_backend(const std::filesystem::path& dir);

}  // namespace perfbench
