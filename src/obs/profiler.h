// OpProfiler — the always-on, per-operation profile recorder behind
// `hds_tool profile` and the /profiles endpoint.
//
// Tracing (trace.h) answers "what happened when" for one explicitly traced
// run; metrics (metrics.h) answer "how much, ever, in aggregate". The
// profiler sits between the two: for EVERY backup/restore operation it
// records a compact report — phase wall/CPU time, logical vs physical
// bytes, cache hit/miss/waste counts, and a ring of queue-depth samples —
// into a bounded ring buffer of recent operations. Cost per op is a few
// hundred bytes and a handful of clock reads, so it is on unconditionally;
// nothing is persisted unless a caller exports it (hds_tool appends each
// finished op to <repo>/profiles.jsonl).
//
// Threading: an OpRecorder is owned and finished by the operation's thread;
// only sample_queue_depth() may be called from other threads (FAA's fill
// workers sample the containers in flight through it). The OpProfiler
// ring itself is mutex-guarded — begin()/commit()/recent() are thread-safe.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/thread_annotations.h"

namespace hds::obs {

struct PhaseTiming {
  std::string name;
  double wall_ms = 0.0;
  // Process CPU time consumed while the phase was open — across ALL
  // threads, so an I/O-bound phase shows cpu << wall and a parallel phase
  // can show cpu > wall. That asymmetry is the point: it is the
  // I/O-wait/parallelism signal the self-tuning advisor consumes.
  double cpu_ms = 0.0;
};

struct OpProfile {
  std::uint64_t id = 0;   // monotonic per profiler
  std::string kind;       // "backup", "restore", ...
  // The shard that ran the op, in merged views of a multi-shard repository
  // (Repository::recent_profiles); -1, and absent from the JSON, otherwise.
  int shard = -1;
  std::uint32_t version = 0;
  double wall_ms = 0.0;
  double cpu_ms = 0.0;
  std::vector<PhaseTiming> phases;
  // Read/ingest volume split (§5.3 accounting): `logical` is what the
  // operation moved in paper terms; `physical` is what actually crossed
  // the device (restore: bytes_read_physical delta; backup: bytes newly
  // stored).
  std::uint64_t bytes_logical = 0;
  std::uint64_t bytes_physical = 0;
  std::uint64_t chunks = 0;
  std::uint64_t container_reads = 0;
  // Cache economics. Restore: policy cache hits / fetches that reached the
  // store / 0. Backup: dedup cache hits / unique chunks / 0.
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t cache_wasted = 0;
  // Most recent queue-depth samples (oldest first, bounded ring) and the
  // peak across the whole op.
  std::vector<double> queue_depth;
  double queue_depth_peak = 0.0;

  [[nodiscard]] std::string to_json() const;
};

class OpProfiler;

// Accumulates one operation's profile; commits it to the owning profiler on
// destruction (or finish()). Obtain via OpProfiler::begin().
class OpRecorder {
 public:
  // RAII phase scope; measures wall + process-CPU time. Re-entering a name
  // adds to that phase (FAA's many short fill waits are one phase).
  class Phase {
   public:
    Phase() = default;
    Phase(OpRecorder* recorder, std::string_view name);
    Phase(const Phase&) = delete;
    Phase& operator=(const Phase&) = delete;
    Phase(Phase&& other) noexcept;
    Phase& operator=(Phase&& other) noexcept;
    ~Phase() { end(); }
    void end() noexcept;

   private:
    OpRecorder* recorder_ = nullptr;
    std::size_t index_ = 0;
    double wall0_ms = 0.0;
    double cpu0_ms = 0.0;
  };

  ~OpRecorder() { finish(); }
  OpRecorder(const OpRecorder&) = delete;
  OpRecorder& operator=(const OpRecorder&) = delete;

  [[nodiscard]] Phase phase(std::string_view name);

  void set_version(std::uint32_t version) noexcept {
    profile_.version = version;
  }
  void add_bytes(std::uint64_t logical, std::uint64_t physical) noexcept {
    profile_.bytes_logical += logical;
    profile_.bytes_physical += physical;
  }
  void set_chunks(std::uint64_t chunks) noexcept { profile_.chunks = chunks; }
  void set_container_reads(std::uint64_t reads) noexcept {
    profile_.container_reads = reads;
  }
  void set_cache(std::uint64_t hits, std::uint64_t misses,
                 std::uint64_t wasted) noexcept {
    profile_.cache_hits = hits;
    profile_.cache_misses = misses;
    profile_.cache_wasted = wasted;
  }

  // Depth sampling from other threads while the op thread owns the rest of
  // the recorder. Callers serialize their calls (FAA samples under its fill
  // mutex). Keeps the last kDepthSamples values; the op thread reads them
  // only in finish(), after the sampling threads have been joined.
  void sample_queue_depth(double depth) noexcept;

  // Commits the profile to the profiler; idempotent (the destructor calls
  // it too).
  void finish() noexcept;

  [[nodiscard]] std::uint64_t id() const noexcept { return profile_.id; }

  static constexpr std::size_t kDepthSamples = 256;

 private:
  friend class OpProfiler;
  OpRecorder(OpProfiler* profiler, std::string kind, std::uint64_t id);

  OpProfiler* profiler_ = nullptr;
  OpProfile profile_;
  double wall0_ms = 0.0;
  double cpu0_ms = 0.0;
  std::array<double, kDepthSamples> depth_ring_{};
  std::atomic<std::uint64_t> depth_count_{0};
  // Monotone max, updated only under the samplers' serialization; see the
  // threading note on sample_queue_depth().
  std::atomic<double> depth_peak_{0.0};
};

class OpProfiler {
 public:
  // `capacity` = completed operations retained (oldest evicted first).
  explicit OpProfiler(std::size_t capacity = 32);

  // Starts recording an operation. The recorder commits itself here when
  // it goes out of scope.
  [[nodiscard]] std::unique_ptr<OpRecorder> begin(std::string kind);

  // Completed profiles, oldest first.
  [[nodiscard]] std::vector<OpProfile> recent() const;
  // Profiles completed since construction (ring evictions included).
  [[nodiscard]] std::uint64_t completed() const;
  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }

  // profiles_to_json(recent()).
  [[nodiscard]] std::string to_json() const;

 private:
  friend class OpRecorder;
  void commit(OpProfile&& profile);

  const std::size_t capacity_;
  mutable Mutex mu_{lockrank::kObsProfiler};
  // ring_[head_] is the oldest entry.
  std::vector<OpProfile> ring_ HDS_GUARDED_BY(mu_);
  std::size_t head_ HDS_GUARDED_BY(mu_) = 0;
  std::uint64_t next_id_ HDS_GUARDED_BY(mu_) = 1;
  std::uint64_t completed_ HDS_GUARDED_BY(mu_) = 0;
};

// {"ops":[<report>,...]} — each report as OpProfile::to_json().
[[nodiscard]] std::string profiles_to_json(std::span<const OpProfile> ops);

// Monotonic wall clock in ms (process-local epoch).
[[nodiscard]] double profiler_wall_ms() noexcept;
// Cumulative process CPU time in ms (all threads).
[[nodiscard]] double profiler_cpu_ms() noexcept;

}  // namespace hds::obs
