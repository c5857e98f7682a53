// Metrics registry — the single source of truth for the quantitative story
// the paper tells: dedup counters (§4.1's "zero disk lookups" claim becomes
// the `index_disk_lookups` counter staying 0), restore container-read counts
// (Fig 11), and the recipe-update / move-and-merge latencies (Fig 12).
//
// Three instrument kinds, addressable by name:
//   * Counter   — monotonically increasing u64 (atomic, relaxed);
//   * Gauge     — settable double (atomic);
//   * Histogram — fixed-bucket latency histogram with exact count/sum/min/
//                 max and interpolated p50/p95/p99 extraction.
// Instruments are registered on first use and never move (stable
// references), so hot paths can hold a `Counter&` and increment it with a
// single relaxed atomic add — no locks, no allocation. A fact another
// object already counts is a read-only view of its atomic (counter_view()).
//
// Exporters: Prometheus text exposition format and a JSON snapshot, of one
// registry or of labeled parts: per-shard and per-tenant splits are labels
// added at render time (`{shard="1"}`), never name prefixes.
#pragma once

#include <atomic>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/thread_annotations.h"

namespace hds::obs {

namespace detail {
// Atomic accumulate on a double. With C++20 floating-point atomics
// (__cpp_lib_atomic_float) this is a single hardware RMW; otherwise it
// degrades to the classic CAS retry loop.
//
// Consistency contract: relaxed ordering in both paths, deliberately. A
// metric is a statistic read after the fact — its value must never be lost
// (hence the RMW), but it is never used to PUBLISH other memory, so
// readers must not infer happens-before from a metric's value. Anything
// that needs acquire/release semantics (queue hand-off, prefetch buffers)
// synchronizes through its own mutex/condvar, not through the registry.
inline void atomic_add(std::atomic<double>& target, double d) noexcept {
#if defined(__cpp_lib_atomic_float) && __cpp_lib_atomic_float >= 201711L
  target.fetch_add(d, std::memory_order_relaxed);
#else
  double cur = target.load(std::memory_order_relaxed);
  while (!target.compare_exchange_weak(cur, cur + d,
                                       std::memory_order_relaxed)) {
  }
#endif
}
}  // namespace detail

// Owns its value, or is a view (counter_view) whose value() reads an
// owner's atomic; inc() and reset() never touch that source.
class Counter {
 public:
  void inc(std::uint64_t n = 1) noexcept {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t value() const noexcept {
    return (source_ != nullptr ? *source_ : value_)
        .load(std::memory_order_relaxed);
  }
  void reset() noexcept { value_.store(0, std::memory_order_relaxed); }

 private:
  friend class MetricsRegistry;  // counter_view() rebinds the source
  const std::atomic<std::uint64_t>* source_ = nullptr;
  std::atomic<std::uint64_t> value_{0};
};

class Gauge {
 public:
  void set(double v) noexcept { value_.store(v, std::memory_order_relaxed); }
  void add(double d) noexcept { detail::atomic_add(value_, d); }
  [[nodiscard]] double value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }
  void reset() noexcept { set(0.0); }

 private:
  std::atomic<double> value_{0.0};
};

class Histogram {
 public:
  // `bounds` are ascending bucket upper limits; an implicit +Inf overflow
  // bucket is appended. Defaults to latency_buckets_ms().
  explicit Histogram(std::vector<double> bounds = latency_buckets_ms());

  void observe(double v) noexcept;

  [[nodiscard]] std::uint64_t count() const noexcept {
    return count_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] double sum() const noexcept {
    return sum_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] double mean() const noexcept {
    const auto n = count();
    return n == 0 ? 0.0 : sum() / static_cast<double>(n);
  }
  [[nodiscard]] double min() const noexcept;
  [[nodiscard]] double max() const noexcept;

  // Interpolated quantile (q in [0,1]) from the bucket counts: exact at the
  // recorded min/max, linear within a bucket. 0 when empty.
  [[nodiscard]] double quantile(double q) const noexcept;

  [[nodiscard]] const std::vector<double>& bounds() const noexcept {
    return bounds_;
  }
  // Per-bucket (non-cumulative) counts; size() == bounds().size() + 1, the
  // last being the +Inf overflow bucket.
  [[nodiscard]] std::vector<std::uint64_t> bucket_counts() const;

  void reset() noexcept;

  // 10µs .. 10s in a 1-2.5-5 progression — covers chunking through full
  // restores.
  static std::vector<double> latency_buckets_ms();

 private:
  std::vector<double> bounds_;
  std::unique_ptr<std::atomic<std::uint64_t>[]> buckets_;
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
  std::atomic<double> min_{std::numeric_limits<double>::infinity()};
  std::atomic<double> max_{-std::numeric_limits<double>::infinity()};
};

struct MetricsPart;

class MetricsRegistry {
 public:
  // Create-if-missing accessors; the returned reference is stable for the
  // registry's lifetime. Registration takes a mutex, increments do not.
  Counter& counter(std::string_view name);
  // Makes `name` a view of `source`, rebinding an existing name. A setup
  // operation; `source` must outlive every export of this registry.
  Counter& counter_view(std::string_view name,
                        const std::atomic<std::uint64_t>& source);
  Gauge& gauge(std::string_view name);
  Histogram& histogram(std::string_view name,
                       std::vector<double> bounds =
                           Histogram::latency_buckets_ms());

  // Lookup without registration; nullptr when absent.
  [[nodiscard]] const Counter* find_counter(std::string_view name) const;
  [[nodiscard]] const Gauge* find_gauge(std::string_view name) const;
  [[nodiscard]] const Histogram* find_histogram(std::string_view name) const;

  // Zeroes every registered instrument (names stay registered; counter
  // views keep reading their sources).
  void reset();

  // Prometheus text exposition format, instruments sorted by name.
  [[nodiscard]] std::string to_prometheus() const;
  // JSON snapshot: {"counters":{..},"gauges":{..},"histograms":{..}} where
  // each histogram carries count/sum/min/max/mean/p50/p95/p99 and its
  // bucket table.
  [[nodiscard]] std::string to_json() const;

 private:
  friend std::string to_prometheus(std::span<const MetricsPart> parts);
  friend std::string to_json(std::span<const MetricsPart> parts);
  // This registry's "counters"/"gauges"/"histograms" JSON members.
  [[nodiscard]] std::string json_members() const;

  // Leaf lock: registration/export only — instrument updates are lock-free.
  mutable Mutex mu_{lockrank::kObsRegistry};
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_
      HDS_GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_
      HDS_GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_
      HDS_GUARDED_BY(mu_);
};

// One registry of an exposition and its samples' labels, e.g.
// {{"tenant", "alpha"}, {"shard", "1"}}.
using Labels = std::vector<std::pair<std::string, std::string>>;
struct MetricsPart {
  Labels labels;
  const MetricsRegistry& registry;
};

// The exposition over several registries: every family gets one `# TYPE`
// line followed by its samples from each part that registered it, in part
// order, labeled with that part's labels (histogram labels precede `le`).
// One unlabeled part renders exactly as MetricsRegistry::to_prometheus().
[[nodiscard]] std::string to_prometheus(std::span<const MetricsPart> parts);
// One unlabeled part: MetricsRegistry::to_json(). Otherwise a JSON array
// of {"labels": {..}, "counters": .., "gauges": .., "histograms": ..}.
[[nodiscard]] std::string to_json(std::span<const MetricsPart> parts);

}  // namespace hds::obs
