#include "obs/metrics.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace hds::obs {

namespace {

void atomic_double_min(std::atomic<double>& target, double v) noexcept {
  double cur = target.load(std::memory_order_relaxed);
  while (v < cur && !target.compare_exchange_weak(
                        cur, v, std::memory_order_relaxed)) {
  }
}

void atomic_double_max(std::atomic<double>& target, double v) noexcept {
  double cur = target.load(std::memory_order_relaxed);
  while (v > cur && !target.compare_exchange_weak(
                        cur, v, std::memory_order_relaxed)) {
  }
}

std::string format_double(double v) {
  if (std::isinf(v)) return v > 0 ? "+Inf" : "-Inf";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.12g", v);
  return buf;
}

// Prometheus exposition-format metric names must match
// [a-zA-Z_:][a-zA-Z0-9_:]*. Registry names are free-form (callers may use
// dots or dashes), so the exporter maps every illegal character to '_' and
// prefixes names that start with a digit — a real scraper then accepts the
// whole page instead of rejecting it at the first bad family.
std::string sanitize_prometheus_name(std::string_view name) {
  std::string out;
  out.reserve(name.size());
  for (const char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == ':';
    out += ok ? c : '_';
  }
  if (out.empty()) return "_";
  if (out[0] >= '0' && out[0] <= '9') out.insert(out.begin(), '_');
  return out;
}

}  // namespace

// --- Histogram ---

std::vector<double> Histogram::latency_buckets_ms() {
  return {0.01, 0.025, 0.05, 0.1,  0.25, 0.5,  1.0,    2.5,   5.0,
          10.0, 25.0,  50.0, 100., 250., 500., 1000.0, 2500., 5000.,
          10000.0};
}

Histogram::Histogram(std::vector<double> bounds)
    : bounds_(std::move(bounds)) {
  std::sort(bounds_.begin(), bounds_.end());
  bounds_.erase(std::unique(bounds_.begin(), bounds_.end()), bounds_.end());
  buckets_ =
      std::make_unique<std::atomic<std::uint64_t>[]>(bounds_.size() + 1);
  for (std::size_t i = 0; i <= bounds_.size(); ++i) buckets_[i] = 0;
}

void Histogram::observe(double v) noexcept {
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), v);
  const auto idx = static_cast<std::size_t>(it - bounds_.begin());
  buckets_[idx].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  detail::atomic_add(sum_, v);
  atomic_double_min(min_, v);
  atomic_double_max(max_, v);
}

double Histogram::min() const noexcept {
  const double v = min_.load(std::memory_order_relaxed);
  return std::isinf(v) ? 0.0 : v;
}

double Histogram::max() const noexcept {
  const double v = max_.load(std::memory_order_relaxed);
  return std::isinf(v) ? 0.0 : v;
}

std::vector<std::uint64_t> Histogram::bucket_counts() const {
  std::vector<std::uint64_t> out(bounds_.size() + 1);
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i] = buckets_[i].load(std::memory_order_relaxed);
  }
  return out;
}

double Histogram::quantile(double q) const noexcept {
  const auto total = count();
  if (total == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const double target = q * static_cast<double>(total);

  std::uint64_t cum = 0;
  for (std::size_t i = 0; i <= bounds_.size(); ++i) {
    const std::uint64_t in_bucket =
        buckets_[i].load(std::memory_order_relaxed);
    if (in_bucket == 0) continue;
    if (static_cast<double>(cum + in_bucket) < target) {
      cum += in_bucket;
      continue;
    }
    // Interpolate inside bucket i. Clamp the bucket edges to the recorded
    // extrema so sparse distributions don't report impossible values.
    double lo = i == 0 ? min() : bounds_[i - 1];
    double hi = i == bounds_.size() ? max() : bounds_[i];
    lo = std::max(lo, min());
    hi = std::min(hi, max());
    if (hi <= lo) return lo;
    const double frac =
        (target - static_cast<double>(cum)) / static_cast<double>(in_bucket);
    return lo + (hi - lo) * std::clamp(frac, 0.0, 1.0);
  }
  return max();
}

void Histogram::reset() noexcept {
  for (std::size_t i = 0; i <= bounds_.size(); ++i) {
    buckets_[i].store(0, std::memory_order_relaxed);
  }
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0.0, std::memory_order_relaxed);
  min_.store(std::numeric_limits<double>::infinity(),
             std::memory_order_relaxed);
  max_.store(-std::numeric_limits<double>::infinity(),
             std::memory_order_relaxed);
}

// --- MetricsRegistry ---

Counter& MetricsRegistry::counter(std::string_view name) {
  MutexLock lock(mu_);
  const auto it = counters_.find(name);
  if (it != counters_.end()) return *it->second;
  return *counters_.emplace(std::string(name), std::make_unique<Counter>())
              .first->second;
}

Gauge& MetricsRegistry::gauge(std::string_view name) {
  MutexLock lock(mu_);
  const auto it = gauges_.find(name);
  if (it != gauges_.end()) return *it->second;
  return *gauges_.emplace(std::string(name), std::make_unique<Gauge>())
              .first->second;
}

Histogram& MetricsRegistry::histogram(std::string_view name,
                                      std::vector<double> bounds) {
  MutexLock lock(mu_);
  const auto it = histograms_.find(name);
  if (it != histograms_.end()) return *it->second;
  return *histograms_
              .emplace(std::string(name),
                       std::make_unique<Histogram>(std::move(bounds)))
              .first->second;
}

Counter& MetricsRegistry::counter_view(
    std::string_view name, const std::atomic<std::uint64_t>& source) {
  Counter& view = counter(name);
  view.source_ = &source;
  return view;
}

const Counter* MetricsRegistry::find_counter(std::string_view name) const {
  MutexLock lock(mu_);
  const auto it = counters_.find(name);
  return it == counters_.end() ? nullptr : it->second.get();
}

const Gauge* MetricsRegistry::find_gauge(std::string_view name) const {
  MutexLock lock(mu_);
  const auto it = gauges_.find(name);
  return it == gauges_.end() ? nullptr : it->second.get();
}

const Histogram* MetricsRegistry::find_histogram(
    std::string_view name) const {
  MutexLock lock(mu_);
  const auto it = histograms_.find(name);
  return it == histograms_.end() ? nullptr : it->second.get();
}

void MetricsRegistry::reset() {
  MutexLock lock(mu_);
  for (auto& [_, c] : counters_) c->reset();
  for (auto& [_, g] : gauges_) g->reset();
  for (auto& [_, h] : histograms_) h->reset();
}

std::string MetricsRegistry::to_prometheus() const {
  const MetricsPart part{{}, *this};
  return obs::to_prometheus(std::span(&part, 1));
}

std::string MetricsRegistry::to_json() const {
  const MetricsPart part{{}, *this};
  return obs::to_json(std::span(&part, 1));
}

// --- Exposition over labeled parts ---

namespace {

// `{k="v",...}` with `le` last for histogram buckets; empty without labels.
// Label values are plain identifiers (shard indices, validated tenant
// names), so nothing needs escaping.
std::string label_block(Labels labels, const std::string& le = {}) {
  if (!le.empty()) labels.emplace_back("le", le);
  std::string out;
  for (const auto& [key, value] : labels) {
    out += (out.empty() ? "{" : ",") + key + "=\"" + value + "\"";
  }
  return out.empty() ? out : out + "}";
}

std::string histogram_json(const Histogram& h) {
  std::string out = "{\"count\": " + std::to_string(h.count()) +
                    ", \"sum\": " + format_double(h.sum()) +
                    ", \"min\": " + format_double(h.min()) +
                    ", \"max\": " + format_double(h.max()) +
                    ", \"mean\": " + format_double(h.mean()) +
                    ", \"p50\": " + format_double(h.quantile(0.50)) +
                    ", \"p95\": " + format_double(h.quantile(0.95)) +
                    ", \"p99\": " + format_double(h.quantile(0.99)) +
                    ", \"buckets\": [";
  const auto counts = h.bucket_counts();
  const auto& bounds = h.bounds();
  for (std::size_t i = 0; i < counts.size(); ++i) {
    if (i != 0) out += ", ";
    const std::string le =
        i < bounds.size() ? format_double(bounds[i]) : "\"+Inf\"";
    out += "{\"le\": " + le + ", \"count\": " + std::to_string(counts[i]) +
           "}";
  }
  return out + "]}";
}

}  // namespace

std::string MetricsRegistry::json_members() const {
  MutexLock lock(mu_);
  std::string out;
  const auto section = [&out](const char* title, const auto& instruments,
                              const auto& render) {
    out += std::string("  \"") + title + "\": {";
    bool first = true;
    for (const auto& [name, instrument] : instruments) {
      out += (first ? "\n    \"" : ",\n    \"") + name +
             "\": " + render(*instrument);
      first = false;
    }
    out += first ? "}" : "\n  }";
  };
  section("counters", counters_,
          [](const Counter& c) { return std::to_string(c.value()); });
  out += ",\n";
  section("gauges", gauges_,
          [](const Gauge& g) { return format_double(g.value()); });
  out += ",\n";
  section("histograms", histograms_, histogram_json);
  return out;
}

std::string to_prometheus(std::span<const MetricsPart> parts) {
  // (kind, registry name) -> the family's sample rows from every part, in
  // part order; the map keeps kinds in counter/gauge/histogram order and
  // each kind's families name-sorted, as one registry is.
  static constexpr const char* kKinds[] = {"counter", "gauge", "histogram"};
  std::map<std::pair<int, std::string>, std::string> families;
  for (const MetricsPart& part : parts) {
    const MetricsRegistry& registry = part.registry;
    MutexLock lock(registry.mu_);
    const auto labels = label_block(part.labels);
    for (const auto& [raw, c] : registry.counters_) {
      families[{0, raw}] += sanitize_prometheus_name(raw) + labels + " " +
                            std::to_string(c->value()) + "\n";
    }
    for (const auto& [raw, g] : registry.gauges_) {
      families[{1, raw}] += sanitize_prometheus_name(raw) + labels + " " +
                            format_double(g->value()) + "\n";
    }
    for (const auto& [raw, h] : registry.histograms_) {
      // Cumulative `_bucket{...,le="..."}` rows ending at the mandatory
      // +Inf bucket (== _count), then _sum and _count.
      const auto name = sanitize_prometheus_name(raw);
      std::string& rows = families[{2, raw}];
      const auto counts = h->bucket_counts();
      const auto& bounds = h->bounds();
      std::uint64_t cum = 0;
      for (std::size_t i = 0; i < counts.size(); ++i) {
        cum += counts[i];
        const std::string le =
            i < bounds.size() ? format_double(bounds[i]) : "+Inf";
        rows += name + "_bucket" + label_block(part.labels, le) + " " +
                std::to_string(cum) + "\n";
      }
      rows += name + "_sum" + labels + " " + format_double(h->sum()) + "\n";
      rows += name + "_count" + labels + " " + std::to_string(h->count()) +
              "\n";
    }
  }
  std::string out;
  for (const auto& [key, rows] : families) {
    out += "# TYPE " + sanitize_prometheus_name(key.second) + " " +
           kKinds[key.first] + "\n" + rows;
  }
  return out;
}

std::string to_json(std::span<const MetricsPart> parts) {
  if (parts.size() == 1 && parts[0].labels.empty()) {
    return "{\n" + parts[0].registry.json_members() + "\n}\n";
  }
  std::string out = "[";
  for (const MetricsPart& part : parts) {
    out += out.size() == 1 ? "\n{\n  \"labels\": {" : ",\n{\n  \"labels\": {";
    std::string_view sep;
    for (const auto& [key, value] : part.labels) {
      out.append(sep).append("\"" + key + "\": \"" + value + "\"");
      sep = ", ";
    }
    out += "},\n" + part.registry.json_members() + "\n}";
  }
  return out + (parts.empty() ? "]\n" : "\n]\n");
}

}  // namespace hds::obs
