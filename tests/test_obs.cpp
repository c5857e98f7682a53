// Tests for the observability layer (src/obs): counter/gauge/histogram
// semantics, counter views, exporter formats (one registry and labeled
// parts), span nesting in the Chrome trace JSON,
// HDS_LOG level handling, and the end-to-end instrumentation invariants on
// HiDeStore (t1_hits + t2_hits + unique == chunks seen; restore container
// reads match RestoreReport; overheads() equals the registry's view).
#include <gtest/gtest.h>

#include <atomic>
#include <cctype>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>

#include "core/hidestore.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "restore/basic_caches.h"
#include "workload/generator.h"

#include "util/temp_dir.h"

namespace hds {
namespace {

// --- Minimal JSON validity checker (no external deps): parses one value
// and reports whether the whole input was consumed. Enough to prove the
// exporters and the trace dump emit well-formed JSON.
class JsonChecker {
 public:
  explicit JsonChecker(std::string_view text) : text_(text) {}

  bool valid() {
    skip_ws();
    if (!value()) return false;
    skip_ws();
    return pos_ == text_.size();
  }

 private:
  void skip_ws() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }
  bool literal(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) != lit) return false;
    pos_ += lit.size();
    return true;
  }
  bool string() {
    if (pos_ >= text_.size() || text_[pos_] != '"') return false;
    ++pos_;
    while (pos_ < text_.size() && text_[pos_] != '"') {
      pos_ += text_[pos_] == '\\' ? 2 : 1;
    }
    if (pos_ >= text_.size()) return false;
    ++pos_;
    return true;
  }
  bool number() {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && (text_[pos_] == '-' || text_[pos_] == '+')) {
      ++pos_;
    }
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '-' || text_[pos_] == '+')) {
      ++pos_;
    }
    return pos_ > start;
  }
  bool value() {
    skip_ws();
    if (pos_ >= text_.size()) return false;
    const char c = text_[pos_];
    if (c == '{') return object();
    if (c == '[') return array();
    if (c == '"') return string();
    if (c == 't') return literal("true");
    if (c == 'f') return literal("false");
    if (c == 'n') return literal("null");
    return number();
  }
  bool object() {
    ++pos_;  // '{'
    skip_ws();
    if (pos_ < text_.size() && text_[pos_] == '}') { ++pos_; return true; }
    while (true) {
      skip_ws();
      if (!string()) return false;
      skip_ws();
      if (pos_ >= text_.size() || text_[pos_] != ':') return false;
      ++pos_;
      if (!value()) return false;
      skip_ws();
      if (pos_ >= text_.size()) return false;
      if (text_[pos_] == ',') { ++pos_; continue; }
      if (text_[pos_] == '}') { ++pos_; return true; }
      return false;
    }
  }
  bool array() {
    ++pos_;  // '['
    skip_ws();
    if (pos_ < text_.size() && text_[pos_] == ']') { ++pos_; return true; }
    while (true) {
      if (!value()) return false;
      skip_ws();
      if (pos_ >= text_.size()) return false;
      if (text_[pos_] == ',') { ++pos_; continue; }
      if (text_[pos_] == ']') { ++pos_; return true; }
      return false;
    }
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

std::vector<VersionStream> generate(WorkloadProfile p) {
  VersionChainGenerator gen(p);
  std::vector<VersionStream> out;
  for (std::uint32_t v = 0; v < p.versions; ++v) {
    out.push_back(gen.next_version());
  }
  return out;
}

// --- Metrics ---

TEST(Metrics, CounterAndGaugeSemantics) {
  obs::MetricsRegistry registry;
  auto& c = registry.counter("requests");
  EXPECT_EQ(c.value(), 0u);
  c.inc();
  c.inc(41);
  EXPECT_EQ(c.value(), 42u);
  // Same name resolves to the same instrument.
  EXPECT_EQ(&registry.counter("requests"), &c);
  EXPECT_EQ(registry.find_counter("requests"), &c);
  EXPECT_EQ(registry.find_counter("absent"), nullptr);

  auto& g = registry.gauge("temperature");
  g.set(20.5);
  g.add(-0.5);
  EXPECT_DOUBLE_EQ(g.value(), 20.0);

  registry.reset();
  EXPECT_EQ(c.value(), 0u);
  EXPECT_DOUBLE_EQ(g.value(), 0.0);
}

TEST(Metrics, HistogramAggregatesAndQuantiles) {
  obs::Histogram h({10, 20, 30, 40, 50, 60, 70, 80, 90, 100});
  for (int i = 1; i <= 100; ++i) h.observe(static_cast<double>(i));
  EXPECT_EQ(h.count(), 100u);
  EXPECT_DOUBLE_EQ(h.sum(), 5050.0);
  EXPECT_DOUBLE_EQ(h.min(), 1.0);
  EXPECT_DOUBLE_EQ(h.max(), 100.0);
  EXPECT_DOUBLE_EQ(h.mean(), 50.5);
  // Uniform 1..100 over decade buckets: interpolated quantiles land within
  // one bucket width of the exact order statistics.
  EXPECT_NEAR(h.quantile(0.50), 50.0, 10.0);
  EXPECT_NEAR(h.quantile(0.95), 95.0, 10.0);
  EXPECT_NEAR(h.quantile(0.99), 99.0, 10.0);
  EXPECT_LE(h.quantile(0.50), h.quantile(0.95));
  EXPECT_LE(h.quantile(0.95), h.quantile(0.99));

  const auto counts = h.bucket_counts();
  ASSERT_EQ(counts.size(), 11u);  // 10 bounds + overflow
  for (std::size_t i = 0; i < 10; ++i) EXPECT_EQ(counts[i], 10u);
  EXPECT_EQ(counts[10], 0u);  // nothing beyond 100

  h.observe(1e9);  // overflow bucket
  EXPECT_EQ(h.bucket_counts()[10], 1u);
  EXPECT_DOUBLE_EQ(h.max(), 1e9);
}

TEST(Metrics, EmptyHistogramIsZero) {
  obs::Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_DOUBLE_EQ(h.min(), 0.0);
  EXPECT_DOUBLE_EQ(h.max(), 0.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 0.0);
}

TEST(Metrics, PrometheusExporterFormat) {
  obs::MetricsRegistry registry;
  registry.counter("hits").inc(3);
  registry.gauge("depth").set(2.5);
  registry.histogram("lat_ms", {1.0, 10.0}).observe(0.5);
  registry.histogram("lat_ms").observe(100.0);

  const auto text = registry.to_prometheus();
  EXPECT_NE(text.find("# TYPE hits counter\nhits 3\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE depth gauge\ndepth 2.5\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE lat_ms histogram\n"), std::string::npos);
  EXPECT_NE(text.find("lat_ms_bucket{le=\"1\"} 1\n"), std::string::npos);
  // Prometheus buckets are cumulative; +Inf equals the total count.
  EXPECT_NE(text.find("lat_ms_bucket{le=\"+Inf\"} 2\n"), std::string::npos);
  EXPECT_NE(text.find("lat_ms_count 2\n"), std::string::npos);
}

TEST(Metrics, JsonExporterRoundTrips) {
  obs::MetricsRegistry registry;
  registry.counter("hits").inc(7);
  registry.gauge("depth").set(1.25);
  registry.histogram("lat_ms").observe(3.0);

  const auto json = registry.to_json();
  EXPECT_TRUE(JsonChecker(json).valid()) << json;
  EXPECT_NE(json.find("\"hits\": 7"), std::string::npos);
  EXPECT_NE(json.find("\"depth\": 1.25"), std::string::npos);
  EXPECT_NE(json.find("\"lat_ms\": {\"count\": 1"), std::string::npos);

  // An empty registry still exports valid JSON.
  obs::MetricsRegistry empty;
  EXPECT_TRUE(JsonChecker(empty.to_json()).valid());
}

// --- Tracer ---

TEST(Tracer, NestedSpansProduceWellFormedTrace) {
  obs::Tracer tracer;
  {
    obs::Span outer = tracer.span("outer");
    {
      obs::Span inner = tracer.span("inner");
    }
    obs::Span sibling = tracer.span("sibling");
  }
  ASSERT_EQ(tracer.event_count(), 3u);

  const auto events = tracer.events();
  const auto find = [&](std::string_view name) {
    for (const auto& e : events) {
      if (e.name == name) return e;
    }
    ADD_FAILURE() << "missing event " << name;
    return obs::TraceEvent{};
  };
  const auto outer = find("outer");
  const auto inner = find("inner");
  const auto sibling = find("sibling");
  // Proper nesting: children lie entirely within the parent interval, and
  // siblings do not overlap.
  EXPECT_GE(inner.ts_us, outer.ts_us);
  EXPECT_LE(inner.ts_us + inner.dur_us, outer.ts_us + outer.dur_us);
  EXPECT_GE(sibling.ts_us, inner.ts_us + inner.dur_us);

  const auto json = tracer.to_json();
  EXPECT_TRUE(JsonChecker(json).valid()) << json;
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
}

TEST(Tracer, NullTracerSpansAreNoOps) {
  obs::Span span(nullptr, "ignored");
  span.end();  // must not crash
  obs::Tracer tracer;
  obs::Span moved = tracer.span("moved");
  obs::Span target = std::move(moved);
  target.end();
  EXPECT_EQ(tracer.event_count(), 1u);
}

TEST(Tracer, DumpWritesLoadableFile) {
  obs::Tracer tracer;
  { obs::Span s = tracer.span("phase \"quoted\"\n"); }
  const auto path = hds::testutil::unique_path("hds_trace.json");
  ASSERT_TRUE(tracer.dump(path));
  std::ifstream in(path);
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  EXPECT_TRUE(JsonChecker(text).valid()) << text;
  std::filesystem::remove(path);
}

// --- Logger ---

TEST(Logger, ParsesLevels) {
  EXPECT_EQ(obs::parse_log_level("trace"), obs::LogLevel::kTrace);
  EXPECT_EQ(obs::parse_log_level("DEBUG"), obs::LogLevel::kDebug);
  EXPECT_EQ(obs::parse_log_level("Info"), obs::LogLevel::kInfo);
  EXPECT_EQ(obs::parse_log_level("warn"), obs::LogLevel::kWarn);
  EXPECT_EQ(obs::parse_log_level("error"), obs::LogLevel::kError);
  EXPECT_EQ(obs::parse_log_level(""), obs::LogLevel::kOff);
  EXPECT_EQ(obs::parse_log_level("bogus"), obs::LogLevel::kOff);
}

TEST(Logger, RespectsLevelThreshold) {
  obs::Logger logger(obs::LogLevel::kWarn);
  EXPECT_FALSE(logger.enabled(obs::LogLevel::kDebug));
  EXPECT_FALSE(logger.enabled(obs::LogLevel::kInfo));
  EXPECT_TRUE(logger.enabled(obs::LogLevel::kWarn));
  EXPECT_TRUE(logger.enabled(obs::LogLevel::kError));

  obs::Logger off(obs::LogLevel::kOff);
  EXPECT_FALSE(off.enabled(obs::LogLevel::kError));
}

TEST(Logger, ReadsHdsLogFromEnvironment) {
  ::setenv("HDS_LOG", "debug", 1);
  obs::Logger from_env;
  EXPECT_EQ(from_env.level(), obs::LogLevel::kDebug);
  ::unsetenv("HDS_LOG");
  obs::Logger unset;
  EXPECT_EQ(unset.level(), obs::LogLevel::kOff);
}

TEST(Logger, FormatsKeyValueLine) {
  const auto path =
      hds::testutil::unique_path("hds_log_capture.txt");
  std::FILE* sink = std::fopen(path.string().c_str(), "w+");
  ASSERT_NE(sink, nullptr);
  obs::Logger logger(obs::LogLevel::kInfo);
  logger.set_sink(sink);
  logger.log(obs::LogLevel::kInfo, "backup",
             {{"version", 3}, {"ratio", 0.5}, {"note", "two words"}});
  logger.log(obs::LogLevel::kDebug, "dropped", {});  // below threshold

  std::fseek(sink, 0, SEEK_SET);
  char buf[512] = {};
  const auto n = std::fread(buf, 1, sizeof buf - 1, sink);
  std::fclose(sink);
  std::filesystem::remove(path);
  const std::string line(buf, n);
  EXPECT_EQ(line,
            "[hds] level=info event=backup version=3 ratio=0.5 "
            "note=\"two words\"\n");
}

// --- End-to-end instrumentation ---

TEST(ObsIntegration, BackupAndRestoreMetricsAreConsistent) {
  auto profile = WorkloadProfile::kernel();
  profile.versions = 8;
  profile.chunks_per_version = 300;
  const auto versions = generate(profile);

  HiDeStore sys;
  obs::Tracer tracer;
  sys.set_tracer(&tracer);
  std::uint64_t chunks_seen = 0;
  for (const auto& vs : versions) {
    const auto report = sys.backup(vs);
    chunks_seen += report.logical_chunks;
  }

  const auto& m = sys.metrics();
  const auto counter = [&](const char* name) {
    const auto* c = m.find_counter(name);
    return c == nullptr ? 0ull : c->value();
  };
  // The §4.1 identity: every chunk is a T1 hit, a T2 hit, or unique (T0
  // never fires with the default window of 1).
  EXPECT_EQ(counter("chunks_processed"), chunks_seen);
  EXPECT_EQ(counter("t1_hits") + counter("t2_hits") + counter("t0_hits") +
                counter("unique_chunks"),
            counter("chunks_processed"));
  EXPECT_EQ(counter("t0_hits"), 0u);
  // The paper's headline: zero on-disk index lookups, ever.
  EXPECT_EQ(counter("index_disk_lookups"), 0u);
  EXPECT_GT(counter("cold_chunks_moved"), 0u);

  // Restore counters mirror the RestoreReport exactly.
  RestoreConfig config;
  ContainerLruRestore policy(config);
  const auto report = sys.restore_with(
      static_cast<VersionId>(versions.size()), policy,
      [](const ChunkLoc&, std::span<const std::uint8_t>) {});
  EXPECT_EQ(counter("restore_container_reads"),
            report.stats.container_reads);
  EXPECT_EQ(counter("restored_chunks"), report.stats.restored_chunks);
  EXPECT_EQ(counter("restore_cache_hits"), report.stats.cache_hits);

  // Phase histograms observed one sample per version.
  const auto* recipe_ms = m.find_histogram("recipe_update_ms");
  ASSERT_NE(recipe_ms, nullptr);
  EXPECT_EQ(recipe_ms->count(), versions.size());

  // The tracer saw properly bracketed backup and restore phases.
  EXPECT_GT(tracer.event_count(), versions.size());
  EXPECT_TRUE(JsonChecker(tracer.to_json()).valid());
}

TEST(ObsIntegration, OverheadsViewMatchesRegistry) {
  auto profile = WorkloadProfile::kernel();
  profile.versions = 6;
  profile.chunks_per_version = 200;
  const auto versions = generate(profile);

  HiDeStore sys;
  for (const auto& vs : versions) (void)sys.backup(vs);

  const auto overheads = sys.overheads();
  const auto& m = sys.metrics();
  const auto* recipe_ms = m.find_histogram("recipe_update_ms");
  const auto* move_ms = m.find_histogram("move_and_merge_ms");
  ASSERT_NE(recipe_ms, nullptr);
  ASSERT_NE(move_ms, nullptr);
  // Single source of truth: the legacy struct is exactly the registry view.
  EXPECT_EQ(overheads.recipe_update_ms.count(), recipe_ms->count());
  EXPECT_DOUBLE_EQ(overheads.recipe_update_ms.sum(), recipe_ms->sum());
  EXPECT_DOUBLE_EQ(overheads.recipe_update_ms.mean(), recipe_ms->mean());
  EXPECT_DOUBLE_EQ(overheads.recipe_update_ms.min(), recipe_ms->min());
  EXPECT_DOUBLE_EQ(overheads.recipe_update_ms.max(), recipe_ms->max());
  EXPECT_EQ(overheads.move_and_merge_ms.count(), move_ms->count());
  EXPECT_DOUBLE_EQ(overheads.move_and_merge_ms.mean(), move_ms->mean());
  EXPECT_EQ(overheads.cold_chunks_moved,
            m.find_counter("cold_chunks_moved")->value());
  EXPECT_EQ(overheads.cold_bytes_moved,
            m.find_counter("cold_bytes_moved")->value());

  // Deletion telemetry: whole containers vanish, zero chunks scanned.
  const auto report = sys.delete_versions_up_to(3);
  EXPECT_EQ(m.find_counter("versions_deleted")->value(),
            report.versions_deleted);
  EXPECT_EQ(m.find_counter("containers_erased")->value(),
            report.containers_erased);
  EXPECT_EQ(m.find_counter("delete_chunks_scanned")->value(), 0u);
}

// --- Histogram::quantile edge cases ---

TEST(Metrics, QuantileOfEmptyHistogramIsZeroForAllQ) {
  obs::Histogram h({1.0, 10.0, 100.0});
  for (const double q : {0.0, 0.25, 0.5, 0.99, 1.0}) {
    EXPECT_DOUBLE_EQ(h.quantile(q), 0.0) << "q=" << q;
  }
}

TEST(Metrics, QuantileOfSingleSampleIsThatSample) {
  obs::Histogram h({1.0, 10.0, 100.0});
  h.observe(7.0);
  for (const double q : {0.0, 0.5, 1.0}) {
    EXPECT_DOUBLE_EQ(h.quantile(q), 7.0) << "q=" << q;
  }
}

TEST(Metrics, QuantileWithEverythingInOverflowBucket) {
  // All samples past the last bound land in the +Inf bucket; quantiles must
  // stay inside [min, max] instead of reporting the (infinite) bucket edge.
  obs::Histogram h({1.0, 2.0});
  h.observe(50.0);
  h.observe(100.0);
  h.observe(150.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.0), 50.0);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 150.0);
  const double mid = h.quantile(0.5);
  EXPECT_GE(mid, 50.0);
  EXPECT_LE(mid, 150.0);
}

TEST(Metrics, QuantileExactAtExtremes) {
  obs::Histogram h({10.0, 20.0, 30.0});
  for (int v = 11; v <= 29; ++v) h.observe(static_cast<double>(v));
  // q=0 reports the recorded minimum, q=1 the recorded maximum, exactly —
  // not the enclosing bucket edges (10 / 30).
  EXPECT_DOUBLE_EQ(h.quantile(0.0), 11.0);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 29.0);
  // Out-of-range q is clamped.
  EXPECT_DOUBLE_EQ(h.quantile(-1.0), h.quantile(0.0));
  EXPECT_DOUBLE_EQ(h.quantile(2.0), h.quantile(1.0));
}

TEST(Metrics, QuantileIsMonotoneInQ) {
  obs::Histogram h;
  for (int v = 0; v < 1000; ++v) h.observe(0.01 * v);
  double prev = h.quantile(0.0);
  for (double q = 0.1; q <= 1.0; q += 0.1) {
    const double cur = h.quantile(q);
    EXPECT_GE(cur, prev) << "q=" << q;
    prev = cur;
  }
}

// --- Prometheus exposition-format compliance ---

TEST(Metrics, PrometheusSanitizesIllegalNames) {
  obs::MetricsRegistry registry;
  registry.counter("io.read-errors").inc(2);
  registry.gauge("2fast").set(1.0);
  // Integral sample: every VALUE on the page renders dot-free, so the
  // no-dots assertion below checks exactly the names.
  registry.histogram("lat.ms", {1.0}).observe(1.0);

  const auto text = registry.to_prometheus();
  // Dots and dashes map to underscores; digit-leading names get a prefix.
  EXPECT_NE(text.find("# TYPE io_read_errors counter\nio_read_errors 2\n"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE _2fast gauge\n_2fast 1\n"), std::string::npos);
  EXPECT_NE(text.find("lat_ms_bucket{le=\"1\"} 1\n"), std::string::npos);
  // No illegal characters survive anywhere on the page.
  EXPECT_EQ(text.find('.'), std::string::npos);
  EXPECT_EQ(text.find('-'), std::string::npos);
}

TEST(Metrics, PrometheusHistogramFamilyIsComplete) {
  obs::MetricsRegistry registry;
  auto& h = registry.histogram("lat", {1.0, 10.0});
  h.observe(0.5);
  h.observe(5.0);
  h.observe(100.0);

  const auto text = registry.to_prometheus();
  // Cumulative buckets, mandatory +Inf row equal to _count, then _sum and
  // _count — the full exposition-format histogram family.
  EXPECT_NE(text.find("lat_bucket{le=\"1\"} 1\n"), std::string::npos);
  EXPECT_NE(text.find("lat_bucket{le=\"10\"} 2\n"), std::string::npos);
  EXPECT_NE(text.find("lat_bucket{le=\"+Inf\"} 3\n"), std::string::npos);
  EXPECT_NE(text.find("lat_sum 105.5\n"), std::string::npos);
  EXPECT_NE(text.find("lat_count 3\n"), std::string::npos);
}

// --- Labeled exposition over several registries ---

std::size_t count_of(const std::string& text, const std::string& needle) {
  std::size_t n = 0;
  for (auto at = text.find(needle); at != std::string::npos;
       at = text.find(needle, at + 1)) {
    ++n;
  }
  return n;
}

TEST(Metrics, LabeledPartsRenderOneFamilyWithContiguousSamples) {
  // Same families, registered in different orders, plus one only the
  // second part has.
  obs::MetricsRegistry a;
  a.counter("hits").inc(1);
  a.gauge("depth").set(2.0);
  a.counter("zeta").inc(5);
  obs::MetricsRegistry b;
  b.counter("zeta").inc(7);
  b.counter("only_b").inc(9);
  b.gauge("depth").set(3.0);
  b.counter("hits").inc(4);
  const obs::MetricsPart parts[] = {{{{"shard", "0"}}, a},
                                    {{{"shard", "1"}}, b}};
  const auto text = obs::to_prometheus(parts);

  for (const char* family : {"hits counter", "zeta counter",
                             "only_b counter", "depth gauge"}) {
    EXPECT_EQ(count_of(text, std::string("# TYPE ") + family + "\n"), 1u)
        << family << "\n" << text;
  }
  EXPECT_NE(text.find("# TYPE hits counter\nhits{shard=\"0\"} 1\n"
                      "hits{shard=\"1\"} 4\n"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("# TYPE zeta counter\nzeta{shard=\"0\"} 5\n"
                      "zeta{shard=\"1\"} 7\n"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE only_b counter\nonly_b{shard=\"1\"} 9\n"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE depth gauge\ndepth{shard=\"0\"} 2\n"
                      "depth{shard=\"1\"} 3\n"),
            std::string::npos);

  // Contiguity in general: once a family's block ends, no later line
  // belongs to it.
  std::set<std::string> closed;
  std::string current;
  std::istringstream lines(text);
  for (std::string line; std::getline(lines, line);) {
    std::string family;
    if (line.rfind("# TYPE ", 0) == 0) {
      family = line.substr(7, line.find(' ', 7) - 7);
    } else {
      family = line.substr(0, line.find_first_of("{ "));
    }
    if (family != current) {
      closed.insert(current);
      EXPECT_EQ(closed.count(family), 0u) << family << " split:\n" << text;
      current = family;
    }
  }
}

TEST(Metrics, LabeledHistogramRowsPutLabelsBeforeLe) {
  obs::MetricsRegistry a;
  a.histogram("lat", {1.0}).observe(0.5);
  obs::MetricsRegistry b;
  b.histogram("lat", {1.0}).observe(3.0);
  const obs::MetricsPart parts[] = {{{{"shard", "0"}}, a},
                                    {{{"tenant", "t"}, {"shard", "1"}}, b}};
  const auto text = obs::to_prometheus(parts);
  EXPECT_EQ(count_of(text, "# TYPE lat histogram\n"), 1u) << text;
  EXPECT_NE(text.find("lat_bucket{shard=\"0\",le=\"1\"} 1\n"
                      "lat_bucket{shard=\"0\",le=\"+Inf\"} 1\n"
                      "lat_sum{shard=\"0\"} 0.5\n"
                      "lat_count{shard=\"0\"} 1\n"
                      "lat_bucket{tenant=\"t\",shard=\"1\",le=\"1\"} 0\n"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("lat_count{tenant=\"t\",shard=\"1\"} 1\n"),
            std::string::npos);
}

TEST(Metrics, OneUnlabeledPartIsTheRegistryExport) {
  obs::MetricsRegistry registry;
  registry.counter("hits").inc(3);
  registry.gauge("depth").set(1.5);
  registry.histogram("lat", {1.0}).observe(2.0);
  const obs::MetricsPart part{{}, registry};
  EXPECT_EQ(obs::to_prometheus(std::span(&part, 1)), registry.to_prometheus());
  EXPECT_EQ(obs::to_json(std::span(&part, 1)), registry.to_json());
}

TEST(Metrics, MultiPartJsonIsAnArrayOfLabeledRegistries) {
  obs::MetricsRegistry a;
  a.counter("hits").inc(1);
  a.histogram("lat").observe(2.0);
  obs::MetricsRegistry empty;
  const obs::MetricsPart parts[] = {{{}, a},
                                    {{{"tenant", "alpha"}, {"shard", "1"}},
                                     empty}};
  const auto json = obs::to_json(parts);
  EXPECT_TRUE(JsonChecker(json).valid()) << json;
  EXPECT_EQ(json.front(), '[');
  EXPECT_NE(json.find("\"labels\": {}"), std::string::npos) << json;
  EXPECT_NE(json.find("\"labels\": {\"tenant\": \"alpha\", \"shard\": \"1\"}"),
            std::string::npos)
      << json;
  EXPECT_TRUE(JsonChecker(obs::to_json({})).valid());
}

TEST(Metrics, CounterViewFollowsItsSourceAndSurvivesReset) {
  std::atomic<std::uint64_t> source{5};
  obs::MetricsRegistry registry;
  // Registered first as a plain counter: counter_view rebinds the name.
  registry.counter("reads").inc(100);
  const obs::Counter& view = registry.counter_view("reads", source);
  EXPECT_EQ(&view, registry.find_counter("reads"));
  EXPECT_EQ(view.value(), 5u);
  source += 3;
  EXPECT_EQ(view.value(), 8u);
  EXPECT_NE(registry.to_prometheus().find("reads 8\n"), std::string::npos);

  registry.reset();
  EXPECT_EQ(source.load(), 8u);
  EXPECT_EQ(view.value(), 8u);
}

}  // namespace
}  // namespace hds
