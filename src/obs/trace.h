// Phase tracer — RAII spans recording nested begin/end timestamps of the
// backup/restore pipeline phases (dedup, cold-chunk eviction, recipe
// update, recipe resolution, policy restore, ...), so that a multi-thread
// restore reads as ONE timeline:
//
//   * spans ("X" complete events) with optional key/value args, recorded
//     on whichever thread ran them;
//   * thread-name metadata ("M") so the restore_main / restore_fill_<i>
//     threads are labeled instead of numbered.
//
// Spans are cheap when no tracer is attached: a Span constructed with a
// null Tracer* is a no-op, so instrumented code can unconditionally open
// spans and pay nothing unless tracing was requested (hds_tool
// --trace-out=<file>).
//
// The recorded timeline dumps as Chrome trace_event JSON loadable in
// chrome://tracing or Perfetto.
#pragma once

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <string>
#include <string_view>
#include <vector>

#include "common/thread_annotations.h"

namespace hds::obs {

class Tracer;

// RAII phase marker: records a complete event on destruction (or end()).
// Movable so it can be returned from helpers; copying is disabled.
class Span {
 public:
  Span() = default;
  Span(Tracer* tracer, std::string_view name);
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  Span(Span&& other) noexcept;
  Span& operator=(Span&& other) noexcept;
  ~Span() { end(); }

  // Attaches a key/value pair to the event's "args" object (shown in the
  // trace viewer's detail pane). No-op on a null span.
  void arg(std::string_view key, std::uint64_t value);
  void arg(std::string_view key, std::string_view value);

  // Finishes the span early; idempotent.
  void end() noexcept;

 private:
  Tracer* tracer_ = nullptr;
  std::string name_;
  std::string args_;  // pre-rendered JSON object body ("k":v,"k2":v2)
  double start_us_ = 0.0;
};

struct TraceEvent {
  std::string name;
  double ts_us = 0.0;   // microseconds since the tracer's origin
  double dur_us = 0.0;  // duration in microseconds ("X" events only)
  std::uint64_t tid = 0;
  // Chrome trace_event phase: 'X' complete, 'M' metadata (thread names).
  char ph = 'X';
  std::string args;  // pre-rendered JSON object body; empty = no args
};

class Tracer {
 public:
  Tracer();

  [[nodiscard]] Span span(std::string_view name) { return {this, name}; }

  // Names the calling thread's track in the viewer ("restore_fill_0",
  // "restore_main", ...). Safe to call repeatedly; last call wins.
  void set_thread_name(std::string_view name);

  // Microseconds since this tracer was constructed.
  [[nodiscard]] double now_us() const noexcept;

  void record(std::string name, double ts_us, double dur_us);
  void record(TraceEvent event);

  [[nodiscard]] std::size_t event_count() const;
  [[nodiscard]] std::vector<TraceEvent> events() const;

  // {"traceEvents":[{"name":...,"ph":"X","ts":...,"dur":...,"pid":1,
  //  "tid":...},...],"displayTimeUnit":"ms"}
  [[nodiscard]] std::string to_json() const;
  // Writes to_json() to `path`; false on I/O failure.
  bool dump(const std::filesystem::path& path) const;

 private:
  std::chrono::steady_clock::time_point origin_;
  // Innermost lock in the tree: spans end (and record here) while queue /
  // restore-fill locks are held, so every other rank must be below kObsTracer.
  mutable Mutex mu_{lockrank::kObsTracer};
  std::vector<TraceEvent> events_ HDS_GUARDED_BY(mu_);
};

// Renders a key/value pair onto an args body string (comma-separated
// "k":v list without the surrounding braces). Shared by Span::arg and
// call sites that build TraceEvent args directly.
void append_arg(std::string& args, std::string_view key, std::uint64_t value);
void append_arg(std::string& args, std::string_view key,
                std::string_view value);

}  // namespace hds::obs
