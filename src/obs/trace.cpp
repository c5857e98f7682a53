#include "obs/trace.h"

#include <cstdio>
#include <fstream>
#include <functional>
#include <thread>
#include <utility>

#include "storage/durable.h"

namespace hds::obs {

namespace {

std::uint64_t current_tid() {
  return std::hash<std::thread::id>{}(std::this_thread::get_id()) % 1000000;
}

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string format_us(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.3f", v);
  return buf;
}

}  // namespace

void append_arg(std::string& args, std::string_view key,
                std::uint64_t value) {
  if (!args.empty()) args += ",";
  args += "\"" + json_escape(key) + "\":" + std::to_string(value);
}

void append_arg(std::string& args, std::string_view key,
                std::string_view value) {
  if (!args.empty()) args += ",";
  args += "\"" + json_escape(key) + "\":\"" + json_escape(value) + "\"";
}

// --- Span ---

Span::Span(Tracer* tracer, std::string_view name) : tracer_(tracer) {
  if (tracer_ == nullptr) return;
  name_ = name;
  start_us_ = tracer_->now_us();
}

Span::Span(Span&& other) noexcept
    : tracer_(std::exchange(other.tracer_, nullptr)),
      name_(std::move(other.name_)),
      args_(std::move(other.args_)),
      start_us_(other.start_us_) {}

Span& Span::operator=(Span&& other) noexcept {
  if (this != &other) {
    end();
    tracer_ = std::exchange(other.tracer_, nullptr);
    name_ = std::move(other.name_);
    args_ = std::move(other.args_);
    start_us_ = other.start_us_;
  }
  return *this;
}

void Span::arg(std::string_view key, std::uint64_t value) {
  if (tracer_ == nullptr) return;
  append_arg(args_, key, value);
}

void Span::arg(std::string_view key, std::string_view value) {
  if (tracer_ == nullptr) return;
  append_arg(args_, key, value);
}

void Span::end() noexcept {
  if (tracer_ == nullptr) return;
  Tracer* tracer = std::exchange(tracer_, nullptr);
  try {
    TraceEvent event;
    event.name = std::move(name_);
    event.ts_us = start_us_;
    event.dur_us = tracer->now_us() - start_us_;
    event.args = std::move(args_);
    tracer->record(std::move(event));
  } catch (...) {
    // Tracing must never take down the pipeline.
  }
}

// --- Tracer ---

Tracer::Tracer() : origin_(std::chrono::steady_clock::now()) {}

double Tracer::now_us() const noexcept {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - origin_)
      .count();
}

void Tracer::record(std::string name, double ts_us, double dur_us) {
  TraceEvent event;
  event.name = std::move(name);
  event.ts_us = ts_us;
  event.dur_us = dur_us;
  record(std::move(event));
}

void Tracer::record(TraceEvent event) {
  if (event.tid == 0) event.tid = current_tid();
  MutexLock lock(mu_);
  events_.push_back(std::move(event));
}

void Tracer::set_thread_name(std::string_view name) {
  std::string args;
  append_arg(args, "name", name);
  TraceEvent event;
  event.name = "thread_name";
  event.ts_us = 0.0;
  event.ph = 'M';
  event.args = std::move(args);
  record(std::move(event));
}

std::size_t Tracer::event_count() const {
  MutexLock lock(mu_);
  return events_.size();
}

std::vector<TraceEvent> Tracer::events() const {
  MutexLock lock(mu_);
  return events_;
}

std::string Tracer::to_json() const {
  MutexLock lock(mu_);
  std::string out = "{\"traceEvents\":[";
  bool first = true;
  for (const auto& e : events_) {
    if (!first) out += ",";
    out += "\n{\"name\":\"" + json_escape(e.name) +
           "\",\"cat\":\"hds\",\"ph\":\"" + e.ph +
           "\",\"ts\":" + format_us(e.ts_us);
    if (e.ph == 'X') out += ",\"dur\":" + format_us(e.dur_us);
    out += ",\"pid\":1,\"tid\":" + std::to_string(e.tid);
    if (!e.args.empty()) out += ",\"args\":{" + e.args + "}";
    out += "}";
    first = false;
  }
  out += "\n],\"displayTimeUnit\":\"ms\"}\n";
  return out;
}

bool Tracer::dump(const std::filesystem::path& path) const {
  // Atomic (temp + fsync + rename): a crashed or failed export never
  // leaves a torn trace file where a complete one used to be.
  try {
    durable::atomic_write_file(path, std::string_view(to_json()));
    return true;
  } catch (const durable::WriteError&) {
    return false;
  }
}

}  // namespace hds::obs
