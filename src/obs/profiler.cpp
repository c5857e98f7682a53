#include "obs/profiler.h"

#include <time.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <utility>

namespace hds::obs {

namespace {

std::string json_number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.12g", v);
  return buf;
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

}  // namespace

double profiler_wall_ms() noexcept {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double profiler_cpu_ms() noexcept {
  struct timespec ts{};
  if (clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts) != 0) return 0.0;
  return static_cast<double>(ts.tv_sec) * 1e3 +
         static_cast<double>(ts.tv_nsec) / 1e6;
}

// --- OpProfile ---

std::string OpProfile::to_json() const {
  std::string out = "{";
  out += "\"id\": " + std::to_string(id);
  out += ", \"kind\": \"" + json_escape(kind) + "\"";
  if (shard >= 0) out += ", \"shard\": " + std::to_string(shard);
  out += ", \"version\": " + std::to_string(version);
  out += ", \"wall_ms\": " + json_number(wall_ms);
  out += ", \"cpu_ms\": " + json_number(cpu_ms);
  out += ", \"phases\": [";
  for (std::size_t i = 0; i < phases.size(); ++i) {
    if (i != 0) out += ", ";
    out += "{\"name\": \"" + json_escape(phases[i].name) +
           "\", \"wall_ms\": " + json_number(phases[i].wall_ms) +
           ", \"cpu_ms\": " + json_number(phases[i].cpu_ms) + "}";
  }
  out += "]";
  out += ", \"bytes_logical\": " + std::to_string(bytes_logical);
  out += ", \"bytes_physical\": " + std::to_string(bytes_physical);
  out += ", \"chunks\": " + std::to_string(chunks);
  out += ", \"container_reads\": " + std::to_string(container_reads);
  out += ", \"cache\": {\"hits\": " + std::to_string(cache_hits) +
         ", \"misses\": " + std::to_string(cache_misses) +
         ", \"wasted\": " + std::to_string(cache_wasted) + "}";
  out += ", \"queue_depth\": {\"peak\": " + json_number(queue_depth_peak) +
         ", \"samples\": [";
  for (std::size_t i = 0; i < queue_depth.size(); ++i) {
    if (i != 0) out += ", ";
    out += json_number(queue_depth[i]);
  }
  out += "]}}";
  return out;
}

// --- OpRecorder::Phase ---

OpRecorder::Phase::Phase(OpRecorder* recorder, std::string_view name)
    : recorder_(recorder),
      wall0_ms(profiler_wall_ms()),
      cpu0_ms(profiler_cpu_ms()) {
  auto& phases = recorder_->profile_.phases;
  const auto it =
      std::find_if(phases.begin(), phases.end(),
                   [&](const PhaseTiming& p) { return p.name == name; });
  index_ = static_cast<std::size_t>(it - phases.begin());
  if (it == phases.end()) phases.push_back(PhaseTiming{std::string(name)});
}

OpRecorder::Phase::Phase(Phase&& other) noexcept
    : recorder_(std::exchange(other.recorder_, nullptr)),
      index_(other.index_),
      wall0_ms(other.wall0_ms),
      cpu0_ms(other.cpu0_ms) {}

OpRecorder::Phase& OpRecorder::Phase::operator=(Phase&& other) noexcept {
  if (this != &other) {
    end();
    recorder_ = std::exchange(other.recorder_, nullptr);
    index_ = other.index_;
    wall0_ms = other.wall0_ms;
    cpu0_ms = other.cpu0_ms;
  }
  return *this;
}

void OpRecorder::Phase::end() noexcept {
  if (recorder_ == nullptr) return;
  OpRecorder* recorder = std::exchange(recorder_, nullptr);
  auto& timing = recorder->profile_.phases[index_];
  timing.wall_ms += profiler_wall_ms() - wall0_ms;
  timing.cpu_ms += profiler_cpu_ms() - cpu0_ms;
}

// --- OpRecorder ---

OpRecorder::OpRecorder(OpProfiler* profiler, std::string kind,
                       std::uint64_t id)
    : profiler_(profiler),
      wall0_ms(profiler_wall_ms()),
      cpu0_ms(profiler_cpu_ms()) {
  profile_.id = id;
  profile_.kind = std::move(kind);
}

OpRecorder::Phase OpRecorder::phase(std::string_view name) {
  return {this, name};
}

void OpRecorder::sample_queue_depth(double depth) noexcept {
  const auto n = depth_count_.fetch_add(1, std::memory_order_relaxed);
  depth_ring_[static_cast<std::size_t>(n % kDepthSamples)] = depth;
  // Relaxed max: samplers are serialized, so load+store suffices.
  if (depth > depth_peak_.load(std::memory_order_relaxed)) {
    depth_peak_.store(depth, std::memory_order_relaxed);
  }
}

void OpRecorder::finish() noexcept {
  if (profiler_ == nullptr) return;
  OpProfiler* profiler = std::exchange(profiler_, nullptr);
  profile_.wall_ms = profiler_wall_ms() - wall0_ms;
  profile_.cpu_ms = profiler_cpu_ms() - cpu0_ms;
  const auto n = depth_count_.load(std::memory_order_relaxed);
  const auto kept = static_cast<std::size_t>(
      std::min<std::uint64_t>(n, kDepthSamples));
  profile_.queue_depth.reserve(kept);
  // Ring order: with fewer than kDepthSamples samples the ring is a plain
  // prefix; past that the oldest kept sample sits at n % kDepthSamples.
  const std::size_t start =
      n <= kDepthSamples ? 0 : static_cast<std::size_t>(n % kDepthSamples);
  for (std::size_t i = 0; i < kept; ++i) {
    profile_.queue_depth.push_back(
        depth_ring_[(start + i) % kDepthSamples]);
  }
  profile_.queue_depth_peak = depth_peak_.load(std::memory_order_relaxed);
  try {
    profiler->commit(std::move(profile_));
  } catch (...) {
    // Profiling must never take down the pipeline.
  }
}

// --- OpProfiler ---

OpProfiler::OpProfiler(std::size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity) {}

std::unique_ptr<OpRecorder> OpProfiler::begin(std::string kind) {
  std::uint64_t id = 0;
  {
    MutexLock lock(mu_);
    id = next_id_++;
  }
  return std::unique_ptr<OpRecorder>(
      new OpRecorder(this, std::move(kind), id));
}

void OpProfiler::commit(OpProfile&& profile) {
  MutexLock lock(mu_);
  ++completed_;
  if (ring_.size() < capacity_) {
    ring_.push_back(std::move(profile));
    return;
  }
  ring_[head_] = std::move(profile);
  head_ = (head_ + 1) % capacity_;
}

std::vector<OpProfile> OpProfiler::recent() const {
  MutexLock lock(mu_);
  std::vector<OpProfile> out;
  out.reserve(ring_.size());
  for (std::size_t i = 0; i < ring_.size(); ++i) {
    out.push_back(ring_[(head_ + i) % ring_.size()]);
  }
  return out;
}

std::uint64_t OpProfiler::completed() const {
  MutexLock lock(mu_);
  return completed_;
}

std::string OpProfiler::to_json() const { return profiles_to_json(recent()); }

std::string profiles_to_json(std::span<const OpProfile> ops) {
  std::string out = "{\"ops\": [";
  for (std::size_t i = 0; i < ops.size(); ++i) {
    if (i != 0) out += ",";
    out += "\n" + ops[i].to_json();
  }
  out += ops.empty() ? "]}\n" : "\n]}\n";
  return out;
}

}  // namespace hds::obs
