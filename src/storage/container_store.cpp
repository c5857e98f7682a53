#include "storage/container_store.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <unordered_map>
#include <utility>

#include "obs/log.h"
#include "storage/durable.h"
#include "verify/invariant.h"

namespace hds {

ContainerId ContainerStore::write(Container container) {
  const ContainerId id = reserve_id();
  container.set_id(id);
  put(std::move(container));
  return id;
}

void ContainerStore::put(Container container) {
  const ContainerId id = container.id();
  // Sealing invariants: archival IDs are strictly positive (0 is the active
  // class, negatives are chain links) and containers never overflow.
  HDS_CHECK(id > 0, "archival container sealed with a non-archival ID");
  HDS_CHECK(container.data_size() <= container.capacity(),
            "archival container sealed beyond its capacity");
  const std::uint64_t size = container.data_size();
  // Count only after do_write returns: a partial or failed write must not
  // show up as a successful container_write (it previously did).
  do_write(id, std::move(container));
  stats_.container_writes++;
  stats_.bytes_written += size;
}

std::shared_ptr<const Container> ContainerStore::account_read(
    ReadResult&& result, ReadMeter* meter) {
  if (!result.container) return nullptr;
  stats_.container_reads++;
  stats_.bytes_read += result.logical_bytes;
  stats_.bytes_read_physical += result.physical_bytes;
  if (meter != nullptr) {
    meter->add(result.logical_bytes, result.physical_bytes);
  }
  return std::move(result.container);
}

std::shared_ptr<const Container> ContainerStore::read(ContainerId id,
                                                      ReadMeter* meter) {
  return account_read(do_read(id), meter);
}

std::shared_ptr<const Container> ContainerStore::read_chunks(
    ContainerId id, std::span<const Fingerprint> fps, ReadMeter* meter) {
  if (fps.empty()) return read(id, meter);
  return account_read(do_read_chunks(id, fps), meter);
}

std::shared_ptr<const Container> ContainerStore::read_verified(
    ContainerId id, ReadMeter* meter) {
  return account_read(do_read_verified(id), meter);
}

bool ContainerStore::erase(ContainerId id) {
  const bool erased = do_erase(id);
  if (erased) stats_.container_erases++;
  return erased;
}

void ContainerStore::attach_metrics(obs::MetricsRegistry& registry) {
  registry.counter_view("store_container_writes", stats_.container_writes);
  registry.counter_view("store_container_reads", stats_.container_reads);
  registry.counter_view("store_container_erases", stats_.container_erases);
  registry.counter_view("store_bytes_written", stats_.bytes_written);
  registry.counter_view("store_bytes_read", stats_.bytes_read);
  registry.counter_view("store_bytes_read_physical",
                        stats_.bytes_read_physical);
}

// --- MemoryContainerStore ---

std::vector<ContainerId> MemoryContainerStore::ids() const {
  MutexLock lock(mu_);
  std::vector<ContainerId> out;
  out.reserve(containers_.size());
  for (const auto& [id, _] : containers_) out.push_back(id);
  return out;
}

void MemoryContainerStore::do_write(ContainerId id, Container&& container) {
  auto stored = std::make_shared<const Container>(std::move(container));
  MutexLock lock(mu_);
  containers_[id] = std::move(stored);
}

ContainerStore::ReadResult MemoryContainerStore::do_read(ContainerId id) {
  MutexLock lock(mu_);
  const auto it = containers_.find(id);
  if (it == containers_.end()) return {};
  // RAM is the modeled disk: physical == logical, so every §5.3 experiment
  // on the memory backend is bit-identical with or without the fast path.
  const std::uint64_t size = it->second->data_size();
  return {it->second, size, size};
}

bool MemoryContainerStore::do_erase(ContainerId id) {
  MutexLock lock(mu_);
  return containers_.erase(id) > 0;
}

// --- FileContainerStore ---

namespace {

// State behind set_read_fault_plan(): relaxed atomics, so an unarmed plan
// costs the loop two loads per extent and no lock.
struct ReadFaultState {
  std::atomic<std::uint32_t> short_every{0};
  std::atomic<std::uint32_t> eintr_every{0};
  std::atomic<std::uint64_t> short_draws{0};
  std::atomic<std::uint64_t> eintr_draws{0};
  std::atomic<std::uint64_t> short_injected{0};
  std::atomic<std::uint64_t> eintr_injected{0};
};
ReadFaultState g_read_faults;

enum class ReadFault { kNone, kShort, kEintr };

ReadFault take_read_fault() noexcept {
  ReadFaultState& f = g_read_faults;
  const std::uint32_t short_n = f.short_every.load(std::memory_order_relaxed);
  const std::uint32_t eintr_n = f.eintr_every.load(std::memory_order_relaxed);
  if (short_n != 0 &&
      (f.short_draws.fetch_add(1, std::memory_order_relaxed) + 1) % short_n ==
          0) {
    return ReadFault::kShort;
  }
  if (eintr_n != 0 &&
      (f.eintr_draws.fetch_add(1, std::memory_order_relaxed) + 1) % eintr_n ==
          0) {
    return ReadFault::kEintr;
  }
  return ReadFault::kNone;
}

// pread(2) exactly [offset, offset + len), continuing after EINTR and short
// reads; throws ReadError on failure or unexpected EOF so callers never
// decode a partially filled buffer.
void pread_exact(int fd, std::uint8_t* dst, std::size_t len,
                 std::uint64_t offset, ContainerId id) {
  ReadFault fault = take_read_fault();
  while (len > 0) {
    std::size_t want = len;
    if (fault == ReadFault::kEintr) {
      fault = ReadFault::kNone;
      g_read_faults.eintr_injected.fetch_add(1, std::memory_order_relaxed);
      continue;  // modeled EINTR: the attempt never reached the kernel
    }
    if (fault == ReadFault::kShort && want > 1) {
      want /= 2;
      g_read_faults.short_injected.fetch_add(1, std::memory_order_relaxed);
    }
    fault = ReadFault::kNone;
    const ssize_t n = ::pread(fd, dst, want, static_cast<off_t>(offset));
    if (n < 0) {
      if (errno == EINTR) continue;
      throw ReadError(id, std::string("pread failed: ") +
                              std::strerror(errno));
    }
    if (n == 0) throw ReadError(id, "unexpected EOF");
    dst += n;
    len -= static_cast<std::size_t>(n);
    offset += static_cast<std::uint64_t>(n);
  }
}

void log_read_error(const ReadError& err) {
  if (obs::log_enabled(obs::LogLevel::kWarn)) {
    obs::log_warn("container_read_error", {{"error", err.what()}});
  }
}

}  // namespace

void set_read_fault_plan(const ReadFaultPlan& plan) noexcept {
  ReadFaultState& f = g_read_faults;
  f.short_every.store(plan.short_read_every_n, std::memory_order_relaxed);
  f.eintr_every.store(plan.eintr_every_n, std::memory_order_relaxed);
  f.short_draws.store(0, std::memory_order_relaxed);
  f.eintr_draws.store(0, std::memory_order_relaxed);
  f.short_injected.store(0, std::memory_order_relaxed);
  f.eintr_injected.store(0, std::memory_order_relaxed);
}

ReadFaultCounts read_faults_injected() noexcept {
  return {g_read_faults.short_injected.load(std::memory_order_relaxed),
          g_read_faults.eintr_injected.load(std::memory_order_relaxed)};
}

FileContainerStore::FileContainerStore(std::filesystem::path dir,
                                       bool index_existing,
                                       const FileStoreTuning& tuning)
    : dir_(std::move(dir)),
      tuning_(tuning),
      fd_cache_(tuning.fd_cache_slots),
      block_cache_(tuning.block_cache_bytes, tuning.block_cache_shards) {
  std::filesystem::create_directories(dir_);
  if (!index_existing) return;
  ContainerId max_id = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir_)) {
    const auto name = entry.path().filename().string();
    // container_<id>.hdsc
    if (name.rfind("container_", 0) != 0 || !entry.is_regular_file()) {
      continue;
    }
    const auto id_str = name.substr(10, name.size() - 10 - 5);
    char* end = nullptr;
    const long id = std::strtol(id_str.c_str(), &end, 10);
    if (end == nullptr || *end != '\0' || id <= 0) continue;
    known_[static_cast<ContainerId>(id)] = true;
    max_id = std::max(max_id, static_cast<ContainerId>(id));
  }
  restore_next_id(max_id + 1);
}

void FileContainerStore::set_tuning(const FileStoreTuning& tuning) {
  tuning_ = tuning;
  fd_cache_.clear();
  fd_cache_.set_capacity(tuning.fd_cache_slots);
  block_cache_.reconfigure(tuning.block_cache_bytes,
                           tuning.block_cache_shards);
}

FileContainerStore::IoPathStats FileContainerStore::io_stats() const {
  IoPathStats out;
  out.fd_cache_hits = fd_cache_.hits();
  out.fd_cache_opens = fd_cache_.opens();
  out.open_fds = fd_cache_.open_fds();
  out.block_cache_hits = block_cache_.hits();
  out.block_cache_misses = block_cache_.misses();
  out.block_cache_evictions = block_cache_.evictions();
  out.block_cache_bytes = block_cache_.bytes();
  out.partial_reads = partial_reads_.load(std::memory_order_relaxed);
  out.read_errors = read_errors_.load(std::memory_order_relaxed);
  return out;
}

void FileContainerStore::attach_metrics(obs::MetricsRegistry& registry) {
  ContainerStore::attach_metrics(registry);
  fd_cache_.attach_metrics(registry);
  block_cache_.attach_metrics(registry);
  registry.counter_view("io_partial_reads", partial_reads_);
  registry.counter_view("io_read_errors", read_errors_);
}

void FileContainerStore::refresh_gauges(obs::MetricsRegistry& registry) const {
  registry.gauge("io_open_fds")
      .set(static_cast<double>(fd_cache_.open_fds()));
  registry.gauge("io_block_cache_bytes")
      .set(static_cast<double>(block_cache_.bytes()));
}

std::filesystem::path FileContainerStore::path_for(ContainerId id) const {
  return dir_ / ("container_" + std::to_string(id) + ".hdsc");
}

std::vector<ContainerId> FileContainerStore::ids() const {
  MutexLock lock(mu_);
  std::vector<ContainerId> out;
  out.reserve(known_.size());
  for (const auto& [id, _] : known_) out.push_back(id);
  return out;
}

void FileContainerStore::do_write(ContainerId id, Container&& container) {
  // Atomic (temp + fsync + rename): a crash mid-write leaves at worst a
  // *.tmp file that recovery sweeps, never a torn container at the final
  // path. Throws durable::WriteError on any failure, before the container
  // becomes visible in known_.
  durable::atomic_write_file(path_for(id), container.serialize());
  // The rename replaced the inode: drop any descriptor or cached image of a
  // previous container under this ID so later reads see the new content.
  // (Caches are never populated on write — see BlockCache's policy.)
  fd_cache_.invalidate(id);
  block_cache_.invalidate(id);
  MutexLock lock(mu_);
  known_[id] = true;
}

std::uint64_t FileContainerStore::read_extents(
    int fd, ContainerId id, std::span<const ExtentRead> reads) {
  if (reads.empty()) return 0;
  // Device-failure injection: a kFail-armed CrashInjector turns the read
  // into the ReadError a dying disk would produce.
  try {
    durable::CrashInjector::crash_point("container_read");
  } catch (const durable::WriteError&) {
    throw ReadError(id, std::string("pread failed: ") + std::strerror(EIO));
  }
  std::uint64_t physical = 0;
  for (const ExtentRead& read : reads) {
    pread_exact(fd, read.dst, read.len, read.offset, id);
    physical += read.len;
  }
  return physical;
}

ContainerStore::ReadResult FileContainerStore::slurp(ContainerId id) {
  FdCache::Handle handle = fd_cache_.acquire(id, path_for(id));
  if (!handle.valid()) {
    throw ReadError(id, std::string("open failed: ") + std::strerror(errno));
  }
  // I/O-wait span on the issuing thread: the whole-file read is the
  // disk time a cache miss costs here.
  obs::Span io_span(tracer(), "store_slurp");
  io_span.arg("cid", static_cast<std::uint64_t>(id));
  io_span.arg("bytes", static_cast<std::uint64_t>(handle.size()));
  std::vector<std::uint8_t> bytes(handle.size());
  ExtentRead whole{0, bytes.data(), bytes.size()};
  const std::uint64_t physical =
      read_extents(handle.fd(), id, std::span(&whole, 1));
  io_span.end();
  // Footer + per-chunk CRCs: each payload is checked here, once, and never
  // again while this image is cached.
  auto container = Container::deserialize(bytes);
  // Corrupt (CRC/framing) is not an I/O error: nullptr, nothing cached.
  if (!container) return {};
  const std::uint64_t data_size = container->data_size();
  auto shared = std::make_shared<const Container>(std::move(*container));
  block_cache_.insert(id, shared, data_size, /*complete=*/true);
  return {std::move(shared), data_size, physical};
}

ContainerStore::ReadResult FileContainerStore::do_read(ContainerId id) {
  if (!is_known(id)) return {};
  if (auto hit = block_cache_.find_full(id)) {
    return {std::move(hit->container), hit->full_data_size, 0};
  }
  try {
    return slurp(id);
  } catch (const ReadError& err) {
    read_errors_.fetch_add(1, std::memory_order_relaxed);
    log_read_error(err);
    return {};
  }
}

std::optional<ContainerStore::ReadResult> FileContainerStore::try_partial_read(
    ContainerId id, std::span<const Fingerprint> fps) {
  FdCache::Handle handle = fd_cache_.acquire(id, path_for(id));
  if (!handle.valid()) {
    throw ReadError(id, std::string("open failed: ") + std::strerror(errno));
  }
  // Covers header + footer + extent preads; a short span that ends in a
  // nullopt return is a fallback-to-slurp probe, also worth seeing.
  obs::Span io_span(tracer(), "store_partial_read");
  io_span.arg("cid", static_cast<std::uint64_t>(id));
  if (handle.size() < Container::kHeaderSize) return std::nullopt;
  std::array<std::uint8_t, Container::kHeaderSize> header{};
  ExtentRead header_read{0, header.data(), header.size()};
  std::uint64_t physical =
      read_extents(handle.fd(), id, std::span(&header_read, 1));
  const auto info = Container::parse_header(header);
  // Legacy format, unknown magic, or a size that does not match the header
  // (truncation, header damage): let the slurp path render the verdict.
  if (!info || !info->footer_indexed) return std::nullopt;
  if (info->expected_file_size() != handle.size()) return std::nullopt;

  std::vector<std::uint8_t> footer(info->footer_size());
  ExtentRead footer_read{info->footer_offset(), footer.data(), footer.size()};
  physical += read_extents(handle.fd(), id, std::span(&footer_read, 1));
  const auto parsed = Container::parse_footer(header, footer);
  if (!parsed) return std::nullopt;

  std::unordered_map<Fingerprint, ContainerEntry> table;
  table.reserve(parsed->size());
  // Logical size must match what a full read would charge: data region plus
  // the accounted size of virtual (metadata-only) chunks.
  std::uint64_t logical = info->data_size;
  for (const auto& [fp, entry] : *parsed) {
    if (entry.offset == Container::kVirtualOffset) logical += entry.size;
    table.emplace(fp, entry);
  }
  const std::size_t total_entries = table.size();

  // Requested entries actually present, physical ones sorted by offset so
  // adjacent extents coalesce into sequential preads. Entries are consumed
  // from `table` so a fingerprint repeated in `fps` is fetched once.
  Container out(info->id, info->capacity);
  std::vector<std::pair<Fingerprint, ContainerEntry>> wanted;
  wanted.reserve(fps.size());
  for (const Fingerprint& fp : fps) {
    const auto it = table.find(fp);
    if (it == table.end()) continue;  // absent here, as a full read would show
    if (it->second.offset == Container::kVirtualOffset) {
      // Metadata-only chunk: installed without touching the data region.
      const bool ok = out.add_verified(fp, it->second, {});
      HDS_CHECK(ok, "virtual chunk failed to install from footer index");
      (void)ok;
    } else {
      wanted.emplace_back(fp, it->second);
    }
    table.erase(it);
  }
  std::sort(wanted.begin(), wanted.end(), [](const auto& a, const auto& b) {
    return a.second.offset < b.second.offset;
  });

  // Coalesce extents whose gap is at most one page: one seek amortized
  // beats re-reading a few KiB of unwanted bytes. All runs are planned
  // first into one arena, then read with one pread loop per run.
  constexpr std::uint64_t kCoalesceGap = 4096;
  struct Run {
    std::uint64_t begin = 0;   // data-region offset of the run
    std::size_t first = 0;     // first index in `wanted`
    std::size_t last = 0;      // one past the last index
    std::size_t arena = 0;     // offset of the run's bytes in the arena
  };
  std::vector<Run> runs;
  std::size_t arena_size = 0;
  std::size_t i = 0;
  while (i < wanted.size()) {
    const std::uint64_t run_begin = wanted[i].second.offset;
    std::uint64_t run_end = run_begin + wanted[i].second.size;
    std::size_t j = i + 1;
    while (j < wanted.size() &&
           wanted[j].second.offset <= run_end + kCoalesceGap) {
      run_end = std::max(run_end, std::uint64_t{wanted[j].second.offset} +
                                      wanted[j].second.size);
      ++j;
    }
    runs.push_back({run_begin, i, j, arena_size});
    arena_size += static_cast<std::size_t>(run_end - run_begin);
    i = j;
  }
  std::vector<std::uint8_t> arena(arena_size);
  std::vector<ExtentRead> extents;
  extents.reserve(runs.size());
  for (std::size_t r = 0; r < runs.size(); ++r) {
    const Run& run = runs[r];
    const std::size_t run_len =
        (r + 1 < runs.size() ? runs[r + 1].arena : arena_size) - run.arena;
    extents.push_back({Container::kHeaderSize + run.begin,
                       arena.data() + run.arena, run_len});
  }
  physical += read_extents(handle.fd(), id, extents);
  for (const Run& run : runs) {
    for (std::size_t k = run.first; k < run.last; ++k) {
      const auto& [fp, entry] = wanted[k];
      const std::span<const std::uint8_t> payload(
          arena.data() + run.arena + (entry.offset - run.begin), entry.size);
      // A CRC mismatch drops just this chunk (counted in
      // chunk_crc_failures); the restore fails that chunk and no other. A
      // slurp of the same file rejects the whole container instead.
      (void)out.add_verified(fp, entry, payload);
    }
  }

  io_span.arg("physical_bytes", physical);
  io_span.end();
  partial_reads_.fetch_add(1, std::memory_order_relaxed);
  const bool complete = out.chunk_count() == total_entries;
  auto shared = std::make_shared<const Container>(std::move(out));
  block_cache_.insert(id, shared, logical, complete);
  return ReadResult{std::move(shared), logical, physical};
}

ContainerStore::ReadResult FileContainerStore::do_read_chunks(
    ContainerId id, std::span<const Fingerprint> fps) {
  if (!is_known(id)) return {};
  if (auto hit = block_cache_.find_chunks(id, fps)) {
    return {std::move(hit->container), hit->full_data_size, 0};
  }
  try {
    if (tuning_.partial_reads) {
      if (auto partial = try_partial_read(id, fps)) return std::move(*partial);
    }
    return slurp(id);
  } catch (const ReadError& err) {
    read_errors_.fetch_add(1, std::memory_order_relaxed);
    log_read_error(err);
    return {};
  }
}

ContainerStore::ReadResult FileContainerStore::do_read_verified(
    ContainerId id) {
  if (!is_known(id)) return {};
  // fsck path: straight from the medium, no cache lookups, no cache
  // population — a verified read must observe post-write corruption even
  // when a pristine image of the container is sitting in memory.
  const int fd = ::open(path_for(id).c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    read_errors_.fetch_add(1, std::memory_order_relaxed);
    log_read_error(ReadError(id, std::string("open failed: ") +
                                     std::strerror(errno)));
    return {};
  }
  try {
    struct ::stat st{};
    if (::fstat(fd, &st) != 0) {
      throw ReadError(id, std::string("fstat failed: ") +
                              std::strerror(errno));
    }
    std::vector<std::uint8_t> bytes(static_cast<std::size_t>(st.st_size));
    pread_exact(fd, bytes.data(), bytes.size(), 0, id);
    ::close(fd);
    // The whole-file CRC, not the per-chunk ones: a payload that fails its
    // chunk CRC still loads, so fsck reports it as chunk_crc damage rather
    // than as an unreadable container.
    auto container =
        Container::deserialize(bytes, Container::LoadCheck::kWholeFile);
    if (!container) return {};
    const std::uint64_t data_size = container->data_size();
    return {std::make_shared<const Container>(std::move(*container)),
            data_size, bytes.size()};
  } catch (const ReadError& err) {
    ::close(fd);
    read_errors_.fetch_add(1, std::memory_order_relaxed);
    log_read_error(err);
    return {};
  }
}

bool FileContainerStore::do_erase(ContainerId id) {
  {
    MutexLock lock(mu_);
    if (known_.erase(id) == 0) return false;
  }
  fd_cache_.invalidate(id);
  block_cache_.invalidate(id);
  std::error_code ec;
  std::filesystem::remove(path_for(id), ec);
  return !ec;
}

}  // namespace hds
