#include "storage/durable.h"

#include <atomic>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <mutex>
#include <string>

#include "common/thread_annotations.h"

#if defined(_WIN32)
#error "durable.cpp requires a POSIX platform"
#endif

#include <fcntl.h>
#include <sys/file.h>
#include <unistd.h>

namespace hds::durable {

namespace {

std::atomic<int> g_mode{static_cast<int>(FaultMode::kNone)};
std::atomic<std::uint64_t> g_trigger{0};
std::atomic<std::uint64_t> g_counter{0};
std::atomic<const char*> g_site{nullptr};
std::once_flag g_env_once;

// kPause: the parked thread waits on g_pause_cv until resume(). Unranked:
// a crash point may run under any lock rank.
Mutex g_pause_mu;
CondVar g_pause_cv;
bool g_paused HDS_GUARDED_BY(g_pause_mu) = false;    // a thread is parked
bool g_released HDS_GUARDED_BY(g_pause_mu) = false;  // since the last arm()

void park() {
  MutexLock lock(g_pause_mu);
  g_paused = true;
  g_pause_cv.notify_all();
  while (!g_released) g_pause_cv.wait(g_pause_mu);
  g_paused = false;
}

void release() noexcept {
  MutexLock lock(g_pause_mu);
  g_released = true;
  g_pause_cv.notify_all();
}

void arm_from_environment() {
  const char* step = std::getenv("HDS_CRASH_STEP");
  if (step == nullptr || *step == '\0') return;
  char* end = nullptr;
  const unsigned long long n = std::strtoull(step, &end, 10);
  if (end == nullptr || *end != '\0' || n == 0) return;
  FaultMode mode = FaultMode::kAbort;
  if (const char* m = std::getenv("HDS_CRASH_MODE")) {
    const std::string_view v(m);
    if (v == "throw") {
      mode = FaultMode::kThrow;
    } else if (v == "fail") {
      mode = FaultMode::kFail;
    }
  }
  CrashInjector::arm(n, mode);
}

[[noreturn]] void throw_errno(const std::string& what, int err) {
  throw WriteError(what + ": " + std::strerror(err));
}

}  // namespace

void CrashInjector::arm(std::uint64_t step, FaultMode mode,
                        const char* site) noexcept {
  {
    MutexLock lock(g_pause_mu);
    g_released = false;
  }
  g_counter.store(0, std::memory_order_relaxed);
  g_trigger.store(step, std::memory_order_relaxed);
  g_site.store(site, std::memory_order_relaxed);
  g_mode.store(static_cast<int>(mode), std::memory_order_release);
}

void CrashInjector::disarm() noexcept {
  g_mode.store(static_cast<int>(FaultMode::kNone),
               std::memory_order_release);
  g_site.store(nullptr, std::memory_order_relaxed);
  release();
}

void CrashInjector::wait_until_paused() {
  MutexLock lock(g_pause_mu);
  while (!g_paused && !g_released) g_pause_cv.wait(g_pause_mu);
}

void CrashInjector::resume() noexcept { release(); }

bool CrashInjector::armed() noexcept {
  return g_mode.load(std::memory_order_acquire) !=
         static_cast<int>(FaultMode::kNone);
}

std::uint64_t CrashInjector::steps() noexcept {
  return g_counter.load(std::memory_order_relaxed);
}

void CrashInjector::crash_point(const char* site) {
  std::call_once(g_env_once, arm_from_environment);
  const auto mode =
      static_cast<FaultMode>(g_mode.load(std::memory_order_acquire));
  if (mode == FaultMode::kNone) return;
  if (const char* only = g_site.load(std::memory_order_relaxed);
      only != nullptr && std::string_view(only) != site) {
    return;
  }
  const std::uint64_t n =
      g_counter.fetch_add(1, std::memory_order_relaxed) + 1;
  const std::uint64_t trigger = g_trigger.load(std::memory_order_relaxed);
  switch (mode) {
    case FaultMode::kNone: return;
    case FaultMode::kThrow:
      if (n == trigger) {
        throw InjectedCrash(std::string("injected crash at ") + site);
      }
      return;
    case FaultMode::kAbort:
      if (n == trigger) std::_Exit(86);  // no cleanup — a real crash
      return;
    case FaultMode::kFail:
      if (n >= trigger) {
        throw WriteError(std::string("injected write failure at ") + site);
      }
      return;
    case FaultMode::kPause:
      if (n == trigger) park();
      return;
  }
}

// --- AtomicFileWriter ---

void AtomicFileWriter::site(const char* name) {
  try {
    CrashInjector::crash_point(name);
  } catch (const InjectedCrash&) {
    crashed_ = true;  // simulate a dead process: leave the temp file behind
    throw;
  }
}

AtomicFileWriter::AtomicFileWriter(std::filesystem::path path)
    : path_(std::move(path)), tmp_(path_) {
  tmp_ += ".tmp";
  site("create");
  fd_ = ::open(tmp_.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC,
               0644);
  if (fd_ < 0) {
    throw_errno("AtomicFileWriter: cannot create " + tmp_.string(), errno);
  }
}

AtomicFileWriter::~AtomicFileWriter() {
  if (!committed_ && !crashed_) abort();
  if (fd_ >= 0) ::close(fd_);
}

void AtomicFileWriter::write(const void* data, std::size_t size) {
  site("write");
  const auto* p = static_cast<const char*>(data);
  while (size > 0) {
    const ::ssize_t n = ::write(fd_, p, size);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw_errno("AtomicFileWriter: write to " + tmp_.string(), errno);
    }
    p += n;
    size -= static_cast<std::size_t>(n);
  }
}

void AtomicFileWriter::commit() {
  site("fsync");
  if (::fsync(fd_) != 0) {
    throw_errno("AtomicFileWriter: fsync " + tmp_.string(), errno);
  }
  site("rename");
  if (::close(fd_) != 0) {
    fd_ = -1;
    throw_errno("AtomicFileWriter: close " + tmp_.string(), errno);
  }
  fd_ = -1;
  std::error_code ec;
  std::filesystem::rename(tmp_, path_, ec);
  if (ec) {
    throw WriteError("AtomicFileWriter: rename " + tmp_.string() + " -> " +
                     path_.string() + ": " + ec.message());
  }
  committed_ = true;  // the target is in place; debris no longer possible
  site("dirsync");
  fsync_directory(path_.parent_path());
}

void AtomicFileWriter::abort() noexcept {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  if (!committed_) {
    std::error_code ec;
    std::filesystem::remove(tmp_, ec);
  }
  committed_ = true;
}

// --- Helpers ---

void atomic_write_file(const std::filesystem::path& path,
                       std::span<const std::uint8_t> bytes) {
  AtomicFileWriter out(path);
  out.write(bytes);
  out.commit();
}

void atomic_write_file(const std::filesystem::path& path,
                       std::string_view text) {
  AtomicFileWriter out(path);
  out.write(text);
  out.commit();
}

void atomic_rename(const std::filesystem::path& from,
                   const std::filesystem::path& to) {
  CrashInjector::crash_point("atomic-rename");
  std::error_code ec;
  std::filesystem::rename(from, to, ec);
  if (ec) {
    throw WriteError("atomic_rename: " + from.string() + " -> " +
                     to.string() + ": " + ec.message());
  }
  CrashInjector::crash_point("atomic-rename-dirsync");
  fsync_directory(to.parent_path());
}

std::optional<std::vector<std::uint8_t>> read_file(
    const std::filesystem::path& path) {
  // A directory opens as a stream whose tellg() reports ~2^63 bytes.
  std::error_code ec;
  if (!std::filesystem::is_regular_file(path, ec)) return std::nullopt;
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) return std::nullopt;
  const auto end = in.tellg();
  // tellg() returns -1 on failure; casting that to size_t would request an
  // absurd allocation. Treat it as the read failure it is.
  if (end < 0) return std::nullopt;
  std::vector<std::uint8_t> bytes(static_cast<std::size_t>(end));
  in.seekg(0);
  in.read(reinterpret_cast<char*>(bytes.data()),
          static_cast<std::streamsize>(bytes.size()));
  if (!in && !bytes.empty()) return std::nullopt;
  return bytes;
}

void fsync_directory(const std::filesystem::path& dir) {
  const std::filesystem::path target = dir.empty() ? "." : dir;
  const int fd = ::open(target.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (fd < 0) {
    throw_errno("fsync_directory: open " + target.string(), errno);
  }
  const int rc = ::fsync(fd);
  const int err = errno;
  ::close(fd);
  if (rc != 0) {
    throw_errno("fsync_directory: fsync " + target.string(), err);
  }
}

// --- DirectoryLock ---

DirectoryLock::DirectoryLock(const std::filesystem::path& dir) {
  const std::filesystem::path path = dir / "LOCK";
  fd_ = ::open(path.c_str(), O_RDWR | O_CREAT | O_CLOEXEC, 0644);
  if (fd_ < 0) throw_errno("cannot open " + path.string(), errno);
  if (::flock(fd_, LOCK_EX | LOCK_NB) == 0) return;
  const int err = errno;
  ::close(fd_);
  fd_ = -1;
  if (err == EWOULDBLOCK) {
    throw LockedError("repository in use: another process is writing " +
                      dir.string());
  }
  throw_errno("cannot lock " + path.string(), err);
}

DirectoryLock::~DirectoryLock() {
  if (fd_ >= 0) ::close(fd_);  // releases the flock
}

bool DirectoryLock::held(const std::filesystem::path& dir) {
  const std::filesystem::path path = dir / "LOCK";
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return false;
  const bool locked =
      ::flock(fd, LOCK_SH | LOCK_NB) != 0 && errno == EWOULDBLOCK;
  ::close(fd);  // drops the probe's shared lock, if it got one
  return locked;
}

}  // namespace hds::durable
