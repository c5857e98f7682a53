// Crash-consistent file persistence (DESIGN.md §9).
//
// Every on-disk artifact of a repository — container files, the state
// snapshot, the MANIFEST commit journal, the catalog, even trace/metrics
// exports — goes through AtomicFileWriter: bytes land in `<name>.tmp` with
// every operation checked, the temp file is fsynced, renamed over the
// target, and the parent directory is fsynced. A crash at any point leaves
// either the old file or the new file, never a torn mixture; an I/O error
// (ENOSPC, EIO) surfaces as WriteError with the original file untouched.
//
// CrashInjector is the proving ground: a process-global hook the durable
// writer calls at every write/fsync/rename site ("crash points"). Tests arm
// it to throw (in-process crash simulation, partial files intentionally
// left behind), abort the process (out-of-process kill for shell tests),
// fail persistently (full-disk / dying-device simulation through the normal
// error path), or park the writer until a test resumes it (a live writer
// caught between stage and commit). Unarmed, a crash point is a single
// relaxed atomic load.
//
// DirectoryLock is the one-writer rule (DESIGN.md §9): an exclusive
// flock(2) on `<root>/LOCK`, held by every command that changes a
// repository for as long as it runs.
#pragma once

#include <cstdint>
#include <filesystem>
#include <optional>
#include <span>
#include <stdexcept>
#include <string_view>
#include <vector>

namespace hds::durable {

// Thrown when a durable write cannot be completed. The failure contract for
// every writer in this header: on throw, the destination file still holds
// its previous content (or is still absent) and no store bookkeeping has
// been updated by the caller yet.
class WriteError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

// Thrown by an armed CrashInjector in kThrow mode. Derives from WriteError
// so production call sites need no special handling, but AtomicFileWriter
// recognizes it and skips temp-file cleanup — a crashed process would not
// have cleaned up either, and recovery must cope with the debris.
class InjectedCrash : public WriteError {
 public:
  using WriteError::WriteError;
};

enum class FaultMode : int {
  kNone = 0,
  kThrow,  // the N-th crash point throws InjectedCrash (leaves debris)
  kAbort,  // the N-th crash point terminates the process immediately
  kFail,   // every crash point from the N-th on throws WriteError (ENOSPC)
  kPause,  // the N-th crash point blocks its thread until resume()
};

// Process-global crash/fault injection (CrashPoint hook). Thread-safe.
// Also armed from the environment on first use: HDS_CRASH_STEP=<n> with
// HDS_CRASH_MODE=abort|throw|fail (abort by default), which is how the
// shell-level smoke test kills hds_tool mid-backup.
class CrashInjector {
 public:
  // Arms the injector: crash points are counted from 1, and the `step`-th
  // one triggers `mode`. With a `site`, only crash points of that name
  // count (e.g. "commit", the point before a journal's MANIFEST append).
  // Resets the step counter.
  static void arm(std::uint64_t step, FaultMode mode,
                  const char* site = nullptr) noexcept;
  // Disarms and releases a thread parked by kPause.
  static void disarm() noexcept;
  // kPause: blocks until a thread is parked at the armed crash point.
  static void wait_until_paused();
  // kPause: lets the parked thread continue (the injector stays armed but
  // has fired, so no later crash point parks).
  static void resume() noexcept;
  [[nodiscard]] static bool armed() noexcept;
  // Crash points passed since the last arm().
  [[nodiscard]] static std::uint64_t steps() noexcept;

  // Called by the durable writer at every write/fsync/rename site.
  static void crash_point(const char* site);
};

// Writes a file atomically. Typical use:
//   AtomicFileWriter out(path);
//   out.write(bytes);
//   out.commit();
// Destruction without commit() (including during exception unwind) removes
// the temp file, except after an InjectedCrash — see above.
class AtomicFileWriter {
 public:
  // Creates `<path>.tmp` for writing. Throws WriteError on failure.
  explicit AtomicFileWriter(std::filesystem::path path);
  ~AtomicFileWriter();

  AtomicFileWriter(const AtomicFileWriter&) = delete;
  AtomicFileWriter& operator=(const AtomicFileWriter&) = delete;

  // Appends bytes to the temp file, checking the result. Throws WriteError.
  void write(const void* data, std::size_t size);
  void write(std::span<const std::uint8_t> bytes) {
    write(bytes.data(), bytes.size());
  }
  void write(std::string_view text) { write(text.data(), text.size()); }

  // Durably publishes the file: flush + fsync + close + rename over the
  // target + fsync of the parent directory. Throws WriteError; on throw the
  // target file is untouched.
  void commit();

  // Abandons the write and removes the temp file. Idempotent.
  void abort() noexcept;

 private:
  void site(const char* name);  // crash point that tags InjectedCrash

  std::filesystem::path path_;
  std::filesystem::path tmp_;
  int fd_ = -1;
  bool committed_ = false;
  bool crashed_ = false;  // InjectedCrash in flight: leave debris behind
};

// One-shot helpers over AtomicFileWriter. All throw WriteError.
void atomic_write_file(const std::filesystem::path& path,
                       std::span<const std::uint8_t> bytes);
void atomic_write_file(const std::filesystem::path& path,
                       std::string_view text);

// Durable rename: rename + fsync of the parent directory, with crash
// points. Used to move a pre-epoch state file to its epoch-stamped name
// (journal.h) and a serve tenant's containers into its own store
// (server.h).
void atomic_rename(const std::filesystem::path& from,
                   const std::filesystem::path& to);

// Reads a whole file. nullopt when it is not a regular file or cannot be
// opened, sized or read — never a partial buffer.
std::optional<std::vector<std::uint8_t>> read_file(
    const std::filesystem::path& path);

// fsyncs a directory so a just-renamed entry survives power loss. Throws
// WriteError.
void fsync_directory(const std::filesystem::path& dir);

// Another process (or another open of the same file) holds the lock.
class LockedError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

// An exclusive flock(2) on `<dir>/LOCK`, released when the object dies —
// and by the kernel when its process does, so a crash leaves no stale
// lock. flock locks belong to an open file description: a second
// DirectoryLock on the same directory fails even inside one process.
class DirectoryLock {
 public:
  // Takes the lock without waiting. Throws LockedError when it is held,
  // WriteError when `<dir>/LOCK` cannot be created or locked.
  explicit DirectoryLock(const std::filesystem::path& dir);
  ~DirectoryLock();
  DirectoryLock(const DirectoryLock&) = delete;
  DirectoryLock& operator=(const DirectoryLock&) = delete;

  // True when some writer holds `<dir>/LOCK` right now. Creates nothing;
  // false when there is no lock file.
  [[nodiscard]] static bool held(const std::filesystem::path& dir);

 private:
  int fd_ = -1;
};

}  // namespace hds::durable
