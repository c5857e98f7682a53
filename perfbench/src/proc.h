// Child processes for the benchmark: one hds_tool command at a time, timed
// from outside (spawn to reap), with the child's own peak RSS from wait4.
#pragma once

#include <sys/types.h>

#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

namespace perfbench {

struct ProcResult {
  int exit_code = -1;  // -1 when killed by a signal or not started
  double wall_s = 0.0;
  double max_rss_mb = 0.0;
  std::string out;
  std::string err;
};

// Runs argv to completion with stdout/stderr captured through files in
// `scratch`. Never throws for a failing child; a failed spawn reports
// exit_code -1 and the reason in `err`.
ProcResult run_proc(const std::vector<std::string>& argv,
                    const std::filesystem::path& scratch);

// A long-running `hds_tool serve`. start() returns once the server printed
// its port; stop() sends SIGTERM and reaps it. The destructor stops a
// server that is still running, so no child outlives its owner.
class ServerProc {
 public:
  ServerProc() = default;
  ~ServerProc();
  ServerProc(const ServerProc&) = delete;
  ServerProc& operator=(const ServerProc&) = delete;

  // The server's stderr goes to `err_path`.
  bool start(const std::vector<std::string>& argv,
             const std::filesystem::path& err_path, std::string* error);
  // Returns the server's result (exit code, lifetime wall, peak RSS).
  ProcResult stop();
  [[nodiscard]] std::uint16_t port() const noexcept { return port_; }

 private:
  pid_t pid_ = -1;
  int out_fd_ = -1;
  std::uint16_t port_ = 0;
  double started_s_ = 0.0;
  std::string out_;
};

// Writes back the dirty pages and pending deletes of the filesystem holding
// `dir`, so a timed operation does not pay for the benchmark's own earlier
// file writes and removals in its fsyncs.
void quiesce(const std::filesystem::path& dir);

// Monotonic seconds.
double now_s();
// CPU seconds of the whole process, or of the calling thread only.
double cpu_s(bool this_thread = false);

}  // namespace perfbench
