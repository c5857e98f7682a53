#include "proc.h"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <ctime>
#include <fstream>
#include <sstream>

extern char** environ;

namespace perfbench {

namespace fs = std::filesystem;

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double cpu_s(bool this_thread) {
  timespec ts{};
  clock_gettime(this_thread ? CLOCK_THREAD_CPUTIME_ID : CLOCK_PROCESS_CPUTIME_ID,
                &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

namespace {

std::vector<char*> c_argv(const std::vector<std::string>& argv) {
  std::vector<char*> out;
  out.reserve(argv.size() + 1);
  for (const auto& a : argv) out.push_back(const_cast<char*>(a.c_str()));
  out.push_back(nullptr);
  return out;
}

std::string slurp(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

// Reaps `pid`, filling exit code and peak RSS.
void reap(pid_t pid, ProcResult& result) {
  int status = 0;
  rusage usage{};
  while (wait4(pid, &status, 0, &usage) < 0) {
    if (errno != EINTR) return;
  }
  result.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  result.max_rss_mb = static_cast<double>(usage.ru_maxrss) / 1024.0;
}

}  // namespace

ProcResult run_proc(const std::vector<std::string>& argv,
                    const fs::path& scratch) {
  ProcResult result;
  const fs::path out_path = scratch / "proc.out";
  const fs::path err_path = scratch / "proc.err";
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_addopen(&actions, 1, out_path.c_str(),
                                   O_WRONLY | O_CREAT | O_TRUNC, 0644);
  posix_spawn_file_actions_addopen(&actions, 2, err_path.c_str(),
                                   O_WRONLY | O_CREAT | O_TRUNC, 0644);
  auto args = c_argv(argv);
  pid_t pid = -1;
  const double t0 = now_s();
  const int rc =
      posix_spawn(&pid, args[0], &actions, nullptr, args.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  if (rc != 0) {
    result.err = "spawn failed: " + std::string(std::strerror(rc));
    return result;
  }
  reap(pid, result);
  result.wall_s = now_s() - t0;
  result.out = slurp(out_path);
  result.err = slurp(err_path);
  return result;
}

void quiesce(const fs::path& dir) {
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (fd < 0) return;
  (void)::syncfs(fd);
  ::close(fd);
}

ServerProc::~ServerProc() {
  if (pid_ > 0) (void)stop();
}

bool ServerProc::start(const std::vector<std::string>& argv,
                       const fs::path& err_path, std::string* error) {
  int fds[2];
  if (pipe2(fds, O_CLOEXEC) != 0) {
    *error = "pipe failed";
    return false;
  }
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, fds[1], 1);
  posix_spawn_file_actions_addopen(&actions, 2, err_path.c_str(),
                                   O_WRONLY | O_CREAT | O_TRUNC, 0644);
  auto args = c_argv(argv);
  started_s_ = now_s();
  const int rc =
      posix_spawn(&pid_, args[0], &actions, nullptr, args.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  ::close(fds[1]);
  out_fd_ = fds[0];
  if (rc != 0) {
    pid_ = -1;
    *error = "spawn failed: " + std::string(std::strerror(rc));
    return false;
  }
  // "serving tenants on 127.0.0.1:<port> ..." is the ready line.
  const std::string marker = "127.0.0.1:";
  const double deadline = now_s() + 30.0;
  while (now_s() < deadline) {
    pollfd p{out_fd_, POLLIN, 0};
    if (poll(&p, 1, 200) <= 0) continue;
    char buf[512];
    const ssize_t n = ::read(out_fd_, buf, sizeof buf);
    if (n <= 0) break;
    out_.append(buf, static_cast<std::size_t>(n));
    const auto at = out_.find(marker);
    if (at != std::string::npos && out_.find('\n', at) != std::string::npos) {
      port_ = static_cast<std::uint16_t>(
          std::stoul(out_.substr(at + marker.size())));
      return true;
    }
  }
  *error = "server did not report a port: " + out_;
  (void)stop();
  return false;
}

ProcResult ServerProc::stop() {
  ProcResult result;
  if (pid_ <= 0) return result;
  ::kill(pid_, SIGTERM);
  reap(pid_, result);
  result.wall_s = now_s() - started_s_;
  pid_ = -1;
  if (out_fd_ >= 0) {
    char buf[512];
    ssize_t n = 0;
    while ((n = ::read(out_fd_, buf, sizeof buf)) > 0) {
      out_.append(buf, static_cast<std::size_t>(n));
    }
    ::close(out_fd_);
    out_fd_ = -1;
  }
  result.out = out_;
  return result;
}

}  // namespace perfbench
