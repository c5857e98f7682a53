// Minimal embedded HTTP/1.1 listener — the live metrics surface behind
// `hds_tool serve-metrics` / `hds_tool serve`.
//
// Scope is deliberately tiny: GET-only, loopback-bound, one request per
// connection (Connection: close), fixed route table registered before
// start(). That is exactly what a Prometheus scraper or `curl
// localhost:PORT/metrics` needs and nothing more; request parsing stops at
// the first header line, so there is no header attack surface to speak of.
//
// Threading: start() spawns one accept thread plus a small worker pool.
// The accept thread only accepts and enqueues; workers serve connections,
// so one slow client cannot delay /healthz for everyone else. Both socket
// directions carry 2 s timeouts — a peer that stops reading mid-response is
// dropped, not waited on. When every worker is busy and the accept-side
// backlog is full, new connections get a best-effort 503 and are closed
// (backpressure, not queueing without bound). Handlers run on worker
// threads — they must be thread-safe against whatever else the process is
// doing (the metrics registry and profiler are; see their headers). stop()
// (or the destructor) shuts the listener down and joins every thread.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "common/thread_annotations.h"

namespace hds::obs {

class HttpServer {
 public:
  struct Response {
    int status = 200;
    std::string content_type = "text/plain; charset=utf-8";
    std::string body;
  };
  using Handler = std::function<Response()>;

  // `port` 0 binds an ephemeral port (see port() after start()). Listens on
  // 127.0.0.1 only — metrics are an operator surface, not a public one.
  // `workers` caps concurrent connection handling (min 1).
  explicit HttpServer(std::uint16_t port = 0, std::size_t workers = 4);
  ~HttpServer();

  HttpServer(const HttpServer&) = delete;
  HttpServer& operator=(const HttpServer&) = delete;

  // Registers a handler for an exact path ("/metrics"). Must be called
  // before start(); the route table is immutable while serving.
  void route(std::string path, Handler handler);

  // Binds, listens, and spawns the accept thread + workers. False (with
  // the reason on stderr left to the caller via errno) if the socket could
  // not be set up — e.g. the port is taken.
  bool start();

  // Stops accepting, closes the listener and queued connections, joins
  // every thread. Connections already being served finish. Idempotent.
  void stop();

  [[nodiscard]] bool running() const noexcept {
    return running_.load(std::memory_order_acquire);
  }
  // The bound port (resolves ephemeral requests after start()).
  [[nodiscard]] std::uint16_t port() const noexcept { return port_; }
  [[nodiscard]] std::uint64_t requests_served() const noexcept {
    return served_.load(std::memory_order_relaxed);
  }

 private:
  void accept_loop();
  void worker_loop();
  void handle_connection(int fd);

  std::uint16_t port_;
  std::size_t worker_count_;
  int listen_fd_ = -1;
  std::map<std::string, Handler> routes_;
  std::atomic<bool> running_{false};
  std::atomic<std::uint64_t> served_{0};
  std::thread accept_thread_;
  std::vector<std::thread> workers_;
  // Accepted-but-unserved connections. hds::Mutex + CondVar directly (not
  // parallel::BoundedQueue — obs must not depend on parallel).
  mutable Mutex mu_{lockrank::kHttpServer};
  CondVar queue_cv_;
  std::deque<int> pending_ HDS_GUARDED_BY(mu_);
  bool closed_ HDS_GUARDED_BY(mu_) = false;
};

}  // namespace hds::obs
