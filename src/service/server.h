// ServeServer — the multi-tenant front end behind `hds_tool serve`
// (DESIGN.md §15). One long-running process owns a serve repository:
//
//   <repo>/archival/        shared FileContainerStore(s) (all tenants)
//   <repo>/tenants/<name>/  one Repository per tenant
//   <repo>/quarantine/      startup orphan sweep output
//
// Each loopback connection is a session of length-prefixed request/
// response frames (wire.h) served by one worker end to end. `max_sessions`
// workers pull connections from a BoundedQueue of depth
// `pending_sessions`; when it is full the connection gets Status::kBusy
// and is closed. Per-tenant quotas reject oversized backups with
// Status::kQuotaExceeded before any chunk is ingested. Lock ranks:
// registry (4) → session set (5) → tenant (6) → everything below.
#pragma once

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "common/thread_annotations.h"
#include "core/hidestore.h"
#include "obs/metrics.h"
#include "parallel/mpmc_queue.h"
#include "service/repository.h"
#include "service/wire.h"

namespace hds::service {

// A tenant namespace: one Repository under <repo>/tenants/<name>/ over the
// shared stores, with private dedup state, recipes, deletion tags and
// catalog (DESIGN.md §15.2). One operation at a time per tenant; different
// tenants overlap, meeting only in the stores' thread-safe surface.
struct Tenant {
  std::string name;
  Mutex op_mu{lockrank::kServiceTenant};
  std::unique_ptr<Repository> repo HDS_GUARDED_BY(op_mu);
  // What only the service knows about the tenant: `sessions`, `restores`,
  // `quota_rejections` and the `retained_bytes` gauge. Its dedup, backup
  // and restore facts stay in its repository's registries.
  obs::MetricsRegistry metrics;
};

struct ServeConfig {
  std::filesystem::path repo;
  std::uint16_t port = 0;           // 0 = ephemeral (see ServeServer::port())
  std::size_t max_sessions = 4;     // concurrent sessions (worker threads)
  std::size_t pending_sessions = 8; // admission queue depth before kBusy
  // Per-tenant retained-logical-bytes ceiling; 0 = unlimited. Checked
  // before ingest, so a rejected backup changes nothing.
  std::uint64_t tenant_quota_bytes = 0;
  std::uint32_t max_frame_bytes = kMaxFrameBytes;
  // Per-direction socket timeout; a client that stalls longer mid-frame is
  // dropped (its session slot is what the timeout protects).
  int session_timeout_s = 30;
  // Base per-tenant HiDeStore configuration. storage_dir is ignored (each
  // tenant gets its own directory).
  HiDeStoreConfig tenant_config;
  // Fingerprint-space shards (DESIGN.md §16). One shared store per shard:
  // <repo>/archival for the default single shard (legacy layout),
  // <repo>/archival/shard_<i> otherwise. Every tenant gets this shard
  // count; tenants created under a different count are refused at load.
  std::size_t shards = 1;
};

class ServeServer {
 public:
  explicit ServeServer(ServeConfig config);
  ~ServeServer();

  ServeServer(const ServeServer&) = delete;
  ServeServer& operator=(const ServeServer&) = delete;

  // Opens (or initializes) the serve repository, recovers every tenant,
  // sweeps shared-store orphans, binds the loopback listener and spawns
  // the worker pool. False with a reason in `error` when the repository is
  // unusable (e.g. it is a single-tenant repo) or the port is taken.
  bool start(std::string* error = nullptr);

  // Stops accepting, aborts in-flight sessions at the next socket
  // operation, joins every thread. Tenant state is already durable — every
  // backup commits (state + catalog) before its response is sent.
  void stop();

  [[nodiscard]] bool running() const noexcept {
    return running_.load(std::memory_order_acquire);
  }
  // Bound port (resolves ephemeral requests after start()).
  [[nodiscard]] std::uint16_t port() const noexcept { return port_; }

  // Service-wide registry: admission gauges/counters (serve_*) and, when
  // sharded, the `shards` gauge.
  [[nodiscard]] obs::MetricsRegistry& metrics() noexcept { return metrics_; }

  // The /metrics exposition, gauges refreshed first: metrics(); each shared
  // store's store_* / io_* registry under {shard="i"} (unlabeled for one
  // shard); then per tenant its repository's parts and Tenant::metrics
  // under {tenant="<name>"} (plus {shard="i"} for shard registries). The
  // parts stay valid while the server lives: tenants are never dropped.
  [[nodiscard]] std::vector<obs::MetricsPart> metric_parts();

 private:
  void accept_loop();
  void worker_loop();
  void session_loop(int fd);
  [[nodiscard]] Response handle(const Request& req,
                                std::unordered_set<std::string>& seen);

  Response do_backup(Tenant& tenant, const Request& req);
  Response do_restore(Tenant& tenant, const Request& req);
  Response do_list(Tenant& tenant);
  Response do_stats(Tenant& tenant);
  Response do_fsck(Tenant& tenant);

  // Opens every tenant directory under <repo>/tenants and returns how many
  // opened. One that fails to load (another shard count, unrecoverable
  // state) is refused, never re-created: requests for it error and
  // nothing under it is written.
  std::size_t load_tenants();
  // Startup orphan sweep: quarantines shared-store containers no tenant
  // tags. Skipped while any tenant is refused: its tags are unknown.
  void reconcile_store(FileContainerStore* fstore);
  // The named tenant, created (and committed empty) on first use; nullptr
  // with the reason in `error` when refused or creation failed.
  std::shared_ptr<Tenant> open_tenant(const std::string& name,
                                      std::string& error);

  ServeConfig config_;
  obs::MetricsRegistry metrics_;
  std::vector<std::shared_ptr<ContainerStore>> stores_;  // one per shard
  // stores_[i]'s counter views (store_*, io_*).
  std::vector<std::unique_ptr<obs::MetricsRegistry>> store_metrics_;
  mutable Mutex tenants_mu_{lockrank::kServiceRegistry};
  std::map<std::string, std::shared_ptr<Tenant>, std::less<>> tenants_
      HDS_GUARDED_BY(tenants_mu_);
  // Tenants that failed to load, with the reason.
  std::map<std::string, std::string, std::less<>> refused_
      HDS_GUARDED_BY(tenants_mu_);
  std::unique_ptr<parallel::BoundedQueue<int>> queue_;
  std::atomic<bool> running_{false};
  int listen_fd_ = -1;
  std::uint16_t port_ = 0;
  std::thread accept_thread_;
  std::vector<std::thread> workers_;
  // Sessions currently inside session_loop(); stop() shutdown()s them so
  // workers blocked in recv() return promptly instead of riding out the
  // socket timeout. The owning worker still does the close().
  mutable Mutex session_mu_{lockrank::kServiceSessions};
  std::unordered_set<int> active_fds_ HDS_GUARDED_BY(session_mu_);
};

}  // namespace hds::service
