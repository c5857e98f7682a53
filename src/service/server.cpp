#include "service/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <exception>
#include <iterator>

#include "obs/log.h"
#include "storage/durable.h"
#include "storage/recovery.h"
#include "verify/fsck.h"

namespace hds::service {

namespace {

// Moves each of `ids` that the old shared store at `old_store` holds into
// tenant `name`'s own store of the shard that owns it.
void move_in(const std::string& name, ShardRouter& sys,
             const std::filesystem::path& old_store,
             const std::vector<ContainerId>& ids) {
  const std::size_t shards = sys.shard_count();
  std::size_t moved = 0;
  for (const ContainerId id : ids) {
    const std::size_t shard = shards > 1 ? shard_of_container(id) : 0;
    if (shard >= shards) continue;
    const auto to =
        static_cast<FileContainerStore&>(sys.shard(shard).archival_store())
            .container_path(id);
    const auto from =
        (shards > 1 ? old_store / ("shard_" + std::to_string(shard))
                    : old_store) /
        to.filename();
    std::error_code ec;
    if (!std::filesystem::exists(from, ec)) continue;
    durable::atomic_rename(from, to);
    ++moved;
  }
  if (obs::log_enabled(obs::LogLevel::kInfo)) {
    obs::log_info("tenant_containers_moved",
                  {{"tenant", name}, {"containers", moved}});
  }
}

// True when `dir` holds no entry but, at most, the writer's lock file.
bool holds_nothing(const std::filesystem::path& dir) {
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    if (entry.path().filename() != "LOCK") return false;
  }
  return !ec;
}

}  // namespace

ServeServer::ServeServer(ServeConfig config) : config_(std::move(config)) {
  if (config_.max_sessions == 0) config_.max_sessions = 1;
  if (config_.pending_sessions == 0) config_.pending_sessions = 1;
  if (config_.session_timeout_s <= 0) config_.session_timeout_s = 30;
}

ServeServer::~ServeServer() { stop(); }

bool ServeServer::start(std::string* error) {
  const auto fail = [&](std::string reason) {
    if (error != nullptr) *error = std::move(reason);
    return false;
  };
  if (running()) return true;

  // A single-tenant repository, of any shard count, keeps its state at
  // its root; serving on top of one would write tenants/ into it and take
  // its archival/ for an old shared store. Refuse before writing anything
  // — serve repositories are their own layout.
  std::error_code ec;
  if (Repository::exists(config_.repo)) {
    return fail("refusing to serve a single-tenant repository (its "
                "committed state is at the root): " +
                config_.repo.string());
  }
  if (config_.shards == 0 || config_.shards > kMaxShards) {
    return fail("--shards wants 1.." + std::to_string(kMaxShards));
  }
  std::filesystem::create_directories(config_.repo / "tenants", ec);
  const std::size_t opened = load_tenants();

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (listen_fd_ < 0) return fail("socket() failed");
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(config_.port);
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) <
          0 ||
      ::listen(listen_fd_, 16) < 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return fail("cannot bind 127.0.0.1:" + std::to_string(config_.port));
  }
  socklen_t len = sizeof addr;
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len) ==
      0) {
    port_ = ntohs(addr.sin_port);
  }

  queue_ =
      std::make_unique<parallel::BoundedQueue<int>>(config_.pending_sessions);
  queue_->attach_depth_gauge(&metrics_.gauge("serve_pending_sessions"));

  running_.store(true, std::memory_order_release);
  workers_.reserve(config_.max_sessions);
  for (std::size_t i = 0; i < config_.max_sessions; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
  accept_thread_ = std::thread([this] { accept_loop(); });
  if (obs::log_enabled(obs::LogLevel::kInfo)) {
    obs::log_info("serve_started", {{"port", port_},
                                    {"tenants", opened},
                                    {"max_sessions", config_.max_sessions}});
  }
  return true;
}

void ServeServer::stop() {
  if (!running_.exchange(false, std::memory_order_acq_rel)) return;
  ::shutdown(listen_fd_, SHUT_RDWR);
  ::close(listen_fd_);
  if (accept_thread_.joinable()) accept_thread_.join();
  listen_fd_ = -1;  // only after the join: the accept loop reads this field
  // Release the workers: wake queue waiters, abort in-flight sessions at
  // their next socket op (the owning worker closes the fd).
  queue_->close();
  {
    MutexLock lock(session_mu_);
    for (const int fd : active_fds_) ::shutdown(fd, SHUT_RDWR);
  }
  for (auto& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
  workers_.clear();
  // Drain connections that were queued but never picked up.
  while (const auto fd = queue_->try_pop()) ::close(*fd);
}

void ServeServer::accept_loop() {
  while (running()) {
    const int fd = ::accept4(listen_fd_, nullptr, nullptr, SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EINTR) continue;
      break;  // listener closed by stop()
    }
    timeval tv{};
    tv.tv_sec = config_.session_timeout_s;
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
    ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof tv);
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    if (queue_->try_push(fd)) {
      metrics_.counter("serve_sessions_accepted").inc();
      continue;
    }
    // Backpressure: every worker busy and the queue full. Tell the client
    // explicitly instead of letting it wait on an unbounded backlog.
    metrics_.counter("serve_sessions_rejected").inc();
    Response busy;
    busy.status = Status::kBusy;
    busy.message = "server busy: all session slots taken, retry later";
    (void)write_frame(fd, encode_response(busy));
    // Drain whatever the client already sent before closing: data arriving
    // after close() would trigger an RST that flushes the busy frame out of
    // the client's receive buffer before it can read it. Bounded by a short
    // receive timeout so a hostile peer cannot stall the accept loop.
    ::shutdown(fd, SHUT_WR);
    timeval drain_tv{};
    drain_tv.tv_usec = 250 * 1000;
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &drain_tv, sizeof drain_tv);
    char sink[1024];
    while (::recv(fd, sink, sizeof sink, 0) > 0) {
    }
    ::close(fd);
  }
}

void ServeServer::worker_loop() {
  while (auto fd = queue_->pop()) {
    {
      MutexLock lock(session_mu_);
      active_fds_.insert(*fd);
      metrics_.gauge("serve_active_sessions")
          .set(static_cast<double>(active_fds_.size()));
    }
    session_loop(*fd);
    {
      MutexLock lock(session_mu_);
      active_fds_.erase(*fd);
      metrics_.gauge("serve_active_sessions")
          .set(static_cast<double>(active_fds_.size()));
    }
    ::close(*fd);
  }
}

void ServeServer::session_loop(int fd) {
  // Tenants this connection has touched — each counts one session.
  std::unordered_set<std::string> seen;
  while (running()) {
    const auto frame = read_frame(fd, config_.max_frame_bytes);
    if (!frame.has_value()) break;  // peer done, stalled, or oversized
    Response resp;
    if (const auto req = decode_request(*frame)) {
      metrics_.counter("serve_requests").inc();
      try {
        resp = handle(*req, seen);
      } catch (const std::exception& e) {
        resp.status = Status::kError;
        resp.message = std::string("operation failed: ") + e.what();
      }
    } else {
      resp.status = Status::kError;
      resp.message = "malformed request frame";
    }
    if (resp.status != Status::kOk) {
      metrics_.counter("serve_request_errors").inc();
    }
    if (!write_frame(fd, encode_response(resp))) break;
  }
}

Response ServeServer::handle(const Request& req,
                             std::unordered_set<std::string>& seen) {
  Response resp;
  if (req.op == Op::kPing) {
    resp.message = "pong";
    return resp;
  }
  if (!valid_tenant_name(req.tenant)) {
    resp.status = Status::kError;
    resp.message = "invalid tenant name (want [a-z0-9_-]{1,32}): '" +
                   req.tenant + "'";
    return resp;
  }
  std::string error;
  const auto tenant = open_tenant(req.tenant, error);
  if (tenant == nullptr) {
    resp.status = Status::kError;
    resp.message = error;
    return resp;
  }
  if (seen.insert(req.tenant).second) {
    tenant->metrics.counter("sessions").inc();
  }
  switch (req.op) {
    case Op::kBackup:  return do_backup(*tenant, req);
    case Op::kRestore: return do_restore(*tenant, req);
    case Op::kList:    return do_list(*tenant);
    case Op::kStats:   return do_stats(*tenant);
    case Op::kFsck:    return do_fsck(*tenant);
    case Op::kPing:    break;  // handled above
  }
  resp.status = Status::kError;
  resp.message = "unknown operation";
  return resp;
}

Response ServeServer::do_backup(Tenant& tenant, const Request& req) {
  Response resp;
  MutexLock op(tenant.op_mu);
  if (config_.tenant_quota_bytes > 0) {
    const std::uint64_t retained = tenant.repo->retained_bytes();
    if (retained + req.data.size() > config_.tenant_quota_bytes) {
      tenant.metrics.counter("quota_rejections").inc();
      resp.status = Status::kQuotaExceeded;
      resp.message = "quota exceeded: retained " + std::to_string(retained) +
                     " + incoming " + std::to_string(req.data.size()) +
                     " > " + std::to_string(config_.tenant_quota_bytes);
      return resp;
    }
  }
  const BackupReport report = tenant.repo->backup(req.data, req.label);
  resp.message = "version=" + std::to_string(report.version) +
                 " logical_bytes=" + std::to_string(report.logical_bytes) +
                 " stored_bytes=" + std::to_string(report.stored_bytes) +
                 " chunks=" + std::to_string(report.logical_chunks);
  return resp;
}

Response ServeServer::do_restore(Tenant& tenant, const Request& req) {
  Response resp;
  MutexLock op(tenant.op_mu);
  const VersionId version =
      req.version == 0 ? tenant.repo->router().latest_version() : req.version;
  if (!tenant.repo->retains(version)) {
    resp.status = Status::kError;
    resp.message = "no such version: " + std::to_string(version);
    return resp;
  }
  // One allocation for the whole response instead of repeated regrowth.
  resp.data.reserve(tenant.repo->router().version_logical_bytes(version));
  const RestoreReport report = tenant.repo->restore(
      version, [&resp](const ChunkLoc&, std::span<const std::uint8_t> bytes) {
        resp.data.insert(resp.data.end(), bytes.begin(), bytes.end());
      });
  if (report.stats.failed_chunks > 0) {
    resp.status = Status::kError;
    resp.message = std::to_string(report.stats.failed_chunks) +
                   " chunk(s) failed to restore";
    return resp;
  }
  tenant.metrics.counter("restores").inc();
  resp.message = "version=" + std::to_string(version) +
                 " bytes=" + std::to_string(report.stats.restored_bytes) +
                 " container_reads=" +
                 std::to_string(report.stats.container_reads);
  return resp;
}

Response ServeServer::do_list(Tenant& tenant) {
  Response resp;
  MutexLock op(tenant.op_mu);
  const ShardRouter& sys = tenant.repo->router();
  std::string text;
  for (const VersionId v : sys.versions()) {
    text += "version=" + std::to_string(v) + " logical_bytes=" +
            std::to_string(sys.version_logical_bytes(v)) +
            " chunks=" + std::to_string(sys.version_chunk_count(v));
    if (const auto* files = tenant.repo->files(v);
        files != nullptr && !files->empty()) {
      text += " label=" + files->front().path;
    }
    text += "\n";
  }
  resp.message = std::to_string(sys.version_count()) + " version(s)";
  resp.data.assign(text.begin(), text.end());
  return resp;
}

Response ServeServer::do_stats(Tenant& tenant) {
  Response resp;
  MutexLock op(tenant.op_mu);
  const std::string text =
      obs::to_prometheus(tenant.repo->router().metric_parts());
  resp.message = "tenant=" + tenant.name;
  resp.data.assign(text.begin(), text.end());
  return resp;
}

Response ServeServer::do_fsck(Tenant& tenant) {
  Response resp;
  MutexLock op(tenant.op_mu);
  const verify::FsckReport report = verify::run_fsck(tenant.repo->router());
  const std::string text = report.to_text();
  resp.data.assign(text.begin(), text.end());
  if (report.clean()) {
    resp.message = "clean";
  } else {
    resp.status = Status::kError;
    resp.message = std::to_string(report.total_violations()) +
                   " violation(s)";
  }
  return resp;
}

std::vector<obs::MetricsPart> ServeServer::metric_parts() {
  std::vector<obs::MetricsPart> parts{{{}, metrics_}};
  std::vector<std::shared_ptr<Tenant>> all;
  {
    MutexLock lock(tenants_mu_);
    for (const auto& entry : tenants_) all.push_back(entry.second);
  }
  metrics_.gauge("serve_tenants").set(static_cast<double>(all.size()));
  for (const auto& tenant : all) {
    const obs::Labels labels{{"tenant", tenant->name}};
    MutexLock op(tenant->op_mu);
    tenant->metrics.gauge("retained_bytes")
        .set(static_cast<double>(tenant->repo->retained_bytes()));
    std::ranges::copy(tenant->repo->router().metric_parts(labels),
                      std::back_inserter(parts));
    parts.push_back({labels, tenant->metrics});
  }
  return parts;
}

std::size_t ServeServer::load_tenants() {
  namespace fs = std::filesystem;
  std::error_code ec;
  std::vector<fs::path> dirs;
  for (const auto& entry :
       fs::directory_iterator(config_.repo / "tenants", ec)) {
    if (entry.is_directory()) dirs.push_back(entry.path());
  }
  std::sort(dirs.begin(), dirs.end());
  const fs::path old_store = config_.repo / "archival";
  const bool migrating = fs::is_directory(old_store, ec);
  MutexLock lock(tenants_mu_);
  for (const auto& dir : dirs) {
    const std::string name = dir.filename().string();
    // An empty directory holds nothing to lose (a lock file left by a
    // create that died before its first commit is not a repository): the
    // name is created on first use like a new one.
    if (!valid_tenant_name(name) || holds_nothing(dir)) continue;
    auto tenant = std::make_shared<Tenant>();
    tenant->name = name;
    std::string reason;
    {
      MutexLock op(tenant->op_mu);
      RecoveryReport report;
      try {
        tenant->repo = Repository::open(dir, config_.shards, &report);
        if (tenant->repo != nullptr && migrating &&
            !report.missing_containers.empty()) {
          move_in(name, tenant->repo->router(), old_store,
                  report.missing_containers);
          tenant->repo.reset();  // close before reopening over the moves
          report = RecoveryReport{};
          tenant->repo = Repository::open(dir, config_.shards, &report);
        }
      } catch (const std::exception& e) {
        tenant->repo.reset();
        reason = e.what();
      }
      if (tenant->repo == nullptr && reason.empty()) {
        reason = "state is unrecoverable";
        for (const auto& note : report.notes) reason += "; " + note;
      }
    }
    if (reason.empty()) {
      tenants_.emplace(name, std::move(tenant));
      continue;
    }
    obs::log_warn("tenant_open_failed", {{"tenant", name}, {"reason", reason}});
    refused_.emplace(name, "tenant '" + name +
                               "' failed to load and is not served: " +
                               reason);
  }
  if (!refused_.empty()) {
    metrics_.counter("serve_tenants_unrecoverable").inc(refused_.size());
  } else if (migrating) {
    // Every tenant has its containers: what the old store still holds was
    // sealed by a backup whose commit never landed. Keep it recoverable,
    // off the books.
    std::vector<fs::path> orphans;
    for (const auto& entry : fs::recursive_directory_iterator(old_store, ec)) {
      if (entry.is_regular_file()) orphans.push_back(entry.path());
    }
    std::sort(orphans.begin(), orphans.end());
    RecoveryReport report;
    for (const auto& path : orphans) {
      quarantine_file(config_.repo, path, report);
      obs::log_warn("orphan_container_quarantined",
                    {{"file", path.filename().string()}});
    }
    fs::remove_all(old_store, ec);
  }
  metrics_.gauge("serve_tenants").set(static_cast<double>(tenants_.size()));
  return tenants_.size();
}

std::shared_ptr<Tenant> ServeServer::open_tenant(const std::string& name,
                                                 std::string& error) {
  MutexLock lock(tenants_mu_);
  if (const auto it = tenants_.find(name); it != tenants_.end()) {
    return it->second;
  }
  if (const auto it = refused_.find(name); it != refused_.end()) {
    error = it->second;
    return nullptr;
  }
  auto tenant = std::make_shared<Tenant>();
  tenant->name = name;
  {
    MutexLock op(tenant->op_mu);
    ShardRouterConfig config;
    config.shards = config_.shards;
    config.base = config_.tenant_config;
    config.base.storage_dir = config_.repo / "tenants" / name;
    try {
      // Commit the empty namespace at once, so a restart (or a crash
      // before the first backup commits) still knows the tenant.
      tenant->repo = Repository::create(config);
    } catch (const std::exception& e) {
      error = "cannot create tenant '" + name + "': " + e.what();
      return nullptr;
    }
  }
  return tenants_.emplace(name, std::move(tenant)).first->second;
}

}  // namespace hds::service
