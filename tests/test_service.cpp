// Tests for the multi-tenant serve front end (src/service): wire framing,
// concurrent per-tenant round trips, dedup-state isolation, quota
// rejection, admission backpressure (kBusy), restart persistence, refusal
// of tenants that fail to load, sharded-tenant recovery, each tenant as a
// standalone repository (and the one-way migration of the old shared-store
// layout), the tenant-labeled metrics surface, and small-frame round-trip
// latency.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "chunking/chunk_stream.h"
#include "chunking/tttd.h"
#include "common/crc32.h"
#include "common/rng.h"
#include "core/hidestore.h"
#include "index/shard_space.h"
#include "service/client.h"
#include "service/server.h"
#include "service/wire.h"
#include "storage/durable.h"
#include "storage/journal.h"
#include "storage/manifest.h"
#include "verify/fsck.h"
#include "util/prometheus.h"
#include "util/temp_dir.h"

namespace hds::service {
namespace {

using testutil::sample_sum;
using testutil::TempDir;

std::vector<std::uint8_t> random_bytes(std::uint64_t seed, std::size_t size) {
  std::vector<std::uint8_t> bytes(size);
  Xoshiro256ss rng(seed);
  for (auto& b : bytes) b = static_cast<std::uint8_t>(rng.next());
  return bytes;
}

// Three versions with realistic overlap: v2 extends v1, v3 rewrites v2's
// head — the shape dedup and recipe chains exercise.
std::vector<std::vector<std::uint8_t>> make_versions(std::uint64_t seed) {
  std::vector<std::vector<std::uint8_t>> versions;
  versions.push_back(random_bytes(seed, 128 * 1024));
  auto v2 = versions[0];
  const auto tail = random_bytes(seed + 1, 16 * 1024);
  v2.insert(v2.end(), tail.begin(), tail.end());
  versions.push_back(v2);
  auto v3 = v2;
  const auto head = random_bytes(seed + 2, 8 * 1024);
  std::copy(head.begin(), head.end(), v3.begin());
  versions.push_back(std::move(v3));
  return versions;
}

Response must_call(ServeClient& client, const Request& req) {
  const auto resp = client.call(req);
  EXPECT_TRUE(resp.has_value()) << "transport failure";
  return resp.value_or(Response{Status::kError, "transport failure", {}});
}

Request backup_request(const std::string& tenant,
                       const std::vector<std::uint8_t>& data,
                       const std::string& label = "data") {
  Request req;
  req.op = Op::kBackup;
  req.tenant = tenant;
  req.label = label;
  req.data = data;
  return req;
}

Request restore_request(const std::string& tenant, std::uint32_t version) {
  Request req;
  req.op = Op::kRestore;
  req.tenant = tenant;
  req.version = version;
  return req;
}

bool wait_counter_at_least(obs::MetricsRegistry& metrics, const char* name,
                           std::uint64_t want) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (std::chrono::steady_clock::now() < deadline) {
    const auto* counter = metrics.find_counter(name);
    if (counter != nullptr && counter->value() >= want) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return false;
}

Request tenant_request(Op op, const std::string& tenant) {
  Request req;
  req.op = op;
  req.tenant = tenant;
  return req;
}

// Every regular file under `dir`, relative path -> bytes.
std::map<std::string, std::string> tree_bytes(
    const std::filesystem::path& dir) {
  std::map<std::string, std::string> out;
  for (const auto& entry :
       std::filesystem::recursive_directory_iterator(dir)) {
    if (!entry.is_regular_file()) continue;
    std::ifstream in(entry.path(), std::ios::binary);
    out[std::filesystem::relative(entry.path(), dir).string()] = std::string(
        std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
  }
  return out;
}

// A stopped-and-restarted server over `repo` at `shards` shards.
std::unique_ptr<ServeServer> start_server(const std::filesystem::path& repo,
                                          std::size_t shards) {
  ServeConfig config;
  config.repo = repo;
  config.shards = shards;
  auto server = std::make_unique<ServeServer>(config);
  std::string error;
  EXPECT_TRUE(server->start(&error)) << error;
  return server;
}

// --- Wire protocol ---

TEST(ServiceWire, RequestRoundTrip) {
  Request req;
  req.op = Op::kBackup;
  req.tenant = "alpha-1";
  req.label = "nightly";
  req.version = 7;
  req.data = {1, 2, 3, 0, 255};
  const auto decoded = decode_request(encode_request(req));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->op, Op::kBackup);
  EXPECT_EQ(decoded->tenant, "alpha-1");
  EXPECT_EQ(decoded->label, "nightly");
  EXPECT_EQ(decoded->version, 7u);
  EXPECT_EQ(decoded->data, req.data);
}

TEST(ServiceWire, ResponseRoundTripAndEmptyPayload) {
  Response resp;
  resp.status = Status::kQuotaExceeded;
  resp.message = "quota exceeded";
  const auto decoded = decode_response(encode_response(resp));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->status, Status::kQuotaExceeded);
  EXPECT_EQ(decoded->message, "quota exceeded");
  EXPECT_TRUE(decoded->data.empty());
}

TEST(ServiceWire, MalformedPayloadsAreRejected) {
  EXPECT_FALSE(decode_request({}).has_value());
  // Unknown opcode.
  const std::vector<std::uint8_t> bad_op = {99, 0, 0, 0, 0, 0, 0, 0, 0, 0};
  EXPECT_FALSE(decode_request(bad_op).has_value());
  // Truncated: tenant_len says 5 bytes but none follow.
  const std::vector<std::uint8_t> truncated = {0, 5};
  EXPECT_FALSE(decode_request(truncated).has_value());
  EXPECT_FALSE(decode_response({}).has_value());
  const std::vector<std::uint8_t> bad_status = {7, 0, 0, 0, 0};
  EXPECT_FALSE(decode_response(bad_status).has_value());
}

TEST(ServiceWire, TenantNameValidation) {
  EXPECT_TRUE(valid_tenant_name("alpha"));
  EXPECT_TRUE(valid_tenant_name("a-1_b"));
  EXPECT_FALSE(valid_tenant_name(""));
  EXPECT_FALSE(valid_tenant_name("Upper"));
  EXPECT_FALSE(valid_tenant_name("has space"));
  EXPECT_FALSE(valid_tenant_name("dot.dot"));
  EXPECT_FALSE(valid_tenant_name("../escape"));
  EXPECT_FALSE(valid_tenant_name(std::string(33, 'a')));
}

// --- End-to-end service behavior ---

TEST(ServeServer, TwoTenantsConcurrentRoundTrips) {
  TempDir dir("svc_roundtrip");
  ServeConfig config;
  config.repo = dir.path;
  config.max_sessions = 4;
  ServeServer server(config);
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;

  const std::vector<std::string> tenants = {"alpha", "bravo"};
  const std::vector<std::vector<std::vector<std::uint8_t>>> data = {
      make_versions(100), make_versions(200)};

  // Interleaved backups + restores from two concurrent sessions.
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < tenants.size(); ++t) {
    threads.emplace_back([&, t] {
      ServeClient client;
      ASSERT_TRUE(client.connect(server.port()));
      for (std::size_t v = 0; v < data[t].size(); ++v) {
        const auto resp = must_call(
            client, backup_request(tenants[t], data[t][v],
                                   "v" + std::to_string(v + 1)));
        EXPECT_EQ(resp.status, Status::kOk) << resp.message;
        // Read-your-writes inside the session, interleaved with the other
        // tenant's traffic.
        const auto back = must_call(
            client, restore_request(tenants[t],
                                    static_cast<std::uint32_t>(v + 1)));
        EXPECT_EQ(back.status, Status::kOk) << back.message;
        EXPECT_EQ(back.data, data[t][v]);
      }
    });
  }
  for (auto& thread : threads) thread.join();

  // Every version restores bit-identical — and identical to what a
  // standalone single-tenant system produces from the same input.
  for (std::size_t t = 0; t < tenants.size(); ++t) {
    HiDeStore solo;  // in-memory single-tenant reference
    TttdChunker chunker;
    ServeClient client;
    ASSERT_TRUE(client.connect(server.port()));
    for (std::size_t v = 0; v < data[t].size(); ++v) {
      (void)solo.backup(chunk_bytes(chunker, data[t][v]));
      const auto resp = must_call(
          client,
          restore_request(tenants[t], static_cast<std::uint32_t>(v + 1)));
      ASSERT_EQ(resp.status, Status::kOk) << resp.message;
      std::vector<std::uint8_t> reference;
      (void)solo.restore(static_cast<VersionId>(v + 1),
                         [&reference](const ChunkLoc&,
                                      std::span<const std::uint8_t> bytes) {
                           reference.insert(reference.end(), bytes.begin(),
                                            bytes.end());
                         });
      EXPECT_EQ(resp.data, reference);
      EXPECT_EQ(resp.data, data[t][v]);
    }
    // Per-tenant fsck comes back clean.
    Request fsck;
    fsck.op = Op::kFsck;
    fsck.tenant = tenants[t];
    const auto verdict = must_call(client, fsck);
    EXPECT_EQ(verdict.status, Status::kOk)
        << std::string(verdict.data.begin(), verdict.data.end());
  }
  server.stop();
}

TEST(ServeServer, TenantDedupStateIsIsolated) {
  TempDir dir("svc_isolation");
  ServeConfig config;
  config.repo = dir.path;
  ServeServer server(config);
  ASSERT_TRUE(server.start());

  const auto payload = random_bytes(42, 64 * 1024);
  ServeClient client;
  ASSERT_TRUE(client.connect(server.port()));
  EXPECT_EQ(must_call(client, backup_request("alpha", payload)).status,
            Status::kOk);
  EXPECT_EQ(must_call(client, backup_request("alpha", payload)).status,
            Status::kOk);

  // Tenant bravo sees none of alpha's versions...
  Request list;
  list.op = Op::kList;
  list.tenant = "bravo";
  const auto bravo_list = must_call(client, list);
  EXPECT_EQ(bravo_list.status, Status::kOk);
  EXPECT_TRUE(bravo_list.data.empty())
      << std::string(bravo_list.data.begin(), bravo_list.data.end());
  // ...and restoring alpha's version 1 under bravo fails.
  EXPECT_EQ(must_call(client, restore_request("bravo", 1)).status,
            Status::kError);
  // Dedup is per-tenant: bravo ingesting the same payload stores its own
  // copy (its stats report unique chunks, not a 100% dedup hit).
  EXPECT_EQ(must_call(client, backup_request("bravo", payload)).status,
            Status::kOk);
  const auto alpha_list_resp = [&] {
    Request req;
    req.op = Op::kList;
    req.tenant = "alpha";
    return must_call(client, req);
  }();
  const std::string alpha_list(alpha_list_resp.data.begin(),
                               alpha_list_resp.data.end());
  EXPECT_NE(alpha_list.find("version=1"), std::string::npos);
  EXPECT_NE(alpha_list.find("version=2"), std::string::npos);
  EXPECT_EQ(alpha_list.find("version=3"), std::string::npos);
  server.stop();
}

TEST(ServeServer, StateSurvivesRestart) {
  TempDir dir("svc_restart");
  const auto versions = make_versions(300);
  std::uint16_t port = 0;
  {
    ServeConfig config;
    config.repo = dir.path;
    ServeServer server(config);
    ASSERT_TRUE(server.start());
    port = server.port();
    ServeClient client;
    ASSERT_TRUE(client.connect(port));
    for (const auto& version : versions) {
      ASSERT_EQ(must_call(client, backup_request("alpha", version)).status,
                Status::kOk);
    }
    server.stop();
  }
  {
    ServeConfig config;
    config.repo = dir.path;
    ServeServer server(config);
    std::string error;
    ASSERT_TRUE(server.start(&error)) << error;
    ServeClient client;
    ASSERT_TRUE(client.connect(server.port()));
    for (std::size_t v = 0; v < versions.size(); ++v) {
      const auto resp = must_call(
          client, restore_request("alpha", static_cast<std::uint32_t>(v + 1)));
      ASSERT_EQ(resp.status, Status::kOk) << resp.message;
      EXPECT_EQ(resp.data, versions[v]);
    }
    // A tenant never written stays empty after the restart, too.
    EXPECT_EQ(must_call(client, restore_request("bravo", 1)).status,
              Status::kError);
    Request fsck;
    fsck.op = Op::kFsck;
    fsck.tenant = "alpha";
    EXPECT_EQ(must_call(client, fsck).status, Status::kOk);
    server.stop();
  }
}

TEST(ServeServer, RefusesTenantUnderDifferentShardCount) {
  TempDir dir("svc_shard_refuse");
  const auto payload = random_bytes(21, 96 * 1024);
  {
    auto server = start_server(dir.path, 2);
    ServeClient client;
    ASSERT_TRUE(client.connect(server->port()));
    ASSERT_EQ(must_call(client, backup_request("alpha", payload)).status,
              Status::kOk);
    server->stop();
  }
  const auto tenant_dir = dir.path / "tenants" / "alpha";
  const auto before = tree_bytes(tenant_dir);
  ASSERT_FALSE(before.empty());
  {
    // Four shards: the tenant was written at two. Every request for it
    // errors with the reason, and nothing is written under its directory.
    auto server = start_server(dir.path, 4);
    ServeClient client;
    ASSERT_TRUE(client.connect(server->port()));
    const auto backup = must_call(client, backup_request("alpha", payload));
    EXPECT_EQ(backup.status, Status::kError);
    EXPECT_NE(backup.message.find("records 2 shards"), std::string::npos)
        << backup.message;
    EXPECT_EQ(must_call(client, tenant_request(Op::kList, "alpha")).status,
              Status::kError);
    EXPECT_EQ(must_call(client, restore_request("alpha", 1)).status,
              Status::kError);
    // Other tenants are still served.
    EXPECT_EQ(must_call(client, backup_request("bravo", payload)).status,
              Status::kOk);
    server->stop();
  }
  EXPECT_EQ(tree_bytes(tenant_dir), before);
  {
    auto server = start_server(dir.path, 2);
    ServeClient client;
    ASSERT_TRUE(client.connect(server->port()));
    const auto back = must_call(client, restore_request("alpha", 1));
    ASSERT_EQ(back.status, Status::kOk) << back.message;
    EXPECT_EQ(back.data, payload);
    server->stop();
  }
}

TEST(ServeServer, ShardedTenantRecoversDamagedManifest) {
  TempDir dir("svc_shard_manifest");
  const auto versions = make_versions(500);
  {
    auto server = start_server(dir.path, 2);
    ServeClient client;
    ASSERT_TRUE(client.connect(server->port()));
    for (const auto& version : versions) {
      ASSERT_EQ(must_call(client, backup_request("alpha", version)).status,
                Status::kOk);
    }
    server->stop();
  }
  {
    // Garbage over the tenant's root MANIFEST: recovery rebuilds it from
    // the committed router state.
    std::ofstream manifest(dir.path / "tenants" / "alpha" / "MANIFEST",
                           std::ios::binary | std::ios::trunc);
    manifest << "not a manifest";
  }
  auto server = start_server(dir.path, 2);
  ServeClient client;
  ASSERT_TRUE(client.connect(server->port()));
  const auto list = must_call(client, tenant_request(Op::kList, "alpha"));
  ASSERT_EQ(list.status, Status::kOk) << list.message;
  EXPECT_EQ(list.message, std::to_string(versions.size()) + " version(s)");
  for (std::size_t v = 0; v < versions.size(); ++v) {
    const auto resp = must_call(
        client, restore_request("alpha", static_cast<std::uint32_t>(v + 1)));
    ASSERT_EQ(resp.status, Status::kOk) << resp.message;
    EXPECT_EQ(resp.data, versions[v]);
  }
  EXPECT_EQ(must_call(client, tenant_request(Op::kFsck, "alpha")).status,
            Status::kOk);
  server->stop();
}

TEST(ServeServer, QuotaRejectsWithoutIngesting) {
  TempDir dir("svc_quota");
  ServeConfig config;
  config.repo = dir.path;
  config.tenant_quota_bytes = 64 * 1024;
  ServeServer server(config);
  ASSERT_TRUE(server.start());
  ServeClient client;
  ASSERT_TRUE(client.connect(server.port()));

  // Over quota: rejected with the dedicated status, nothing stored.
  const auto big = random_bytes(7, 100 * 1024);
  const auto rejected = must_call(client, backup_request("alpha", big));
  EXPECT_EQ(rejected.status, Status::kQuotaExceeded) << rejected.message;
  EXPECT_EQ(must_call(client, restore_request("alpha", 1)).status,
            Status::kError);

  // Under quota still works — the session (and listener) survived.
  const auto small = random_bytes(8, 16 * 1024);
  EXPECT_EQ(must_call(client, backup_request("alpha", small)).status,
            Status::kOk);
  const auto back = must_call(client, restore_request("alpha", 1));
  EXPECT_EQ(back.data, small);

  EXPECT_GE(sample_sum(obs::to_prometheus(server.metric_parts()),
                       "quota_rejections{tenant=\"alpha\""),
            1u);
  server.stop();
}

TEST(ServeServer, AdmissionBackpressureAnswersBusy) {
  TempDir dir("svc_busy");
  ServeConfig config;
  config.repo = dir.path;
  config.max_sessions = 1;
  config.pending_sessions = 1;
  ServeServer server(config);
  ASSERT_TRUE(server.start());

  // Occupy the single worker: a served ping proves the session is live
  // (the worker is now blocked reading this connection's next frame).
  ServeClient holder;
  ASSERT_TRUE(holder.connect(server.port()));
  Request ping;
  ping.op = Op::kPing;
  EXPECT_EQ(must_call(holder, ping).status, Status::kOk);

  // Fill the pending queue with a second connection.
  ServeClient waiter;
  ASSERT_TRUE(waiter.connect(server.port()));
  ASSERT_TRUE(wait_counter_at_least(server.metrics(),
                                    "serve_sessions_accepted", 2));

  // The third connection must get an explicit kBusy, not an unbounded wait
  // — and must not wedge the listener.
  ServeClient rejected;
  ASSERT_TRUE(rejected.connect(server.port()));
  const auto busy = rejected.call(ping);
  ASSERT_TRUE(busy.has_value());
  EXPECT_EQ(busy->status, Status::kBusy);
  const auto* rejections =
      server.metrics().find_counter("serve_sessions_rejected");
  ASSERT_NE(rejections, nullptr);
  EXPECT_GE(rejections->value(), 1u);

  // Release the worker; the queued session gets served.
  holder.close();
  EXPECT_EQ(must_call(waiter, ping).status, Status::kOk);
  server.stop();
}

TEST(ServeServer, MetricsExposeTenantCounters) {
  TempDir dir("svc_metrics");
  ServeConfig config;
  config.repo = dir.path;
  ServeServer server(config);
  ASSERT_TRUE(server.start());
  ServeClient client;
  ASSERT_TRUE(client.connect(server.port()));
  const auto payload = random_bytes(9, 32 * 1024);
  ASSERT_EQ(must_call(client, backup_request("alpha", payload)).status,
            Status::kOk);
  ASSERT_EQ(must_call(client, restore_request("alpha", 1)).status,
            Status::kOk);

  // Tenant facts, its store's counters included, are the tenant's own
  // metric families under a tenant label.
  const std::string prom = obs::to_prometheus(server.metric_parts());
  for (const char* sample :
       {"sessions{tenant=\"alpha\"} 1\n", "restores{tenant=\"alpha\"} 1\n",
        "backups_completed{tenant=\"alpha\"} 1\n",
        "versions_retained{tenant=\"alpha\"} 1\n",
        "logical_bytes{tenant=\"alpha\"} ",
        "chunks_processed{tenant=\"alpha\"} ",
        "retained_bytes{tenant=\"alpha\"} ",
        "store_container_writes{tenant=\"alpha\"} ",
        "io_block_cache_hits{tenant=\"alpha\"} ", "\nserve_sessions_accepted ",
        "\nserve_pending_sessions "}) {
    EXPECT_NE(prom.find(sample), std::string::npos) << sample << "\n" << prom;
  }
  EXPECT_EQ(prom.find("tenant_"), std::string::npos) << prom;
  EXPECT_EQ(sample_sum(prom, "restored_bytes{tenant=\"alpha\""),
            payload.size());
  EXPECT_EQ(sample_sum(prom, "logical_bytes{tenant=\"alpha\""),
            payload.size());
  server.stop();
}

TEST(ServeServer, ListRoundTripsSkipDelayedAck) {
  // Each frame goes out in one write and both ends set TCP_NODELAY, so a
  // small request/response pair never waits on the peer's delayed ACK
  // (~40 ms on Linux when a frame's header is sent on its own).
  TempDir dir("svc_latency");
  ServeConfig config;
  config.repo = dir.path;
  ServeServer server(config);
  ASSERT_TRUE(server.start());
  ServeClient client;
  ASSERT_TRUE(client.connect(server.port()));
  ASSERT_EQ(
      must_call(client, backup_request("alpha", random_bytes(44, 64 * 1024)))
          .status,
      Status::kOk);

  const Request list = tenant_request(Op::kList, "alpha");
  std::vector<double> ms;
  for (int i = 0; i < 21; ++i) {
    const auto t0 = std::chrono::steady_clock::now();
    ASSERT_EQ(must_call(client, list).status, Status::kOk);
    ms.push_back(std::chrono::duration<double, std::milli>(
                     std::chrono::steady_clock::now() - t0)
                     .count());
  }
  std::nth_element(ms.begin(), ms.begin() + 10, ms.end());
  EXPECT_LT(ms[10], 10.0) << "median list round trip in ms";
  server.stop();
}

// --- Each tenant is a standalone repository ---

namespace fs = std::filesystem;

// Versions that each rewrite a fifth of the one before, so cold chunks
// reach archival containers from the second version on.
std::vector<std::vector<std::uint8_t>> rolling_versions(std::uint64_t seed,
                                                        int count) {
  std::vector<std::vector<std::uint8_t>> out{random_bytes(seed, 256 * 1024)};
  for (int v = 1; v < count; ++v) {
    auto next = out.back();
    const auto patch = random_bytes(seed + v, next.size() / 5);
    const std::size_t span = next.size() - patch.size();
    const auto at = static_cast<std::ptrdiff_t>(
        static_cast<std::size_t>(v) * 37 * 1024 % span);
    std::copy(patch.begin(), patch.end(), next.begin() + at);
    out.push_back(std::move(next));
  }
  return out;
}

// The directory of shard `i` of a tenant written at `shards` shards.
fs::path shard_root(const fs::path& tenant, std::size_t shards, std::size_t i) {
  return shards == 1 ? tenant : tenant / ("shard_" + std::to_string(i));
}

// The store of shard `i` in the layout a repository served before tenants
// owned their stores.
fs::path old_store(const fs::path& repo, std::size_t shards, std::size_t i) {
  return shards == 1 ? repo / "archival"
                     : repo / "archival" / ("shard_" + std::to_string(i));
}

std::vector<fs::path> container_files(const fs::path& dir) {
  std::vector<fs::path> out;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    if (entry.path().extension() == ".hdsc") out.push_back(entry.path());
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<std::uint8_t> restore_bytes(Repository& repo, VersionId version) {
  std::vector<std::uint8_t> out;
  (void)repo.restore(version, [&out](const ChunkLoc&,
                                     std::span<const std::uint8_t> bytes) {
    out.insert(out.end(), bytes.begin(), bytes.end());
  });
  return out;
}

void backup_all(std::uint16_t port, const std::string& tenant,
                const std::vector<std::vector<std::uint8_t>>& versions) {
  ServeClient client;
  ASSERT_TRUE(client.connect(port));
  for (const auto& version : versions) {
    ASSERT_EQ(must_call(client, backup_request(tenant, version)).status,
              Status::kOk);
  }
}

TEST(ServeServer, TenantDirectoryOpensAsARepository) {
  for (const std::size_t shards : {std::size_t{1}, std::size_t{4}}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    TempDir dir("svc_standalone");
    const auto versions = rolling_versions(600, 4);
    {
      auto server = start_server(dir.path, shards);
      backup_all(server->port(), "alpha", versions);
      server->stop();
    }
    EXPECT_FALSE(fs::exists(dir.path / "archival"));
    const auto tenant = dir.path / "tenants" / "alpha";
    std::size_t containers = 0;
    for (std::size_t i = 0; i < shards; ++i) {
      containers +=
          container_files(shard_root(tenant, shards, i) / "archival").size();
    }
    EXPECT_GT(containers, 0u);

    RecoveryReport report;
    auto repo = Repository::open(tenant, shards, &report);
    ASSERT_NE(repo, nullptr) << report.to_text();
    EXPECT_FALSE(report.performed) << report.to_text();
    EXPECT_EQ(repo->router().shard_count(), shards);
    for (std::size_t v = 0; v < versions.size(); ++v) {
      EXPECT_EQ(restore_bytes(*repo, static_cast<VersionId>(v + 1)),
                versions[v])
          << "version " << v + 1;
    }
    EXPECT_TRUE(verify::run_fsck(repo->router()).clean());
  }
}

TEST(ServeServer, UntaggedContainerInTenantStoreIsQuarantined) {
  for (const std::size_t shards : {std::size_t{1}, std::size_t{4}}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    TempDir dir("svc_tenant_orphan");
    const auto versions = rolling_versions(700, 3);
    {
      auto server = start_server(dir.path, shards);
      backup_all(server->port(), "alpha", versions);
      server->stop();
    }
    // Plant a copy of a sealed container under an id no tag names, in the
    // first shard store that holds one.
    const auto tenant = dir.path / "tenants" / "alpha";
    fs::path shard_dir, stray;
    for (std::size_t i = 0; i < shards && stray.empty(); ++i) {
      const auto files =
          container_files(shard_root(tenant, shards, i) / "archival");
      if (files.empty()) continue;
      shard_dir = shard_root(tenant, shards, i);
      const ContainerId id = shard_id_base(i) + (ContainerId{1} << 20);
      stray = shard_dir / "archival" /
              ("container_" + std::to_string(id) + ".hdsc");
      fs::copy_file(files.front(), stray);
    }
    ASSERT_FALSE(stray.empty());
    {
      auto server = start_server(dir.path, shards);
      ServeClient client;
      ASSERT_TRUE(client.connect(server->port()));
      const auto fsck = must_call(client, tenant_request(Op::kFsck, "alpha"));
      EXPECT_EQ(fsck.status, Status::kOk)
          << std::string(fsck.data.begin(), fsck.data.end());
      server->stop();
    }
    EXPECT_FALSE(fs::exists(stray));
    EXPECT_TRUE(fs::exists(shard_dir / "quarantine" / stray.filename()));

    // fsck's whole-store walks cover every container file the tenant holds.
    std::size_t containers = 0;
    for (std::size_t i = 0; i < shards; ++i) {
      containers +=
          container_files(shard_root(tenant, shards, i) / "archival").size();
    }
    auto repo = Repository::open(tenant, shards);
    ASSERT_NE(repo, nullptr);
    using verify::Invariant;
    const auto report = verify::run_fsck(repo->router());
    for (const auto invariant :
         {Invariant::kContainerFraming, Invariant::kDeletionTags,
          Invariant::kOrphanContainers}) {
      EXPECT_TRUE(report.check(invariant).passed()) << report.to_text();
    }
    EXPECT_EQ(report.check(Invariant::kContainerFraming).objects_checked,
              containers);
  }
}

TEST(ServeServer, UnreadableTenantIsRefusedOthersServed) {
  TempDir dir("svc_unreadable");
  const auto payload = random_bytes(31, 64 * 1024);
  {
    auto server = start_server(dir.path, 1);
    backup_all(server->port(), "alpha", {payload});
    backup_all(server->port(), "bravo", {payload});
    server->stop();
  }
  // Recovery acts on alpha (it sweeps the *.tmp), so opening it reads the
  // catalog, and a directory stands where the catalog file belongs.
  const auto alpha = dir.path / "tenants" / "alpha";
  { std::ofstream(alpha / "state.9.hds.tmp") << "partial"; }
  fs::remove(alpha / "catalog.hds");
  fs::create_directory(alpha / "catalog.hds");

  auto server = start_server(dir.path, 1);
  ServeClient client;
  ASSERT_TRUE(client.connect(server->port()));
  for (const auto& req :
       {backup_request("alpha", payload), restore_request("alpha", 1),
        tenant_request(Op::kList, "alpha")}) {
    const auto resp = must_call(client, req);
    EXPECT_EQ(resp.status, Status::kError);
    EXPECT_NE(resp.message.find("catalog.hds"), std::string::npos)
        << resp.message;
  }
  const auto back = must_call(client, restore_request("bravo", 1));
  ASSERT_EQ(back.status, Status::kOk) << back.message;
  EXPECT_EQ(back.data, payload);
  EXPECT_EQ(must_call(client, backup_request("bravo", payload)).status,
            Status::kOk);
  server->stop();
}

// Rebuilds, from a repository this server wrote, the layout one served
// before tenants owned their stores: every container in
// <repo>/archival[/shard_<i>], and each state file recording placement 2
// (with its CRC trailer and MANIFEST record to match).
void rebuild_shared_layout(const fs::path& repo,
                           const std::vector<std::string>& tenants,
                           std::size_t shards) {
  // magic, format, epoch, container size, threshold, window, materialize,
  // flatten: the placement byte follows.
  constexpr std::size_t kPlacement = 4 + 4 + 8 + 8 + 8 + 4 + 1 + 1;
  for (const auto& name : tenants) {
    for (std::size_t i = 0; i < shards; ++i) {
      const auto sdir = shard_root(repo / "tenants" / name, shards, i);
      const auto to = old_store(repo, shards, i);
      fs::create_directories(to);
      for (const auto& file : container_files(sdir / "archival")) {
        ASSERT_FALSE(fs::exists(to / file.filename())) << file;
        fs::rename(file, to / file.filename());
      }
      fs::remove(sdir / "archival");
      for (const auto& entry : fs::directory_iterator(sdir)) {
        if (!journal::parse_file_name(journal::kStateStem,
                                      entry.path().filename().string())) {
          continue;
        }
        auto bytes = *durable::read_file(entry.path());
        ASSERT_EQ(bytes[kPlacement], 0);
        bytes[kPlacement] = 2;
        const std::uint32_t crc = crc32(bytes.data(), bytes.size() - 4);
        for (std::size_t b = 0; b < 4; ++b) {
          bytes[bytes.size() - 4 + b] =
              static_cast<std::uint8_t>(crc >> (8 * b));
        }
        durable::atomic_write_file(entry.path(), bytes);
        Manifest manifest;
        ASSERT_EQ(load_manifest(sdir, manifest), ManifestStatus::kOk);
        manifest.records.back().state_crc = crc32(bytes.data(), bytes.size());
        store_manifest(sdir, manifest);
      }
    }
  }
}

TEST(ServeServer, SharedStoreLayoutMigratesOnStart) {
  for (const std::size_t shards : {std::size_t{1}, std::size_t{4}}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    TempDir dir("svc_migrate");
    const std::map<std::string, std::vector<std::vector<std::uint8_t>>> data =
        {{"alpha", rolling_versions(800, 4)},
         {"bravo", rolling_versions(900, 3)}};
    {
      // One counter per shared store gave every tenant disjoint ids; bravo's
      // stores start far past alpha's to keep that true here.
      ShardRouterConfig config;
      config.shards = shards;
      config.base.storage_dir = dir.path / "tenants" / "bravo";
      auto bravo = Repository::create(config);
      for (std::size_t i = 0; i < shards; ++i) {
        bravo->router().shard(i).archival_store().restore_next_id(
            shard_id_base(i) + (ContainerId{1} << 22));
      }
      bravo->router().save(config.base.storage_dir);
    }
    {
      auto server = start_server(dir.path, shards);
      for (const auto& [name, versions] : data) {
        backup_all(server->port(), name, versions);
      }
      server->stop();
    }
    {
      auto alpha = Repository::open(dir.path / "tenants" / "alpha", shards);
      ASSERT_NE(alpha, nullptr);
      EXPECT_GT(alpha->expire(1).containers_erased, 0u);
    }
    rebuild_shared_layout(dir.path, {"alpha", "bravo"}, shards);
    // One container no tenant tags: a backup whose commit never landed.
    const auto first = container_files(old_store(dir.path, shards, 0));
    ASSERT_FALSE(first.empty());
    const std::string stray = "container_" +
                              std::to_string(ContainerId{1} << 23) + ".hdsc";
    fs::copy_file(first.front(), old_store(dir.path, shards, 0) / stray);

    // A start killed after its first container move: the next one finishes.
    durable::CrashInjector::arm(3, durable::FaultMode::kThrow);
    start_server(dir.path, shards)->stop();
    EXPECT_GE(durable::CrashInjector::steps(), 3u);
    durable::CrashInjector::disarm();
    EXPECT_TRUE(fs::exists(old_store(dir.path, shards, 0) / stray));

    {
      auto server = start_server(dir.path, shards);
      ServeClient client;
      ASSERT_TRUE(client.connect(server->port()));
      for (const auto& [name, versions] : data) {
        const VersionId oldest = name == "alpha" ? 2 : 1;
        for (VersionId v = oldest; v <= versions.size(); ++v) {
          const auto resp = must_call(client, restore_request(name, v));
          ASSERT_EQ(resp.status, Status::kOk) << name << " " << resp.message;
          EXPECT_EQ(resp.data, versions[v - 1]) << name << " version " << v;
        }
        const auto fsck = must_call(client, tenant_request(Op::kFsck, name));
        EXPECT_EQ(fsck.status, Status::kOk)
            << std::string(fsck.data.begin(), fsck.data.end());
      }
      server->stop();
    }
    EXPECT_FALSE(fs::exists(dir.path / "archival"));
    EXPECT_TRUE(fs::exists(dir.path / "quarantine" / stray));

    // A second start finds nothing to do.
    const auto before = tree_bytes(dir.path);
    start_server(dir.path, shards)->stop();
    EXPECT_EQ(tree_bytes(dir.path), before);
    for (const auto& [name, versions] : data) {
      RecoveryReport report;
      auto repo =
          Repository::open(dir.path / "tenants" / name, shards, &report);
      ASSERT_NE(repo, nullptr) << report.to_text();
      EXPECT_FALSE(report.performed) << report.to_text();
      EXPECT_TRUE(report.missing_containers.empty()) << report.to_text();
      EXPECT_TRUE(verify::run_fsck(repo->router()).clean());
    }
  }
}

TEST(ServeServer, RefusesSingleTenantRepository) {
  TempDir dir("svc_refuse");
  // A single-tenant repository keeps its state file at its root.
  HiDeStoreConfig solo_config;
  solo_config.storage_dir = dir.path;
  HiDeStore solo(solo_config);
  solo.save(dir.path);

  ServeConfig config;
  config.repo = dir.path;
  ServeServer server(config);
  std::string error;
  EXPECT_FALSE(server.start(&error));
  EXPECT_NE(error.find("single-tenant"), std::string::npos) << error;
}

TEST(ServeServer, RefusesShardedRepositoryWithoutWriting) {
  TempDir dir("svc_refuse_sharded");
  // A sharded CLI repository keeps its router state and MANIFEST at its
  // root and its shards in shard_<i>/.
  {
    ShardRouterConfig repo_config;
    repo_config.shards = 2;
    repo_config.base.storage_dir = dir.path;
    ASSERT_NE(Repository::create(repo_config), nullptr);
  }
  const auto listing = [&] {
    std::vector<std::string> names;
    for (const auto& entry : fs::recursive_directory_iterator(dir.path)) {
      names.push_back(fs::relative(entry.path(), dir.path).string());
    }
    std::sort(names.begin(), names.end());
    return names;
  };
  const auto before = listing();

  ServeConfig config;
  config.repo = dir.path;
  ServeServer server(config);
  std::string error;
  EXPECT_FALSE(server.start(&error));
  EXPECT_NE(error.find("single-tenant"), std::string::npos) << error;
  EXPECT_EQ(listing(), before);
  EXPECT_FALSE(fs::exists(dir.path / "tenants"));
}

}  // namespace
}  // namespace hds::service
