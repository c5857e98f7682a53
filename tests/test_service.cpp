// Tests for the multi-tenant serve front end (src/service): wire framing,
// concurrent per-tenant round trips over one shared container store,
// dedup-state isolation, quota rejection, admission backpressure (kBusy),
// restart persistence, refusal of tenants that fail to load, sharded-tenant
// recovery, the tenant-labeled metrics surface, and small-frame round-trip
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
#include "common/rng.h"
#include "core/hidestore.h"
#include "service/client.h"
#include "service/server.h"
#include "service/wire.h"
#include "storage/durable.h"
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

  // Interleaved backups + restores from two concurrent sessions against
  // the one shared store.
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
    // The shared store holds both tenants' containers; per-tenant fsck
    // must still come back clean (walks are scoped to the tenant's tags).
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

  // Tenant facts are the tenant's own metric families under a tenant
  // label; the shared store's counters carry no tenant at all.
  const std::string prom = obs::to_prometheus(server.metric_parts());
  for (const char* sample :
       {"sessions{tenant=\"alpha\"} 1\n", "restores{tenant=\"alpha\"} 1\n",
        "backups_completed{tenant=\"alpha\"} 1\n",
        "versions_retained{tenant=\"alpha\"} 1\n",
        "logical_bytes{tenant=\"alpha\"} ",
        "chunks_processed{tenant=\"alpha\"} ",
        "retained_bytes{tenant=\"alpha\"} ", "\nstore_container_writes ",
        "\nio_block_cache_hits ", "\nserve_sessions_accepted ",
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

}  // namespace
}  // namespace hds::service
