// The sharded serve tier: the consistent-hash ring's determinism, balance,
// and minimal-movement bounds; the protocol-v2 envelope's render/parse
// round trips (including the byte-stability the router's re-rendering
// relies on); dispatcher shard-ownership redirects and per-client quotas;
// and the router end to end over unix sockets — correct-shard routing,
// v1 clients through a v2 mesh, stale ring views healed by redirects, and
// a multi-shard drain that answers everything admitted.
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/result_cache.hpp"
#include "core/sweep.hpp"
#include "serve/client.hpp"
#include "serve/dispatcher.hpp"
#include "serve/listener.hpp"
#include "serve/protocol.hpp"
#include "serve/router.hpp"
#include "serve/server.hpp"
#include "util/fingerprint.hpp"
#include "util/json.hpp"
#include "util/metrics.hpp"
#include "util/rng.hpp"

namespace {

using namespace opm;
namespace protocol = opm::serve::protocol;
using protocol::Envelope;
using protocol::Error;
using protocol::Request;
using protocol::RequestType;
using serve::HashRing;

util::Digest128 key_of(std::uint64_t n) {
  util::Hasher128 h;
  h.add(std::string_view("ring.test.key"));
  h.add(n);
  return h.digest();
}

// ---------------------------------------------------------------- the ring --

TEST(HashRing, LookupIsDeterministicAcrossInstances) {
  const HashRing a(4), b(4);
  for (std::uint64_t i = 0; i < 1000; ++i)
    ASSERT_EQ(a.lookup(key_of(i)), b.lookup(key_of(i))) << i;
}

TEST(HashRing, EmptyRingAnswersNoOwner) {
  const HashRing empty;
  EXPECT_TRUE(empty.empty());
  EXPECT_EQ(empty.lookup(key_of(1)), -1);
  EXPECT_EQ(empty.shards(), 0);
}

TEST(HashRing, SpreadsKeysRoughlyEvenly) {
  const HashRing ring(4);
  constexpr int kKeys = 20000;
  std::map<int, int> counts;
  for (std::uint64_t i = 0; i < kKeys; ++i) {
    const int owner = ring.lookup(key_of(i));
    ASSERT_GE(owner, 0);
    ASSERT_LT(owner, 4);
    ++counts[owner];
  }
  // 64 vnodes per shard keeps the imbalance mild; the bound here is loose
  // on purpose (it gates gross placement bugs, not variance).
  for (const auto& [shard, n] : counts) {
    EXPECT_GT(n, kKeys / 10) << "shard " << shard << " starved";
    EXPECT_LT(n, kKeys * 45 / 100) << "shard " << shard << " overloaded";
  }
}

TEST(HashRing, GrowingTheRingMovesOnlyASliverAndOnlyToTheNewShard) {
  const HashRing before(4), after(5);
  constexpr int kKeys = 20000;
  int moved = 0;
  for (std::uint64_t i = 0; i < kKeys; ++i) {
    const int a = before.lookup(key_of(i));
    const int b = after.lookup(key_of(i));
    if (a != b) {
      ++moved;
      // Consistent hashing's defining property: a key that changes owner
      // can only have been claimed by the newly added shard.
      ASSERT_EQ(b, 4) << "key " << i << " moved " << a << " -> " << b;
    }
  }
  EXPECT_GT(moved, 0);                 // the new shard owns something
  EXPECT_LT(moved, kKeys * 35 / 100);  // ~1/5 expected; far below a rehash
}

// ----------------------------------------------------- envelope round trips --

TEST(ProtocolV2, ResponseRenderParseRenderIsByteStable) {
  const Envelope env{2, "req-7", 3};
  const std::string payload = "x,y\n0x1p+8,0x1.8p+1\nquote\"back\\slash";
  const std::string wire = protocol::render_response(env, RequestType::kDense, payload);

  protocol::ResponseView view;
  ASSERT_TRUE(protocol::parse_response(wire, &view));
  EXPECT_EQ(view.version, 2);
  EXPECT_EQ(view.id, "req-7");
  EXPECT_EQ(view.shard, 3);
  EXPECT_TRUE(view.ok);
  EXPECT_EQ(view.type, "dense");
  EXPECT_EQ(view.payload, payload);

  // The router's whole re-rendering trick: parse + render under the same
  // envelope reproduces the wire bytes exactly.
  EXPECT_EQ(protocol::render_view(env, view), wire);
}

TEST(ProtocolV2, ErrorWithRedirectHintRoundTrips) {
  const Envelope env{2, "r", 0};
  Error err;
  err.category = "redirect";
  err.message = "shard 2 owns this key";
  err.shard = 2;
  const std::string wire = protocol::render_error(env, err);
  EXPECT_NE(wire.find("\"shard\":2"), std::string::npos);

  protocol::ResponseView view;
  ASSERT_TRUE(protocol::parse_response(wire, &view));
  EXPECT_FALSE(view.ok);
  EXPECT_EQ(view.error.category, "redirect");
  EXPECT_EQ(view.error.shard, 2);
  EXPECT_EQ(protocol::render_view(env, view), wire);
}

TEST(ProtocolV2, StatsAndPongRoundTrip) {
  const Envelope env{2, "s", 1};
  const std::string stats = R"({"queued":0,"router":{"router.requests":5}})";
  const std::string wire = protocol::render_stats(env, stats);
  protocol::ResponseView view;
  ASSERT_TRUE(protocol::parse_response(wire, &view));
  EXPECT_EQ(view.type, "stats");
  EXPECT_EQ(view.stats, stats);
  EXPECT_EQ(protocol::render_view(env, view), wire);

  const std::string pong = protocol::render_pong(env);
  protocol::ResponseView pv;
  ASSERT_TRUE(protocol::parse_response(pong, &pv));
  EXPECT_EQ(pv.type, "pong");
  EXPECT_EQ(protocol::render_view(env, pv), pong);
}

TEST(ProtocolV2, V1RenderIsByteIdenticalToPreV2AndRoundTrips) {
  // A v1 envelope (the default) must keep the pre-envelope wire format:
  // no "v", no "shard", id spelled "id".
  const std::string wire =
      protocol::render_response(Envelope{.id = "q1"}, RequestType::kSparse, "pay");
  EXPECT_EQ(wire, R"({"id":"q1","ok":true,"type":"sparse","payload":"pay"})");

  protocol::ResponseView view;
  ASSERT_TRUE(protocol::parse_response(wire, &view));
  EXPECT_EQ(view.version, 1);
  EXPECT_EQ(view.id, "q1");
  EXPECT_EQ(view.payload, "pay");
  EXPECT_EQ(protocol::render_view(Envelope{1, "q1", 0}, view), wire);
}

TEST(ProtocolV2, ReRenderingAcrossVersionsPreservesPayloadBytes) {
  // A v2 backend response re-rendered under a v1 client envelope (what the
  // router does for v1 clients) matches a direct v1 render exactly.
  const std::string payload = "a\"b\\c\nd";
  const std::string backend =
      protocol::render_response(Envelope{2, "g42", 1}, RequestType::kFootprint, payload);
  protocol::ResponseView view;
  ASSERT_TRUE(protocol::parse_response(backend, &view));
  EXPECT_EQ(protocol::render_view(Envelope{1, "client-3", 0}, view),
            protocol::render_response(Envelope{.id = "client-3"}, RequestType::kFootprint,
                                      payload));
}

TEST(ProtocolV2, RenderRequestReconstructsTheSameRequestKey) {
  const char* lines[] = {
      R"({"type":"dense","platform":"knl-flat","kernel":"cholesky",)"
      R"("n_lo":256,"n_hi":2048,"n_step":256,"nb_lo":128,"nb_hi":1024,"nb_step":128})",
      R"({"type":"sparse","platform":"broadwell-edram-on","kernel":"sptrans","merge_based":true})",
      R"({"type":"footprint","platform":"knl-cache","kernel":"fft",)"
      R"("fp_lo":16384,"fp_hi":1048576,"points":12})",
  };
  for (const char* line : lines) {
    Request req;
    Error err;
    ASSERT_TRUE(protocol::parse_request(line, &req, &err)) << err.message;
    req.id = "fwd-1";
    Request reparsed;
    ASSERT_TRUE(protocol::parse_request(protocol::render_request(req), &reparsed, &err))
        << err.message;
    EXPECT_EQ(reparsed.version, 2);
    EXPECT_EQ(reparsed.id, "fwd-1");
    // Same coalescing key ⇒ the forwarded form hits the same cache entry
    // and single-flight as the original.
    EXPECT_EQ(protocol::request_key(reparsed), protocol::request_key(req)) << line;
  }
}

// ------------------------------------------------------ dispatcher sharding --

/// Shard-aware fixture: cache in memory-only mode, serial sweeps.
class RouterTest : public ::testing::Test {
 protected:
  void SetUp() override {
    saved_config_ = core::result_cache_config();
    saved_workers_ = core::sweep_workers();
    core::set_sweep_workers(0);
    core::CacheConfig cfg;
    cfg.enabled = true;
    cfg.disk = false;
    core::configure_result_cache(cfg);
  }
  void TearDown() override {
    core::configure_result_cache(saved_config_);
    core::set_sweep_workers(saved_workers_);
  }

  static Request parse_ok(const std::string& line) {
    Request req;
    Error err;
    EXPECT_TRUE(protocol::parse_request(line, &req, &err)) << line << ": " << err.message;
    return req;
  }

  /// A small footprint request (cheap to execute) whose key the ring of
  /// `shards` assigns to `owner`. Scans fp_lo until one matches.
  static std::string request_owned_by(int owner, int shards) {
    const HashRing ring(shards);
    for (int i = 0; i < 256; ++i) {
      const std::string line =
          R"({"type":"footprint","platform":"knl-ddr","kernel":"stream","fp_lo":)" +
          std::to_string(16384 + 1024 * i) + R"(,"fp_hi":1048576,"points":6})";
      Request req;
      Error err;
      EXPECT_TRUE(protocol::parse_request(line, &req, &err)) << err.message;
      if (ring.lookup(protocol::request_key(req)) == owner) return line;
    }
    ADD_FAILURE() << "no request found owned by shard " << owner << "/" << shards;
    return {};
  }

  core::CacheConfig saved_config_;
  std::size_t saved_workers_ = 0;
};

TEST_F(RouterTest, DispatcherRedirectsKeysItDoesNotOwn) {
  serve::DispatchConfig cfg;
  cfg.workers = 1;
  cfg.shard_id = 0;
  cfg.shard_count = 4;
  serve::Dispatcher dispatcher(cfg);
  const HashRing ring(4);

  // A key this shard owns is served normally.
  std::mutex mutex;
  std::vector<std::string> lines;
  auto sink = [&](std::string line) {
    std::lock_guard lock(mutex);
    lines.push_back(std::move(line));
  };
  dispatcher.submit(1, parse_ok(request_owned_by(0, 4)), sink);
  dispatcher.drain();
  {
    std::lock_guard lock(mutex);
    ASSERT_EQ(lines.size(), 1u);
    const auto doc = util::parse_json(lines[0]);
    ASSERT_TRUE(doc.has_value());
    EXPECT_TRUE(doc->find("ok")->boolean) << lines[0];
  }

  // A key owned by another shard is answered inline with a redirect that
  // names the true owner — never queued, never computed here.
  serve::Dispatcher fresh(cfg);
  const std::string foreign = request_owned_by(2, 4);
  Request req = parse_ok(foreign);
  const int owner = ring.lookup(protocol::request_key(req));
  ASSERT_EQ(owner, 2);
  std::vector<std::string> redirected;
  fresh.submit(1, std::move(req), [&](std::string line) {
    std::lock_guard lock(mutex);
    redirected.push_back(std::move(line));
  });
  {
    std::lock_guard lock(mutex);
    ASSERT_EQ(redirected.size(), 1u);  // answered before submit returned
    const auto doc = util::parse_json(redirected[0]);
    ASSERT_TRUE(doc.has_value());
    EXPECT_FALSE(doc->find("ok")->boolean);
    const util::JsonValue* err = doc->find("error");
    ASSERT_NE(err, nullptr);
    EXPECT_EQ(err->find("category")->string, "redirect");
    EXPECT_EQ(static_cast<int>(err->find("shard")->number), owner);
  }
  fresh.drain();
}

TEST_F(RouterTest, DispatcherEnforcesPerClientQuota) {
  serve::DispatchConfig cfg;
  cfg.workers = 1;
  cfg.queue_depth = 64;  // deep global queue: only the quota can reject
  cfg.per_client_quota = 1;
  cfg.retry_after_ms = 10;
  serve::Dispatcher dispatcher(cfg);

  // A grid slow enough (~31k points) that the burst lands while the
  // worker is still on request #1, so queued-per-client reaches the cap.
  const std::string slow =
      R"({"type":"dense","platform":"knl-flat","kernel":"gemm",)"
      R"("n_lo":256,"n_hi":8192,"n_step":32,"nb_lo":128,"nb_hi":4096,"nb_step":32})";
  std::mutex mutex;
  std::vector<std::string> lines;
  for (int i = 0; i < 6; ++i) {
    Request req = parse_ok(slow);
    req.id = "q" + std::to_string(i);
    dispatcher.submit(/*client=*/7, std::move(req), [&](std::string line) {
      std::lock_guard lock(mutex);
      lines.push_back(std::move(line));
    });
  }
  dispatcher.drain();

  int ok = 0, quota_rejected = 0;
  for (const auto& line : lines) {
    const auto doc = util::parse_json(line);
    ASSERT_TRUE(doc.has_value());
    if (doc->find("ok")->boolean) {
      ++ok;
      continue;
    }
    const util::JsonValue* err = doc->find("error");
    ASSERT_NE(err, nullptr);
    EXPECT_EQ(err->find("category")->string, "overload");
    if (err->find("message")->string.find("quota") != std::string::npos) ++quota_rejected;
  }
  EXPECT_EQ(lines.size(), 6u);       // everything answered exactly once
  EXPECT_GE(ok, 1);                  // the in-flight request completed
  EXPECT_GE(quota_rejected, 1);      // the cap actually bit
}

// --------------------------------------------------------- router end to end --

/// Every receive in these tests is bounded: a server bug fails the test
/// instead of hanging the suite.
constexpr int kTimeoutMs = 30000;

/// A router fronting `nshards` in-process shard servers on unix sockets.
/// `ring_shards` < nshards models a router whose ring view lags the
/// backend pool (scale-out). With a `token`, shards and router listen on
/// loopback TCP gated by it instead, the way scripts/ci.sh runs them.
struct Mesh {
  std::vector<std::unique_ptr<serve::Server>> servers;
  std::unique_ptr<serve::Router> router;
  std::string address;
  std::vector<std::string> backends;

  bool start(const char* tag, int nshards, int ring_shards = 0, const std::string& token = "") {
    serve::RouterConfig rc;
    for (int s = 0; s < nshards; ++s) {
      serve::ServerConfig sc;
      sc.listen_address = std::string("unix:test-router-") + tag + "-s" + std::to_string(s) +
                          "-" + std::to_string(::getpid()) + ".sock";
      if (!token.empty()) sc.listen_address = "127.0.0.1:0";
      sc.auth_token = token;
      sc.dispatch.workers = 1;
      sc.dispatch.shard_id = s;
      sc.dispatch.shard_count = nshards;
      servers.push_back(std::make_unique<serve::Server>(sc));
      std::string error;
      if (!servers.back()->start(&error)) {
        ADD_FAILURE() << "shard " << s << ": " << error;
        return false;
      }
      rc.backends.push_back(servers.back()->where());
    }
    address = std::string("unix:test-router-") + tag + "-" + std::to_string(::getpid()) +
              ".sock";
    rc.listen_address = token.empty() ? address : "127.0.0.1:0";
    rc.auth_token = token;
    rc.ring_shards = ring_shards;
    backends = rc.backends;
    router = std::make_unique<serve::Router>(rc);
    std::string error;
    if (!router->start(&error)) {
      ADD_FAILURE() << "router: " << error;
      return false;
    }
    address = router->where();
    return true;
  }

  void stop() {
    if (router) {
      router->request_drain();
      router->wait();
    }
    for (auto& s : servers) {
      s->request_drain();
      s->wait();
    }
  }
};

TEST_F(RouterTest, RoutesToOwningShardAndServesOfflineIdenticalBytes) {
  Mesh mesh;
  ASSERT_TRUE(mesh.start("e2e", 2));
  serve::LineClient client(kTimeoutMs);
  ASSERT_TRUE(client.connect(mesh.address));

  const HashRing ring(2);
  for (int owner = 0; owner < 2; ++owner) {
    const std::string body = request_owned_by(owner, 2);
    Request req = parse_ok(body);
    const std::string id = "own" + std::to_string(owner);
    ASSERT_TRUE(client.send_line("{\"v\":2,\"req_id\":\"" + id + "\"," + body.substr(1)));
    std::string line;
    ASSERT_TRUE(client.recv_line(&line));
    protocol::ResponseView view;
    ASSERT_TRUE(protocol::parse_response(line, &view)) << line;
    EXPECT_TRUE(view.ok) << line;
    EXPECT_EQ(view.version, 2);
    EXPECT_EQ(view.id, id);
    EXPECT_EQ(view.shard, owner);  // the serving shard is the ring owner
    EXPECT_EQ(view.payload, protocol::execute(req));
  }

  // Ping and stats are the router's own; stats carries router counters.
  ASSERT_TRUE(client.send_line(R"({"v":2,"req_id":"p","type":"ping"})"));
  std::string line;
  ASSERT_TRUE(client.recv_line(&line));
  EXPECT_NE(line.find("\"pong\""), std::string::npos);
  ASSERT_TRUE(client.send_line(R"({"v":2,"req_id":"st","type":"stats"})"));
  ASSERT_TRUE(client.recv_line(&line));
  const auto stats = util::parse_json(line);
  ASSERT_TRUE(stats.has_value());
  const util::JsonValue* router_group = stats->find("stats")->find("router");
  ASSERT_NE(router_group, nullptr) << line;
  EXPECT_GE(router_group->find("router.forwarded")->number, 2.0);

  mesh.stop();
}

TEST_F(RouterTest, V1ClientThroughTheRouterSeesPreV2Bytes) {
  Mesh mesh;
  ASSERT_TRUE(mesh.start("v1", 2));
  serve::LineClient client(kTimeoutMs);
  ASSERT_TRUE(client.connect(mesh.address));

  const std::string body = request_owned_by(1, 2);
  ASSERT_TRUE(client.send_line("{\"id\":\"legacy\"," + body.substr(1)));
  std::string line;
  ASSERT_TRUE(client.recv_line(&line));
  // Byte-identical to a standalone pre-v2 server answering the same
  // request: v1 envelope, no version or shard fields.
  EXPECT_EQ(line, protocol::render_response(Envelope{.id = "legacy"}, RequestType::kFootprint,
                                            protocol::execute(parse_ok(body))));
  mesh.stop();
}

TEST_F(RouterTest, StaleRingViewIsHealedByRedirect) {
  // The router believes there is 1 shard; the 2 backends know better
  // (shard_count=2). A key owned by shard 1 first lands on shard 0, which
  // answers "redirect"; the router follows the hint transparently.
  Mesh mesh;
  ASSERT_TRUE(mesh.start("stale", 2, /*ring_shards=*/1));
  serve::LineClient client(kTimeoutMs);
  ASSERT_TRUE(client.connect(mesh.address));

  const std::string body = request_owned_by(1, 2);
  ASSERT_TRUE(client.send_line("{\"v\":2,\"req_id\":\"sr\"," + body.substr(1)));
  std::string line;
  ASSERT_TRUE(client.recv_line(&line));
  protocol::ResponseView view;
  ASSERT_TRUE(protocol::parse_response(line, &view)) << line;
  EXPECT_TRUE(view.ok) << line;
  EXPECT_EQ(view.shard, 1);  // served by the true owner after the hop
  EXPECT_EQ(view.payload, protocol::execute(parse_ok(body)));

  const auto stats = util::parse_json(mesh.router->stats_json());
  ASSERT_TRUE(stats.has_value());
  EXPECT_GE(stats->find("router")->find("router.redirects_followed")->number, 1.0);
  mesh.stop();
}

TEST_F(RouterTest, MultiShardDrainAnswersEverythingAdmitted) {
  Mesh mesh;
  ASSERT_TRUE(mesh.start("drain", 2));

  // Four concurrent clients racing a drain: every request that got a
  // response got a *structured* one (ok, redirect, or draining) — and
  // wait() returns with nothing stuck in flight.
  constexpr int kClients = 4, kRequests = 6;
  std::vector<std::string> bodies = {request_owned_by(0, 2), request_owned_by(1, 2)};
  std::mutex mutex;
  std::vector<std::string> responses;
  std::vector<std::thread> threads;  // opm-lint: allow(thread-ownership) — test clients model independent processes
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      serve::LineClient client(kTimeoutMs);
      if (!client.connect(mesh.address)) return;
      for (int i = 0; i < kRequests; ++i) {
        const std::string id = "d" + std::to_string(c) + "-" + std::to_string(i);
        if (!client.send_line("{\"v\":2,\"req_id\":\"" + id + "\"," +
                              bodies[i % bodies.size()].substr(1)))
          return;
        std::string line;
        if (!client.recv_line(&line, 5000)) return;
        std::lock_guard lock(mutex);
        responses.push_back(std::move(line));
      }
    });
  }
  // Let some requests through, then drain concurrently with the load.
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  mesh.router->request_drain();
  mesh.router->wait();
  for (auto& t : threads) t.join();
  for (auto& s : mesh.servers) {
    s->request_drain();
    s->wait();
  }

  ASSERT_GT(responses.size(), 0u);
  for (const auto& line : responses) {
    protocol::ResponseView view;
    ASSERT_TRUE(protocol::parse_response(line, &view)) << line;
    if (!view.ok) {
      EXPECT_TRUE(view.error.category == "draining" || view.error.category == "internal")
          << line;
    }
  }
}

TEST_F(RouterTest, RelaysResponsesLongerThanTheClientLineLimit) {
  // Backend lines are responses, bounded by the largest legal response and
  // not by the router's request-line limit (256 KiB by default): a dense
  // payload past that limit is relayed, and the shard's stream survives
  // to answer the next request.
  ASSERT_EQ(serve::RouterConfig{}.max_line_bytes, 256u * 1024u);
  Mesh mesh;
  ASSERT_TRUE(mesh.start("big", 1));
  serve::LineClient client(kTimeoutMs);
  ASSERT_TRUE(client.connect(mesh.address));

  const std::string big =
      R"({"v":2,"req_id":"big","type":"dense","platform":"knl-flat","kernel":"gemm",)"
      R"("n_lo":256,"n_hi":32000,"n_step":256,"nb_lo":128,"nb_hi":4096,"nb_step":64})";
  const std::string small =
      R"({"v":2,"req_id":"after","type":"footprint","platform":"knl-ddr","kernel":"stream",)"
      R"("points":6})";
  for (const std::string& request : {big, small}) {
    ASSERT_TRUE(client.send_line(request));
    std::string line;
    ASSERT_TRUE(client.recv_line(&line));
    protocol::ResponseView view;
    ASSERT_TRUE(protocol::parse_response(line, &view)) << line.substr(0, 200);
    EXPECT_TRUE(view.ok) << line.substr(0, 200);
    EXPECT_EQ(view.payload, protocol::execute(parse_ok(request)));
    if (request == big) {
      EXPECT_GT(line.size(), 256u * 1024u);
    }
  }
  mesh.stop();
}

// ------------------------------------------------------------ router auth --

TEST_F(RouterTest, OneTokenGatesTheRouterAndIsItsHelloToTheShards) {
  Mesh mesh;
  ASSERT_TRUE(mesh.start("auth", 2, 0, "sekrit"));
  util::Counter& rejected_auth = util::MetricsRegistry::instance().counter("router.rejected_auth");
  const std::uint64_t rejected_before = rejected_auth.value();

  // A request before hello, then a wrong token: each gets one "auth" error
  // and a hangup, and each is counted.
  for (const char* first : {R"({"v":2,"req_id":"sneak","type":"ping"})",
                            R"({"v":2,"req_id":"h","type":"hello","token":"wrong"})"}) {
    serve::LineClient client(kTimeoutMs);
    ASSERT_TRUE(client.connect(mesh.address));
    ASSERT_TRUE(client.send_line(first));
    std::string line, extra;
    ASSERT_TRUE(client.recv_line(&line));
    protocol::ResponseView view;
    ASSERT_TRUE(protocol::parse_response(line, &view)) << line;
    EXPECT_FALSE(view.ok) << line;
    EXPECT_EQ(view.error.category, "auth") << line;
    EXPECT_FALSE(client.recv_line(&extra)) << extra;
    EXPECT_TRUE(client.wait_eof());
  }
  EXPECT_EQ(rejected_auth.value() - rejected_before, 2u);

  // Unparsable lines and batches before hello are refused the same way,
  // and none of them counts as a protocol error.
  util::Counter& errors_protocol =
      util::MetricsRegistry::instance().counter("router.errors_protocol");
  const std::uint64_t errors_before = errors_protocol.value();
  for (const char* first : {"{broken", "[{broken"}) {
    serve::LineClient client(kTimeoutMs);
    ASSERT_TRUE(client.connect(mesh.address));
    ASSERT_TRUE(client.send_line(first));
    std::string line, extra;
    ASSERT_TRUE(client.recv_line(&line)) << first;
    protocol::ResponseView view;
    ASSERT_TRUE(protocol::parse_response(line, &view)) << line;
    EXPECT_EQ(view.error.category, "auth") << first;
    EXPECT_FALSE(client.recv_line(&extra)) << first << ": " << extra;
    EXPECT_TRUE(client.wait_eof()) << first;
  }
  EXPECT_EQ(rejected_auth.value() - rejected_before, 4u);
  EXPECT_EQ(errors_protocol.value(), errors_before);

  // The right token unlocks routed sweeps from both shards, which took the
  // router's own hello: payloads byte-identical to offline. Past the gate
  // a broken line is a parse error and the connection stays open.
  serve::LineClient client(kTimeoutMs);
  ASSERT_TRUE(client.connect(mesh.address));
  ASSERT_TRUE(client.hello("sekrit"));
  {
    ASSERT_TRUE(client.send_line("{broken"));
    std::string line;
    ASSERT_TRUE(client.recv_line(&line));
    protocol::ResponseView view;
    ASSERT_TRUE(protocol::parse_response(line, &view)) << line;
    EXPECT_EQ(view.error.category, "parse") << line;
  }
  for (int owner = 0; owner < 2; ++owner) {
    const std::string body = request_owned_by(owner, 2);
    ASSERT_TRUE(client.send_line(R"({"v":2,"req_id":"q",)" + body.substr(1)));
    std::string line;
    ASSERT_TRUE(client.recv_line(&line));
    protocol::ResponseView view;
    ASSERT_TRUE(protocol::parse_response(line, &view)) << line;
    EXPECT_TRUE(view.ok) << line;
    EXPECT_EQ(view.shard, owner);
    EXPECT_EQ(view.payload, protocol::execute(parse_ok(body)));
  }

  // A router presenting a token the shards do not take fails start(),
  // naming the rejected hello.
  serve::RouterConfig rc;
  rc.listen_address = "unix:test-router-rogue-" + std::to_string(::getpid()) + ".sock";
  rc.backends = mesh.backends;
  rc.auth_token = "wrong";
  serve::Router rogue(rc);
  std::string error;
  EXPECT_FALSE(rogue.start(&error));
  EXPECT_NE(error.find("rejected the hello handshake"), std::string::npos) << error;
  mesh.stop();
}

// ------------------------------------------------ relaying hostile backends --
//
// The router splices a backend success line written exactly as shards
// write it, and takes parse_response + render_view for any other line.
// Whatever a backend sends, its client must get exactly what that full
// path gives, or nothing when parse_response rejects the line.

/// One backend line: head + payload + tail, where "@" in the head stands
/// for the wire id the router assigned.
struct BackendCase {
  const char* name;
  std::string head;
  std::string payload;  ///< the payload string's body as sent
  std::string tail;
  bool splices;         ///< parse_payload_head must accept the line
};

/// A JSON \u escape of the four hex digits `hex`.
std::string u(const char* hex) { return std::string("\\") + "u" + hex; }

std::vector<BackendCase> backend_cases() {
  const std::string dense = R"({"v":2,"req_id":"@","ok":true,"type":"dense","shard":0,"payload":")";
  const std::string sampled =
      R"({"v":2,"req_id":"@","ok":true,"type":"advise","shard":1,"sampled":true,)"
      R"("max_rel_error":"0x1.9p-9","payload":")";
  const std::string end = R"("})";
  return {
      {"canonical csv", dense, R"(x,y\n0x1p+8,0x1.8p+1\n)", end, true},
      {"every short escape", dense, R"(a\"b\\c\td\b\f\r\n)", end, true},
      {"sampled advise", sampled, R"({\"advise\":1,\"sampling\":{\"sampled\":true}})", end, true},
      {"bytes json passes through", dense, "caf\xc3\xa9 \xff\x7f/", end, true},
      {"empty payload", dense, "", end, true},
      {"payload marker inside an earlier string",
       R"({"v":2,"req_id":"@","ok":true,"type":"advise","shard":0,"sampled":true,)"
       R"("max_rel_error":"x\",\"payload\":\"evil","payload":")",
       "good", end, true},
      {"unescaped quote", dense, R"(a"b)", end, false},
      {"raw control byte", dense, "a\x01" "b", end, false},
      {"raw tab", dense, "a\tb", end, false},
      {"dangling backslash", dense, "abc\\", "", false},
      {"backslash before the closing quote", dense, "abc\\", end, false},
      {"unicode escapes", dense, u("0041") + u("00e9") + u("0001"), end, false},
      {"surrogate pair", dense, u("d83d") + u("de00"), end, false},
      {"unpaired high surrogate", dense, u("d800"), end, false},
      {"unpaired low surrogate", dense, u("dc00") + "x", end, false},
      {"high surrogate then no low one", dense, u("d800") + u("0041"), end, false},
      {"truncated unicode escape", dense, u("00"), end, false},
      {"escaped solidus", dense, R"(a\/b)", end, false},
      {"unknown escape", dense, R"(a\qb)", end, false},
      {"decoy payload member first",
       R"({"v":2,"req_id":"@","payload":"decoy","ok":true,"type":"dense","shard":0,"payload":")",
       "real", end, false},
      {"bytes after the closing brace", dense, "x", R"("}garbage)", false},
      {"second closing brace", dense, "x", R"("}})", false},
      {"trailing whitespace", dense, "x", "\"} \t", false},
      {"member after the payload", dense, "x", R"(","extra":1})", false},
      {"v1 backend spelling", R"({"id":"@","ok":true,"type":"footprint","payload":")", "x", end,
       false},
      {"leading-zero shard",
       R"({"v":2,"req_id":"@","ok":true,"type":"dense","shard":01,"payload":")", "x", end, false},
      {"fractional shard",
       R"({"v":2,"req_id":"@","ok":true,"type":"dense","shard":1.0,"payload":")", "x", end, false},
      {"sampled false",
       R"({"v":2,"req_id":"@","ok":true,"type":"advise","shard":0,"sampled":false,"payload":")",
       "x", end, false},
      {"not a payload type",
       R"({"v":2,"req_id":"@","ok":true,"type":"ping","shard":0,"payload":")", "x", end, false},
      {"error line",
       R"({"v":2,"req_id":"@","ok":false,"shard":0,"error":{"category":"internal",)"
       R"("message":"sweep \"failed\"","retry_after_ms":0}})",
       "", "", false},
  };
}

std::string backend_line(const BackendCase& c, const std::string& wire_id) {
  std::string head = c.head;
  head.replace(head.find('@'), 1, wire_id);
  return head + c.payload + c.tail;
}

/// What the full path sends a client with envelope `client` for `line`:
/// render_view under the answering shard, or nothing on a parse failure.
std::optional<std::string> full_relay(Envelope client, const std::string& line) {
  protocol::ResponseView view;
  if (!protocol::parse_response(line, &view)) return std::nullopt;
  client.shard = view.shard;
  return protocol::render_view(client, view);
}

TEST(RouterSplice, HeadParserAcceptsOnlyLinesItRelaysExactly) {
  for (const BackendCase& c : backend_cases()) {
    const std::string line = backend_line(c, "g1");
    protocol::PayloadHead head;
    const bool spliced = protocol::parse_payload_head(line, &head);
    EXPECT_EQ(spliced, c.splices) << c.name;
    if (!spliced) continue;
    EXPECT_EQ(head.id, "g1") << c.name;
    for (const Envelope& client : {Envelope{1, "c-1", 0}, Envelope{2, "c-2", 0}}) {
      const std::optional<std::string> full = full_relay(client, line);
      ASSERT_TRUE(full.has_value()) << c.name;  // a spliced line is always a legal one
      Envelope env = client;
      env.shard = head.shard;
      EXPECT_EQ(protocol::splice_response(env, head), *full) << c.name;
    }
  }
}

/// A scripted backend shard on a unix socket: it answers each forwarded
/// request with the lines `reply` gives for its wire id.
class FakeShard {
 public:
  FakeShard(std::string path, std::function<std::vector<std::string>(const std::string&)> reply)
      : listener_(serve::ListenerConfig{.address = "unix:" + path, .name = "fake-shard",
                                        .auth_token = ""},
                  [reply = std::move(reply)](Request req, const serve::Session& session) {
                    for (const std::string& out : reply(req.id)) session.conn->write_line(out);
                  }) {}
  ~FakeShard() {
    listener_.request_drain();
    listener_.wait(nullptr);
  }

  bool start() { return listener_.start(nullptr); }
  std::string address() const { return listener_.where(); }

 private:
  serve::Listener listener_;
};

TEST_F(RouterTest, HostileBackendLinesRelayAsTheFullParseWouldOrNotAtAll) {
  // The fake shard answers each request with the case's line, then with a
  // well-formed sentinel for the same wire id. A line the full parse
  // accepts answers the client (the sentinel then finds no pending
  // request); a rejected one is dropped and counted, and the sentinel
  // answers instead.
  const std::vector<BackendCase> cases = backend_cases();
  std::atomic<std::size_t> current{0};
  auto sentinel = [](const std::string& wire_id) {
    return protocol::render_response(Envelope{2, wire_id, 0}, RequestType::kDense, "sentinel");
  };
  const std::string pid = std::to_string(::getpid());
  FakeShard shard("test-router-hostile-s-" + pid + ".sock", [&](const std::string& wire_id) {
    return std::vector<std::string>{backend_line(cases[current.load()], wire_id),
                                    sentinel(wire_id)};
  });
  ASSERT_TRUE(shard.start());
  serve::RouterConfig rc;
  rc.backends = {shard.address()};
  rc.listen_address = "unix:test-router-hostile-r-" + pid + ".sock";
  serve::Router router(rc);
  std::string error;
  ASSERT_TRUE(router.start(&error)) << error;
  serve::LineClient client(kTimeoutMs);
  ASSERT_TRUE(client.connect(rc.listen_address));

  util::Counter& backend_errors = util::MetricsRegistry::instance().counter("router.backend_errors");
  const std::string body =
      R"("type":"footprint","platform":"knl-ddr","kernel":"stream","points":6})";
  for (std::size_t i = 0; i < cases.size(); ++i) {
    current.store(i);
    for (const Envelope& env : {Envelope{1, "v1-client", 0}, Envelope{2, "v2-client", 0}}) {
      const std::uint64_t errors_before = backend_errors.value();
      ASSERT_TRUE(client.send_line(env.version == 2 ? R"({"v":2,"req_id":"v2-client",)" + body
                                                    : R"({"id":"v1-client",)" + body));
      std::string got;
      ASSERT_TRUE(client.recv_line(&got, 10000)) << cases[i].name;
      const std::optional<std::string> relayed = full_relay(env, backend_line(cases[i], "g"));
      EXPECT_EQ(got, relayed ? *relayed : *full_relay(env, sentinel("g")))
          << cases[i].name << " (v" << env.version << " client)";
      EXPECT_EQ(backend_errors.value() - errors_before, relayed ? 0u : 1u) << cases[i].name;
    }
  }
  router.request_drain();
  router.wait();
}

/// The per-byte string scanner parse_json used before it copied plain
/// runs in bulk, kept as the oracle: decodes the JSON string document
/// `doc` (quotes included) into *out; false where parse_json must reject.
bool per_byte_string(std::string_view doc, std::string* out) {
  std::size_t pos = 0;
  auto hex4 = [&](unsigned* cp) {
    if (pos + 4 > doc.size()) return false;
    *cp = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = doc[pos++];
      *cp <<= 4;
      if (c >= '0' && c <= '9') *cp |= static_cast<unsigned>(c - '0');
      else if (c >= 'a' && c <= 'f') *cp |= static_cast<unsigned>(c - 'a' + 10);
      else if (c >= 'A' && c <= 'F') *cp |= static_cast<unsigned>(c - 'A' + 10);
      else return false;
    }
    return true;
  };
  auto utf8 = [&](unsigned cp) {
    if (cp < 0x80) {
      *out += static_cast<char>(cp);
    } else if (cp < 0x800) {
      *out += static_cast<char>(0xC0 | (cp >> 6));
      *out += static_cast<char>(0x80 | (cp & 0x3F));
    } else if (cp < 0x10000) {
      *out += static_cast<char>(0xE0 | (cp >> 12));
      *out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
      *out += static_cast<char>(0x80 | (cp & 0x3F));
    } else {
      *out += static_cast<char>(0xF0 | (cp >> 18));
      *out += static_cast<char>(0x80 | ((cp >> 12) & 0x3F));
      *out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
      *out += static_cast<char>(0x80 | (cp & 0x3F));
    }
  };
  out->clear();
  if (doc.empty() || doc[pos++] != '"') return false;
  for (;;) {
    if (pos >= doc.size()) return false;
    const auto c = static_cast<unsigned char>(doc[pos++]);
    if (c == '"') return pos == doc.size();
    if (c < 0x20) return false;
    if (c != '\\') {
      *out += static_cast<char>(c);
      continue;
    }
    if (pos >= doc.size()) return false;
    switch (doc[pos++]) {
      case '"': *out += '"'; break;
      case '\\': *out += '\\'; break;
      case '/': *out += '/'; break;
      case 'b': *out += '\b'; break;
      case 'f': *out += '\f'; break;
      case 'n': *out += '\n'; break;
      case 'r': *out += '\r'; break;
      case 't': *out += '\t'; break;
      case 'u': {
        unsigned cp = 0;
        if (!hex4(&cp)) return false;
        if (cp >= 0xD800 && cp <= 0xDBFF) {
          if (pos + 1 >= doc.size() || doc[pos] != '\\' || doc[pos + 1] != 'u') return false;
          pos += 2;
          unsigned lo = 0;
          if (!hex4(&lo) || lo < 0xDC00 || lo > 0xDFFF) return false;
          cp = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
        } else if (cp >= 0xDC00 && cp <= 0xDFFF) {
          return false;
        }
        utf8(cp);
        break;
      }
      default:
        return false;
    }
  }
}

TEST(RouterSplice, BulkStringScannerAcceptsAndRejectsLikeThePerByteOne) {
  // The table's payload strings, seeded random strings over the bytes the
  // scanner branches on, and each special byte at every offset of a plain
  // run (so the eight-byte steps meet it in every lane).
  std::vector<std::string> bodies;
  for (const BackendCase& c : backend_cases()) bodies.push_back(c.payload);
  const std::string alphabet = std::string("ab\"\\/unrtfx019adDcCeE ") + '\x01' + '\x1f' + '\x7f' +
                               '\x80' + '\xff';
  util::Xoshiro256 rng(1016);
  for (int i = 0; i < 20000; ++i) {
    std::string body;
    for (std::uint64_t n = rng.bounded(40); n > 0; --n) body += alphabet[rng.bounded(alphabet.size())];
    bodies.push_back(body);
  }
  for (std::size_t n = 0; n <= 24; ++n)
    for (std::size_t at = 0; at <= n; ++at)
      for (const char special : {'"', '\\', '\x01', '\x1f'}) {
        std::string body(n, 'p');
        body.insert(at, 1, special);
        bodies.push_back(body);
      }
  for (const std::string& body : bodies) {
    const std::string doc = "\"" + body + "\"";
    std::string want;
    const bool accepted = per_byte_string(doc, &want);
    const auto got = util::parse_json(doc);
    ASSERT_EQ(got.has_value(), accepted) << testing::PrintToString(body);
    if (accepted) {
      EXPECT_EQ(got->string, want) << testing::PrintToString(body);
    }
  }
}

}  // namespace
