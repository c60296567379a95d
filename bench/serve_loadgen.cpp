// Load generator and acceptance harness for the serve tier (opm_serve and
// opm_router).
//
// Default (argument-free) mode is fully self-contained and quick: it
// starts an in-process serve::Server on a private socket with a scratch
// cache directory, replays a duplicate-heavy request trace from N
// concurrent client connections, and FAILS (nonzero exit) unless
//
//   1. every served payload is byte-identical to the offline library
//      output (protocol::execute) for the same request,
//   2. the server computed at least `dup` times fewer sweeps than it
//      served — proven by the cache.misses delta between two over-the-wire
//      "stats" requests, not by trusting this process's globals, and
//   3. a deliberately overloaded dispatcher (queue_depth=1, workers=1)
//      answers the overflow with structured "overload" rejections carrying
//      retry_after_ms > 0, while still answering everything exactly once.
//
// With --connect=ADDR it targets an external server or router instead —
// any address the serve tier speaks: unix:PATH or HOST:PORT (the retired
// --socket=PATH exits 2 naming --connect=unix:PATH). --token=SECRET sends
// the hello handshake first, --v2 wraps every request in the protocol-v2
// envelope, and --zipf draws the trace from a seeded zipf distribution
// over the unique requests instead of the uniform duplicate deal. Gate 1
// applies to any target; gate 2 is skipped automatically when the peer's
// stats carry no cache counters (a router reports its own counters, not
// its shards'). The overload probe only runs in-process. --tolerant
// downgrades rejected/failed responses from fatal to counted — the CI
// drain test fires SIGTERM mid-load and only cares that the server
// answers every request with *something* structured.
//
// --router-bench is the sharded-tier acceptance mode: it stands up an
// in-process router in front of 1 and then 2 single-worker shards,
// replays a seeded zipf trace through each topology, verifies payload
// byte-identity against the offline path, emits BENCH_router.json
// (opm-bench v1: aggregate req/s per topology plus the 2/1 scaling
// ratio), and gates the ratio. The required floor is hardware-aware —
// 1.7x where >= 4 hardware threads exist for 2 shards to actually run
// on, a sanity floor of 0.75x on smaller machines (a single shared
// core cannot express parallel speedup; the CI perf job's benchdiff
// trajectory still tracks the recorded ratio there).
//
// The load phase's per-request latencies and per-client throughput are
// reported through the statistical perf contract (docs/MODEL.md §12):
// each client connection is one repeat, so the emitted BENCH_serve.json
// carries median-of-medians latency and a cross-client CV for the CI
// trajectory gate (tools/opm_benchdiff).
//
//   serve_loadgen [--connect=ADDR] [--clients=8] [--dup=4]
//                 [--token=SECRET] [--v2] [--zipf] [--tolerant] [--quick]
//                 [--out=BENCH_serve.json]
//                 [--router-bench [--rb-requests=N] [--rb-clients=N]
//                                 [--rb-repeats=N] [--rb-out=BENCH_router.json]]
//                 [sweep knobs: --sweep-workers, --cache-dir, ...]
//
// Any other flag, or a positional argument, exits 2 naming it.
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <iostream>
#include <iterator>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "common.hpp"
#include "core/sweep.hpp"
#include "core/sweep_config.hpp"
#include "serve/client.hpp"
#include "serve/options.hpp"
#include "serve/protocol.hpp"
#include "serve/router.hpp"
#include "serve/server.hpp"
#include "util/cli.hpp"
#include "util/format.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace {

using namespace opm;
namespace protocol = opm::serve::protocol;

/// The unique request trace: a cross-section of types and platforms,
/// each small enough that the argument-free run stays quick.
std::vector<std::string> unique_request_lines() {
  return {
      R"({"type":"dense","platform":"broadwell-edram-on","kernel":"gemm",)"
      R"("n_lo":256,"n_hi":2048,"n_step":256,"nb_lo":128,"nb_hi":1024,"nb_step":128})",
      R"({"type":"dense","platform":"broadwell-edram-off","kernel":"cholesky",)"
      R"("n_lo":256,"n_hi":2048,"n_step":256,"nb_lo":128,"nb_hi":1024,"nb_step":128})",
      R"({"type":"dense","platform":"knl-flat","kernel":"gemm",)"
      R"("n_lo":512,"n_hi":4096,"n_step":512,"nb_lo":256,"nb_hi":2048,"nb_step":256})",
      R"({"type":"dense","platform":"knl-cache","kernel":"cholesky",)"
      R"("n_lo":512,"n_hi":4096,"n_step":512,"nb_lo":256,"nb_hi":2048,"nb_step":256})",
      R"({"type":"footprint","platform":"broadwell-edram-on","kernel":"stream",)"
      R"("fp_lo":16384,"fp_hi":16777216,"points":24})",
      R"({"type":"footprint","platform":"knl-cache","kernel":"stencil",)"
      R"("fp_lo":16384,"fp_hi":16777216,"points":24})",
      R"({"type":"footprint","platform":"knl-ddr","kernel":"fft",)"
      R"("fp_lo":65536,"fp_hi":67108864,"points":24})",
      R"({"type":"footprint","platform":"knl-hybrid","kernel":"stream",)"
      R"("fp_lo":65536,"fp_hi":67108864,"points":24})",
      R"({"type":"sparse","platform":"broadwell-edram-on","kernel":"spmv"})",
      R"({"type":"sparse","platform":"knl-flat","kernel":"spmv"})",
      R"({"type":"sparse","platform":"knl-cache","kernel":"sptrans","merge_based":true})",
      R"({"type":"sparse","platform":"broadwell-edram-off","kernel":"sptrsv"})",
  };
}

/// Splices the envelope into a request line (all trace lines are
/// objects): v1 gets `"id"`, v2 gets `"v":2,"req_id"`.
std::string with_id(const std::string& line, const std::string& id, bool v2) {
  if (v2) return "{\"v\":2,\"req_id\":\"" + id + "\"," + line.substr(1);
  return "{\"id\":\"" + id + "\"," + line.substr(1);
}

/// A seeded zipf(s=1) trace over `n_uniques`: rank r is drawn with
/// probability proportional to 1/(r+1). The skew concentrates load on a
/// few hot keys — the mix a memoizing service actually sees.
std::vector<std::size_t> zipf_trace(std::size_t n_uniques, std::size_t length,
                                    std::uint64_t seed) {
  std::vector<double> cdf(n_uniques);
  double total = 0.0;
  for (std::size_t r = 0; r < n_uniques; ++r) {
    total += 1.0 / static_cast<double>(r + 1);
    cdf[r] = total;
  }
  util::Xoshiro256 rng(seed);
  std::vector<std::size_t> trace(length);
  for (auto& t : trace) {
    const double u = rng.uniform() * total;
    t = static_cast<std::size_t>(
        std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
    if (t >= n_uniques) t = n_uniques - 1;
  }
  return trace;
}

/// Extracts a named integer counter from the nested stats envelope.
std::uint64_t stats_counter(const util::JsonValue& envelope, const char* group,
                            const char* name) {
  const util::JsonValue* stats = envelope.find("stats");
  if (!stats) return 0;
  const util::JsonValue* g = stats->find(group);
  if (!g) return 0;
  const util::JsonValue* v = g->find(name);
  return v && v->is_number() ? static_cast<std::uint64_t>(v->number) : 0;
}

/// True when the peer's stats response carries the given counter group —
/// a server exposes "cache", a router does not.
bool stats_has_group(const util::JsonValue& envelope, const char* group) {
  const util::JsonValue* stats = envelope.find("stats");
  return stats != nullptr && stats->find(group) != nullptr;
}

bool fetch_stats(const std::string& address, const std::string& token, util::JsonValue* out) {
  serve::LineClient c;
  if (!c.connect(address)) return false;
  if (!token.empty() && !c.hello(token)) return false;
  if (!c.send_line(R"({"type":"stats","id":"loadgen-stats"})")) return false;
  std::string line;
  if (!c.recv_line(&line)) return false;
  auto doc = util::parse_json(line);
  if (!doc) return false;
  *out = std::move(*doc);
  return true;
}

struct ClientResult {
  std::vector<std::pair<std::size_t, std::string>> payloads;  // (unique idx, payload)
  std::vector<double> latencies_ms;
  double wall_s = 0.0;  ///< this client's connect-to-last-response wall time
  int rejected = 0;
  int failed = 0;
};

/// Deals `trace` (indices into `uniques`) round-robin over `clients`
/// concurrent connections; each sends its requests one at a time and times
/// every round trip. Error answers count as rejected, unreadable ones as
/// failed; a connection that cannot be made fails all its requests, and
/// one that breaks stops its client.
std::vector<ClientResult> replay(const std::string& address, const std::string& token,
                                 const std::vector<std::string>& uniques,
                                 const std::vector<std::size_t>& trace, std::size_t clients,
                                 bool v2) {
  std::vector<std::vector<std::size_t>> per_client(clients);
  for (std::size_t i = 0; i < trace.size(); ++i) per_client[i % clients].push_back(trace[i]);
  std::vector<ClientResult> results(clients);
  std::vector<std::thread> threads;  // opm-lint: allow(thread-ownership) — loadgen clients model independent processes
  for (std::size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      ClientResult& res = results[c];
      const auto c0 = std::chrono::steady_clock::now();
      serve::LineClient sock;
      std::string error;
      if (!sock.connect(address, &error) || (!token.empty() && !sock.hello(token))) {
        std::cout << "client " << c << " cannot connect to " << address << ": " << error << "\n";
        res.failed = static_cast<int>(per_client[c].size());
        return;
      }
      for (std::size_t i = 0; i < per_client[c].size(); ++i) {
        const std::size_t u = per_client[c][i];
        const std::string id = "c" + std::to_string(c) + "-r" + std::to_string(i);
        const auto r0 = std::chrono::steady_clock::now();
        std::string line;
        if (!sock.send_line(with_id(uniques[u], id, v2)) || !sock.recv_line(&line)) {
          ++res.failed;
          return;  // connection is gone; remaining requests count as failed
        }
        res.latencies_ms.push_back(
            std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - r0)
                .count());
        protocol::ResponseView view;
        if (!protocol::parse_response(line, &view)) {
          ++res.failed;
        } else if (!view.ok) {
          ++res.rejected;
        } else {
          res.payloads.emplace_back(u, std::move(view.payload));
        }
      }
      res.wall_s = std::chrono::duration<double>(std::chrono::steady_clock::now() - c0).count();
    });
  }
  for (auto& t : threads) t.join();
  return results;
}

/// In-process overload probe: queue_depth=1 and one worker guarantee the
/// burst outruns the dispatcher. Returns true when >= 1 structured
/// overload rejection (retry_after_ms > 0) arrived and all submits were
/// answered exactly once.
bool overload_probe() {
  serve::DispatchConfig cfg;
  cfg.queue_depth = 1;
  cfg.workers = 1;
  cfg.retry_after_ms = 25;
  serve::Dispatcher dispatcher(cfg);

  // A dense grid big enough (~31k points) that the worker is still on
  // submit #1 while the burst lands.
  protocol::Request req;
  protocol::Error err;
  const std::string line =
      R"({"type":"dense","platform":"knl-flat","kernel":"gemm",)"
      R"("n_lo":256,"n_hi":8192,"n_step":32,"nb_lo":128,"nb_hi":4096,"nb_step":32})";
  if (!protocol::parse_request(line, &req, &err)) {
    std::cout << "overload probe: bad probe request: " << err.message << "\n";
    return false;
  }

  std::mutex mutex;
  std::vector<std::string> responses;
  constexpr int kBurst = 8;
  for (int i = 0; i < kBurst; ++i) {
    protocol::Request copy = req;
    copy.id = "burst-" + std::to_string(i);
    dispatcher.submit(/*client=*/1, std::move(copy), [&](std::string r) {
      std::lock_guard lock(mutex);
      responses.push_back(std::move(r));
    });
  }
  dispatcher.drain();  // every admitted request answered before return

  int ok = 0, overload = 0, other = 0;
  for (const auto& r : responses) {
    protocol::ResponseView view;
    if (!protocol::parse_response(r, &view)) return false;
    if (view.ok)
      ++ok;
    else if (view.error.category == "overload" && view.error.retry_after_ms > 0)
      ++overload;
    else
      ++other;
  }
  std::cout << "overload probe: burst=" << kBurst << " ok=" << ok << " overload=" << overload
            << " other=" << other << "\n";
  return static_cast<int>(responses.size()) == kBurst && overload >= 1 && other == 0;
}

// ----------------------------------------------------------- router bench --

/// Unique requests for the router bench: dense sweeps of ~2-4k points
/// each (~1-2 ms of model compute), so per-request cost dominates the
/// socket round-trip and shard workers are the measured lever.
std::vector<std::string> router_bench_uniques() {
  const char* platforms[] = {"broadwell-edram-on", "broadwell-edram-off", "knl-flat",
                             "knl-cache"};
  const char* kernels[] = {"gemm", "cholesky"};
  std::vector<std::string> out;
  for (int i = 0; i < 32; ++i) {
    const int n_lo = 256 + 16 * i;  // distinct key per i
    out.push_back(std::string("{\"type\":\"dense\",\"platform\":\"") + platforms[i % 4] +
                  "\",\"kernel\":\"" + kernels[(i / 4) % 2] +
                  "\",\"n_lo\":" + std::to_string(n_lo) +
                  ",\"n_hi\":8192,\"n_step\":64,\"nb_lo\":128,\"nb_hi\":4096,\"nb_step\":128}");
  }
  return out;
}

/// Replays `trace` through an in-process router over `nshards`
/// single-worker shards. Returns aggregate served req/s; adds payload
/// mismatches vs `offline` into *mismatches (SIZE_MAX req/s on setup
/// failure).
double run_router_topology(int nshards, const std::vector<std::string>& uniques,
                           const std::vector<std::string>& offline,
                           const std::vector<std::size_t>& trace, std::size_t clients,
                           std::size_t* mismatches, std::size_t* failures) {
  const std::string tag =
      std::to_string(::getpid()) + "-" + std::to_string(nshards) + "shard";
  std::vector<std::unique_ptr<serve::Server>> servers;
  std::vector<std::string> backends;
  for (int s = 0; s < nshards; ++s) {
    serve::ServerConfig sc;
    sc.listen_address = "unix:rb-shard" + std::to_string(s) + "-" + tag + ".sock";
    sc.max_line_bytes = 8 * 1024 * 1024;  // ~400 KB CSV payloads per response
    sc.dispatch.queue_depth = 1024;  // the bench measures throughput, not admission
    sc.dispatch.workers = 1;         // one executor per shard: N shards = N-way parallelism
    sc.dispatch.shard_id = s;
    sc.dispatch.shard_count = nshards;
    servers.push_back(std::make_unique<serve::Server>(sc));
    std::string error;
    if (!servers.back()->start(&error)) {
      std::cout << "router bench: cannot start shard " << s << ": " << error << "\n";
      return -1.0;
    }
    backends.push_back(sc.listen_address);
  }
  serve::RouterConfig rc;
  rc.listen_address = "unix:rb-router-" + tag + ".sock";
  rc.backends = backends;
  rc.max_line_bytes = 8 * 1024 * 1024;
  serve::Router router(rc);
  std::string error;
  if (!router.start(&error)) {
    std::cout << "router bench: cannot start router: " << error << "\n";
    return -1.0;
  }

  const auto t0 = std::chrono::steady_clock::now();
  const std::vector<ClientResult> results =
      replay(rc.listen_address, "", uniques, trace, clients, /*v2=*/true);
  const double wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();

  std::size_t served = 0;
  for (const auto& r : results) {
    served += r.payloads.size();
    *failures += static_cast<std::size_t>(r.failed + r.rejected);
    for (const auto& [u, payload] : r.payloads)
      if (payload != offline[u]) ++*mismatches;
  }

  router.request_drain();
  router.wait();
  for (auto& s : servers) {
    s->request_drain();
    s->wait();
  }
  return static_cast<double>(served) / std::max(wall_s, 1e-9);
}

int router_bench(const util::Cli& cli, bool quick) {
  // Shard dispatcher workers are the parallelism lever under test:
  // disable the result cache (every request costs real compute) and run
  // sweeps serially inline so nothing else parallelizes.
  core::CacheConfig cc;
  cc.enabled = false;
  core::configure_result_cache(cc);
  core::set_sweep_workers(0);

  const int repeats = static_cast<int>(cli.get_int("rb-repeats", quick ? 2 : 3));
  const std::size_t requests =
      static_cast<std::size_t>(cli.get_int("rb-requests", quick ? 160 : 320));
  const std::size_t clients = static_cast<std::size_t>(cli.get_int("rb-clients", 4));
  const std::string out_path = cli.get("rb-out", "BENCH_router.json");

  const std::vector<std::string> uniques = router_bench_uniques();
  std::vector<std::string> offline(uniques.size());
  for (std::size_t u = 0; u < uniques.size(); ++u) {
    protocol::Request req;
    protocol::Error err;
    if (!protocol::parse_request(uniques[u], &req, &err)) {
      std::cout << "router bench: FAIL — unique " << u << " does not parse: " << err.message
                << "\n";
      return 1;
    }
    offline[u] = protocol::execute(req);
  }

  std::size_t mismatches = 0, failures = 0;
  std::vector<std::vector<double>> rates1, rates2;
  for (int rep = 0; rep < repeats; ++rep) {
    const auto trace =
        zipf_trace(uniques.size(), requests, 0xC0FFEEull + static_cast<std::uint64_t>(rep));
    for (const int nshards : {1, 2}) {
      const double rate = run_router_topology(nshards, uniques, offline, trace, clients,
                                              &mismatches, &failures);
      if (rate < 0.0) return 1;
      (nshards == 1 ? rates1 : rates2).push_back({rate});
      std::cout << "repeat " << rep << ": " << nshards << " shard(s) "
                << util::format_fixed(rate, 1) << " req/s\n";
    }
  }

  auto median_of = [](const std::vector<std::vector<double>>& reps) {
    std::vector<double> flat;
    for (const auto& r : reps) flat.insert(flat.end(), r.begin(), r.end());
    return util::percentile(flat, 50);
  };
  const double rate1 = median_of(rates1);
  const double rate2 = median_of(rates2);
  const double ratio = rate2 / std::max(rate1, 1e-9);
  const unsigned hw = std::thread::hardware_concurrency();
  const double floor = hw >= 4 ? 1.7 : 0.75;
  std::cout << "\nmedian 1-shard " << util::format_fixed(rate1, 1) << " req/s, 2-shard "
            << util::format_fixed(rate2, 1) << " req/s, scaling x"
            << util::format_fixed(ratio, 2) << " (floor x" << util::format_fixed(floor, 2)
            << " on " << hw << " hardware threads)\n";

  util::BenchReport report = bench::make_report("router", quick);
  report.knobs.emplace_back("requests", static_cast<double>(requests));
  report.knobs.emplace_back("clients", static_cast<double>(clients));
  report.knobs.emplace_back("unique_requests", static_cast<double>(uniques.size()));
  report.metrics.push_back(bench::value_metric("router/agg_req_per_s_1shard", "req/s",
                                               /*higher_is_better=*/true, rates1));
  report.metrics.push_back(bench::value_metric("router/agg_req_per_s_2shard", "req/s",
                                               /*higher_is_better=*/true, rates2));
  report.metrics.push_back(bench::value_metric("router/scaling_2v1", "x",
                                               /*higher_is_better=*/true, {{ratio}}));
  if (!bench::write_report(report, out_path)) return 1;

  bool pass = true;
  if (mismatches == 0 && failures == 0) {
    std::cout << "router gate 1 PASS — every routed payload byte-identical to offline\n";
  } else {
    std::cout << "router gate 1 FAIL — " << mismatches << " payload mismatches, " << failures
              << " failed requests\n";
    pass = false;
  }
  if (ratio >= floor) {
    std::cout << "router gate 2 PASS — 1->2 shard scaling x" << util::format_fixed(ratio, 2)
              << " >= x" << util::format_fixed(floor, 2) << "\n";
  } else {
    std::cout << "router gate 2 FAIL — 1->2 shard scaling x" << util::format_fixed(ratio, 2)
              << " < x" << util::format_fixed(floor, 2) << "\n";
    pass = false;
  }
  std::cout << (pass ? "\nrouter bench: all gates PASS\n" : "\nrouter bench: FAIL\n");
  return pass ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  namespace fs = std::filesystem;
  const util::Cli cli(argc, argv);
  std::vector<std::string_view> flags = {
      "quick", "router-bench", "rb-repeats", "rb-requests", "rb-clients", "rb-out", "clients",
      "dup",   "tolerant",     "connect",    "v2",          "zipf",       "token",  "out"};
  flags.insert(flags.end(), std::begin(core::kSweepConfigFlags), std::end(core::kSweepConfigFlags));
  if (const int rc = serve::check_flags("serve_loadgen", cli, flags, "--connect")) return rc;
  core::SweepConfig cfg = bench::init(argc, argv);
  bench::banner("serve_loadgen", "multi-client sweep-service load and acceptance harness");

  const bool quick = cli.has("quick");
  if (cli.has("router-bench")) return router_bench(cli, quick);

  const std::size_t clients = static_cast<std::size_t>(cli.get_int("clients", 8));
  const std::size_t dup = static_cast<std::size_t>(cli.get_int("dup", 4));
  const bool tolerant = cli.has("tolerant");
  const bool external = cli.has("connect");
  const bool v2 = cli.has("v2");
  const bool zipf = cli.has("zipf");
  const std::string token = cli.get("token", "");
  const std::string out_path = cli.get("out", "BENCH_serve.json");

  std::string address = cli.get("connect", "");
  std::unique_ptr<serve::Server> server;
  if (!external) {
    // Self-contained mode: private socket, scratch cache wiped up front so
    // the cold-compute count is deterministic.
    cfg.cache.enabled = true;
    cfg.cache.disk = true;
    cfg.cache.dir = (fs::path(cfg.cache.dir) / "serve_loadgen").string();
    std::error_code ec;
    fs::remove_all(cfg.cache.dir, ec);
    core::configure_result_cache(cfg.cache);
    core::reset_result_cache_stats();

    address = "unix:serve-loadgen-" + std::to_string(::getpid()) + ".sock";
    serve::ServerConfig sc;
    sc.listen_address = address;
    sc.dispatch.queue_depth = 256;  // the load phase measures coalescing, not admission
    sc.dispatch.workers = 4;
    server = std::make_unique<serve::Server>(sc);
    std::string error;
    if (!server->start(&error)) {
      std::cout << "serve_loadgen: FAIL — cannot start in-process server: " << error << "\n";
      return 1;
    }
  }

  // ---- the trace: every unique request, duplicated, dealt round-robin ----
  const std::vector<std::string> uniques = unique_request_lines();
  std::vector<std::size_t> trace;  // indices into uniques
  if (zipf) {
    trace = zipf_trace(uniques.size(), dup * uniques.size(), 0x5EED5EEDull);
  } else {
    for (std::size_t d = 0; d < dup; ++d)
      for (std::size_t u = 0; u < uniques.size(); ++u) trace.push_back(u);
    // Deterministic shuffle (LCG) so concurrent clients hold different
    // mixes of the same uniques — the duplicate pressure that drives
    // coalescing.
    std::uint64_t lcg = 0x2545F4914F6CDD1Dull;
    for (std::size_t i = trace.size(); i > 1; --i) {
      lcg = lcg * 6364136223846793005ull + 1442695040888963407ull;
      std::swap(trace[i - 1], trace[(lcg >> 33) % i]);
    }
  }

  util::JsonValue stats_before;
  const bool have_stats_before = fetch_stats(address, token, &stats_before);

  // ---- load phase ----
  const auto t0 = std::chrono::steady_clock::now();
  const std::vector<ClientResult> results = replay(address, token, uniques, trace, clients, v2);
  const double wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();

  util::JsonValue stats_after;
  const bool have_stats_after = fetch_stats(address, token, &stats_after);

  // ---- report ----
  std::size_t served = 0, rejected = 0, failed = 0;
  std::vector<double> latencies;
  for (const auto& r : results) {
    served += r.payloads.size();
    rejected += static_cast<std::size_t>(r.rejected);
    failed += static_cast<std::size_t>(r.failed);
    latencies.insert(latencies.end(), r.latencies_ms.begin(), r.latencies_ms.end());
  }
  std::cout << "\nclients " << clients << ", unique requests " << uniques.size()
            << (zipf ? ", zipf mix" : (", duplication x" + std::to_string(dup)).c_str())
            << ", trace " << trace.size() << " requests\n";
  std::cout << "served " << served << ", rejected " << rejected << ", failed " << failed
            << " in " << util::format_fixed(wall_s, 3) << " s  ("
            << util::format_fixed(static_cast<double>(served) / std::max(wall_s, 1e-9), 1)
            << " req/s)\n";
  if (!latencies.empty()) {
    std::cout << "latency ms: p50 " << util::format_fixed(util::percentile(latencies, 50), 2)
              << "  p90 " << util::format_fixed(util::percentile(latencies, 90), 2)
              << "  p99 " << util::format_fixed(util::percentile(latencies, 99), 2) << "\n";
  }

  // Perf-contract report: each client connection is one repeat. Latency
  // aggregates median-of-medians across clients; throughput is one
  // requests/sec sample per client, so the CV measures client-to-client
  // skew — the number the CI tolerance must absorb.
  {
    std::vector<std::vector<double>> latency_reps, rate_reps;
    for (const auto& r : results) {
      if (!r.latencies_ms.empty()) latency_reps.push_back(r.latencies_ms);
      if (r.wall_s > 0.0 && !r.latencies_ms.empty())
        rate_reps.push_back(
            {static_cast<double>(r.latencies_ms.size()) / r.wall_s});
    }
    util::BenchReport report = bench::make_report("serve", quick);
    report.knobs.emplace_back("clients", static_cast<double>(clients));
    report.knobs.emplace_back("dup", static_cast<double>(dup));
    report.knobs.emplace_back("unique_requests", static_cast<double>(uniques.size()));
    report.metrics.push_back(bench::value_metric("load/request_latency_ms", "ms",
                                                 /*higher_is_better=*/false, latency_reps));
    report.metrics.push_back(bench::value_metric("load/client_req_per_s", "req/s",
                                                 /*higher_is_better=*/true, rate_reps));
    if (!bench::write_report(report, out_path)) return 1;
  }

  bool pass = true;

  // Gate 1: byte-identity of every served payload against the offline
  // library output for the same request line.
  std::vector<std::string> offline(uniques.size());
  for (std::size_t u = 0; u < uniques.size(); ++u) {
    protocol::Request req;
    protocol::Error err;
    if (!protocol::parse_request(uniques[u], &req, &err)) {
      std::cout << "FAIL — unique request " << u << " does not parse: " << err.message << "\n";
      return 1;
    }
    offline[u] = protocol::execute(req);
  }
  std::size_t mismatches = 0;
  for (const auto& r : results)
    for (const auto& [u, payload] : r.payloads)
      if (payload != offline[u]) ++mismatches;
  if (mismatches == 0) {
    std::cout << "gate 1 PASS — " << served << " served payloads byte-identical to offline\n";
  } else {
    std::cout << "gate 1 FAIL — " << mismatches << " served payloads differ from offline\n";
    pass = false;
  }

  // Gate 2: the server computed >= dup times fewer sweeps than it served.
  // cache.misses counts actual cold computations; coalesced and cached
  // duplicates never miss. A router's stats carry no cache group (its
  // counters are its own), so the gate is skipped over that transport.
  if (have_stats_after && !stats_has_group(stats_after, "cache")) {
    std::cout << "gate 2 skipped — peer stats carry no cache counters (router target)\n";
  } else if (have_stats_before && have_stats_after) {
    const std::uint64_t misses = stats_counter(stats_after, "cache", "cache.misses") -
                                 stats_counter(stats_before, "cache", "cache.misses");
    const std::uint64_t coalesced =
        stats_counter(stats_after, "serve", "serve.coalesce_hits") -
        stats_counter(stats_before, "serve", "serve.coalesce_hits");
    const std::uint64_t mem_hits = stats_counter(stats_after, "cache", "cache.memory_hits") -
                                   stats_counter(stats_before, "cache", "cache.memory_hits");
    std::cout << "server counters: computed(misses) " << misses << ", coalesce_hits "
              << coalesced << ", memory_hits " << mem_hits << "\n";
    if (misses * dup <= served && misses > 0) {
      std::cout << "gate 2 PASS — " << served << " served / " << misses
                << " computed >= x" << dup << " deduplication\n";
    } else if (tolerant) {
      std::cout << "gate 2 skipped (tolerant)\n";
    } else {
      std::cout << "gate 2 FAIL — computed " << misses << " sweeps for " << served
                << " served (need served >= " << dup << " * computed)\n";
      pass = false;
    }
  } else if (!tolerant) {
    std::cout << "gate 2 FAIL — could not fetch server stats\n";
    pass = false;
  }

  if (!tolerant && (rejected > 0 || failed > 0)) {
    std::cout << "FAIL — " << rejected << " rejections / " << failed
              << " failures in a run that allows none\n";
    pass = false;
  }
  if (tolerant && (rejected > 0 || failed > 0))
    std::cout << "tolerant mode: " << rejected << " rejections / " << failed
              << " failures accepted\n";

  if (server) {
    server->request_drain();
    server->wait();
    server.reset();

    // Gate 3: admission control under deliberate overload.
    if (overload_probe()) {
      std::cout << "gate 3 PASS — overload answered with structured retryable rejections\n";
    } else {
      std::cout << "gate 3 FAIL — no structured overload rejection observed\n";
      pass = false;
    }
  }

  std::cout << (pass ? "\nserve_loadgen: all gates PASS\n" : "\nserve_loadgen: FAIL\n");
  return pass ? 0 : 1;
}
