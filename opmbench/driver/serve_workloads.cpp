// serve_large_cold and serve_small_hot: the served path, measured from a
// client's side of the router socket, plus the traced composition of the
// same requests through the public protocol/core/advise calls.
#include <algorithm>
#include <atomic>
#include <charconv>
#include <filesystem>
#include <memory>
#include <set>
#include <thread>

#include "advise/advise.hpp"
#include "bench.hpp"
#include "core/result_cache.hpp"
#include "core/sweep.hpp"
#include "kernels/cholesky.hpp"
#include "kernels/gemm.hpp"
#include "proc.hpp"
#include "runs.hpp"
#include "serve/protocol.hpp"
#include "sparse/collection.hpp"
#include "util/fingerprint.hpp"
#include "util/format.hpp"
#include "workloads.hpp"

namespace opmbench {

namespace {

namespace protocol = opm::serve::protocol;
using opm::util::Digest128;

/// Client connections of the open loop and of the cache warm-up (nproc on
/// the reference 4-core machine).
constexpr int kConnections = 4;
/// serve_large_cold's closed loop keeps one request in flight per shard on
/// average. Measured on a 4-vCPU shared VM: with 4, the tier's busy
/// threads outnumbered the cores and its p99 swung +-25% run to run with
/// the VM's CPU steal; with 2 it stays within ~10%.
constexpr int kColdConnections = 2;
/// Open-loop offered load of serve_small_hot: about a fifth of the ~5000
/// req/s the tier sustains on this mix on an idle 4-vCPU VM; half of it
/// saturated the tier whenever the VM lost CPU to steal (README.md).
constexpr double kHotRate = 1000.0;
/// Setups per serve_small_hot run; setup_s is their median.
constexpr int kHotSetups = 3;
/// Latency windows (see quiet_quartile). A window holds at least 1000
/// requests, so at least ten lie beyond its p99: 2 s of schedule on
/// serve_small_hot (2000 requests), 7 rounds on serve_large_cold (1120).
constexpr std::int64_t kHotWindowNs = 2'000'000'000;
constexpr std::uint64_t kColdWindowRounds = 7;
/// Caps on a traced run's composition (requests) and cache probes
/// (distinct sweeps), which keep its span log and disk use small.
constexpr std::size_t kMaxComposed = 4000;
constexpr std::size_t kMaxCacheProbes = 200;

Digest128 digest_of(std::string_view payload) {
  return opm::util::Hasher128().add(payload).digest();
}

/// What the client saw for one request.
struct Outcome {
  bool done = false;
  bool ok = false;
  double latency_ms = 0.0;
  Digest128 digest;
};

struct Parsed {
  protocol::Request req;
  bool valid = false;
};

std::vector<Parsed> parse_all(const std::vector<std::string>& lines) {
  std::vector<Parsed> out(lines.size());
  for (std::size_t i = 0; i < lines.size(); ++i) {
    protocol::Error err;
    out[i].valid = protocol::parse_request(lines[i], &out[i].req, &err);
  }
  return out;
}

/// Checks a parsed response against the id it answers and records it.
void record(const std::string& response, const std::string& expected_id, Outcome* out) {
  protocol::ResponseView view;
  out->done = true;
  out->ok = protocol::parse_response(response, &view) && view.ok && view.id == expected_id;
  if (out->ok) out->digest = digest_of(view.payload);
}

/// Closed loop: `connections` clients share a cursor over `lines`; each
/// sends its next line only after the previous response arrived.
std::vector<Outcome> closed_loop(const std::string& address, const std::vector<std::string>& lines,
                                 const std::vector<Parsed>& parsed, int connections) {
  std::vector<Outcome> out(lines.size());
  std::atomic<std::size_t> cursor{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < connections; ++c) {
    clients.emplace_back([&] {
      LineClient client;
      if (!client.connect(address)) return;
      std::string response;
      for (;;) {
        const std::size_t i = cursor.fetch_add(1);
        if (i >= lines.size()) return;
        const std::int64_t t0 = now_ns();
        if (!client.send(lines[i]) || !client.recv(&response)) return;
        out[i].latency_ms = static_cast<double>(now_ns() - t0) * 1e-6;
        record(response, parsed[i].req.id, &out[i]);
      }
    });
  }
  for (auto& t : clients) t.join();
  return out;
}

/// Reference payload digests straight from the library
/// (protocol::execute, result cache off), computed on `kConnections`
/// threads after the timed phase.
std::vector<Digest128> reference_digests(const std::vector<Parsed>& parsed) {
  std::vector<Digest128> out(parsed.size());
  std::atomic<std::size_t> cursor{0};
  std::vector<std::thread> workers;
  for (int w = 0; w < kConnections; ++w) {
    workers.emplace_back([&] {
      for (;;) {
        const std::size_t i = cursor.fetch_add(1);
        if (i >= parsed.size()) return;
        if (parsed[i].valid) out[i] = digest_of(protocol::execute(parsed[i].req));
      }
    });
  }
  for (auto& t : workers) t.join();
  return out;
}

/// Median round-trip time of `n` pings on one persistent connection, µs.
double ping_rtt_us(const std::string& address, int n) {
  LineClient client;
  if (!client.connect(address)) return 0.0;
  std::vector<double> rtt;
  std::string response;
  for (int i = 0; i < n; ++i) {
    const std::int64_t t0 = now_ns();
    if (!client.send(R"({"v":2,"req_id":"p","type":"ping"})") || !client.recv(&response)) break;
    rtt.push_back(static_cast<double>(now_ns() - t0) * 1e-3);
  }
  return median(rtt);
}

/// Shard counters summed over the tier: sweep requests admitted,
/// computed (leader executions), and result-cache hits and misses.
struct TierCounters {
  double admitted = 0, computed = 0, hits = 0, misses = 0;
};

TierCounters tier_counters(const Topology& topo) {
  TierCounters t;
  for (int s = 0; s < Topology::kShards; ++s) {
    std::string stats;
    if (!fetch_stats(topo.shard(s), &stats)) continue;
    t.admitted += stats_counter(stats, "serve", "serve.admitted");
    t.computed += stats_counter(stats, "serve", "serve.computed");
    t.hits += stats_counter(stats, "cache", "cache.memory_hits") +
              stats_counter(stats, "cache", "cache.disk_hits");
    t.misses += stats_counter(stats, "cache", "cache.misses");
  }
  return t;
}

TierCounters operator-(const TierCounters& a, const TierCounters& b) {
  return {a.admitted - b.admitted, a.computed - b.computed, a.hits - b.hits,
          a.misses - b.misses};
}

void add_tier_layers(const TierCounters& d, RunResult* res) {
  res->per_layer["serve.computed"] = d.computed;
  res->per_layer["serve.dedup_ratio"] = d.computed > 0 ? d.admitted / d.computed : 0.0;
  res->per_layer["core.cache_hit_ratio"] =
      d.hits + d.misses > 0 ? d.hits / (d.hits + d.misses) : 0.0;
}

/// Folds outcomes and reference digests into the run's counters.
void score(const std::vector<Outcome>& outcomes, const std::vector<Digest128>& refs,
           const std::vector<std::size_t>& ref_index, RunResult* res) {
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    ++res->attempted;
    const Outcome& o = outcomes[i];
    if (!o.done || !o.ok || !(o.digest == refs[ref_index[i]])) ++res->failed;
  }
}

}  // namespace

void add_latency(std::vector<std::vector<double>> windows, RunResult* res) {
  if (windows.size() > 1 && windows.back().size() < windows.front().size()) {
    // A short trailing window joins the one before it.
    auto& prev = windows[windows.size() - 2];
    prev.insert(prev.end(), windows.back().begin(), windows.back().end());
    windows.pop_back();
  }
  std::vector<double> all, p50s, p99s;
  std::size_t min_beyond = ~std::size_t{0};
  for (const std::vector<double>& w : windows) {
    if (w.empty()) continue;
    all.insert(all.end(), w.begin(), w.end());
    p50s.push_back(median(w));
    p99s.push_back(percentile(w, 99.0));
    min_beyond = std::min(min_beyond, count_beyond(w, p99s.back()));
  }
  res->end_to_end["latency_p50_ms"] = quiet_quartile(p50s);
  res->end_to_end["latency_p99_ms"] = quiet_quartile(p99s);
  const Tail tail = tail_rule(all);
  res->notes.push_back("latency samples " + std::to_string(all.size()) + " in " +
                       std::to_string(p50s.size()) + " window(s), fewest beyond a window's p99: " +
                       std::to_string(p50s.empty() ? 0 : min_beyond) + "; tail rule over all: p" +
                       opm::util::format_fixed(tail.percentile, 2) + " = " +
                       opm::util::format_fixed(tail.value, 3) + " ms (" +
                       std::to_string(tail.beyond) + " beyond)");
}

namespace {

// ------------------------------------------------------------ traced run --

using protocol::RequestType;

std::vector<opm::core::SweepPoint> run_sweep(const protocol::Request& r) {
  switch (r.type) {
    case RequestType::kDense: return opm::core::sweep_dense(r.platform, r.dense);
    case RequestType::kSparse:
      return opm::core::sweep_sparse(r.platform, r.sparse, protocol::serve_suite());
    case RequestType::kFootprint:
      return opm::core::sweep_footprint_kernel(r.platform, r.footprint);
    default: return {};
  }
}

double median_of(const std::vector<Span>& spans, const std::vector<std::int64_t>& self,
                 const char* name, double scale) {
  return median(self_times_of(spans, self, name, scale));
}

/// Composes each request's served path in request order on one thread —
/// render_request -> parse_request -> sweep / advise -> render_points_csv
/// -> render_response -> parse_response + render_view (the router hop) ->
/// parse_response (the client) — under spans, then checks the composed
/// payload against protocol::execute. A second pass times the same sweep
/// on a cold and then warm ResultCache. `hot` selects which cache path
/// the served requests take (warm hits vs cold compute + store) when the
/// stage medians are summed against the untraced latency median.
void traced_composition(const std::vector<std::string>& lines, bool hot, double budget_s,
                        double untraced_p50_ms, const RunOptions& opt, RunResult* res) {
  SpanLog log;
  std::vector<double> bytes, csv_ns_per_point, sweep_ns_per_point;
  std::size_t composed = 0, mismatches = 0;
  const std::int64_t t0 = now_ns();
  for (const std::string& line : lines) {
    if (seconds_since(t0) > budget_s || composed >= kMaxComposed) break;
    protocol::Request req;
    protocol::Error err;
    if (!protocol::parse_request(line, &req, &err)) {
      ++mismatches;
      continue;
    }
    std::string client_payload;
    {
      ScopedSpan root(log, "request", -1, req.id);
      std::string wire;
      {
        ScopedSpan s(log, "serve.render_request", root.id(), req.id);
        wire = protocol::render_request(req);
      }
      protocol::Request shard_req;
      {
        ScopedSpan s(log, "serve.parse_request", root.id(), req.id);
        protocol::parse_request(wire, &shard_req, &err);
        (void)protocol::request_key(shard_req);
      }
      std::string payload;
      if (shard_req.type == RequestType::kAdvise) {
        ScopedSpan s(log, "advise.run_and_render", root.id(), req.id);
        payload = opm::advise::run_and_render(shard_req.advise);
      } else {
        std::vector<opm::core::SweepPoint> pts;
        const int sweep = log.begin("core.sweep", root.id(), req.id);
        pts = run_sweep(shard_req);
        log.end(sweep);
        const int csv = log.begin("serve.render_points_csv", root.id(), req.id);
        payload = protocol::render_points_csv(pts);
        log.end(csv);
        const double points = static_cast<double>(std::max<std::size_t>(pts.size(), 1));
        const Span& sweep_span = log.spans()[static_cast<std::size_t>(sweep)];
        const Span& csv_span = log.spans()[static_cast<std::size_t>(csv)];
        sweep_ns_per_point.push_back(static_cast<double>(sweep_span.end_ns - sweep_span.start_ns) /
                                     points);
        csv_ns_per_point.push_back(static_cast<double>(csv_span.end_ns - csv_span.start_ns) /
                                   points);
      }
      std::string response;
      {
        ScopedSpan s(log, "serve.render_response", root.id(), req.id);
        response = protocol::render_response(protocol::envelope_of(shard_req, 0), shard_req.type,
                                             payload);
      }
      std::string relayed;
      {
        ScopedSpan s(log, "serve.router_rerender", root.id(), req.id);
        protocol::ResponseView view;
        protocol::parse_response(response, &view);
        protocol::Envelope env = protocol::envelope_of(req);
        env.shard = view.shard;
        relayed = protocol::render_view(env, view);
      }
      {
        ScopedSpan s(log, "serve.client_parse", root.id(), req.id);
        protocol::ResponseView view;
        protocol::parse_response(relayed, &view);
        client_payload = std::move(view.payload);
      }
      bytes.push_back(static_cast<double>(relayed.size()));
    }
    if (client_payload != protocol::execute(req)) ++mismatches;
    ++composed;
  }

  // The cache layer: the same sweep on a cold, then a warm ResultCache.
  std::vector<double> store_us, stored_bytes;
  {
    opm::core::CacheConfig cc;
    cc.enabled = true;
    cc.disk = true;
    cc.dir = "trace-cache";
    opm::core::configure_result_cache(cc);
    (void)opm::core::drain_sweep_stats();
    std::set<opm::util::Digest128, bool (*)(const Digest128&, const Digest128&)> probed(
        [](const Digest128& a, const Digest128& b) { return a.hi != b.hi ? a.hi < b.hi : a.lo < b.lo; });
    for (const std::string& line : lines) {
      if (probed.size() >= std::min(composed, kMaxCacheProbes)) break;
      protocol::Request req;
      protocol::Error err;
      if (!protocol::parse_request(line, &req, &err) || req.type == RequestType::kAdvise) continue;
      if (!probed.insert(protocol::request_key(req)).second) continue;  // distinct keys only
      {
        ScopedSpan s(log, "core.cache_store", -1, req.id);
        (void)run_sweep(req);
      }
      for (const opm::core::SweepStats& st : opm::core::drain_sweep_stats()) {
        if (st.cache_misses == 0) continue;
        store_us.push_back(st.cache_seconds * 1e6);
        stored_bytes.push_back(static_cast<double>(st.cache_bytes_stored));
      }
      {
        ScopedSpan s(log, "core.cache_hit", -1, req.id);
        (void)run_sweep(req);
      }
    }
    cc.enabled = false;
    opm::core::configure_result_cache(cc);
  }

  const std::vector<Span>& spans = log.spans();
  const std::vector<std::int64_t> self = self_times(spans);
  auto& L = res->per_layer;
  L["serve.render_request_us"] = median_of(spans, self, "serve.render_request", 1e-3);
  L["serve.parse_request_us"] = median_of(spans, self, "serve.parse_request", 1e-3);
  L["serve.render_points_csv_us"] = median_of(spans, self, "serve.render_points_csv", 1e-3);
  L["serve.render_points_csv_ns_per_point"] = median(csv_ns_per_point);
  L["serve.render_response_us"] = median_of(spans, self, "serve.render_response", 1e-3);
  L["serve.router_rerender_us"] = median_of(spans, self, "serve.router_rerender", 1e-3);
  L["serve.client_parse_us"] = median_of(spans, self, "serve.client_parse", 1e-3);
  L["serve.response_bytes"] = median(bytes);
  L["core.sweep_us"] = median_of(spans, self, "core.sweep", 1e-3);
  L["core.sweep_ns_per_point"] = median(sweep_ns_per_point);
  L["core.cache_hit_us"] = median_of(spans, self, "core.cache_hit", 1e-3);
  L["core.cache_store_us"] = median(store_us);
  L["core.cache_bytes_stored"] = median(stored_bytes);
  if (const double advise = median_of(spans, self, "advise.run_and_render", 1e-6); advise > 0)
    L["advise.run_ms"] = advise;

  const double text = L["serve.render_points_csv_us"] + L["serve.render_response_us"] +
                      L["serve.router_rerender_us"] + L["serve.client_parse_us"];
  L["serve.text_share"] = text + L["core.sweep_us"] > 0 ? text / (text + L["core.sweep_us"]) : 0;
  // The served path parses each request twice (router, shard) and renders
  // it once more to forward it; a hot request is a cache hit, a cold one a
  // compute plus a store.
  const double path_us = 2.0 * L["serve.parse_request_us"] + L["serve.render_request_us"] +
                         (hot ? L["core.cache_hit_us"]
                              : L["core.sweep_us"] + L["core.cache_store_us"]) +
                         text;
  L["serve.unattributed_us"] = untraced_p50_ms * 1e3 - path_us;

  res->attempted += composed;
  res->failed += mismatches;
  res->notes.push_back("traced: composed " + std::to_string(composed) +
                       " requests, payload mismatches vs protocol::execute: " +
                       std::to_string(mismatches));
  res->notes.push_back(
      "traced: text stages (render_points_csv + render_response + router re-render + client "
      "parse) " + opm::util::format_fixed(text, 1) + " us vs core.sweep " +
      opm::util::format_fixed(L["core.sweep_us"], 1) + " us per request: text share " +
      opm::util::format_fixed(100.0 * L["serve.text_share"], 1) + "%");
  res->notes.push_back("traced: stage medians sum to " + opm::util::format_fixed(path_us, 1) +
                       " us vs untraced latency p50 " +
                       opm::util::format_fixed(untraced_p50_ms * 1e3, 1) + " us");
  if (!opt.spans_path.empty()) log.write_jsonl(opt.spans_path);
}

/// Layer timings that need no request stream: one kernels::predict on a
/// dense sweep shape, and the sparse suite construction every shard pays.
void add_fixed_layers(const std::vector<std::string>& lines, RunResult* res) {
  for (const std::string& line : lines) {
    protocol::Request req;
    protocol::Error err;
    if (!protocol::parse_request(line, &req, &err) || req.type != RequestType::kDense) continue;
    const auto model = req.dense.kernel == opm::core::KernelId::kGemm
                           ? opm::kernels::gemm_model(req.platform, req.dense.n_lo, req.dense.nb_lo)
                           : opm::kernels::cholesky_model(req.platform, req.dense.n_lo,
                                                          req.dense.nb_lo);
    std::vector<double> per_call;
    for (int rep = 0; rep < 21; ++rep) {
      const std::int64_t t0 = now_ns();
      double sink = 0.0;
      for (int i = 0; i < 100; ++i) sink += opm::kernels::predict(req.platform, model).gflops;
      per_call.push_back(static_cast<double>(now_ns() - t0) / 100.0);
      if (sink < 0) per_call.back() = 0;  // keeps the calls observable
    }
    res->per_layer["kernels.predict_ns"] = median(per_call);
    break;
  }
  std::vector<double> build_ms;
  for (int rep = 0; rep < 5; ++rep) {
    const std::int64_t t0 = now_ns();
    const auto suite = opm::sparse::SyntheticCollection::paper_suite();
    build_ms.push_back(static_cast<double>(now_ns() - t0) * 1e-6);
  }
  res->per_layer["sparse.suite_build_ms"] = median(build_ms);
}

std::string cache_dir(const std::string& tag) { return "cache-" + tag; }

void remove_dir(const std::string& dir) {
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
}

}  // namespace

// --------------------------------------------------------- serve_large_cold --

RunResult run_serve_large_cold(const RunOptions& opt) {
  RunResult res;
  std::vector<double> setups, rounds_s, round_rps, rss;
  std::vector<std::vector<double>> windows;
  double measured_s = 0.0;
  TierCounters counters;
  std::vector<std::string> first_round;
  const std::int64_t run_start = now_ns();
  for (std::uint64_t round = 0; measured_s < opt.seconds; ++round) {
    const std::vector<std::string> lines = large_cold_round(opt.seed, round);
    if (round == 0) first_round = lines;
    const std::vector<Parsed> parsed = parse_all(lines);
    const std::string tag = std::string("r") + std::to_string(round);
    Topology topo(opt.bin_dir, tag, cache_dir(tag));
    std::string error;
    const std::int64_t s0 = now_ns();
    if (!topo.start(&error)) {
      res.notes.push_back("setup failed: " + error);
      res.correct = false;
      res.attempted += lines.size();
      res.failed += lines.size();
      break;
    }
    setups.push_back(seconds_since(s0));

    const std::int64_t r0 = now_ns();
    const std::vector<Outcome> outcomes = closed_loop(topo.router(), lines, parsed, kColdConnections);
    const double wall = seconds_since(r0);
    measured_s += wall;
    rounds_s.push_back(wall);

    const TierCounters after = tier_counters(topo);
    counters = {counters.admitted + after.admitted, counters.computed + after.computed,
                counters.hits + after.hits, counters.misses + after.misses};
    if (opt.trace && round == 0) {
      res.per_layer["serve.ping_rtt_us"] = ping_rtt_us(topo.router(), 200);
      res.per_layer["serve.shard_ping_rtt_us"] = ping_rtt_us(topo.shard(0), 200);
    }
    rss.push_back(topo.stop());
    remove_dir(cache_dir(tag));

    std::vector<std::size_t> index(lines.size());
    for (std::size_t i = 0; i < index.size(); ++i) index[i] = i;
    score(outcomes, reference_digests(parsed), index, &res);
    if (round % kColdWindowRounds == 0) windows.emplace_back();
    std::size_t served = 0;
    for (const Outcome& o : outcomes) {
      if (!o.done) continue;
      windows.back().push_back(o.latency_ms);
      if (o.ok) ++served;
    }
    round_rps.push_back(static_cast<double>(served) / wall);
    if (seconds_since(run_start) > 6.0 * opt.seconds + 60.0) break;  // runaway guard
  }

  res.end_to_end["setup_s"] = median(setups);
  res.end_to_end["throughput_rps"] = quiet_quartile(round_rps, /*higher_is_better=*/true);
  add_latency(windows, &res);
  res.end_to_end["regen_s"] = quiet_quartile(rounds_s);
  res.end_to_end["peak_rss_mb"] = median(rss);
  res.notes.push_back("rounds " + std::to_string(rounds_s.size()) + " x " +
                      std::to_string(kColdRoundRequests) + " cold requests, measured " +
                      opm::util::format_fixed(measured_s, 2) + " s");

  if (opt.trace) {
    add_tier_layers(counters, &res);
    add_fixed_layers(first_round, &res);
    traced_composition(first_round, /*hot=*/false, opt.seconds,
                       res.end_to_end["latency_p50_ms"], opt, &res);
  }
  return res;
}

// ---------------------------------------------------------- serve_small_hot --

RunResult run_serve_small_hot(const RunOptions& opt) {
  RunResult res;
  const std::vector<std::string> universe = small_hot_universe(opt.seed);
  std::vector<std::string> warm_lines(universe.size());
  for (std::size_t u = 0; u < universe.size(); ++u)
    warm_lines[u] = with_req_id(universe[u], std::string("w") + std::to_string(u));
  const std::vector<Parsed> warm_parsed = parse_all(warm_lines);

  // Setup: spawn the tier and warm its caches with every unique request
  // once. Done kHotSetups times; the last topology stays up for the load.
  std::vector<double> setups;
  std::vector<Outcome> warm_outcomes;
  std::unique_ptr<Topology> topo;
  for (int k = 0; k < kHotSetups; ++k) {
    if (topo) {
      topo->stop();
      remove_dir(cache_dir("s" + std::to_string(k - 1)));
    }
    const std::string tag = "s" + std::to_string(k);
    topo = std::make_unique<Topology>(opt.bin_dir, tag, cache_dir(tag));
    std::string error;
    const std::int64_t s0 = now_ns();
    if (!topo->start(&error)) {
      res.notes.push_back("setup failed: " + error);
      res.correct = false;
      res.attempted = res.failed = 1;
      return res;
    }
    std::vector<Outcome> warmed = closed_loop(topo->router(), warm_lines, warm_parsed, kConnections);
    setups.push_back(seconds_since(s0));
    warm_outcomes.insert(warm_outcomes.end(), warmed.begin(), warmed.end());
  }

  const std::vector<Arrival> schedule =
      open_loop_schedule(opt.seed, kHotRate, opt.seconds, universe.size());
  std::vector<std::string> sched_lines(schedule.size());
  for (std::size_t i = 0; i < schedule.size(); ++i)
    sched_lines[i] = with_req_id(universe[schedule[i].unique], "h" + std::to_string(i));

  const TierCounters before = tier_counters(*topo);
  std::vector<Outcome> outcomes(schedule.size());
  std::vector<std::int64_t> lateness_ns(schedule.size(), 0);
  const std::int64_t t0 = now_ns() + 20'000'000;  // 20 ms to connect
  std::vector<std::thread> threads;
  std::vector<std::unique_ptr<LineClient>> clients;
  for (int c = 0; c < kConnections; ++c) {
    clients.push_back(std::make_unique<LineClient>());
    if (!clients.back()->connect(topo->router(), 30.0)) clients.back().reset();
  }
  // One sender thread sends each request at its due time, dealing the
  // requests over the connections in turn; one receiver per connection.
  threads.emplace_back([&] {
    for (std::size_t i = 0; i < schedule.size(); ++i) {
      LineClient* client = clients[i % kConnections].get();
      if (client == nullptr) continue;
      const std::int64_t due = t0 + schedule[i].due_ns;
      std::this_thread::sleep_until(Clock::time_point(std::chrono::nanoseconds(due)));
      lateness_ns[i] = now_ns() - due;
      client->send(sched_lines[i]);
    }
  });
  for (int c = 0; c < kConnections; ++c) {
    if (!clients[static_cast<std::size_t>(c)]) continue;
    LineClient& client = *clients[static_cast<std::size_t>(c)];
    threads.emplace_back([&, c] {  // receiver: matches responses by req_id
      std::string response;
      const std::size_t expected =
          (schedule.size() + static_cast<std::size_t>(kConnections - 1 - c)) / kConnections;
      for (std::size_t k = 0; k < expected; ++k) {
        if (!client.recv(&response)) return;
        const std::int64_t done = now_ns();
        protocol::ResponseView view;
        if (!protocol::parse_response(response, &view) || view.id.size() < 2) continue;
        std::size_t i = 0;
        const char* last = view.id.data() + view.id.size();
        if (std::from_chars(view.id.data() + 1, last, i).ptr != last || i >= schedule.size())
          continue;
        Outcome& o = outcomes[i];
        o.done = true;
        o.latency_ms = static_cast<double>(done - (t0 + schedule[i].due_ns)) * 1e-6;
        o.ok = view.ok;
        if (o.ok) o.digest = digest_of(view.payload);
      }
    });
  }
  for (auto& t : threads) t.join();
  clients.clear();

  double last_done_ms = 0.0;
  std::vector<std::vector<double>> windows;
  std::vector<double> lateness_ms;
  std::size_t served = 0;
  for (std::size_t i = 0; i < schedule.size(); ++i) {
    lateness_ms.push_back(static_cast<double>(lateness_ns[i]) * 1e-6);
    if (!outcomes[i].done) continue;
    const auto w = static_cast<std::size_t>(schedule[i].due_ns / kHotWindowNs);
    if (windows.size() <= w) windows.resize(w + 1);
    windows[w].push_back(outcomes[i].latency_ms);
    last_done_ms =
        std::max(last_done_ms, static_cast<double>(schedule[i].due_ns) * 1e-6 +
                                   outcomes[i].latency_ms);
    if (outcomes[i].ok) ++served;
  }
  const TierCounters after = tier_counters(*topo);
  if (opt.trace) {
    res.per_layer["serve.ping_rtt_us"] = ping_rtt_us(topo->router(), 200);
    res.per_layer["serve.shard_ping_rtt_us"] = ping_rtt_us(topo->shard(0), 200);
  }
  const double rss = topo->stop();
  remove_dir(cache_dir("s" + std::to_string(kHotSetups - 1)));

  // Correctness: every warm-up and every scheduled response against the
  // library's own payload for the same request.
  const std::vector<Digest128> refs = reference_digests(warm_parsed);
  std::vector<std::size_t> warm_index(warm_outcomes.size());
  for (std::size_t i = 0; i < warm_index.size(); ++i) warm_index[i] = i % universe.size();
  score(warm_outcomes, refs, warm_index, &res);
  std::vector<std::size_t> sched_index(schedule.size());
  for (std::size_t i = 0; i < schedule.size(); ++i) sched_index[i] = schedule[i].unique;
  score(outcomes, refs, sched_index, &res);

  res.end_to_end["setup_s"] = median(setups);
  res.end_to_end["throughput_rps"] =
      last_done_ms > 0 ? static_cast<double>(served) / (last_done_ms * 1e-3) : 0.0;
  add_latency(windows, &res);
  res.end_to_end["regen_s"] = last_done_ms * 1e-3;
  res.end_to_end["peak_rss_mb"] = rss;
  res.notes.push_back("open loop: offered " + opm::util::format_fixed(kHotRate, 0) +
                      " req/s over " + std::to_string(kConnections) + " connections, " +
                      std::to_string(schedule.size()) + " scheduled, generator lateness p99 " +
                      opm::util::format_fixed(percentile(lateness_ms, 99.0), 3) + " ms");

  if (opt.trace) {
    res.per_layer["gen.lateness_p99_ms"] = percentile(lateness_ms, 99.0);
    add_tier_layers(after - before, &res);
    add_fixed_layers(warm_lines, &res);
    traced_composition(sched_lines, /*hot=*/true, opt.seconds, res.end_to_end["latency_p50_ms"],
                       opt, &res);
  }
  return res;
}

}  // namespace opmbench
