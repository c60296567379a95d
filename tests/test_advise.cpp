// The tuning advisor: canonical serialization and fingerprint identity,
// the roofline guard rails and measured placement it reasons with, the
// Section 6 clamp warnings, verified-refuted reporting, the advise/config
// protocol surface (parse, render, request_key, unsupported-key), batch
// framing over a live socket, and dispatcher integration — coalescing and
// payload-cache identity for served advise requests, plus config
// hot-reload of the verify switch.
#include <unistd.h>

#include <algorithm>
#include <mutex>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "advise/advise.hpp"
#include "core/advisor.hpp"
#include "core/result_cache.hpp"
#include "core/roofline.hpp"
#include "core/sweep.hpp"
#include "serve/client.hpp"
#include "serve/dispatcher.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "sim/window_sampler.hpp"
#include "util/json.hpp"
#include "util/metrics.hpp"

namespace {

using namespace opm;
using serve::protocol::Error;
using serve::protocol::Request;
using serve::protocol::RequestType;

// ------------------------------------------------------ request identity --

TEST(AdviseIdentity, SerializationIsCanonicalAndFieldSensitive) {
  advise::AdviseRequest a;
  ASSERT_TRUE(advise::parse_kernel_token("spmv", &a.kernel));
  a.platform = "knl-ddr";
  advise::AdviseRequest b = a;
  EXPECT_EQ(advise::serialize(a), advise::serialize(b));
  EXPECT_EQ(advise::advise_cache_key(a), advise::advise_cache_key(b));

  // Every field of the request participates in both the text and the key.
  advise::AdviseRequest kernel_changed = a;
  ASSERT_TRUE(advise::parse_kernel_token("gemm", &kernel_changed.kernel));
  advise::AdviseRequest platform_changed = a;
  platform_changed.platform = "knl-flat";
  advise::AdviseRequest footprint_changed = a;
  footprint_changed.footprint_bytes = 64.0 * 1024 * 1024;
  advise::AdviseRequest objective_changed = a;
  objective_changed.objective = advise::Objective::kEnergy;
  advise::AdviseRequest verify_changed = a;
  verify_changed.verify = false;
  for (const advise::AdviseRequest* changed :
       {&kernel_changed, &platform_changed, &footprint_changed, &objective_changed,
        &verify_changed}) {
    EXPECT_NE(advise::serialize(a), advise::serialize(*changed));
    EXPECT_FALSE(advise::advise_cache_key(a) == advise::advise_cache_key(*changed));
  }

  // The process-wide verify switch is part of the payload identity too: a
  // skipped-verification payload must never be served as a verified one.
  const util::Digest128 verified_key = advise::advise_cache_key(a);
  advise::set_verify_enabled(false);
  const util::Digest128 unverified_key = advise::advise_cache_key(a);
  advise::set_verify_enabled(true);
  EXPECT_FALSE(verified_key == unverified_key);
  EXPECT_EQ(verified_key, advise::advise_cache_key(a));
}

TEST(AdviseIdentity, KernelAndObjectiveTokensRoundTrip) {
  for (const char* token : {"gemm", "cholesky", "spmv", "sptrans", "sptrsv", "fft",
                            "stencil", "stream"}) {
    core::KernelId id;
    ASSERT_TRUE(advise::parse_kernel_token(token, &id)) << token;
    EXPECT_STREQ(advise::kernel_token(id), token);
  }
  core::KernelId id;
  EXPECT_FALSE(advise::parse_kernel_token("daxpy", &id));
  EXPECT_FALSE(advise::parse_kernel_token("", &id));

  advise::Objective obj;
  ASSERT_TRUE(advise::parse_objective("perf", &obj));
  EXPECT_EQ(obj, advise::Objective::kPerf);
  ASSERT_TRUE(advise::parse_objective("energy", &obj));
  EXPECT_EQ(obj, advise::Objective::kEnergy);
  EXPECT_FALSE(advise::parse_objective("speed", &obj));

  sim::Platform p;
  EXPECT_TRUE(advise::resolve_platform("broadwell-edram-off", &p));
  EXPECT_TRUE(advise::resolve_platform("knl-hybrid", &p));
  EXPECT_FALSE(advise::resolve_platform("epyc", &p));
}

// ------------------------------------------------------- roofline engine --

TEST(AdviseRoofline, AttainableGuardsDegenerateInputs) {
  // Non-positive intensity, peak, or bandwidth clamp to a zero roof.
  EXPECT_DOUBLE_EQ(core::roofline_attainable(0.0, 1e12, 1e11), 0.0);
  EXPECT_DOUBLE_EQ(core::roofline_attainable(-1.0, 1e12, 1e11), 0.0);
  EXPECT_DOUBLE_EQ(core::roofline_attainable(4.0, 0.0, 1e11), 0.0);
  EXPECT_DOUBLE_EQ(core::roofline_attainable(4.0, 1e12, -1e11), 0.0);
  // Below the ridge the memory roof binds; above it the compute roof does.
  EXPECT_DOUBLE_EQ(core::roofline_attainable(2.0, 1e12, 1e11), 2e11);
  EXPECT_DOUBLE_EQ(core::roofline_attainable(100.0, 1e12, 1e11), 1e12);
}

TEST(AdviseRoofline, RidgePointsOrderedByBandwidth) {
  sim::Platform knl;
  ASSERT_TRUE(advise::resolve_platform("knl-flat", &knl));
  const core::RooflineFigure fig = core::build_roofline(knl);
  ASSERT_GT(fig.opm_bandwidth, fig.ddr_bandwidth);  // MCDRAM outruns DDR4
  // Faster memory meets the compute roof at a higher intensity.
  EXPECT_GT(fig.ridge_point_opm(), 0.0);
  EXPECT_GT(fig.ridge_point_ddr(), fig.ridge_point_opm());
  // Attainable performance is monotone non-decreasing in intensity.
  double last = 0.0;
  for (double ai = 0.0625; ai <= 256.0; ai *= 2.0) {
    const double now = core::roofline_attainable(ai, fig.dp_peak_flops, fig.opm_bandwidth);
    EXPECT_GE(now, last) << "ai=" << ai;
    last = now;
  }
}

TEST(AdviseRoofline, PlaceMeasuredHandComputedIntensities) {
  sim::Platform knl;
  ASSERT_TRUE(advise::resolve_platform("knl-flat", &knl));
  const core::RooflineFigure fig = core::build_roofline(knl);

  // A STREAM-shaped measurement: 1 flop per 16 bytes of memory traffic.
  const core::MeasuredPlacement stream =
      core::place_measured(fig, "stream-like", 1e9, 16e9);
  EXPECT_DOUBLE_EQ(stream.intensity, 1.0 / 16.0);
  EXPECT_DOUBLE_EQ(stream.opm_attainable_gflops, (1.0 / 16.0) * fig.opm_bandwidth / 1e9);
  EXPECT_DOUBLE_EQ(stream.ddr_attainable_gflops, (1.0 / 16.0) * fig.ddr_bandwidth / 1e9);
  EXPECT_TRUE(stream.memory_bound_opm);
  EXPECT_TRUE(stream.memory_bound_ddr);

  // A GEMM-shaped measurement far above both ridges: compute-bound, the
  // roofs cap at the compute peak.
  const core::MeasuredPlacement gemm = core::place_measured(fig, "gemm-like", 1e12, 1e9);
  EXPECT_DOUBLE_EQ(gemm.intensity, 1000.0);
  EXPECT_FALSE(gemm.memory_bound_opm);
  EXPECT_FALSE(gemm.memory_bound_ddr);
  EXPECT_DOUBLE_EQ(gemm.opm_attainable_gflops, fig.dp_peak_flops / 1e9);

  // Zero measured bytes: the run never left the caches — classified
  // compute-bound with zero intensity, never a division by zero.
  const core::MeasuredPlacement cached = core::place_measured(fig, "cached", 1e9, 0.0);
  EXPECT_DOUBLE_EQ(cached.intensity, 0.0);
  EXPECT_FALSE(cached.memory_bound_opm);
  EXPECT_DOUBLE_EQ(cached.opm_attainable_gflops, fig.dp_peak_flops / 1e9);

  // A degenerate figure yields zero roofs and a not-memory-bound verdict.
  core::RooflineFigure dead;
  const core::MeasuredPlacement nowhere = core::place_measured(dead, "x", 1e9, 1e9);
  EXPECT_DOUBLE_EQ(nowhere.opm_attainable_gflops, 0.0);
  EXPECT_DOUBLE_EQ(nowhere.ddr_attainable_gflops, 0.0);
  EXPECT_FALSE(nowhere.memory_bound_opm);
}

// ----------------------------------------------------- advisor clamping --

TEST(AdviseRules, MalformedProfilesClampWithWarning) {
  sim::Platform knl;
  ASSERT_TRUE(advise::resolve_platform("knl-flat", &knl));

  // Hot set larger than the footprint is impossible: clamped, warned.
  core::AppProfile inverted;
  inverted.footprint_bytes = 1e9;
  inverted.hot_set_bytes = 2e9;
  const core::McdramRecommendation clamped = core::advise_mcdram(knl, inverted);
  EXPECT_NE(clamped.reason.find("clamped hot set"), std::string::npos) << clamped.reason;

  // Non-positive footprint: treated as zero, warned, and routed to the
  // fits-in-MCDRAM rule (zero bytes trivially fit) instead of nonsense.
  core::AppProfile negative;
  negative.footprint_bytes = -5.0;
  const core::McdramRecommendation zeroed = core::advise_mcdram(knl, negative);
  EXPECT_NE(zeroed.reason.find("non-positive footprint"), std::string::npos) << zeroed.reason;
  EXPECT_EQ(zeroed.mode, sim::McdramMode::kFlat);

  // A well-formed profile carries no warning text.
  core::AppProfile sane;
  sane.footprint_bytes = 8e9;
  sane.hot_set_bytes = 1e9;
  const core::McdramRecommendation clean = core::advise_mcdram(knl, sane);
  EXPECT_EQ(clean.reason.find("[warning"), std::string::npos) << clean.reason;
}

// ------------------------------------------------- verified recommendation --

TEST(AdviseVerify, DeliberatelyBadRecommendationIsRefuted) {
  // Moving bandwidth-hungry STREAM from MCDRAM-flat *down* to DDR-only is
  // the advisor's advice inverted; the measured sweep must refute it (and
  // report the full prediction-vs-measurement gap).
  const advise::Verification v = advise::verify_modes(
      core::KernelId::kStream, "knl-flat", "knl-ddr", advise::Objective::kPerf, 2.0);
  EXPECT_EQ(v.verdict, advise::Verdict::kRefuted) << v.note;
  EXPECT_LT(v.measured_metric, 0.98);
  EXPECT_GT(v.inputs, 0u);
  EXPECT_DOUBLE_EQ(v.predicted_speedup, 2.0);
  EXPECT_NEAR(v.gap, 2.0 - v.measured_speedup, 1e-12);
}

TEST(AdviseVerify, IdenticalModesConfirmTrivially) {
  const advise::Verification v = advise::verify_modes(
      core::KernelId::kStream, "knl-ddr", "knl-ddr", advise::Objective::kPerf, 1.0);
  EXPECT_EQ(v.verdict, advise::Verdict::kConfirmed);
  EXPECT_DOUBLE_EQ(v.measured_speedup, 1.0);
}

// ------------------------------------------------------- protocol surface --

Request parse_ok(const std::string& line) {
  Request req;
  Error err;
  EXPECT_TRUE(serve::protocol::parse_request(line, &req, &err)) << line << ": " << err.message;
  return req;
}

TEST(AdviseProtocol, ParsesAdviseRequestsAndRejectsMalformedOnes) {
  const Request req = parse_ok(
      R"({"v":2,"req_id":"a1","type":"advise","platform":"knl-ddr","kernel":"fft",)"
      R"("objective":"energy","footprint_bytes":1048576,"verify":false})");
  EXPECT_EQ(req.type, RequestType::kAdvise);
  EXPECT_EQ(req.advise.kernel, core::KernelId::kFft);
  EXPECT_EQ(req.advise.platform, "knl-ddr");
  EXPECT_EQ(req.advise.objective, advise::Objective::kEnergy);
  EXPECT_DOUBLE_EQ(req.advise.footprint_bytes, 1048576.0);
  EXPECT_FALSE(req.advise.verify);

  struct Case {
    const char* line;
    const char* category;
  };
  const Case bad[] = {
      // kernel is required: an advise question is about one kernel.
      {R"({"type":"advise","platform":"knl-ddr"})", "bad-request"},
      {R"({"type":"advise","platform":"knl-ddr","kernel":"daxpy"})", "bad-request"},
      {R"({"type":"advise","kernel":"spmv"})", "bad-request"},  // missing platform
      {R"({"type":"advise","platform":"knl-ddr","kernel":"spmv","objective":"speed"})",
       "bad-request"},
      {R"({"type":"advise","platform":"knl-ddr","kernel":"spmv","footprint_bytes":-1})",
       "bad-request"},
      {R"({"type":"advise","platform":"knl-ddr","kernel":"spmv","verify":1})",
       "bad-request"},
      {R"({"type":"advise","platform":"knl-ddr","kernel":"spmv","bogus":1})",
       "bad-request"},
  };
  for (const auto& c : bad) {
    Request r;
    Error err;
    EXPECT_FALSE(serve::protocol::parse_request(c.line, &r, &err)) << c.line;
    EXPECT_EQ(err.category, c.category) << c.line << " -> " << err.message;
  }
}

TEST(AdviseProtocol, RenderedAdviseRequestRoundTrips) {
  Request req = parse_ok(
      R"({"v":2,"req_id":"rt","type":"advise","platform":"broadwell-edram-off",)"
      R"("kernel":"cholesky","objective":"perf","footprint_bytes":2097152})");
  const Request again = parse_ok(serve::protocol::render_request(req));
  EXPECT_EQ(again.advise, req.advise);
  EXPECT_EQ(serve::protocol::request_key(again), serve::protocol::request_key(req));
}

TEST(AdviseProtocol, RequestKeyIsContentIdentity) {
  const Request a = parse_ok(
      R"({"v":2,"req_id":"x","type":"advise","platform":"knl-ddr","kernel":"spmv"})");
  const Request b = parse_ok(
      R"({"v":2,"req_id":"y","type":"advise","platform":"knl-ddr","kernel":"spmv"})");
  EXPECT_EQ(serve::protocol::request_key(a), serve::protocol::request_key(b));

  const Request other_kernel = parse_ok(
      R"({"v":2,"req_id":"x","type":"advise","platform":"knl-ddr","kernel":"stream"})");
  EXPECT_FALSE(serve::protocol::request_key(a) == serve::protocol::request_key(other_kernel));
  const Request no_verify = parse_ok(
      R"({"v":2,"req_id":"x","type":"advise","platform":"knl-ddr","kernel":"spmv",)"
      R"("verify":false})");
  EXPECT_FALSE(serve::protocol::request_key(a) == serve::protocol::request_key(no_verify));
}

TEST(AdviseProtocol, ConfigRequestsParseKnobsAndFlagUnsupportedKeys) {
  const Request req = parse_ok(
      R"({"v":2,"req_id":"c1","type":"config","sweep_workers":4,"cache_enabled":true,)"
      R"("advise_verify":false})");
  EXPECT_EQ(req.type, RequestType::kConfig);
  EXPECT_TRUE(req.config.has_sweep_workers);
  EXPECT_EQ(req.config.sweep_workers, 4);
  EXPECT_TRUE(req.config.has_cache_enabled);
  EXPECT_TRUE(req.config.cache_enabled);
  EXPECT_TRUE(req.config.has_advise_verify);
  EXPECT_FALSE(req.config.advise_verify);

  // A config with no knobs is legal (a no-op the server acks).
  const Request empty = parse_ok(R"({"v":2,"req_id":"c2","type":"config"})");
  EXPECT_FALSE(empty.config.has_sweep_workers);

  // Unknown knobs get the dedicated category so clients can tell a typo
  // from a version-skewed server, and the message names the real knobs.
  Request r;
  Error err;
  EXPECT_FALSE(serve::protocol::parse_request(
      R"({"v":2,"req_id":"c3","type":"config","sweep_threads":4})", &r, &err));
  EXPECT_EQ(err.category, "unsupported-key");
  EXPECT_NE(err.message.find("sweep_workers"), std::string::npos) << err.message;
  EXPECT_EQ(r.id, "c3");  // envelope recovered for the error echo

  // Knob values are still validated as bad-request.
  EXPECT_FALSE(serve::protocol::parse_request(
      R"({"v":2,"type":"config","sweep_workers":-1})", &r, &err));
  EXPECT_EQ(err.category, "bad-request");
  EXPECT_FALSE(serve::protocol::parse_request(
      R"({"v":2,"type":"config","cache_enabled":"yes"})", &r, &err));
  EXPECT_EQ(err.category, "bad-request");

  // Render/parse round trip emits exactly the knobs that were present.
  const std::string rendered = serve::protocol::render_request(req);
  const Request again = parse_ok(rendered);
  EXPECT_TRUE(again.config.has_sweep_workers);
  EXPECT_EQ(again.config.sweep_workers, 4);
  EXPECT_FALSE(again.config.advise_verify);
  EXPECT_EQ(rendered.find("sweep_threads"), std::string::npos);
}

// -------------------------------------------------- dispatcher integration --

class AdviseServeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    saved_config_ = core::result_cache_config();
    saved_workers_ = core::sweep_workers();
    saved_mode_ = sim::sampling_mode();
    core::CacheConfig cfg;
    cfg.enabled = true;
    cfg.disk = false;  // memory tier only: hermetic, no cross-test state
    core::configure_result_cache(cfg);
    core::reset_result_cache_stats();
  }
  void TearDown() override {
    advise::set_verify_enabled(true);
    sim::set_sampling_mode(saved_mode_);
    core::configure_result_cache(saved_config_);
    core::set_sweep_workers(saved_workers_);
  }

  core::CacheConfig saved_config_;
  std::size_t saved_workers_ = 0;
  sim::SamplingMode saved_mode_ = sim::SamplingMode::kOff;
};

struct Sink {
  std::mutex mutex;
  std::vector<std::string> lines;
  serve::Dispatcher::Respond respond() {
    return [this](std::string_view head, std::string_view body, std::string_view tail) {
      std::lock_guard lock(mutex);
      lines.push_back(std::string(head).append(body).append(tail));
    };
  }
};

TEST_F(AdviseServeTest, DispatcherServesAdviseByteIdenticalAndCoalesced) {
  // verify=false keeps the probe + prediction but skips the stage 3
  // sweeps — cheap enough to run under TSan.
  const std::string line =
      R"({"v":2,"req_id":"q","type":"advise","platform":"knl-ddr","kernel":"stream",)"
      R"("verify":false})";
  const Request req = parse_ok(line);
  const std::string offline = advise::run_and_render(req.advise);
  ASSERT_FALSE(offline.empty());
  EXPECT_NE(offline.find("\"verdict\":\"skipped\""), std::string::npos) << offline;

  auto& metrics = util::MetricsRegistry::instance();
  const std::uint64_t hits_before = metrics.counter("advise.payload_hits").value();

  serve::DispatchConfig dc;
  dc.workers = 2;
  serve::Dispatcher dispatcher(dc);
  Sink sink;
  for (int i = 0; i < 4; ++i) {
    Request copy = parse_ok(line);
    copy.id = "q" + std::to_string(i);
    dispatcher.submit(11, std::move(copy), sink.respond());
  }
  dispatcher.drain();

  ASSERT_EQ(sink.lines.size(), 4u);
  for (const auto& response : sink.lines) {
    const auto doc = util::parse_json(response);
    ASSERT_TRUE(doc.has_value()) << response;
    ASSERT_TRUE(doc->find("ok")->boolean) << response;
    EXPECT_EQ(doc->find("type")->string, "advise");
    // The byte-identity contract: served payload == offline rendering.
    EXPECT_EQ(doc->find("payload")->string, offline);
  }
  // The offline call warmed the payload cache, so every served copy was a
  // hit or a coalesced follower — nothing recomputed the pipeline.
  EXPECT_GE(metrics.counter("advise.payload_hits").value(), hits_before + 1);
}

TEST_F(AdviseServeTest, DispatcherServesTheSampledEnvelopeAsRendered) {
  // Four v2 and four v1 waiters of one advise question, submitted
  // together, so they share one flight. Each joined line must be what
  // render_response makes of the offline payload and the sampling section
  // parse_json reads from it: v2 lines carry the sampled members only
  // under kFast, v1 lines never.
  const std::string body =
      R"("type":"advise","platform":"knl-ddr","kernel":"stream","verify":false})";
  for (const sim::SamplingMode mode : {sim::SamplingMode::kFast, sim::SamplingMode::kOff}) {
    sim::set_sampling_mode(mode);
    const std::string offline = advise::run_and_render(parse_ok("{" + body).advise);
    const auto doc = util::parse_json(offline);
    ASSERT_TRUE(doc.has_value()) << offline;
    const util::JsonValue* sampling = doc->find("sampling");
    ASSERT_NE(sampling, nullptr) << offline;
    const serve::protocol::SampleNote note{sampling->find("sampled")->boolean,
                                           sampling->find("max_rel_error")->string};
    EXPECT_EQ(note.sampled, mode == sim::SamplingMode::kFast) << offline;

    serve::DispatchConfig dc;
    dc.workers = 2;
    serve::Dispatcher dispatcher(dc);
    Sink sink;
    std::vector<std::string> expected;
    for (int i = 0; i < 4; ++i) {
      for (const char* prefix : {R"({"v":2,"req_id":"w2-)", R"({"id":"w1-)"}) {
        const Request req = parse_ok(prefix + std::to_string(i) + "\"," + body);
        expected.push_back(serve::protocol::render_response(serve::protocol::envelope_of(req),
                                                            RequestType::kAdvise, offline, note));
        dispatcher.submit(12, req, sink.respond());
      }
    }
    dispatcher.drain();

    ASSERT_EQ(sink.lines.size(), expected.size());
    std::vector<std::string> served = sink.lines;
    std::sort(served.begin(), served.end());
    std::sort(expected.begin(), expected.end());
    EXPECT_EQ(served, expected);
    for (const std::string& line : served) {
      const auto envelope = util::parse_json(line);
      ASSERT_TRUE(envelope.has_value()) << line;
      const bool v2 = envelope->find("v") != nullptr;
      const util::JsonValue* sampled = envelope->find("sampled");
      const util::JsonValue* error = envelope->find("max_rel_error");
      if (v2 && mode == sim::SamplingMode::kFast) {
        ASSERT_TRUE(sampled != nullptr && error != nullptr) << line;
        EXPECT_TRUE(sampled->boolean) << line;
        EXPECT_EQ(error->string, note.max_rel_error_hex) << line;
      } else {
        EXPECT_EQ(sampled, nullptr) << line;
        EXPECT_EQ(error, nullptr) << line;
      }
    }
  }
}

TEST_F(AdviseServeTest, ConfigRequestHotReloadsTheVerifySwitch) {
  serve::Dispatcher dispatcher(serve::DispatchConfig{});
  Sink sink;
  ASSERT_TRUE(advise::verify_enabled());
  dispatcher.submit(
      1, parse_ok(R"({"v":2,"req_id":"off","type":"config","advise_verify":false})"),
      sink.respond());
  ASSERT_EQ(sink.lines.size(), 1u);  // config is answered inline
  const auto doc = util::parse_json(sink.lines[0]);
  ASSERT_TRUE(doc.has_value());
  ASSERT_TRUE(doc->find("ok")->boolean) << sink.lines[0];
  EXPECT_EQ(doc->find("payload")->string, R"({"applied":{"advise_verify":false}})");
  EXPECT_FALSE(advise::verify_enabled());

  // And back on, together with an idle-time worker resize.
  dispatcher.submit(
      1,
      parse_ok(R"({"v":2,"req_id":"on","type":"config","advise_verify":true,)"
               R"("sweep_workers":2})"),
      sink.respond());
  ASSERT_EQ(sink.lines.size(), 2u);
  const auto doc2 = util::parse_json(sink.lines[1]);
  ASSERT_TRUE(doc2.has_value());
  ASSERT_TRUE(doc2->find("ok")->boolean) << sink.lines[1];
  EXPECT_TRUE(advise::verify_enabled());
  EXPECT_EQ(core::sweep_workers(), 2u);
}

// --------------------------------------------------------- batch framing --

/// Every receive here is bounded: a server bug fails the test instead of
/// hanging the suite.
constexpr int kTimeoutMs = 30000;

TEST_F(AdviseServeTest, ServerAnswersBatchesPerElement) {
  const std::string path = "test-advise-batch-" + std::to_string(::getpid()) + ".sock";
  serve::ServerConfig sc;
  sc.listen_address = "unix:" + path;
  serve::Server server(sc);
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;

  serve::LineClient client(kTimeoutMs);
  ASSERT_TRUE(client.connect(path));

  // A well-formed batch: one response per element, every req_id echoed.
  ASSERT_TRUE(client.send_line(
      R"([{"v":2,"req_id":"b0","type":"ping"},)"
      R"({"v":2,"req_id":"b1","type":"advise","platform":"knl-ddr","kernel":"stream",)"
      R"("verify":false},)"
      R"({"v":2,"req_id":"b2","type":"nope"}])"));
  std::vector<std::string> responses(3);
  for (auto& r : responses) ASSERT_TRUE(client.recv_line(&r));
  int pong = 0, advise_ok = 0, bad = 0;
  std::vector<std::string> ids;
  for (const auto& r : responses) {
    const auto doc = util::parse_json(r);
    ASSERT_TRUE(doc.has_value()) << r;
    ids.push_back(doc->find("req_id")->string);
    if (!doc->find("ok")->boolean) {
      EXPECT_EQ(doc->find("error")->find("category")->string, "bad-request");
      EXPECT_EQ(doc->find("req_id")->string, "b2");
      ++bad;
    } else if (doc->find("type")->string == "pong") {
      ++pong;
    } else if (doc->find("type")->string == "advise") {
      EXPECT_EQ(doc->find("req_id")->string, "b1");
      ++advise_ok;
    }
  }
  EXPECT_EQ(pong, 1);
  EXPECT_EQ(advise_ok, 1);
  EXPECT_EQ(bad, 1);

  // Batch-level faults are structured errors, not dropped connections.
  std::string response;
  ASSERT_TRUE(client.send_line("[]"));
  ASSERT_TRUE(client.recv_line(&response));
  auto doc = util::parse_json(response);
  ASSERT_TRUE(doc.has_value());
  EXPECT_FALSE(doc->find("ok")->boolean);
  EXPECT_EQ(doc->find("error")->find("category")->string, "bad-request");

  ASSERT_TRUE(client.send_line("[{broken"));
  ASSERT_TRUE(client.recv_line(&response));
  doc = util::parse_json(response);
  ASSERT_TRUE(doc.has_value());
  EXPECT_EQ(doc->find("error")->find("category")->string, "parse");

  // Hello is connection state, not batchable work.
  ASSERT_TRUE(client.send_line(R"([{"v":2,"req_id":"h","type":"hello"}])"));
  ASSERT_TRUE(client.recv_line(&response));
  doc = util::parse_json(response);
  ASSERT_TRUE(doc.has_value());
  EXPECT_FALSE(doc->find("ok")->boolean);
  EXPECT_EQ(doc->find("req_id")->string, "h");
  EXPECT_EQ(doc->find("error")->find("category")->string, "bad-request");

  // The connection survived all of it.
  ASSERT_TRUE(client.send_line(R"({"v":2,"req_id":"still","type":"ping"})"));
  ASSERT_TRUE(client.recv_line(&response));
  EXPECT_NE(response.find("\"pong\""), std::string::npos);

  server.request_drain();
  server.wait();
}

}  // namespace
