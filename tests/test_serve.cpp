// The sweep service: strict JSON parsing, the protocol error taxonomy,
// single-flight coalescing, dispatcher admission control, and the Unix
// socket server end to end — including the contracts the service exists
// for: served payloads byte-identical to offline library output, hostile
// input answered with structured errors (never a crash or hang), and a
// graceful drain that answers everything admitted and unlinks the socket.
#include <sys/ioctl.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <limits>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/result_cache.hpp"
#include "core/single_flight.hpp"
#include "core/sweep.hpp"
#include "serve/client.hpp"
#include "serve/conn.hpp"
#include "serve/dispatcher.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "util/json.hpp"
#include "util/metrics.hpp"
#include "util/socket.hpp"

namespace {

using namespace opm;
using serve::protocol::Error;
using serve::protocol::Request;
using serve::protocol::RequestType;

// ------------------------------------------------------------- JSON reader --

TEST(JsonParser, ParsesScalarsAndStructures) {
  const auto doc = util::parse_json(R"({"a":1.5,"b":[true,false,null],"c":{"d":"x"}})");
  ASSERT_TRUE(doc.has_value());
  ASSERT_TRUE(doc->is_object());
  EXPECT_DOUBLE_EQ(doc->find("a")->number, 1.5);
  ASSERT_TRUE(doc->find("b")->is_array());
  EXPECT_EQ(doc->find("b")->items.size(), 3u);
  EXPECT_TRUE(doc->find("b")->items[0].boolean);
  EXPECT_TRUE(doc->find("b")->items[2].is_null());
  EXPECT_EQ(doc->find("c")->find("d")->string, "x");
  EXPECT_EQ(doc->find("missing"), nullptr);
}

TEST(JsonParser, DecodesEscapesAndSurrogatePairs) {
  const auto doc = util::parse_json(R"("line\n\t\"q\" \u0041 \uD83D\uDE00")");
  ASSERT_TRUE(doc.has_value());
  EXPECT_EQ(doc->string, "line\n\t\"q\" A \xF0\x9F\x98\x80");
}

TEST(JsonParser, RejectsMalformedDocuments) {
  const char* bad[] = {
      "",                       // empty
      "{",                      // truncated object
      "{\"a\":}",               // missing value
      "{\"a\":1,}",             // trailing comma
      "[1 2]",                  // missing comma
      "nan",                    // not a JSON literal
      "01",                     // leading zero
      "1.",                     // truncated fraction
      "\"\x01\"",               // raw control char in string
      "\"\\uD83D\"",            // lone high surrogate
      "{} trailing",            // trailing garbage
      "{\"a\":1} {\"b\":2}",    // two documents
  };
  for (const char* text : bad) {
    std::string error;
    EXPECT_FALSE(util::parse_json(text, &error).has_value()) << text;
    EXPECT_FALSE(error.empty()) << text;
  }
}

TEST(JsonParser, EnforcesDepthLimit) {
  std::string deep(200, '[');
  deep += std::string(200, ']');
  EXPECT_FALSE(util::parse_json(deep).has_value());
  EXPECT_TRUE(util::parse_json(deep, nullptr, 256).has_value());
}

TEST(JsonParser, EscapeRoundTrips) {
  const std::string original = "a\"b\\c\nd\te\x01f";
  const auto doc = util::parse_json("\"" + util::json_escape(original) + "\"");
  ASSERT_TRUE(doc.has_value());
  EXPECT_EQ(doc->string, original);
}

TEST(JsonParser, BulkEscapeMatchesThePerByteEscape) {
  // The per-byte escaper json_escape replaced, as the oracle; inputs
  // cover every byte value and put each special byte at every offset of
  // a plain run, so the eight-byte steps meet it in every lane.
  auto per_byte = [](std::string_view s) {
    std::string out;
    for (const char raw : s) {
      const auto c = static_cast<unsigned char>(raw);
      switch (c) {
        case '"': out += "\\\""; break;
        case '\\': out += "\\\\"; break;
        case '\b': out += "\\b"; break;
        case '\f': out += "\\f"; break;
        case '\n': out += "\\n"; break;
        case '\r': out += "\\r"; break;
        case '\t': out += "\\t"; break;
        default:
          if (c < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof buf, "\\u%04x", c);
            out += buf;
          } else {
            out += raw;
          }
      }
    }
    return out;
  };
  std::vector<std::string> inputs;
  std::string every_byte;
  for (int c = 0; c < 256; ++c) every_byte += static_cast<char>(c);
  inputs.push_back(every_byte);
  for (std::size_t n = 0; n <= 24; ++n)
    for (std::size_t at = 0; at <= n; ++at)
      for (const char special : {'"', '\\', '\n', '\x01', '\x1f'}) {
        std::string s(n, 'p');
        s.insert(at, 1, special);
        inputs.push_back(s);
      }
  for (const std::string& s : inputs)
    EXPECT_EQ(util::json_escape(s), per_byte(s)) << testing::PrintToString(s);
}

// --------------------------------------------------------------- protocol --

TEST(Protocol, MinimalSweepRequestsUsePaperDefaults) {
  Request req;
  Error err;
  ASSERT_TRUE(serve::protocol::parse_request(
      R"({"type":"dense","platform":"broadwell-edram-on"})", &req, &err))
      << err.message;
  EXPECT_EQ(req.type, RequestType::kDense);
  EXPECT_EQ(req.dense, core::DenseSweepRequest{});
  EXPECT_EQ(req.platform_name, "broadwell-edram-on");

  Request sparse_req;
  ASSERT_TRUE(serve::protocol::parse_request(R"({"type":"sparse","platform":"knl-flat"})",
                                             &sparse_req, &err))
      << err.message;
  EXPECT_EQ(sparse_req.sparse, core::SparseSweepRequest{});

  Request fp_req;
  ASSERT_TRUE(serve::protocol::parse_request(
      R"({"type":"footprint","platform":"knl-cache","kernel":"fft"})", &fp_req, &err))
      << err.message;
  EXPECT_EQ(fp_req.footprint.kernel, core::KernelId::kFft);
  EXPECT_EQ(fp_req.footprint.points, core::FootprintSweepRequest{}.points);
}

TEST(Protocol, ErrorTaxonomy) {
  struct Case {
    const char* line;
    const char* category;
  };
  const Case cases[] = {
      {"not json at all", "parse"},
      {"[1,2,3]", "parse"},  // valid JSON, not an object
      {R"({"type":"nope"})", "bad-request"},
      {R"({"type":"dense"})", "bad-request"},  // missing platform
      {R"({"type":"dense","platform":"epyc"})", "bad-request"},
      {R"({"type":"dense","platform":"knl-flat","bogus":1})", "bad-request"},
      {R"({"type":"dense","platform":"knl-flat","kernel":"spmv"})", "bad-request"},
      {R"({"type":"dense","platform":"knl-flat","n_step":0})", "bad-request"},
      {R"({"type":"dense","platform":"knl-flat","n_lo":"big"})", "bad-request"},
      {R"({"type":"dense","platform":"knl-flat","n_lo":1,"n_hi":1000000,"n_step":0.001})",
       "bad-request"},  // grid bomb
      {R"({"type":"sparse","platform":"knl-flat","kernel":"gemm"})", "bad-request"},
      {R"({"type":"sparse","platform":"knl-flat","merge_based":1})", "bad-request"},
      {R"({"type":"footprint","platform":"knl-flat","fp_lo":-5})", "bad-request"},
      {R"({"type":"footprint","platform":"knl-flat","fp_lo":100,"fp_hi":50})", "bad-request"},
      {R"({"type":"footprint","platform":"knl-flat","points":0})", "bad-request"},
      {R"({"type":"footprint","platform":"knl-flat","points":2.5})", "bad-request"},
      {R"({"type":"ping","platform":"knl-flat"})", "bad-request"},  // field not allowed
      {R"({"type":"ping","id":5})", "bad-request"},
  };
  for (const auto& c : cases) {
    Request req;
    Error err;
    EXPECT_FALSE(serve::protocol::parse_request(c.line, &req, &err)) << c.line;
    EXPECT_EQ(err.category, c.category) << c.line << " -> " << err.message;
    EXPECT_FALSE(err.message.empty()) << c.line;
  }

  // Over-long ids are rejected; recoverable ids are echoed even on failure.
  const std::string long_id(129, 'x');
  Request req;
  Error err;
  EXPECT_FALSE(serve::protocol::parse_request(
      "{\"id\":\"" + long_id + "\",\"type\":\"ping\"}", &req, &err));
  EXPECT_FALSE(serve::protocol::parse_request(R"({"id":"echo-me","type":"nope"})", &req, &err));
  EXPECT_EQ(req.id, "echo-me");
}

TEST(Protocol, RequestKeyIgnoresIdButNotContent) {
  Request a, b;
  Error err;
  ASSERT_TRUE(serve::protocol::parse_request(
      R"({"id":"one","type":"footprint","platform":"knl-flat","kernel":"stream"})", &a, &err));
  ASSERT_TRUE(serve::protocol::parse_request(
      R"({"id":"two","type":"footprint","platform":"knl-flat","kernel":"stream"})", &b, &err));
  EXPECT_EQ(serve::protocol::request_key(a), serve::protocol::request_key(b));

  Request c;
  ASSERT_TRUE(serve::protocol::parse_request(
      R"({"type":"footprint","platform":"knl-flat","kernel":"stencil"})", &c, &err));
  EXPECT_FALSE(serve::protocol::request_key(a) == serve::protocol::request_key(c));

  Request d;
  ASSERT_TRUE(serve::protocol::parse_request(
      R"({"type":"footprint","platform":"knl-cache","kernel":"stream"})", &d, &err));
  EXPECT_FALSE(serve::protocol::request_key(a) == serve::protocol::request_key(d));
}

TEST(Protocol, ResponseEnvelopeRoundTrips) {
  const std::string line = serve::protocol::render_response(
      serve::protocol::Envelope{.id = "id-1"}, RequestType::kDense, "x,y\n0x1p+1,0x1.8p+2\n");
  const auto doc = util::parse_json(line);
  ASSERT_TRUE(doc.has_value());
  EXPECT_EQ(doc->find("id")->string, "id-1");
  EXPECT_TRUE(doc->find("ok")->boolean);
  EXPECT_EQ(doc->find("type")->string, "dense");
  EXPECT_EQ(doc->find("payload")->string, "x,y\n0x1p+1,0x1.8p+2\n");

  Error err;
  err.category = "overload";
  err.message = "queue \"full\"";
  err.retry_after_ms = 50;
  const auto edoc =
      util::parse_json(serve::protocol::render_error(serve::protocol::Envelope{.id = "id-2"}, err));
  ASSERT_TRUE(edoc.has_value());
  EXPECT_FALSE(edoc->find("ok")->boolean);
  EXPECT_EQ(edoc->find("error")->find("category")->string, "overload");
  EXPECT_EQ(edoc->find("error")->find("message")->string, "queue \"full\"");
  EXPECT_DOUBLE_EQ(edoc->find("error")->find("retry_after_ms")->number, 50.0);
}

TEST(Protocol, EveryErrorKindRoundTripsByteStably) {
  // One case per kind in the protocol.hpp taxonomy — the same closed set
  // the opm_analyze protocol pass checks against docs and handlers. Each
  // kind must survive render_error → parse_response → render_view with
  // byte-identical output under both envelope versions: the router
  // forwards backend errors through exactly this path, so any kind that
  // doesn't re-render stably would be corrupted in the sharded tier.
  struct Kind {
    const char* category;
    int retry_after_ms;
    int shard;
  };
  const Kind kinds[] = {
      {"parse", 0, -1},          {"bad-request", 0, -1},
      {"unsupported-version", 0, -1}, {"unsupported-key", 0, -1},
      {"oversized", 0, -1},      {"auth", 0, -1},
      {"overload", 25, -1},      {"draining", 40, -1},
      {"redirect", 0, 3},        {"internal", 0, -1},
  };
  for (int version : {1, 2}) {
    for (const auto& k : kinds) {
      Error err;
      err.category = k.category;
      err.message = std::string("synthetic \"") + k.category + "\" érror";
      err.retry_after_ms = k.retry_after_ms;
      err.shard = k.shard;
      serve::protocol::Envelope env;
      env.version = version;
      env.id = version == 2 ? "req-7" : "id-7";
      env.shard = version == 2 ? 2 : 0;
      const std::string wire = serve::protocol::render_error(env, err);

      serve::protocol::ResponseView view;
      ASSERT_TRUE(serve::protocol::parse_response(wire, &view)) << wire;
      EXPECT_FALSE(view.ok);
      EXPECT_EQ(view.version, version);
      EXPECT_EQ(view.error.category, k.category);
      EXPECT_EQ(view.error.message, err.message) << k.category;
      EXPECT_EQ(view.error.retry_after_ms, k.retry_after_ms);
      if (k.shard >= 0) {
        EXPECT_EQ(view.error.shard, k.shard);
      }

      EXPECT_EQ(serve::protocol::render_view(env, view), wire) << k.category;
    }
  }
}

TEST(Protocol, V2EnvelopeParsesAndRejectsCrossVersionSpellings) {
  // A v2 request: "v":2 plus "req_id"; everything else is unchanged.
  Request req;
  Error err;
  ASSERT_TRUE(serve::protocol::parse_request(
      R"({"v":2,"req_id":"r9","type":"ping"})", &req, &err))
      << err.message;
  EXPECT_EQ(req.version, 2);
  EXPECT_EQ(req.id, "r9");

  // An omitted "v" means v1; "v":1 is the explicit spelling of the same.
  ASSERT_TRUE(serve::protocol::parse_request(R"({"v":1,"id":"r1","type":"ping"})", &req, &err))
      << err.message;
  EXPECT_EQ(req.version, 1);

  // The id spelling is tied to the version — mixing them is an error, so
  // a client cannot accidentally speak half of each protocol.
  EXPECT_FALSE(serve::protocol::parse_request(
      R"({"v":2,"id":"r2","type":"ping"})", &req, &err));
  EXPECT_EQ(err.category, "bad-request");
  EXPECT_FALSE(serve::protocol::parse_request(R"({"req_id":"r3","type":"ping"})", &req, &err));
  EXPECT_EQ(err.category, "bad-request");

  // Unknown versions get the dedicated category (so clients can
  // distinguish "talk older" from "your request is broken"), and the
  // error still echoes the recoverable envelope.
  EXPECT_FALSE(serve::protocol::parse_request(
      R"({"v":3,"req_id":"r4","type":"ping"})", &req, &err));
  EXPECT_EQ(err.category, "unsupported-version");
  EXPECT_FALSE(serve::protocol::parse_request(R"({"v":true,"type":"ping"})", &req, &err));
  EXPECT_EQ(err.category, "bad-request");  // not an integer at all
}

TEST(Protocol, CsvRowsStayWithinTheExactBound) {
  // The CSV writer reserves kMaxCsvRowBytes per row; the widest spellings
  // of every field must fit it (the raw newline is one byte shorter than
  // the escaped one the bound counts).
  core::SweepPoint widest;
  widest.x = widest.y = widest.gflops = -std::numeric_limits<double>::max();
  widest.footprint = widest.rows = widest.nnz = -std::numeric_limits<double>::denorm_min();
  widest.input_id = std::numeric_limits<int>::min();
  const std::string csv = serve::protocol::render_points_csv({widest, widest});
  const std::size_t header = csv.find('\n') + 1;
  EXPECT_EQ(csv.size() - header, 2 * (serve::protocol::kMaxCsvRowBytes - 1));
  char x[64], nnz[64];
  std::snprintf(x, sizeof x, "%a", widest.x);
  std::snprintf(nnz, sizeof nnz, "%a", widest.nnz);
  EXPECT_EQ(csv.substr(header, csv.find('\n', header) - header),
            std::string(x) + "," + x + "," + x + "," + nnz + "," + nnz + "," + nnz +
                ",-2147483648");
}

TEST(Protocol, V2SweepRequestKeyMatchesV1Twin) {
  // Version and id are envelope, not content: a v1 and a v2 client asking
  // the same question share one coalescing key (and thus one flight).
  Request v1, v2;
  Error err;
  ASSERT_TRUE(serve::protocol::parse_request(
      R"({"id":"a","type":"sparse","platform":"knl-flat"})", &v1, &err));
  ASSERT_TRUE(serve::protocol::parse_request(
      R"({"v":2,"req_id":"b","type":"sparse","platform":"knl-flat"})", &v2, &err));
  EXPECT_EQ(serve::protocol::request_key(v1), serve::protocol::request_key(v2));
}

// ----------------------------------------------------------- single-flight --

TEST(SingleFlight, LeaderComputesFollowersShare) {
  core::SingleFlight flights;
  const util::Digest128 key{1, 2};
  bool leader = false;
  auto flight = flights.try_begin(key, &leader);
  ASSERT_TRUE(leader);

  constexpr int kFollowers = 4;
  std::vector<std::thread> threads;  // opm-lint: allow(thread-ownership) — raw threads ARE the fixture
  std::vector<core::SingleFlight::Payload> got(kFollowers);
  std::atomic<int> joined{0};
  for (int i = 0; i < kFollowers; ++i) {
    threads.emplace_back([&, i] {
      bool is_leader = true;
      auto f = flights.try_begin(key, &is_leader);
      EXPECT_FALSE(is_leader);
      joined.fetch_add(1);
      got[i] = flights.share(f);
    });
  }
  while (joined.load() < kFollowers) std::this_thread::yield();
  auto payload = std::make_shared<const std::string>("result");
  flights.complete(flight, payload);
  for (auto& t : threads) t.join();
  for (const auto& p : got) {
    ASSERT_TRUE(p != nullptr);
    EXPECT_EQ(p.get(), payload.get());  // shared, not copied
  }
  const auto stats = flights.stats();
  EXPECT_EQ(stats.flights, 1u);
  EXPECT_EQ(stats.coalesced, static_cast<std::uint64_t>(kFollowers));
  EXPECT_EQ(flights.in_flight(), 0u);

  // The key is retired: the next identical request starts a fresh flight.
  bool again = false;
  auto f2 = flights.try_begin(key, &again);
  EXPECT_TRUE(again);
  flights.fail(f2);
}

TEST(SingleFlight, FailurePoisonsNobody) {
  core::SingleFlight flights;
  const util::Digest128 key{3, 4};
  bool leader = false;
  auto flight = flights.try_begin(key, &leader);
  ASSERT_TRUE(leader);
  bool follower_leader = true;
  auto follower = flights.try_begin(key, &follower_leader);
  ASSERT_FALSE(follower_leader);
  std::thread t(  // opm-lint: allow(thread-ownership) — raw thread is the fixture
      [&] { EXPECT_EQ(flights.share(follower), nullptr); });
  flights.fail(flight);
  t.join();
  EXPECT_EQ(flights.stats().failures, 1u);
  bool retry_leader = false;
  auto retry = flights.try_begin(key, &retry_leader);
  EXPECT_TRUE(retry_leader);
  flights.complete(retry, std::make_shared<const std::string>("ok"));
}

// -------------------------------------------------------------- dispatcher --

/// Every dispatcher/server test isolates the process-wide cache (memory
/// tier only, so nothing touches disk) and pins a small worker count.
class ServeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    saved_config_ = core::result_cache_config();
    saved_workers_ = core::sweep_workers();
    core::set_sweep_workers(2);
    core::CacheConfig cfg;
    cfg.enabled = true;
    cfg.disk = false;
    core::configure_result_cache(cfg);
    core::reset_result_cache_stats();
  }
  void TearDown() override {
    core::configure_result_cache(saved_config_);
    core::set_sweep_workers(saved_workers_);
  }

  static Request parse_ok(const std::string& line) {
    Request req;
    Error err;
    EXPECT_TRUE(serve::protocol::parse_request(line, &req, &err)) << line << ": " << err.message;
    return req;
  }

  core::CacheConfig saved_config_;
  std::size_t saved_workers_ = 0;
};

namespace collect {
struct Sink {
  std::mutex mutex;
  std::vector<std::string> lines;
  serve::Dispatcher::Respond respond() {
    return [this](std::string line) {
      std::lock_guard lock(mutex);
      lines.push_back(std::move(line));
    };
  }
};
}  // namespace collect

TEST_F(ServeTest, DispatcherAnswersPingAndStatsInline) {
  serve::Dispatcher dispatcher(serve::DispatchConfig{});
  collect::Sink sink;
  dispatcher.submit(1, parse_ok(R"({"type":"ping","id":"p"})"), sink.respond());
  dispatcher.submit(1, parse_ok(R"({"type":"stats","id":"s"})"), sink.respond());
  ASSERT_EQ(sink.lines.size(), 2u);  // answered before submit returned
  const auto pong = util::parse_json(sink.lines[0]);
  ASSERT_TRUE(pong.has_value());
  EXPECT_EQ(pong->find("type")->string, "pong");
  const auto stats = util::parse_json(sink.lines[1]);
  ASSERT_TRUE(stats.has_value());
  ASSERT_NE(stats->find("stats"), nullptr);
  EXPECT_NE(stats->find("stats")->find("queued"), nullptr);
  EXPECT_NE(stats->find("stats")->find("serve"), nullptr);
  EXPECT_NE(stats->find("stats")->find("cache"), nullptr);
}

TEST_F(ServeTest, DispatcherCoalescesConcurrentDuplicates) {
  const std::string lines[] = {
      R"({"type":"footprint","platform":"broadwell-edram-on","kernel":"stream",)"
      R"("fp_lo":16384,"fp_hi":1048576,"points":16})",
      R"({"type":"footprint","platform":"knl-cache","kernel":"stencil",)"
      R"("fp_lo":16384,"fp_hi":1048576,"points":16})",
  };
  const std::string offline[] = {serve::protocol::execute(parse_ok(lines[0])),
                                 serve::protocol::execute(parse_ok(lines[1]))};
  core::reset_result_cache_stats();  // offline references warmed the cache
  core::CacheConfig cfg = core::result_cache_config();
  core::configure_result_cache(cfg);  // drop memory tier: duplicates start cold

  serve::DispatchConfig dc;
  dc.queue_depth = 256;
  dc.workers = 4;
  serve::Dispatcher dispatcher(dc);
  collect::Sink sink;
  constexpr int kCopies = 12;
  for (int i = 0; i < kCopies; ++i) {
    for (int u = 0; u < 2; ++u) {
      Request req = parse_ok(lines[u]);
      req.id = "dup-" + std::to_string(u) + "-" + std::to_string(i);
      dispatcher.submit(static_cast<std::uint64_t>(i % 4), std::move(req), sink.respond());
    }
  }
  dispatcher.drain();

  ASSERT_EQ(sink.lines.size(), 2u * kCopies);
  std::size_t matched[2] = {0, 0};
  for (const auto& line : sink.lines) {
    const auto doc = util::parse_json(line);
    ASSERT_TRUE(doc.has_value()) << line;
    ASSERT_TRUE(doc->find("ok")->boolean) << line;
    const std::string& payload = doc->find("payload")->string;
    if (payload == offline[0]) ++matched[0];
    else if (payload == offline[1]) ++matched[1];
  }
  // Byte-identity: every response is exactly one of the two offline payloads.
  EXPECT_EQ(matched[0], static_cast<std::size_t>(kCopies));
  EXPECT_EQ(matched[1], static_cast<std::size_t>(kCopies));
  // Deduplication: 24 served, at most 2 computed (coalesced or cache-hit).
  EXPECT_LE(core::result_cache_stats().misses, 2u);
}

TEST_F(ServeTest, DispatcherRejectsOnOverloadWithRetryHint) {
  serve::DispatchConfig dc;
  dc.queue_depth = 1;
  dc.workers = 1;
  dc.retry_after_ms = 25;
  serve::Dispatcher dispatcher(dc);
  // Big enough that the burst below lands while the worker is busy.
  const std::string heavy =
      R"({"type":"dense","platform":"knl-flat","kernel":"gemm",)"
      R"("n_lo":256,"n_hi":4096,"n_step":64,"nb_lo":128,"nb_hi":2048,"nb_step":64})";
  collect::Sink sink;
  constexpr int kBurst = 6;
  for (int i = 0; i < kBurst; ++i) {
    Request req = parse_ok(heavy);
    req.id = "b" + std::to_string(i);
    dispatcher.submit(7, std::move(req), sink.respond());
  }
  dispatcher.drain();
  ASSERT_EQ(sink.lines.size(), static_cast<std::size_t>(kBurst));  // all answered exactly once
  int ok = 0, overload = 0;
  for (const auto& line : sink.lines) {
    const auto doc = util::parse_json(line);
    ASSERT_TRUE(doc.has_value());
    if (doc->find("ok")->boolean) {
      ++ok;
      continue;
    }
    const util::JsonValue* err = doc->find("error");
    ASSERT_NE(err, nullptr) << line;
    EXPECT_EQ(err->find("category")->string, "overload");
    EXPECT_DOUBLE_EQ(err->find("retry_after_ms")->number, 25.0);
    ++overload;
  }
  EXPECT_GE(ok, 1);
  EXPECT_GE(overload, 1);
}

TEST_F(ServeTest, EscapedPayloadsAreTheEscapedReferenceByteForByte) {
  // The dispatcher wraps execute_escaped's text with no second escape
  // pass: it must be exactly json_escape of the offline reference, and
  // the wrapped line exactly what rendering the reference gives.
  const char* lines[] = {
      R"({"type":"dense","platform":"knl-flat","kernel":"gemm",)"
      R"("n_lo":256,"n_hi":2048,"n_step":256,"nb_lo":128,"nb_hi":1024,"nb_step":128})",
      R"({"type":"sparse","platform":"broadwell-edram-on","kernel":"spmv"})",
      R"({"type":"footprint","platform":"knl-cache","kernel":"fft","points":12})",
  };
  for (const char* line : lines) {
    const Request req = parse_ok(line);
    const std::string raw = serve::protocol::execute(req);
    const std::string escaped = serve::protocol::execute_escaped(req);
    EXPECT_EQ(escaped, util::json_escape(raw)) << line;
    for (const serve::protocol::Envelope& env :
         {serve::protocol::Envelope{1, "e1", 0}, serve::protocol::Envelope{2, "e2", 3}})
      EXPECT_EQ(serve::protocol::render_escaped_response(env, req.type, escaped),
                serve::protocol::render_response(env, req.type, raw))
          << line;
  }
}

TEST_F(ServeTest, DispatcherRejectsWhileDraining) {
  serve::Dispatcher dispatcher(serve::DispatchConfig{});
  dispatcher.drain();
  collect::Sink sink;
  dispatcher.submit(
      1, parse_ok(R"({"type":"footprint","platform":"knl-ddr","kernel":"stream"})"),
      sink.respond());
  ASSERT_EQ(sink.lines.size(), 1u);
  const auto doc = util::parse_json(sink.lines[0]);
  ASSERT_TRUE(doc.has_value());
  EXPECT_FALSE(doc->find("ok")->boolean);
  EXPECT_EQ(doc->find("error")->find("category")->string, "draining");
  EXPECT_GT(doc->find("error")->find("retry_after_ms")->number, 0.0);
  // Control plane stays alive while draining.
  dispatcher.submit(1, parse_ok(R"({"type":"ping"})"), sink.respond());
  EXPECT_EQ(sink.lines.size(), 2u);
}

// ----------------------------------------------------------------- framing --

/// What for_each_line delivered from one socketpair, and its verdict.
struct Framed {
  std::vector<std::string> lines;
  bool intact = false;
};

/// Runs for_each_line on one end of a socketpair while `feed(writer,
/// reader)` writes the other end, then closes the writer (EOF).
Framed frame(std::size_t max_line_bytes, const std::function<void(int, int)>& feed) {
  int sv[2] = {-1, -1};
  EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
  Framed out;
  std::thread reader([&] {  // opm-lint: allow(thread-ownership) — the socketpair's reading end
    out.intact = serve::for_each_line(sv[0], max_line_bytes, [&](std::string_view line) {
      out.lines.emplace_back(line);
      return true;
    });
  });
  feed(sv[1], sv[0]);
  ::shutdown(sv[1], SHUT_WR);
  reader.join();
  ::close(sv[0]);
  ::close(sv[1]);
  return out;
}

/// Waits until the reader has taken every byte written so far, so the
/// next write lands in a read() of its own.
void wait_drained(int reader_fd) {
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  int queued = 1;
  while (::ioctl(reader_fd, FIONREAD, &queued) == 0 && queued > 0 &&
         std::chrono::steady_clock::now() < deadline)
    std::this_thread::yield();
}

TEST(Framing, LinesSplitAcrossReadsAtEveryOffsetAroundTheChunkBoundary) {
  // for_each_line reads 64 KiB at a time: the first line ends just before
  // that boundary and the second straddles it. Every split point in the
  // window makes the lines cross two reads somewhere different.
  constexpr std::size_t kChunk = 64 * 1024;
  const std::string a(kChunk - 3, 'a'), b(10, 'b'), c = "c";
  const std::string stream = a + "\n" + b + "\n" + c + "\n";
  for (std::size_t split = kChunk - 6; split <= stream.size(); ++split) {
    const Framed f = frame(1 << 20, [&](int writer, int reader) {
      ASSERT_TRUE(util::send_all(writer, std::string_view(stream).substr(0, split)));
      wait_drained(reader);
      ASSERT_TRUE(util::send_all(writer, std::string_view(stream).substr(split)));
    });
    EXPECT_TRUE(f.intact) << "split at " << split;
    EXPECT_EQ(f.lines, (std::vector<std::string>{a, b, c})) << "split at " << split;
  }
}

TEST(Framing, ManyLinesInOneRead) {
  std::vector<std::string> want;
  std::string stream;
  for (int i = 0; i < 2000; ++i) {
    want.push_back("line-" + std::to_string(i));
    stream += want.back() + "\n";
  }
  const Framed f = frame(64, [&](int writer, int) { ASSERT_TRUE(util::send_all(writer, stream)); });
  EXPECT_TRUE(f.intact);
  EXPECT_EQ(f.lines, want);
}

TEST(Framing, LineOfExactlyTheLimitPassesAndOneByteMoreIsOversized) {
  const std::string at_limit(100, 'x'), over(101, 'x');
  const Framed ok =
      frame(100, [&](int writer, int) { ASSERT_TRUE(util::send_all(writer, at_limit + "\nnext\n")); });
  EXPECT_TRUE(ok.intact);
  EXPECT_EQ(ok.lines, (std::vector<std::string>{at_limit, "next"}));

  const Framed bad =
      frame(100, [&](int writer, int) { ASSERT_TRUE(util::send_all(writer, over + "\nnext\n")); });
  EXPECT_FALSE(bad.intact);
  EXPECT_TRUE(bad.lines.empty());

  // Past the limit before its newline arrives: reported all the same.
  const Framed open = frame(100, [&](int writer, int) { ASSERT_TRUE(util::send_all(writer, over)); });
  EXPECT_FALSE(open.intact);
}

TEST(Framing, PartialLastLineAtEofIsDropped) {
  const Framed f = frame(100, [](int writer, int) { ASSERT_TRUE(util::send_all(writer, "one\ntwo")); });
  EXPECT_TRUE(f.intact);
  EXPECT_EQ(f.lines, std::vector<std::string>{"one"});
}

// ------------------------------------------------------------------ server --

/// Every receive in these tests is bounded: a server bug fails the test
/// instead of hanging the suite.
constexpr int kTimeoutMs = 30000;

std::string test_socket_path(const char* tag) {
  return std::string("test-serve-") + tag + "-" + std::to_string(::getpid()) + ".sock";
}

TEST_F(ServeTest, ServerAnswersOverUnixSocket) {
  const std::string path = test_socket_path("basic");
  serve::ServerConfig sc;
  sc.listen_address = "unix:" + path;
  serve::Server server(sc);
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;

  serve::LineClient client(kTimeoutMs);
  ASSERT_TRUE(client.connect(path));

  // A sweep request, byte-identical to the offline library output.
  const std::string line =
      R"({"id":"q1","type":"footprint","platform":"knl-hybrid","kernel":"fft",)"
      R"("fp_lo":16384,"fp_hi":1048576,"points":12})";
  ASSERT_TRUE(client.send_line(line));
  std::string response;
  ASSERT_TRUE(client.recv_line(&response));
  const auto doc = util::parse_json(response);
  ASSERT_TRUE(doc.has_value());
  EXPECT_EQ(doc->find("id")->string, "q1");
  ASSERT_TRUE(doc->find("ok")->boolean) << response;
  EXPECT_EQ(doc->find("payload")->string, serve::protocol::execute(parse_ok(line)));

  // Malformed JSON gets a structured parse error; the connection survives.
  ASSERT_TRUE(client.send_line("{broken"));
  ASSERT_TRUE(client.recv_line(&response));
  const auto err1 = util::parse_json(response);
  ASSERT_TRUE(err1.has_value());
  EXPECT_FALSE(err1->find("ok")->boolean);
  EXPECT_EQ(err1->find("error")->find("category")->string, "parse");

  // Out-of-range fields: structured bad-request, connection still fine.
  ASSERT_TRUE(client.send_line(
      R"({"id":"q2","type":"footprint","platform":"knl-ddr","points":0})"));
  ASSERT_TRUE(client.recv_line(&response));
  const auto err2 = util::parse_json(response);
  ASSERT_TRUE(err2.has_value());
  EXPECT_EQ(err2->find("id")->string, "q2");
  EXPECT_EQ(err2->find("error")->find("category")->string, "bad-request");

  // Ping and stats round-trip on the same connection.
  ASSERT_TRUE(client.send_line(R"({"id":"p1","type":"ping"})"));
  ASSERT_TRUE(client.recv_line(&response));
  EXPECT_NE(response.find("\"pong\""), std::string::npos);
  ASSERT_TRUE(client.send_line(R"({"id":"s1","type":"stats"})"));
  ASSERT_TRUE(client.recv_line(&response));
  const auto stats = util::parse_json(response);
  ASSERT_TRUE(stats.has_value());
  ASSERT_NE(stats->find("stats"), nullptr);
  EXPECT_GE(stats->find("stats")->find("serve")->find("serve.responses")->number, 1.0);

  client.close();
  server.request_drain();
  server.wait();
}

TEST_F(ServeTest, TcpListenerGatesConnectionsBehindHelloToken) {
  serve::ServerConfig sc;
  sc.listen_address = "127.0.0.1:0";  // ephemeral port, read back below
  sc.auth_token = "sekrit";
  serve::Server server(sc);
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;
  ASSERT_GT(server.bound_port(), 0);
  const std::string address = "127.0.0.1:" + std::to_string(server.bound_port());

  // A request before hello: structured auth error, then the server hangs
  // up (an unauthenticated peer gets exactly one line of attention).
  {
    serve::LineClient client(kTimeoutMs);
    ASSERT_TRUE(client.connect(address));
    ASSERT_TRUE(client.send_line(R"({"id":"sneak","type":"ping"})"));
    std::string response;
    ASSERT_TRUE(client.recv_line(&response));
    const auto doc = util::parse_json(response);
    ASSERT_TRUE(doc.has_value());
    EXPECT_EQ(doc->find("error")->find("category")->string, "auth");
    EXPECT_TRUE(client.wait_eof());
  }

  // A wrong token is the same story.
  {
    serve::LineClient client(kTimeoutMs);
    ASSERT_TRUE(client.connect(address));
    ASSERT_TRUE(client.send_line(R"({"v":2,"req_id":"h","type":"hello","token":"wrong"})"));
    std::string response;
    ASSERT_TRUE(client.recv_line(&response));
    EXPECT_NE(response.find("\"auth\""), std::string::npos);
    EXPECT_TRUE(client.wait_eof());
  }

  // The right token unlocks the connection for real work.
  {
    serve::LineClient client(kTimeoutMs);
    ASSERT_TRUE(client.connect(address));
    ASSERT_TRUE(client.send_line(R"({"v":2,"req_id":"h","type":"hello","token":"sekrit"})"));
    std::string response;
    ASSERT_TRUE(client.recv_line(&response));
    const auto hello = util::parse_json(response);
    ASSERT_TRUE(hello.has_value());
    EXPECT_TRUE(hello->find("ok")->boolean) << response;

    const std::string line =
        R"({"v":2,"req_id":"q","type":"footprint","platform":"knl-ddr","kernel":"stream",)"
        R"("fp_lo":16384,"fp_hi":262144,"points":6})";
    ASSERT_TRUE(client.send_line(line));
    ASSERT_TRUE(client.recv_line(&response));
    const auto doc = util::parse_json(response);
    ASSERT_TRUE(doc.has_value());
    ASSERT_TRUE(doc->find("ok")->boolean) << response;
    EXPECT_EQ(doc->find("payload")->string, serve::protocol::execute(parse_ok(line)));
  }

  EXPECT_GE(util::MetricsRegistry::instance().counter("serve.rejected_auth").value(), 2u);
  server.request_drain();
  server.wait();
}

TEST_F(ServeTest, GatedConnectionAnswersNoLineBeforeHelloButAuth) {
  // Before hello, an unparsable line or batch gets what a well-formed
  // request gets: one auth error and a hangup, never a parse answer on a
  // connection that stays open.
  serve::ServerConfig sc;
  sc.listen_address = "127.0.0.1:0";
  sc.auth_token = "sekrit";
  serve::Server server(sc);
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;
  const std::string address = "127.0.0.1:" + std::to_string(server.bound_port());
  auto& registry = util::MetricsRegistry::instance();
  util::Counter& rejected_auth = registry.counter("serve.rejected_auth");
  util::Counter& errors_protocol = registry.counter("serve.errors_protocol");
  const std::uint64_t rejected_before = rejected_auth.value();
  const std::uint64_t errors_before = errors_protocol.value();

  for (const char* first : {"{broken", "[{broken"}) {
    serve::LineClient client(kTimeoutMs);
    ASSERT_TRUE(client.connect(address));
    ASSERT_TRUE(client.send_line(first));
    std::string response, extra;
    ASSERT_TRUE(client.recv_line(&response)) << first;
    const auto doc = util::parse_json(response);
    ASSERT_TRUE(doc.has_value()) << response;
    EXPECT_EQ(doc->find("error")->find("category")->string, "auth") << first;
    EXPECT_FALSE(client.recv_line(&extra)) << first << ": " << extra;
    EXPECT_TRUE(client.wait_eof()) << first;
  }
  EXPECT_EQ(rejected_auth.value() - rejected_before, 2u);
  EXPECT_EQ(errors_protocol.value(), errors_before);

  // Past the gate, a broken line is a parse error on a connection that
  // stays open.
  serve::LineClient client(kTimeoutMs);
  ASSERT_TRUE(client.connect(address));
  ASSERT_TRUE(client.hello("sekrit"));
  ASSERT_TRUE(client.send_line("{broken"));
  std::string response;
  ASSERT_TRUE(client.recv_line(&response));
  const auto doc = util::parse_json(response);
  ASSERT_TRUE(doc.has_value()) << response;
  EXPECT_EQ(doc->find("error")->find("category")->string, "parse") << response;
  ASSERT_TRUE(client.send_line(R"({"type":"ping"})"));
  ASSERT_TRUE(client.recv_line(&response));
  EXPECT_NE(response.find("\"pong\""), std::string::npos) << response;
  EXPECT_EQ(rejected_auth.value() - rejected_before, 2u);

  server.request_drain();
  server.wait();
}

TEST_F(ServeTest, ServerClosesConnectionOnOversizedLine) {
  const std::string path = test_socket_path("oversized");
  serve::ServerConfig sc;
  sc.listen_address = "unix:" + path;
  sc.max_line_bytes = 128;
  serve::Server server(sc);
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;

  serve::LineClient client(kTimeoutMs);
  ASSERT_TRUE(client.connect(path));
  ASSERT_TRUE(client.send_line(std::string(4096, 'x')));
  std::string response;
  ASSERT_TRUE(client.recv_line(&response));
  const auto doc = util::parse_json(response);
  ASSERT_TRUE(doc.has_value());
  EXPECT_EQ(doc->find("error")->find("category")->string, "oversized");
  // Framing is lost, so the server hangs up after the error.
  std::string extra;
  EXPECT_FALSE(client.recv_line(&extra, 5000));

  // The server itself is unharmed: a new connection works.
  serve::LineClient fresh(kTimeoutMs);
  ASSERT_TRUE(fresh.connect(path));
  ASSERT_TRUE(fresh.send_line(R"({"type":"ping"})"));
  ASSERT_TRUE(fresh.recv_line(&response));
  EXPECT_NE(response.find("\"pong\""), std::string::npos);

  server.request_drain();
  server.wait();
}

TEST_F(ServeTest, ServerSurvivesMidRequestDisconnect) {
  const std::string path = test_socket_path("disconnect");
  serve::ServerConfig sc;
  sc.listen_address = "unix:" + path;
  serve::Server server(sc);
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;

  {
    serve::LineClient ghost(kTimeoutMs);
    ASSERT_TRUE(ghost.connect(path));
    ASSERT_TRUE(ghost.send_line(
        R"({"id":"ghost","type":"sparse","platform":"knl-flat","kernel":"spmv"})"));
    ghost.close();  // gone before the response could be written
  }
  {
    serve::LineClient ghost2(kTimeoutMs);  // and one that dies mid-line, without the newline
    ASSERT_TRUE(ghost2.connect(path));
    ASSERT_TRUE(ghost2.send_line(R"({"id":"gho)"));
    ghost2.close();
  }

  serve::LineClient client(kTimeoutMs);
  ASSERT_TRUE(client.connect(path));
  ASSERT_TRUE(client.send_line(
      R"({"id":"ok","type":"footprint","platform":"knl-ddr","kernel":"stream","points":8})"));
  std::string response;
  ASSERT_TRUE(client.recv_line(&response));
  const auto doc = util::parse_json(response);
  ASSERT_TRUE(doc.has_value());
  EXPECT_TRUE(doc->find("ok")->boolean) << response;

  server.request_drain();
  server.wait();
}

TEST_F(ServeTest, GracefulDrainAnswersAdmittedWorkAndUnlinksSocket) {
  const std::string path = test_socket_path("drain");
  serve::ServerConfig sc;
  sc.listen_address = "unix:" + path;
  serve::Server server(sc);
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;

  auto& admitted = util::MetricsRegistry::instance().counter("serve.admitted");
  const std::uint64_t admitted_before = admitted.value();

  serve::LineClient client(kTimeoutMs);
  ASSERT_TRUE(client.connect(path));
  const std::string line =
      R"({"id":"w1","type":"dense","platform":"broadwell-edram-on","kernel":"gemm",)"
      R"("n_lo":256,"n_hi":2048,"n_step":256,"nb_lo":128,"nb_hi":1024,"nb_step":128})";
  ASSERT_TRUE(client.send_line(line));
  // Drain-after-admission is the contract under test; wait until the
  // server has actually admitted the request (it shares our process, so
  // the registry is authoritative), else the drain can beat the accept.
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (admitted.value() == admitted_before &&
         std::chrono::steady_clock::now() < deadline)
    std::this_thread::yield();
  ASSERT_GT(admitted.value(), admitted_before);

  server.request_drain();  // the SIGTERM handler does exactly this
  server.wait();

  // The admitted request was answered before the drain completed.
  std::string response;
  ASSERT_TRUE(client.recv_line(&response));
  const auto doc = util::parse_json(response);
  ASSERT_TRUE(doc.has_value());
  ASSERT_TRUE(doc->find("ok")->boolean) << response;
  EXPECT_EQ(doc->find("payload")->string, serve::protocol::execute(parse_ok(line)));

  // No orphaned socket file, and nobody is listening anymore.
  struct stat st{};
  EXPECT_NE(::stat(path.c_str(), &st), 0);
  serve::LineClient late(kTimeoutMs);
  EXPECT_FALSE(late.connect(path));
}

TEST_F(ServeTest, DrainLeavesEveryStoredRecordOnDisk) {
  // The disk tier is write-behind: the drain flushes it, so a drained
  // server has published every record it stored, and no scratch file of
  // a half-done publish is left.
  namespace fs = std::filesystem;
  const fs::path dir = fs::temp_directory_path() /
                       ("opm-serve-drain-cache-" + std::to_string(::getpid()));
  fs::remove_all(dir);
  core::CacheConfig cfg;
  cfg.enabled = true;
  cfg.disk = true;
  cfg.dir = dir.string();
  core::configure_result_cache(cfg);
  core::reset_result_cache_stats();

  const std::string path = test_socket_path("drain-cache");
  serve::ServerConfig sc;
  sc.listen_address = "unix:" + path;
  serve::Server server(sc);
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;
  serve::LineClient client(kTimeoutMs);
  ASSERT_TRUE(client.connect(path));
  const std::string line =
      R"({"id":"c1","type":"footprint","platform":"knl-cache","kernel":"stencil",)"
      R"("fp_lo":65536,"fp_hi":67108864,"points":48})";
  ASSERT_TRUE(client.send_line(line));
  std::string response;
  ASSERT_TRUE(client.recv_line(&response));
  const auto doc = util::parse_json(response);
  ASSERT_TRUE(doc.has_value());
  ASSERT_TRUE(doc->find("ok")->boolean) << response;
  EXPECT_EQ(doc->find("payload")->string, serve::protocol::execute(parse_ok(line)));
  client.close();
  server.request_drain();
  server.wait();

  const core::CacheStats stats = core::result_cache_stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.stores, 1u);
  EXPECT_EQ(stats.bytes_stored, 48 * sizeof(core::SweepPoint));
  std::size_t records = 0, scratch = 0;
  for (const auto& entry : fs::recursive_directory_iterator(dir)) {
    const std::string name = entry.path().filename().string();
    if (entry.path().extension() == ".opmrec") ++records;
    if (name.rfind(".tmp-", 0) == 0) ++scratch;
  }
  EXPECT_EQ(records, 1u);
  EXPECT_EQ(scratch, 0u);
  core::configure_result_cache(saved_config_);
  fs::remove_all(dir);
}

TEST_F(ServeTest, ConcurrentClientsCoalesceToByteIdenticalResponses) {
  const std::string path = test_socket_path("coalesce");
  serve::ServerConfig sc;
  sc.listen_address = "unix:" + path;
  sc.dispatch.workers = 4;
  sc.dispatch.queue_depth = 256;
  serve::Server server(sc);
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;

  const std::string uniques[] = {
      R"({"type":"footprint","platform":"broadwell-edram-off","kernel":"stream",)"
      R"("fp_lo":16384,"fp_hi":1048576,"points":16})",
      R"({"type":"footprint","platform":"knl-flat","kernel":"stencil",)"
      R"("fp_lo":16384,"fp_hi":1048576,"points":16})",
  };
  const std::string offline[] = {serve::protocol::execute(parse_ok(uniques[0])),
                                 serve::protocol::execute(parse_ok(uniques[1]))};
  core::reset_result_cache_stats();
  core::configure_result_cache(core::result_cache_config());  // duplicates start cold

  constexpr int kClients = 8;
  constexpr int kPerClient = 4;  // duplicate-heavy: 32 requests, 2 unique
  std::atomic<int> ok_count{0}, mismatch_count{0}, fail_count{0};
  std::vector<std::thread> threads;  // opm-lint: allow(thread-ownership) — raw threads ARE the fixture
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      serve::LineClient client(kTimeoutMs);
      if (!client.connect(path)) {
        fail_count.fetch_add(kPerClient);
        return;
      }
      for (int i = 0; i < kPerClient; ++i) {
        const int u = (c + i) % 2;
        std::string line = uniques[u];
        line.insert(1, "\"id\":\"c" + std::to_string(c) + "r" + std::to_string(i) + "\",");
        std::string response;
        if (!client.send_line(line) || !client.recv_line(&response)) {
          fail_count.fetch_add(1);
          continue;
        }
        const auto doc = util::parse_json(response);
        const util::JsonValue* payload = doc ? doc->find("payload") : nullptr;
        if (!payload || !payload->is_string()) {
          fail_count.fetch_add(1);
        } else if (payload->string == offline[u]) {
          ok_count.fetch_add(1);
        } else {
          mismatch_count.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  server.request_drain();
  server.wait();

  EXPECT_EQ(ok_count.load(), kClients * kPerClient);
  EXPECT_EQ(mismatch_count.load(), 0);
  EXPECT_EQ(fail_count.load(), 0);
  // 32 duplicate-heavy requests; at most the 2 uniques were ever computed.
  EXPECT_LE(core::result_cache_stats().misses, 2u);
}

TEST_F(ServeTest, ServeStreamDrivesStdioModeOverPipes) {
  int to_server[2], from_server[2];
  ASSERT_EQ(::pipe(to_server), 0);
  ASSERT_EQ(::pipe(from_server), 0);

  serve::ServerConfig sc;
  sc.listen_address = "unix:" + test_socket_path("stdio");  // unused: no listener started
  serve::Server server(sc);
  std::thread service([&] {  // opm-lint: allow(thread-ownership) — stream-mode server needs its own thread
    server.serve_stream(to_server[0], from_server[1]);
    ::close(from_server[1]);  // EOF for our reader below
  });

  const std::string line =
      R"({"id":"s1","type":"footprint","platform":"broadwell-edram-on","kernel":"stream",)"
      R"("fp_lo":16384,"fp_hi":262144,"points":8})";
  std::string input = line + "\n" + "{bad json\n" + line + "\n";
  ASSERT_EQ(::write(to_server[1], input.data(), input.size()),
            static_cast<ssize_t>(input.size()));
  ::close(to_server[1]);  // EOF: serve_stream answers everything, then returns

  std::string output;
  char chunk[4096];
  ssize_t n;
  while ((n = ::read(from_server[0], chunk, sizeof chunk)) > 0)
    output.append(chunk, static_cast<std::size_t>(n));
  service.join();
  ::close(to_server[0]);
  ::close(from_server[0]);

  std::vector<std::string> lines;
  std::size_t start = 0, pos;
  while ((pos = output.find('\n', start)) != std::string::npos) {
    lines.push_back(output.substr(start, pos - start));
    start = pos + 1;
  }
  ASSERT_EQ(lines.size(), 3u) << output;
  const std::string expected = serve::protocol::execute(parse_ok(line));
  int good = 0, parse_errors = 0;
  for (const auto& l : lines) {
    const auto doc = util::parse_json(l);
    ASSERT_TRUE(doc.has_value()) << l;
    if (doc->find("ok")->boolean) {
      EXPECT_EQ(doc->find("payload")->string, expected);
      ++good;
    } else {
      EXPECT_EQ(doc->find("error")->find("category")->string, "parse");
      ++parse_errors;
    }
  }
  EXPECT_EQ(good, 2);
  EXPECT_EQ(parse_errors, 1);
}

// ---------------------------------------------------- retired --socket flag --

TEST(ServeCli, RetiredSocketFlagExitsTwoNamingItsReplacement) {
  // util::Cli ignores unknown flags, so a script that kept the pre-v2
  // --socket=PATH would bind (or dial) the default socket without a word.
  // Every binary that took it refuses it instead, before binding anything.
  // (`timeout` bounds a regression that would otherwise serve forever.)
  struct Case {
    const char* binary;
    const char* replacement;
  };
  for (const Case& c : {Case{OPM_SERVE_BIN, "--listen=unix:retired.sock"},
                        Case{OPM_ROUTER_BIN, "--listen=unix:retired.sock"},
                        Case{OPM_LOADGEN_BIN, "--connect=unix:retired.sock"}}) {
    const std::string command =
        std::string("timeout 60 ") + c.binary + " --socket=retired.sock </dev/null 2>&1";
    FILE* pipe = ::popen(command.c_str(), "r");
    ASSERT_NE(pipe, nullptr) << command;
    std::string output;
    char buf[256];
    while (std::fgets(buf, sizeof buf, pipe) != nullptr) output += buf;
    const int status = ::pclose(pipe);
    ASSERT_TRUE(WIFEXITED(status)) << command;
    EXPECT_EQ(WEXITSTATUS(status), 2) << command << "\n" << output;
    EXPECT_NE(output.find(c.replacement), std::string::npos) << command << "\n" << output;
  }
}

TEST(ServeCli, EachBinaryTakesItsOwnFlagsAndNothingElse) {
  // Each serve binary checks its command line against its own flag list
  // before it binds or dials anything: a typo such as --listne, the other
  // binary's flag, or a stray argument exits 2 naming it. The flags
  // opmbench's driver and scripts/ci.sh pass get through: opm_serve
  // --stdio answers an empty stdin (exit 0), and the router gets as far
  // as its unreachable backend (exit 1).
  const std::string cache_dir = "serve-cli-cache-" + std::to_string(::getpid());
  struct Case {
    const char* binary;
    std::string args;
    int exit_code;
    const char* named;  ///< what the output must name
  };
  for (const Case& c :
       {Case{OPM_SERVE_BIN, "--listne=unix:typo.sock", 2, "--listne"},
        Case{OPM_SERVE_BIN, "--shards=unix:a.sock", 2, "--shards"},
        Case{OPM_SERVE_BIN, "typo.sock", 2, "typo.sock"},
        Case{OPM_ROUTER_BIN, "--shards=unix:a.sock --listne=unix:typo.sock", 2, "--listne"},
        Case{OPM_ROUTER_BIN, "--shards=unix:a.sock --stdio", 2, "--stdio"},
        Case{OPM_SERVE_BIN,
             "--stdio --listen=unix:unused.sock --token=t --shard-id=1 --shard-count=2"
             " --serve-workers=1 --sweep-workers=0 --queue-depth=4096 --max-line-bytes=8388608"
             " --cache-dir=" + cache_dir + " --cache-max-bytes=1048576 --no-sweep-stats",
             0, ""},
        Case{OPM_ROUTER_BIN,
             "--listen=unix:unused-router.sock --token=t --max-line-bytes=8388608"
             " --shards=unix:no-such-shard.sock",
             1, "no-such-shard.sock"}}) {
    const std::string command =
        std::string("timeout 60 ") + c.binary + " " + c.args + " </dev/null 2>&1";
    FILE* pipe = ::popen(command.c_str(), "r");
    ASSERT_NE(pipe, nullptr) << command;
    std::string output;
    char buf[256];
    while (std::fgets(buf, sizeof buf, pipe) != nullptr) output += buf;
    const int status = ::pclose(pipe);
    ASSERT_TRUE(WIFEXITED(status)) << command;
    EXPECT_EQ(WEXITSTATUS(status), c.exit_code) << command << "\n" << output;
    EXPECT_NE(output.find(c.named), std::string::npos) << command << "\n" << output;
  }
  std::filesystem::remove_all(cache_dir);
}

TEST(ServeCli, LoadgenAndAdvisorTakeOnlyTheirOwnFlags) {
  // The two clients of the tier check their command lines too, so
  // `opm_advise --conect=...` cannot silently run offline. The flags
  // scripts/ci.sh passes them get through: each gets as far as its
  // unreachable server (exit 1).
  const std::string scratch = "serve-cli-clients-" + std::to_string(::getpid());
  struct Case {
    const char* binary;
    std::string args;
    int exit_code;
    const char* named;
  };
  for (const Case& c :
       {Case{OPM_LOADGEN_BIN, "--qiuck", 2, "--qiuck"},
        Case{OPM_LOADGEN_BIN, "--connect=unix:a.sock stray", 2, "stray"},
        Case{OPM_ADVISE_BIN, "--kernel spmv --platform knl-ddr --conect=127.0.0.1:1", 2,
             "--conect"},
        Case{OPM_LOADGEN_BIN,
             "--connect=unix:no-such-loadgen.sock --token=t --v2 --zipf --dup=6 --clients=2"
             " --cache-dir=" + scratch + " --no-sweep-stats --out=" + scratch + ".json",
             1, "FAIL"},
        Case{OPM_ADVISE_BIN,
             "--kernel spmv --platform knl-ddr --json --connect=unix:no-such-advise.sock"
             " --token=t --cache-dir=" + scratch + " --no-sweep-stats",
             1, "no-such-advise.sock"}}) {
    const std::string command =
        std::string("timeout 60 ") + c.binary + " " + c.args + " </dev/null 2>&1";
    FILE* pipe = ::popen(command.c_str(), "r");
    ASSERT_NE(pipe, nullptr) << command;
    std::string output;
    char buf[256];
    while (std::fgets(buf, sizeof buf, pipe) != nullptr) output += buf;
    const int status = ::pclose(pipe);
    ASSERT_TRUE(WIFEXITED(status)) << command;
    EXPECT_EQ(WEXITSTATUS(status), c.exit_code) << command << "\n" << output;
    EXPECT_NE(output.find(c.named), std::string::npos) << command << "\n" << output;
  }
  std::filesystem::remove_all(scratch);
  std::filesystem::remove(scratch + ".json");
}

}  // namespace
