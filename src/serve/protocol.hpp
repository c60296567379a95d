#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "advise/advise.hpp"
#include "core/experiment.hpp"
#include "sim/platform.hpp"
#include "sparse/collection.hpp"
#include "util/fingerprint.hpp"
#include "util/format.hpp"
#include "util/json.hpp"

/// The opm_serve wire protocol: newline-delimited JSON requests, one JSON
/// response line per request. Two envelope versions share one payload
/// format.
///
/// **v1 (bare)** — a request is a single line holding one JSON object;
/// the optional echo token is named "id". The three sweep types map 1:1
/// onto the canonical request structs of core/experiment.hpp — the
/// service is a thin network front end over the exact same library calls
/// the offline bench harnesses make, which is what makes the
/// byte-identity guarantee checkable: for any request, the "payload"
/// field of the response equals render_points_csv(<the offline sweep>)
/// exactly.
///
///   {"type":"dense","id":"r1","platform":"broadwell-edram-on",
///    "kernel":"gemm","n_lo":256,"n_hi":4096,"n_step":512,
///    "nb_lo":128,"nb_hi":1024,"nb_step":128}
///   {"type":"sparse","id":"r2","platform":"knl-flat","kernel":"spmv"}
///   {"type":"footprint","id":"r3","platform":"knl-cache","kernel":"stream",
///    "fp_lo":16384,"fp_hi":1048576,"points":32}
///   {"type":"stats","id":"s1"}
///   {"type":"ping","id":"p1"}
///
/// **v2 (sharded tier)** — the same request object plus `"v":2`, with the
/// echo token renamed `req_id` (a v2 request must not carry "id", and
/// vice versa; `{"v":1,...}` is accepted as an explicit spelling of v1):
///
///   {"v":2,"req_id":"r1","type":"sparse","platform":"knl-flat",
///    "kernel":"spmv"}
///
/// v2 responses echo `v` and `req_id` and carry the serving shard id, so
/// a client talking to a router can always tell which backend answered:
///
///   {"v":2,"req_id":"r1","ok":true,"type":"sparse","shard":1,
///    "payload":"x,y,gflops,..."}
///
/// The payload bytes are identical across versions — the envelope is the
/// only difference, which is what lets v1 clients keep their goldens
/// against a v2 sharded tier.
///
/// Parsing is strict: unknown request types, unknown fields, wrong field
/// types, non-finite or out-of-range values, kernels that do not match the
/// request type, and ids longer than 128 bytes are all rejected with a
/// structured error — the server never guesses. Sweep fields are optional
/// and default to the paper's appendix A.2 configuration (the same
/// defaults the canonical structs carry).
///
/// v1 responses (one line each, unchanged from the pre-v2 service):
///   {"id":"r1","ok":true,"type":"dense","payload":"x,y,gflops,..."}
///   {"id":"r1","ok":false,"error":{"category":"overload",
///    "message":"...","retry_after_ms":50}}
///
/// Beyond the three sweeps, v2 adds two operational request types:
///
///   {"v":2,"req_id":"a1","type":"advise","platform":"knl-ddr",
///    "kernel":"spmv","objective":"perf"}          // + footprint_bytes, verify
///   {"v":2,"req_id":"c1","type":"config","sweep_workers":4,
///    "cache_enabled":true,"advise_verify":false}
///
/// "advise" runs the roofline-guided tuning advisor (opm::advise) and
/// returns its deterministic JSON payload; it is digest-routed, coalesced,
/// and payload-cached like any sweep. "config" hot-reloads the sweep knobs
/// on a live server (answered inline, never queued); any key outside the
/// supported set is rejected with the "unsupported-key" error kind.
///
/// A request line may also be a top-level JSON *array* of request
/// envelopes (v2 batch): the server answers each element with its own
/// response line, in completion order, matched back by req_id.
///
/// Error categories: "parse" (not valid JSON), "bad-request" (valid JSON,
/// invalid request), "unsupported-version" ("v" is neither 1 nor 2),
/// "unsupported-key" (a "config" request named a knob this server does not
/// support), "oversized" (line exceeded the server limit; the connection
/// is closed because framing is lost), "auth" (listener requires a hello
/// token; the connection is closed), "overload" and "draining" (admission
/// control; retry_after_ms > 0), "redirect" (this shard does not own the
/// request's key; the error object carries `"shard":N`, the owner under
/// the server's ring view), "internal" (the computation failed).
namespace opm::serve::protocol {

/// Hard ceiling on dense grid size: keeps a single hostile request from
/// pinning a worker for minutes. The paper's widest grid (KNL, n_hi =
/// 32000) is ~4k points, far below this.
inline constexpr std::size_t kMaxGridPoints = std::size_t{1} << 20;

/// The widest CSV payload row in its JSON-escaped form: six hex floats,
/// six commas, an int input_id (at most 11 characters) and the escaped
/// newline "\\n".
inline constexpr std::size_t kMaxCsvRowBytes = 6 * util::kHexfMaxBytes + 6 + 11 + 2;

/// The longest response line a legal request can produce: the largest
/// dense grid's payload plus room for its envelope. The router bounds
/// backend lines by this, not by the client request-line limit.
inline constexpr std::size_t kMaxResponseLineBytes = kMaxGridPoints * kMaxCsvRowBytes + 4096;

enum class RequestType { kDense, kSparse, kFootprint, kAdvise, kConfig, kStats, kPing, kHello };

const char* to_string(RequestType type);

/// The canonical kernel selector names ("gemm", "spmv", ...); inverse of
/// the request parser's kernel lookup.
const char* kernel_name(core::KernelId id);

/// A validated "config" hot-reload request: each knob is optional, and
/// only knobs that were present are applied. The dispatcher answers these
/// inline (never queued) so a drained or saturated server still accepts
/// reconfiguration.
struct ConfigRequest {
  bool has_sweep_workers = false;
  int sweep_workers = 0;  ///< 0 = serial
  bool has_cache_enabled = false;
  bool cache_enabled = false;
  bool has_advise_verify = false;
  bool advise_verify = false;
};

/// A fully-validated request. Exactly one of the payload structs is
/// meaningful, selected by `type`; `platform` is resolved from the
/// selector string.
struct Request {
  RequestType type = RequestType::kPing;
  int version = 1;            ///< envelope version: 1 (bare) or 2
  std::string id;             ///< client-chosen echo token ("id" / "req_id")
  std::string token;          ///< hello only: the shared auth secret
  std::string platform_name;  ///< the selector as sent, e.g. "knl-flat"
  sim::Platform platform;     ///< resolved platform (sweep types only)
  core::DenseSweepRequest dense;
  core::SparseSweepRequest sparse;
  core::FootprintSweepRequest footprint;
  advise::AdviseRequest advise;
  ConfigRequest config;
};

/// A structured protocol error, rendered by render_error.
struct Error {
  std::string category;   ///< see the taxonomy above
  std::string message;
  int retry_after_ms = 0; ///< > 0 only for overload / draining
  int shard = -1;         ///< redirect only: the owning shard id
};

/// An Error of one kind from the taxonomy above.
Error make_error(const char* category, std::string message, int retry_after_ms = 0);

/// The response-envelope identity of a request: which version to speak,
/// which token to echo, and (v2) which shard is answering. Every render
/// function takes one, so the dispatcher and the router produce
/// byte-identical envelopes for the same client.
struct Envelope {
  int version = 1;
  std::string id;
  int shard = 0;  ///< v2 only: serving shard id (standalone servers are 0)
};

/// The envelope a response to `req` must carry. `shard` is the serving
/// shard id (pass 0 for a standalone server).
Envelope envelope_of(const Request& req, int shard = 0);

/// The platform selectors the service accepts.
///   broadwell-edram-off  broadwell-edram-on
///   knl-ddr  knl-cache  knl-flat  knl-hybrid
/// Returns false (and leaves *out alone) for anything else.
bool resolve_platform(std::string_view name, sim::Platform* out);

/// Parses and validates one request line (either envelope version). On
/// failure fills *err (category "parse", "bad-request",
/// "unsupported-version", or "unsupported-key") and returns false; *out
/// keeps whatever version and id were recovered so the error response can
/// still echo them.
bool parse_request(std::string_view line, Request* out, Error* err);

/// Validates an already-parsed JSON request object — the core of
/// parse_request, exposed so batch (array) handling validates each
/// element without re-serializing it.
bool parse_request_value(const util::JsonValue& doc, Request* out, Error* err);

/// Serializes a validated request back to one v2 wire line (the form the
/// router forwards to shards). Doubles are rendered shortest-round-trip,
/// so parse_request(render_request(r)) reconstructs bit-identical
/// canonical structs — and therefore the same request_key.
std::string render_request(const Request& req);

/// The sparse suite every sparse request runs against (the paper's
/// 968-matrix synthetic collection, built once per process).
const sparse::SyntheticCollection& serve_suite();

/// Coalescing/caching identity of a request: the sweep's result-cache key
/// (platform + canonical struct [+ suite]) plus a response-format tag.
/// Deliberately excludes `id` — two clients asking the same question are
/// the same flight. Meaningless for stats/ping (never dispatched).
util::Digest128 request_key(const Request& req);

/// Runs the sweep through the core library (result cache and all) and
/// renders the payload. This is the byte-identity reference: the offline
/// verifier calls this directly and diffs against served payloads.
std::string execute(const Request& req);

/// execute(req)'s payload in the JSON-escaped form an envelope embeds,
/// byte for byte util::json_escape(execute(req)): the one form a
/// dispatcher flight holds and every waiter is sent. Sweep CSV is written
/// escaped in one pass (its only escaped byte is the newline); advise
/// JSON is escaped once per flight.
std::string execute_escaped(const Request& req);

/// CSV payload: header "x,y,gflops,footprint,rows,nnz,input_id", doubles
/// as C99 hex floats (%a, util::write_hexf) so the text round-trips
/// bit-exactly.
std::string render_points_csv(const std::vector<core::SweepPoint>& points);

/// Sampled-simulation annotation for a response envelope (the fast-or-exact
/// serve contract). When the advise pipeline ran its stage-1 probe under
/// SamplingMode::kFast, v2 envelopes carry `"sampled":true` plus the
/// extrapolation error bound so clients can tell a fast answer from an
/// exact one without parsing the payload. `max_rel_error_hex` is the
/// payload's own %a hex-float string, passed through verbatim so
/// parse-then-re-render stays byte-stable. Exact responses (and all v1
/// responses) carry neither member — their bytes are unchanged.
struct SampleNote {
  bool sampled = false;
  std::string max_rel_error_hex;  ///< C99 %a text, e.g. "0x1.9p-9"
};

/// Response lines (no trailing newline), versioned by the envelope. v1
/// renders are byte-identical to the pre-v2 service. A success line
/// annotates a v2 envelope with the sampled members when note.sampled
/// (v1 envelopes ignore the note entirely). It is the three pieces a
/// shard and a router send, joined: splice_head, the escaped payload and
/// kPayloadTail.
std::string render_response(const Envelope& env, RequestType type,
                            const std::string& payload, const SampleNote& note = {});
std::string render_error(const Envelope& env, const Error& err);
std::string render_stats(const Envelope& env, const std::string& stats_json);
std::string render_pong(const Envelope& env);
std::string render_hello_ok(const Envelope& env);

/// A parsed response line — what the router (and tests) need to re-render
/// a backend response under the client's own envelope: because both sides
/// share render_* and util::json_escape, parse-then-re-render is
/// byte-stable and never touches the payload text.
struct ResponseView {
  int version = 1;
  std::string id;
  int shard = 0;        ///< v2 only
  bool ok = false;
  std::string type;     ///< "dense", "pong", "stats", ... (ok responses)
  std::string payload;  ///< sweep responses
  std::string stats;    ///< stats responses: the raw nested JSON object
  Error error;          ///< when !ok
  bool sampled = false;       ///< v2 only: fast (sampled) answer
  std::string max_rel_error;  ///< verbatim %a hex text when sampled
};

/// Parses one response line into a view. False when the line is not a
/// well-formed response envelope (either version). A v2 success line in
/// the form shards write (parse_payload_head's) is read by the router's
/// head reader, which unescapes its payload in the pass that checks it;
/// every other line goes through util::parse_json. Both readers give the
/// same view for any line the first accepts.
bool parse_response(std::string_view line, ResponseView* out);

namespace detail {
/// parse_response's two readers, exposed so tests can hold the first to
/// the second: parse_response(line) is parse_success_line(line) ||
/// parse_response_json(line).
bool parse_success_line(std::string_view line, ResponseView* out);
bool parse_response_json(std::string_view line, ResponseView* out);
}  // namespace detail

/// Re-renders a parsed response under `env` (the client's envelope).
/// Payload and error fields pass through byte-identically.
std::string render_view(const Envelope& env, const ResponseView& view);

/// The head of a v2 success line whose payload can be relayed without
/// decoding it — what the router reads instead of parsing the whole line,
/// and what a shard's dispatcher fills (type and sample note) to render
/// its own head. The views point into the parsed line or payload.
struct PayloadHead {
  std::string_view id;             ///< echo token (holds no escape)
  int shard = 0;
  RequestType type = RequestType::kDense;
  bool sampled = false;
  std::string_view max_rel_error;  ///< escaped text; empty unless sampled
  std::string_view payload;        ///< the payload's escaped bytes as sent
};

/// Reads a success line written exactly as render_response writes a v2
/// one, checking the payload string in place: every escape must be one
/// util::json_escape writes. False for anything else — errors, redirects,
/// stats/pong/hello, v1 lines, other escapes or member orders, bytes after
/// the closing brace — and the caller takes the parse_response +
/// render_view path, which stays the authority on what is legal. When
/// true, splice_head(env, head) + head.payload + kPayloadTail is byte for
/// byte render_view(env, <parse_response of the line>).
bool parse_payload_head(std::string_view line, PayloadHead* out);

/// The bytes that close a success line after its payload string's body.
inline constexpr std::string_view kPayloadTail = "\"}";

/// The one success-line head renderer: the client's envelope head,
/// through the payload string's opening quote. Reads head.type,
/// head.sampled and head.max_rel_error. A success line is splice_head,
/// then the escaped payload as held, then kPayloadTail: shard and router
/// send the three pieces in one gathered write and never join them.
std::string splice_head(const Envelope& env, const PayloadHead& head);

}  // namespace opm::serve::protocol
