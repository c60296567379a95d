#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>

#include "serve/protocol.hpp"

/// The sweep service's execution core: admission control, per-client
/// fairness, and single-flight coalescing — independent of any transport,
/// so tests drive it directly and the UDS server and --stdio mode are thin
/// wrappers.
///
/// Request lifecycle:
///
///   submit ──► admission ──► per-client queue ──► worker ──► single-flight
///                 │                                              │
///                 └─ overload / draining rejection               ├─ leader: execute()
///                    (responded inline, retry_after_ms set)      └─ follower: share()
///
/// * stats/ping are answered inline by submit() — they must stay
///   responsive under overload, that is the point of having them.
/// * Admission is a global bound on queued requests. One hoggish client
///   cannot starve others of *service order* though: dequeue is
///   round-robin across clients with pending work.
/// * Identical sweeps (protocol::request_key) coalesce: one leader
///   computes, every concurrent duplicate shares the same escaped payload
///   and each waiter is sent it as held, behind its own response head
///   (ids differ).
/// * drain() stops admission (subsequent submits get "draining"), lets
///   queued and in-flight work finish, then joins the workers. The result
///   cache's disk tier is write-behind, so a drained process may still
///   have records queued: Server::wait and Server::serve_stream flush the
///   cache after drain().
///
/// Every submit() is answered exactly once through its respond callback
/// (on a worker thread, or inline on the submitting thread for
/// rejections/stats/ping). Counters land in util::MetricsRegistry under
/// "serve.": admitted, responses, computed, coalesce_hits,
/// rejected_overload, rejected_quota, rejected_draining,
/// rejected_redirect, errors_internal.
namespace opm::serve {

struct DispatchConfig {
  std::size_t queue_depth = 64;  ///< max requests queued (not yet executing)
  std::size_t workers = 2;       ///< executor threads
  int retry_after_ms = 50;       ///< backoff hint in overload/draining rejections
  /// Per-client cap on queued requests (0 = only the global bound). A
  /// client at its quota gets an "overload" rejection even while the
  /// global queue has room — one peer cannot own the whole queue.
  std::size_t per_client_quota = 0;
  /// Sharded tier identity. shard_count > 0 makes this dispatcher
  /// ownership-aware: sweep requests whose ring owner (HashRing over
  /// request_key, the same ring the router builds) is a different shard
  /// are answered with a "redirect" error carrying the owner id, instead
  /// of being computed here — that is what keeps each shard's memory LRU
  /// hot for its own key range even when a stale router asks the wrong
  /// shard. shard_id also lands in every v2 response envelope.
  int shard_id = 0;
  int shard_count = 0;
};

class Dispatcher {
 public:
  /// Called exactly once per submit with one response line (no trailing
  /// newline) in three pieces, sent in order: a success line with a
  /// payload is protocol::splice_head's head, the flight's escaped payload
  /// as held and protocol::kPayloadTail; any other line is all head, with
  /// body and tail empty. The views are valid only for the call (the
  /// dispatcher holds the flight's payload across it), so a sink sends or
  /// copies them before it returns, as Conn::write_line does.
  using Respond =
      std::function<void(std::string_view head, std::string_view body, std::string_view tail)>;

  explicit Dispatcher(const DispatchConfig& config);
  ~Dispatcher();  ///< drains (finishes queued + in-flight work)
  Dispatcher(const Dispatcher&) = delete;
  Dispatcher& operator=(const Dispatcher&) = delete;

  /// Queues `req` for `client` (any stable per-connection id), or answers
  /// inline: stats/ping immediately, overload/draining as structured
  /// rejections.
  void submit(std::uint64_t client, protocol::Request req, Respond respond);

  /// Stops admitting, finishes queued and in-flight requests, joins the
  /// workers. Idempotent; submit() stays safe (and keeps rejecting)
  /// afterwards.
  void drain();

  /// {"queued":N,"in_flight":N,"serve":{...},"cache":{...},"sweep":{...}}
  /// — the registry snapshots are the same numbers the bench harnesses
  /// print, rendered through the same code path.
  std::string stats_json() const;

  std::size_t queued() const;
  std::size_t in_flight() const;

 private:
  struct Impl;
  Impl* impl_;
};

}  // namespace opm::serve
