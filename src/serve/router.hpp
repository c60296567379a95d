#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "serve/listener.hpp"
#include "util/fingerprint.hpp"

/// The sharding front end of the serve tier.
///
/// `opm_router` accepts client connections (either envelope version),
/// consistent-hashes each sweep request's coalescing key
/// (protocol::request_key, the same 128-bit digest the result cache and
/// single-flight table use) onto one of N backend shards, and forwards
/// the request over a persistent per-backend connection. Responses go
/// back under the client's own envelope, so a v1 client talking through
/// the router sees byte-identical lines to a v1 client talking to a
/// standalone server. A success line in the exact form shards write is
/// spliced — the client's head, then the payload bytes as they arrived,
/// never decoded; any other line (errors, redirects, other spellings) is
/// parsed and re-rendered (protocol::parse_payload_head).
///
/// Why hash the *request key* and not the peer: each shard's in-memory
/// LRU and single-flight table stay hot for its slice of the key space
/// regardless of which clients ask, which is the whole point of
/// sharding a memoizing service. The checksummed .opmrec disk tier is
/// the shared L2 underneath (shards may point at one --cache-dir).
///
/// Stale ring views are expected during scale-out: a shard that owns a
/// narrower slice than the router believes answers "redirect" with the
/// owning shard id, and the router re-forwards to that shard (bounded by
/// max_redirects) instead of failing the client request.
///
/// Control plane: ping and stats are answered by the router itself —
/// stats reports the router's own counters ("router." prefix), not an
/// aggregate over shards, so observability works even with every backend
/// down. hello gates TCP listeners exactly like the server: both sit on
/// one serve::Listener (serve/listener.hpp).
namespace opm::serve {

/// Deterministic consistent-hash ring: `vnodes` virtual points per shard,
/// placed by hashing (shard, replica) through util::Hasher128. Lookup
/// walks clockwise from the key's 64-bit position. Determinism matters
/// twice: every router and shard process must agree on ownership given
/// the same shard count, and adding/removing one shard must move only
/// ~1/N of the key space (the classic consistent-hashing bound).
class HashRing {
 public:
  HashRing() = default;
  explicit HashRing(int shards, int vnodes = 64);

  /// The shard owning `key`, or -1 on an empty ring.
  int lookup(const util::Digest128& key) const;

  int shards() const { return shards_; }
  bool empty() const { return points_.empty(); }

 private:
  /// (ring position, shard id), sorted by position.
  std::vector<std::pair<std::uint64_t, int>> points_;
  int shards_ = 0;
};

struct RouterConfig {
  std::string listen_address;  ///< util::parse_address grammar
  /// Backend shard addresses; index == shard id.
  std::vector<std::string> backends;
  /// Ring view size; 0 = backends.size(). May lag the backend list during
  /// scale-out (backends join the pool before the ring widens) — redirect
  /// hints from shards with a wider view still resolve, because the hint
  /// indexes the backend list.
  int ring_shards = 0;
  /// Gates the router's own TCP listener, and is presented to TCP
  /// backends as their hello before any request.
  std::string auth_token;
  /// Client request-line limit. Backend response lines are bounded by
  /// protocol::kMaxResponseLineBytes instead.
  std::size_t max_line_bytes = 256 * 1024;
  int max_redirects = 1;  ///< redirect hops to follow per request
};

class Router : public Frontend {
 public:
  explicit Router(const RouterConfig& config);
  ~Router() override;

  /// Connects every backend (with the hello on TCP backends when a token
  /// is set), then binds. Fails if a backend is unreachable or refuses.
  bool start(std::string* error = nullptr) override;
  /// The drain: forwarded requests come back before client connections
  /// close; backend connections close last.
  void wait() override;

  /// {"pending":N,"router":{...}} — the router's own counters.
  std::string stats_json() const;

 protected:
  Listener& listener() const override;

 private:
  struct Impl;
  Impl* impl_;
};

}  // namespace opm::serve
