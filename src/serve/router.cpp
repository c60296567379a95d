#include "serve/router.hpp"

#include <algorithm>
#include <atomic>
#include <limits>
#include <memory>
#include <sstream>
#include <thread>
#include <unordered_map>
#include <vector>

#include "serve/client.hpp"
#include "serve/conn.hpp"
#include "serve/protocol.hpp"
#include "util/metrics.hpp"
#include "util/mutex.hpp"
#include "util/socket.hpp"

namespace opm::serve {

HashRing::HashRing(int shards, int vnodes) : shards_(shards) {
  if (shards <= 0 || vnodes <= 0) return;
  points_.reserve(static_cast<std::size_t>(shards) * static_cast<std::size_t>(vnodes));
  for (int s = 0; s < shards; ++s) {
    for (int v = 0; v < vnodes; ++v) {
      util::Hasher128 h;
      h.add(std::string_view("opm-ring")).add(std::int64_t(s)).add(std::int64_t(v));
      points_.emplace_back(h.digest().lo, s);
    }
  }
  std::sort(points_.begin(), points_.end());
}

int HashRing::lookup(const util::Digest128& key) const {
  if (points_.empty()) return -1;
  // Both digest lanes feed the position so the ring never depends on how
  // request_key distributes entropy between hi and lo.
  const std::uint64_t pos = key.hi ^ (key.lo * 0x9e3779b97f4a7c15ull);
  auto it = std::lower_bound(points_.begin(), points_.end(),
                             std::make_pair(pos, std::numeric_limits<int>::min()));
  if (it == points_.end()) it = points_.begin();  // clockwise wraparound
  return it->second;
}

struct Router::Impl {
  explicit Impl(const RouterConfig& cfg)
      : config(cfg),
        ring(cfg.ring_shards > 0 ? cfg.ring_shards : static_cast<int>(cfg.backends.size())),
        forwarded(util::MetricsRegistry::instance().counter("router.forwarded")),
        responses(util::MetricsRegistry::instance().counter("router.responses")),
        redirects_followed(
            util::MetricsRegistry::instance().counter("router.redirects_followed")),
        backend_errors(util::MetricsRegistry::instance().counter("router.backend_errors")),
        listener(
            ListenerConfig{
                .address = cfg.listen_address,
                .name = "opm_router",
                .auth_token = cfg.auth_token,
                .max_line_bytes = cfg.max_line_bytes,
                .errors_protocol =
                    &util::MetricsRegistry::instance().counter("router.errors_protocol"),
                .rejected_auth = &util::MetricsRegistry::instance().counter("router.rejected_auth"),
                .lines = &util::MetricsRegistry::instance().counter("router.requests"),
                .answered = &responses,
            },
            [this](protocol::Request req, const Session& session) {
              handle_request(std::move(req), session.conn);
            }) {}

  RouterConfig config;
  HashRing ring;

  util::Counter& forwarded;
  util::Counter& responses;
  util::Counter& redirects_followed;
  util::Counter& backend_errors;

  /// A forwarded request awaiting its backend response, keyed by the
  /// router-assigned wire id ("g<seq>").
  struct Pending {
    std::shared_ptr<Conn> client;
    protocol::Envelope env;   ///< the client's envelope (version + its id)
    protocol::Request req;    ///< retained for redirect re-forwarding
    int target = -1;          ///< shard currently asked
    int redirects_left = 0;
  };

  mutable util::Mutex pending_mutex;
  std::unordered_map<std::string, Pending> pending OPM_GUARDED_BY(pending_mutex);
  util::CondVar pending_cv;  // drain: pending ran dry
  bool draining OPM_GUARDED_BY(pending_mutex) = false;
  std::atomic<std::uint64_t> next_wire_id{1};

  /// Sends the client one response line: `head`, then `body` and `tail`.
  void answer(const std::shared_ptr<Conn>& client, std::string_view head,
              std::string_view body = {}, std::string_view tail = {}) {
    responses.add(1);
    client->write_line(head, body, tail);
  }

  /// Forwards `p.req` to shard `target` under a fresh wire id. On an
  /// unusable target the client gets a structured error instead.
  void forward(Pending p, int target) {
    if (target < 0 || target >= static_cast<int>(backends.size()) ||
        !backends[static_cast<std::size_t>(target)]->is_open()) {
      backend_errors.add(1);
      answer(p.client,
             protocol::render_error(
                 p.env, protocol::make_error("internal", "backend shard " +
                                                             std::to_string(target) +
                                                             " is unavailable")));
      return;
    }
    const std::uint64_t seq = next_wire_id.fetch_add(1, std::memory_order_relaxed);
    std::string wire_id = "g";
    wire_id += std::to_string(seq);
    p.target = target;
    protocol::Request copy = p.req;
    copy.id = wire_id;
    const std::shared_ptr<Conn> backend = backends[static_cast<std::size_t>(target)];
    {
      util::MutexLock lock(pending_mutex);
      pending.emplace(wire_id, std::move(p));
    }
    forwarded.add(1);
    backend->write_line(protocol::render_request(copy));
  }

  /// Claims the request waiting on `wire_id`. False for a hello echo or a
  /// dropped client's late reply.
  bool take_pending(const std::string& wire_id, Pending* out) {
    util::MutexLock lock(pending_mutex);
    auto it = pending.find(wire_id);
    if (it == pending.end()) return false;
    *out = std::move(it->second);
    pending.erase(it);
    return true;
  }

  /// Handles one backend response line (any backend; wire ids are global).
  void on_backend_line(std::string_view line) {
    // A success line in the form shards write is spliced: the client's
    // head, then the payload bytes exactly as they arrived, sent from the
    // backend's read buffer in one gathered write.
    protocol::PayloadHead head;
    if (protocol::parse_payload_head(line, &head)) {
      Pending p;
      if (!take_pending(std::string(head.id), &p)) return;
      protocol::Envelope env = p.env;
      env.shard = head.shard;  // tell v2 clients which backend really answered
      answer(p.client, protocol::splice_head(env, head), head.payload, protocol::kPayloadTail);
      pending_cv.notify_all();
      return;
    }
    protocol::ResponseView view;
    if (!protocol::parse_response(line, &view)) {
      backend_errors.add(1);
      return;
    }
    Pending p;
    if (!take_pending(view.id, &p)) return;
    if (!view.ok && view.error.category == "redirect" && p.redirects_left > 0 &&
        view.error.shard >= 0) {
      // The shard's ring view is wider than ours; follow the hint.
      redirects_followed.add(1);
      --p.redirects_left;
      forward(std::move(p), view.error.shard);
      pending_cv.notify_all();
      return;
    }
    protocol::Envelope env = p.env;
    env.shard = view.shard;  // tell v2 clients which backend really answered
    answer(p.client, protocol::render_view(env, view));
    pending_cv.notify_all();
  }

  /// Backend reader thread: pumps responses until the backend dies, then
  /// fails every request still pending on that shard so drains and
  /// clients never hang on a dead backend.
  void backend_reader_main(int shard) {
    const std::shared_ptr<Conn> backend = backends[static_cast<std::size_t>(shard)];
    // Backend lines are responses: bounded by the largest legal one, not
    // by the client request-line limit.
    for_each_line(backend->read_fd(), protocol::kMaxResponseLineBytes, [&](std::string_view line) {
      on_backend_line(line);
      return true;
    });
    backend->close_fd();
    std::vector<std::pair<std::string, Pending>> orphaned;
    {
      util::MutexLock lock(pending_mutex);
      for (auto it = pending.begin(); it != pending.end();) {
        if (it->second.target == shard) {
          orphaned.emplace_back(it->first, std::move(it->second));
          it = pending.erase(it);
        } else {
          ++it;
        }
      }
    }
    for (auto& [id, p] : orphaned) {
      backend_errors.add(1);
      answer(p.client,
             protocol::render_error(
                 p.env, protocol::make_error("internal", "backend shard connection lost")));
    }
    if (!orphaned.empty()) pending_cv.notify_all();
  }

  std::string stats() const {
    std::size_t n = 0;
    {
      util::MutexLock lock(pending_mutex);
      n = pending.size();
    }
    std::ostringstream os;
    os << "{\"pending\":" << n << ",\"router\":"
       << util::MetricsRegistry::instance().json("router.") << "}";
    return os.str();
  }

  /// Acts on one client request that passed the listener's gate.
  void handle_request(protocol::Request req, const std::shared_ptr<Conn>& conn) {
    const protocol::Envelope env = protocol::envelope_of(req);
    if (req.type == protocol::RequestType::kPing) {
      answer(conn, protocol::render_pong(env));
      return;
    }
    if (req.type == protocol::RequestType::kStats) {
      answer(conn, protocol::render_stats(env, stats()));
      return;
    }
    bool rejected = false;
    {
      util::MutexLock lock(pending_mutex);
      rejected = draining;
    }
    if (rejected) {
      answer(conn, protocol::render_error(
                       env, protocol::make_error("draining",
                                                 "router is draining; resubmit elsewhere", 50)));
      return;
    }
    const int target = ring.lookup(protocol::request_key(req));
    Pending p;
    p.client = conn;
    p.env = env;
    p.req = std::move(req);
    p.redirects_left = config.max_redirects;
    forward(std::move(p), target);
  }

  /// Connects every backend and, on TCP backends when a token is set,
  /// runs the hello synchronously so auth failures surface at start()
  /// instead of as hung requests. Then starts one reader per backend.
  bool connect_backends(std::string* error) {
    if (config.backends.empty()) {
      if (error) *error = "router needs at least one backend shard";
      return false;
    }
    for (const std::string& address : config.backends) {
      LineClient client;
      if (!client.connect(address, error)) return false;
      util::SocketAddress addr;
      util::parse_address(address, &addr);
      if (addr.kind == util::SocketAddress::Kind::kTcp && !config.auth_token.empty() &&
          !client.hello(config.auth_token)) {
        if (error) *error = "backend " + addr.to_string() + " rejected the hello handshake";
        return false;
      }
      auto conn = std::make_shared<Conn>();
      conn->init(client.release(), /*socket=*/true, /*owns=*/true);
      backends.push_back(std::move(conn));
    }
    for (std::size_t i = 0; i < backends.size(); ++i)
      backend_readers.emplace_back([this, i] { backend_reader_main(static_cast<int>(i)); });
    return true;
  }

  /// One persistent connection + reader per backend shard.
  std::vector<std::shared_ptr<Conn>> backends;
  std::vector<std::thread> backend_readers;
  Listener listener;  // last: its reader threads call into the members above
};

Router::Router(const RouterConfig& config) : impl_(new Impl(config)) {}

Router::~Router() {
  request_drain();
  wait();
  delete impl_;
}

bool Router::start(std::string* error) {
  // Backends first, so no client ever reaches a router without its shards.
  return impl_->connect_backends(error) && impl_->listener.start(error);
}

void Router::wait() {
  impl_->listener.wait([this] {
    // Every already-forwarded request comes back. New sweep requests from
    // still-open clients are rejected as "draining".
    util::MutexLock lock(impl_->pending_mutex);
    impl_->draining = true;
    while (!impl_->pending.empty()) impl_->pending_cv.wait(impl_->pending_mutex);
  });
  // Client connections are closed; the backends go last. A backend that
  // connected but never got a reader (start() failed) is closed here too.
  for (const auto& backend : impl_->backends) backend->request_close();
  for (auto& t : impl_->backend_readers) t.join();
  impl_->backend_readers.clear();
  for (const auto& backend : impl_->backends) backend->close_fd();
}

std::string Router::stats_json() const { return impl_->stats(); }

Listener& Router::listener() const { return impl_->listener; }

}  // namespace opm::serve
