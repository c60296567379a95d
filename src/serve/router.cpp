#include "serve/router.hpp"

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <csignal>
#include <cstring>
#include <limits>
#include <memory>
#include <sstream>
#include <thread>
#include <unordered_map>
#include <vector>

#include "serve/conn.hpp"
#include "serve/protocol.hpp"
#include "util/logging.hpp"
#include "util/metrics.hpp"
#include "util/mutex.hpp"

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

namespace {

protocol::Error make_error(const char* category, std::string message, int retry_after_ms = 0) {
  protocol::Error e;
  e.category = category;
  e.message = std::move(message);
  e.retry_after_ms = retry_after_ms;
  return e;
}

/// Reads one '\n'-terminated line from a blocking fd (the backend hello
/// handshake — the only synchronous read the router does).
bool read_line_blocking(int fd, std::string* out) {
  out->clear();
  char c;
  for (;;) {
    const ssize_t n = ::read(fd, &c, 1);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    if (n == 0) return false;
    if (c == '\n') return true;
    out->push_back(c);
    if (out->size() > 1 << 20) return false;
  }
}

}  // namespace

struct Router::Impl {
  explicit Impl(const RouterConfig& cfg)
      : config(cfg),
        ring(cfg.ring_shards > 0 ? cfg.ring_shards : static_cast<int>(cfg.backends.size())),
        requests(util::MetricsRegistry::instance().counter("router.requests")),
        forwarded(util::MetricsRegistry::instance().counter("router.forwarded")),
        responses(util::MetricsRegistry::instance().counter("router.responses")),
        redirects_followed(
            util::MetricsRegistry::instance().counter("router.redirects_followed")),
        errors_protocol(util::MetricsRegistry::instance().counter("router.errors_protocol")),
        rejected_auth(util::MetricsRegistry::instance().counter("router.rejected_auth")),
        backend_errors(util::MetricsRegistry::instance().counter("router.backend_errors")) {
    std::string error;
    if (!util::parse_address(config.listen_address, &listen, &error))
      listen_parse_error = error;
  }

  RouterConfig config;
  HashRing ring;

  util::Counter& requests;
  util::Counter& forwarded;
  util::Counter& responses;
  util::Counter& redirects_followed;
  util::Counter& errors_protocol;
  util::Counter& rejected_auth;
  util::Counter& backend_errors;

  util::SocketAddress listen;
  std::string listen_parse_error;
  bool auth_required = false;

  int listen_fd = -1;
  int listen_port = -1;
  int pipe_r = -1;
  int pipe_w = -1;
  std::thread accept_thread;
  bool started = false;
  bool waited = false;

  /// One persistent connection + reader per backend shard.
  std::vector<std::shared_ptr<Conn>> backends;
  std::vector<std::thread> backend_readers;

  util::Mutex conns_mutex;
  std::vector<std::shared_ptr<Conn>> conns OPM_GUARDED_BY(conns_mutex);
  std::vector<std::thread> readers OPM_GUARDED_BY(conns_mutex);

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

  void answer(const std::shared_ptr<Conn>& client, std::string_view line) {
    responses.add(1);
    client->write_line(line);
  }

  /// Forwards `p.req` to shard `target` under a fresh wire id. On an
  /// unusable target the client gets a structured error instead.
  void forward(Pending p, int target) {
    if (target < 0 || target >= static_cast<int>(backends.size()) ||
        !backends[static_cast<std::size_t>(target)]->is_open()) {
      backend_errors.add(1);
      answer(p.client,
             protocol::render_error(
                 p.env, make_error("internal", "backend shard " + std::to_string(target) +
                                                   " is unavailable")));
      return;
    }
    const std::uint64_t seq = next_wire_id.fetch_add(1, std::memory_order_relaxed);
    const std::string wire_id = "g" + std::to_string(seq);
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
    // head, then the payload bytes exactly as they arrived.
    protocol::PayloadHead head;
    if (protocol::parse_payload_head(line, &head)) {
      Pending p;
      if (!take_pending(std::string(head.id), &p)) return;
      protocol::Envelope env = p.env;
      env.shard = head.shard;  // tell v2 clients which backend really answered
      answer(p.client, protocol::splice_response(env, head));
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
      answer(p.client, protocol::render_error(
                           p.env, make_error("internal", "backend shard connection lost")));
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

  /// Handles one client request line. Returns false when the connection
  /// must close (auth failure).
  bool handle_line(std::string_view line, const std::shared_ptr<Conn>& conn) {
    if (line.find_first_not_of(" \t\r") == std::string_view::npos) return true;
    requests.add(1);
    protocol::Request req;
    protocol::Error err;
    if (!protocol::parse_request(line, &req, &err)) {
      errors_protocol.add(1);
      answer(conn, protocol::render_error(protocol::envelope_of(req), err));
      return true;
    }
    const protocol::Envelope env = protocol::envelope_of(req);
    if (req.type == protocol::RequestType::kHello) {
      if (!auth_required || req.token == config.auth_token) {
        conn->set_authed(true);
        answer(conn, protocol::render_hello_ok(env));
        return true;
      }
      rejected_auth.add(1);
      answer(conn, protocol::render_error(
                       env, make_error("auth", "hello token does not match; closing connection")));
      return false;
    }
    if (auth_required && !conn->is_authed()) {
      rejected_auth.add(1);
      answer(conn,
             protocol::render_error(
                 env, make_error("auth",
                                 "this listener requires a {\"type\":\"hello\",\"token\":...} "
                                 "first; closing connection")));
      return false;
    }
    if (req.type == protocol::RequestType::kPing) {
      answer(conn, protocol::render_pong(env));
      return true;
    }
    if (req.type == protocol::RequestType::kStats) {
      answer(conn, protocol::render_stats(env, stats()));
      return true;
    }
    bool rejected = false;
    {
      util::MutexLock lock(pending_mutex);
      rejected = draining;
    }
    if (rejected) {
      answer(conn, protocol::render_error(
                       env, make_error("draining", "router is draining; resubmit elsewhere", 50)));
      return true;
    }
    const int target = ring.lookup(protocol::request_key(req));
    Pending p;
    p.client = conn;
    p.env = env;
    p.req = std::move(req);
    p.redirects_left = config.max_redirects;
    forward(std::move(p), target);
    return true;
  }

  void reader_main(std::shared_ptr<Conn> conn) {
    const bool intact =
        for_each_line(conn->read_fd(), config.max_line_bytes,
                      [&](std::string_view line) { return handle_line(line, conn); });
    if (!intact) {
      errors_protocol.add(1);
      conn->write_line(protocol::render_error(
          protocol::Envelope{}, make_error("oversized",
                         "request line exceeds " + std::to_string(config.max_line_bytes) +
                             " bytes; closing connection")));
    }
    conn->close_fd();
  }

  void accept_loop() {
    for (;;) {
      pollfd fds[2] = {{listen_fd, POLLIN, 0}, {pipe_r, POLLIN, 0}};
      const int rc = ::poll(fds, 2, -1);
      if (rc < 0) {
        if (errno == EINTR) continue;
        util::log_error(std::string("opm_router: poll failed: ") + std::strerror(errno));
        return;
      }
      if (fds[1].revents != 0) return;  // drain requested
      if ((fds[0].revents & POLLIN) == 0) continue;
      const int cfd = ::accept(listen_fd, nullptr, nullptr);
      if (cfd < 0) continue;
      auto conn = std::make_shared<Conn>();
      conn->init(cfd, /*socket=*/true, /*owns=*/true);
      util::MutexLock lock(conns_mutex);
      conns.push_back(conn);
      readers.emplace_back([this, conn] { reader_main(conn); });
    }
  }

  /// Connects one backend and, for TCP backends with a configured token,
  /// runs the hello handshake synchronously so auth failures surface at
  /// start() instead of as hung requests.
  bool connect_backend(std::size_t shard, std::string* error) {
    util::SocketAddress addr;
    if (!util::parse_address(config.backends[shard], &addr, error)) return false;
    const int fd = util::connect_to(addr, error);
    if (fd < 0) return false;
    auto conn = std::make_shared<Conn>();
    conn->init(fd, /*socket=*/true, /*owns=*/true);
    if (addr.kind == util::SocketAddress::Kind::kTcp && !config.backend_token.empty()) {
      protocol::Request hello;
      hello.type = protocol::RequestType::kHello;
      hello.version = 2;
      hello.id = "hello";
      hello.token = config.backend_token;
      conn->write_line(protocol::render_request(hello));
      std::string reply;
      protocol::ResponseView view;
      if (!read_line_blocking(fd, &reply) || !protocol::parse_response(reply, &view) ||
          !view.ok) {
        if (error) *error = "backend " + addr.to_string() + " rejected the hello handshake";
        conn->close_fd();
        return false;
      }
    }
    backends[shard] = std::move(conn);
    return true;
  }
};

Router::Router(const RouterConfig& config) : impl_(new Impl(config)) {}

Router::~Router() {
  if (impl_->started && !impl_->waited) {
    request_drain();
    wait();
  }
  if (impl_->pipe_r >= 0) ::close(impl_->pipe_r);
  if (impl_->pipe_w >= 0) ::close(impl_->pipe_w);
  delete impl_;
}

bool Router::start(std::string* error) {
  ::signal(SIGPIPE, SIG_IGN);
  if (!impl_->listen_parse_error.empty()) {
    if (error) *error = impl_->listen_parse_error;
    return false;
  }
  if (impl_->config.backends.empty()) {
    if (error) *error = "router needs at least one backend shard";
    return false;
  }
  int p[2];
  if (::pipe(p) != 0) {
    if (error) *error = std::string("pipe: ") + std::strerror(errno);
    return false;
  }
  impl_->pipe_r = p[0];
  impl_->pipe_w = p[1];

  impl_->backends.resize(impl_->config.backends.size());
  for (std::size_t i = 0; i < impl_->config.backends.size(); ++i) {
    if (!impl_->connect_backend(i, error)) return false;
  }
  for (std::size_t i = 0; i < impl_->backends.size(); ++i) {
    impl_->backend_readers.emplace_back(
        [this, i] { impl_->backend_reader_main(static_cast<int>(i)); });
  }

  impl_->listen_fd = util::listen_on(impl_->listen, error);
  if (impl_->listen_fd < 0) return false;
  if (impl_->listen.kind == util::SocketAddress::Kind::kTcp) {
    impl_->listen_port = util::bound_port(impl_->listen_fd);
    impl_->auth_required = !impl_->config.auth_token.empty();
  }
  impl_->accept_thread = std::thread([this] { impl_->accept_loop(); });
  impl_->started = true;
  return true;
}

int Router::bound_port() const { return impl_->listen_port; }

int Router::drain_fd() const { return impl_->pipe_w; }

void Router::request_drain() {
  const char byte = 'd';
  if (impl_->pipe_w >= 0) {
    ssize_t rc;
    do {
      rc = ::write(impl_->pipe_w, &byte, 1);
    } while (rc < 0 && errno == EINTR);
  }
}

void Router::wait() {
  if (!impl_->started || impl_->waited) return;
  impl_->waited = true;
  // 1. Stop accepting new connections and new forwards.
  if (impl_->accept_thread.joinable()) impl_->accept_thread.join();
  ::close(impl_->listen_fd);
  impl_->listen_fd = -1;
  if (impl_->listen.kind == util::SocketAddress::Kind::kUnix)
    ::unlink(impl_->listen.path.c_str());
  // 2. Let every already-forwarded request come back. New sweep requests
  //    from still-open clients are rejected as "draining".
  {
    util::MutexLock lock(impl_->pending_mutex);
    impl_->draining = true;
    while (!impl_->pending.empty()) impl_->pending_cv.wait(impl_->pending_mutex);
  }
  // 3. Tear down client connections, then backend connections.
  std::vector<std::shared_ptr<Conn>> conns;
  std::vector<std::thread> readers;
  {
    util::MutexLock lock(impl_->conns_mutex);
    conns.swap(impl_->conns);
    readers.swap(impl_->readers);
  }
  for (const auto& conn : conns) conn->request_close();
  for (auto& t : readers) t.join();
  for (const auto& backend : impl_->backends) backend->request_close();
  for (auto& t : impl_->backend_readers) t.join();
  impl_->backend_readers.clear();
}

std::string Router::stats_json() const { return impl_->stats(); }

const HashRing& Router::ring() const { return impl_->ring; }

}  // namespace opm::serve
