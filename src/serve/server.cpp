#include "serve/server.hpp"

#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <csignal>
#include <cstring>
#include <memory>
#include <thread>
#include <vector>

#include "serve/conn.hpp"
#include "util/json.hpp"
#include "util/logging.hpp"
#include "util/metrics.hpp"
#include "util/mutex.hpp"
#include "util/socket.hpp"

namespace opm::serve {

namespace {

/// Hard ceiling on batch (array) request size: a batch is a convenience
/// for scripting clients, not a bulk-load side channel around the
/// per-client quota. 64 matches the default queue depth.
constexpr std::size_t kMaxBatchRequests = 64;

}  // namespace

struct Server::Impl {
  explicit Impl(const ServerConfig& cfg) : config(cfg), dispatcher(cfg.dispatch) {
    std::string error;
    if (!util::parse_address(config.listen_address, &listen, &error)) listen_parse_error = error;
  }

  ServerConfig config;
  Dispatcher dispatcher;

  util::SocketAddress listen;
  std::string listen_parse_error;
  /// TCP listeners with a configured token gate every connection behind
  /// hello; unix/stdio are local trust.
  bool auth_required = false;

  int listen_fd = -1;
  int listen_port = -1;
  int pipe_r = -1;
  int pipe_w = -1;
  std::thread accept_thread;
  bool started = false;
  bool waited = false;

  util::Mutex conns_mutex;
  std::vector<std::shared_ptr<Conn>> conns OPM_GUARDED_BY(conns_mutex);
  std::vector<std::thread> readers OPM_GUARDED_BY(conns_mutex);
  std::atomic<std::uint64_t> next_client{1};

  protocol::Envelope error_envelope(const protocol::Request& req) const {
    return protocol::envelope_of(req, config.dispatch.shard_id);
  }

  /// Handles one complete request line for `client`, answering through
  /// `conn`. Shared by the socket readers and serve_stream. Returns false
  /// when the connection must close (auth failure).
  bool handle_line(std::string_view line, std::uint64_t client,
                   const std::shared_ptr<Conn>& conn, bool gate_auth) {
    const std::size_t first = line.find_first_not_of(" \t\r");
    if (first == std::string_view::npos) return true;  // blank: ignore
    if (line[first] == '[') return handle_batch(line, client, conn, gate_auth);
    protocol::Request req;
    protocol::Error err;
    if (!protocol::parse_request(line, &req, &err)) {
      util::MetricsRegistry::instance().counter("serve.errors_protocol").add(1);
      conn->write_line(protocol::render_error(error_envelope(req), err));
      return true;  // framing is intact; the connection stays open
    }
    if (req.type == protocol::RequestType::kHello) {
      if (!gate_auth || req.token == config.auth_token) {
        conn->set_authed(true);
        conn->write_line(protocol::render_hello_ok(error_envelope(req)));
        return true;
      }
      util::MetricsRegistry::instance().counter("serve.rejected_auth").add(1);
      protocol::Error auth_err;
      auth_err.category = "auth";
      auth_err.message = "hello token does not match; closing connection";
      conn->write_line(protocol::render_error(error_envelope(req), auth_err));
      return false;
    }
    if (gate_auth && !conn->is_authed()) {
      util::MetricsRegistry::instance().counter("serve.rejected_auth").add(1);
      protocol::Error auth_err;
      auth_err.category = "auth";
      auth_err.message =
          "this listener requires a {\"type\":\"hello\",\"token\":...} first; closing connection";
      conn->write_line(protocol::render_error(error_envelope(req), auth_err));
      return false;
    }
    dispatcher.submit(client, std::move(req),
                      [conn](std::string response) { conn->write_line(response); });
    return true;
  }

  /// A top-level JSON array is a v2 batch: every element is validated and
  /// dispatched independently, and each gets its own response line in
  /// completion order (clients match by req_id). Batch-level faults (not
  /// an array, empty, oversized) answer with one error line carrying an
  /// empty req_id; per-element faults answer under that element's own
  /// recovered envelope. hello cannot ride in a batch — auth is a
  /// connection property, not a request property — so a gated connection
  /// must have sent its hello line before its first batch.
  bool handle_batch(std::string_view line, std::uint64_t client,
                    const std::shared_ptr<Conn>& conn, bool gate_auth) {
    auto& errors_protocol = util::MetricsRegistry::instance().counter("serve.errors_protocol");
    const protocol::Envelope batch_env{2, std::string(), config.dispatch.shard_id};
    std::string parse_error;
    const auto doc = util::parse_json(line, &parse_error);
    if (!doc || !doc->is_array()) {
      errors_protocol.add(1);
      protocol::Error err;
      err.category = "parse";
      err.message = doc ? "batch must be a JSON array of request objects" : parse_error;
      conn->write_line(protocol::render_error(batch_env, err));
      return true;
    }
    if (doc->items.empty()) {
      errors_protocol.add(1);
      protocol::Error err;
      err.category = "bad-request";
      err.message = "batch array must not be empty";
      conn->write_line(protocol::render_error(batch_env, err));
      return true;
    }
    if (doc->items.size() > kMaxBatchRequests) {
      errors_protocol.add(1);
      protocol::Error err;
      err.category = "bad-request";
      err.message = "batch exceeds " + std::to_string(kMaxBatchRequests) + " requests";
      conn->write_line(protocol::render_error(batch_env, err));
      return true;
    }
    if (gate_auth && !conn->is_authed()) {
      util::MetricsRegistry::instance().counter("serve.rejected_auth").add(1);
      protocol::Error auth_err;
      auth_err.category = "auth";
      auth_err.message =
          "this listener requires a {\"type\":\"hello\",\"token\":...} first; closing connection";
      conn->write_line(protocol::render_error(batch_env, auth_err));
      return false;
    }
    for (const util::JsonValue& item : doc->items) {
      protocol::Request req;
      protocol::Error err;
      if (!protocol::parse_request_value(item, &req, &err)) {
        errors_protocol.add(1);
        conn->write_line(protocol::render_error(error_envelope(req), err));
        continue;
      }
      if (req.type == protocol::RequestType::kHello) {
        errors_protocol.add(1);
        protocol::Error hello_err;
        hello_err.category = "bad-request";
        hello_err.message = "hello must be its own line, not a batch element";
        conn->write_line(protocol::render_error(error_envelope(req), hello_err));
        continue;
      }
      dispatcher.submit(client, std::move(req),
                        [conn](std::string response) { conn->write_line(response); });
    }
    return true;
  }

  /// Reads the conn until EOF/error, feeding complete lines to
  /// handle_line.
  void read_loop(int in_fd, std::uint64_t client, const std::shared_ptr<Conn>& conn,
                 bool gate_auth) {
    const bool intact = for_each_line(in_fd, config.max_line_bytes, [&](std::string_view line) {
      return handle_line(line, client, conn, gate_auth);
    });
    if (!intact) oversized(conn);
  }

  void oversized(const std::shared_ptr<Conn>& conn) {
    util::MetricsRegistry::instance().counter("serve.errors_protocol").add(1);
    protocol::Error err;
    err.category = "oversized";
    err.message = "request line exceeds " + std::to_string(config.max_line_bytes) +
                  " bytes; closing connection";
    conn->write_line(protocol::render_error(protocol::Envelope{}, err));
  }

  void reader_main(std::shared_ptr<Conn> conn, std::uint64_t client) {
    read_loop(conn->read_fd(), client, conn, auth_required);
    conn->close_fd();  // EOF, error, auth failure, or oversized: this reader owns the fd
  }

  /// Dispatcher client identity for a freshly accepted connection: TCP
  /// peers are keyed by source IPv4 address (quotas bound the peer, not
  /// each socket); unix connections get a fresh id each.
  std::uint64_t client_id_for(int cfd) {
    if (listen.kind == util::SocketAddress::Kind::kTcp) {
      sockaddr_in peer{};
      socklen_t len = sizeof(peer);
      if (::getpeername(cfd, reinterpret_cast<sockaddr*>(&peer), &len) == 0 &&
          peer.sin_family == AF_INET) {
        return (1ull << 32) | static_cast<std::uint64_t>(ntohl(peer.sin_addr.s_addr));
      }
    }
    return next_client.fetch_add(1, std::memory_order_relaxed);
  }

  void accept_loop() {
    for (;;) {
      pollfd fds[2] = {{listen_fd, POLLIN, 0}, {pipe_r, POLLIN, 0}};
      const int rc = ::poll(fds, 2, -1);
      if (rc < 0) {
        if (errno == EINTR) continue;
        util::log_error(std::string("opm_serve: poll failed: ") + std::strerror(errno));
        return;
      }
      if (fds[1].revents != 0) return;  // drain requested
      if ((fds[0].revents & POLLIN) == 0) continue;
      const int cfd = ::accept(listen_fd, nullptr, nullptr);
      if (cfd < 0) continue;
      auto conn = std::make_shared<Conn>();
      conn->init(cfd, /*socket=*/true, /*owns=*/true);
      const std::uint64_t client = client_id_for(cfd);
      util::MutexLock lock(conns_mutex);
      conns.push_back(conn);
      readers.emplace_back([this, conn, client] { reader_main(conn, client); });
    }
  }
};

Server::Server(const ServerConfig& config) : impl_(new Impl(config)) {}

Server::~Server() {
  if (impl_->started && !impl_->waited) {
    request_drain();
    wait();
  }
  if (impl_->pipe_r >= 0) ::close(impl_->pipe_r);
  if (impl_->pipe_w >= 0) ::close(impl_->pipe_w);
  delete impl_;
}

bool Server::start(std::string* error) {
  ::signal(SIGPIPE, SIG_IGN);
  if (!impl_->listen_parse_error.empty()) {
    if (error) *error = impl_->listen_parse_error;
    return false;
  }
  int p[2];
  if (::pipe(p) != 0) {
    if (error) *error = std::string("pipe: ") + std::strerror(errno);
    return false;
  }
  impl_->pipe_r = p[0];
  impl_->pipe_w = p[1];

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

int Server::bound_port() const { return impl_->listen_port; }

int Server::drain_fd() const { return impl_->pipe_w; }

void Server::request_drain() {
  const char byte = 'd';
  if (impl_->pipe_w >= 0) {
    ssize_t rc;
    do {
      rc = ::write(impl_->pipe_w, &byte, 1);
    } while (rc < 0 && errno == EINTR);
  }
}

void Server::wait() {
  if (!impl_->started || impl_->waited) return;
  impl_->waited = true;
  // 1. Stop accepting: the accept loop exits once the drain pipe fires.
  if (impl_->accept_thread.joinable()) impl_->accept_thread.join();
  ::close(impl_->listen_fd);
  impl_->listen_fd = -1;
  if (impl_->listen.kind == util::SocketAddress::Kind::kUnix)
    ::unlink(impl_->listen.path.c_str());
  // 2. Finish admitted work. Connections are still live: clients that keep
  //    sending get structured "draining" rejections, and every response
  //    for queued/in-flight work is written before drain() returns.
  impl_->dispatcher.drain();
  // 3. Tear down connections and join their readers. The accept loop is
  //    already joined, so swapping the containers out under the lock gives
  //    this thread sole ownership of both.
  std::vector<std::shared_ptr<Conn>> conns;
  std::vector<std::thread> readers;
  {
    util::MutexLock lock(impl_->conns_mutex);
    conns.swap(impl_->conns);
    readers.swap(impl_->readers);
  }
  for (const auto& conn : conns) conn->request_close();
  for (auto& t : readers) t.join();
}

void Server::serve_stream(int in_fd, int out_fd) {
  ::signal(SIGPIPE, SIG_IGN);
  auto conn = std::make_shared<Conn>();
  conn->init(out_fd, /*socket=*/false, /*owns=*/false);
  const std::uint64_t client = impl_->next_client.fetch_add(1, std::memory_order_relaxed);
  impl_->read_loop(in_fd, client, conn, /*gate_auth=*/false);
  // EOF: answer everything already admitted, then hand the stream back.
  impl_->dispatcher.drain();
}

const ServerConfig& Server::config() const { return impl_->config; }

Dispatcher& Server::dispatcher() { return impl_->dispatcher; }

}  // namespace opm::serve
