#include "serve/listener.hpp"

#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <csignal>
#include <cstring>

#include "util/logging.hpp"

namespace opm::serve {

namespace {

void bump(util::Counter* counter) {
  if (counter) counter->add(1);
}

}  // namespace

Listener::Listener(ListenerConfig config, OnRequest on_request, OnBatch on_batch)
    : config_(std::move(config)),
      on_request_(std::move(on_request)),
      on_batch_(std::move(on_batch)) {
  util::parse_address(config_.address, &address_, &parse_error_);
}

Listener::~Listener() {
  if (started_ && !waited_) {
    request_drain();
    wait(nullptr);
  }
  if (pipe_r_ >= 0) ::close(pipe_r_);
  if (pipe_w_ >= 0) ::close(pipe_w_);
}

void Listener::answer(const Session& session, std::string_view line) {
  bump(config_.answered);
  session.conn->write_line(line);
}

bool Listener::refuse_auth(const Session& session, const protocol::Envelope& env,
                           const char* message) {
  bump(config_.rejected_auth);
  answer(session, protocol::render_error(env, protocol::make_error("auth", message)));
  return false;
}

/// One complete request line. False when the connection must close.
bool Listener::handle_line(std::string_view line, Session& session) {
  const std::size_t first = line.find_first_not_of(" \t\r");
  if (first == std::string_view::npos) return true;  // blank: ignore
  bump(config_.lines);
  if (line[first] == '[' && on_batch_ && session.authed) return on_batch_(line, session);
  protocol::Request req;
  protocol::Error err;
  const bool parsed = protocol::parse_request(line, &req, &err);
  const protocol::Envelope env = protocol::envelope_of(req, config_.shard);
  if (parsed && req.type == protocol::RequestType::kHello) {
    if (gated_ && req.token != config_.auth_token)
      return refuse_auth(session, env, "hello token does not match; closing connection");
    session.authed = true;
    answer(session, protocol::render_hello_ok(env));
    return true;
  }
  // The gate comes before every other answer: until hello, a line of any
  // shape (unparsable, a batch, a request) gets one auth error and a hangup.
  if (!session.authed)
    return refuse_auth(session, env,
                       "this listener requires a {\"type\":\"hello\",\"token\":...} first; "
                       "closing connection");
  if (!parsed) {
    bump(config_.errors_protocol);
    answer(session, protocol::render_error(env, err));
    return true;  // framing is intact; the connection stays open
  }
  on_request_(std::move(req), session);
  return true;
}

void Listener::read_loop(int in_fd, Session& session) {
  const bool intact = for_each_line(in_fd, config_.max_line_bytes, [&](std::string_view line) {
    return handle_line(line, session);
  });
  if (intact) return;
  bump(config_.errors_protocol);
  session.conn->write_line(protocol::render_error(
      protocol::Envelope{},
      protocol::make_error("oversized", "request line exceeds " +
                                            std::to_string(config_.max_line_bytes) +
                                            " bytes; closing connection")));
}

std::uint64_t Listener::client_id_for(int fd) {
  if (address_.kind == util::SocketAddress::Kind::kTcp) {
    sockaddr_in peer{};
    socklen_t len = sizeof(peer);
    if (::getpeername(fd, reinterpret_cast<sockaddr*>(&peer), &len) == 0 &&
        peer.sin_family == AF_INET) {
      return (1ull << 32) | static_cast<std::uint64_t>(ntohl(peer.sin_addr.s_addr));
    }
  }
  return next_client_.fetch_add(1, std::memory_order_relaxed);
}

void Listener::accept_loop() {
  for (;;) {
    pollfd fds[2] = {{listen_fd_, POLLIN, 0}, {pipe_r_, POLLIN, 0}};
    const int rc = ::poll(fds, 2, -1);
    if (rc < 0) {
      if (errno == EINTR) continue;
      util::log_error(config_.name + ": poll failed: " + std::strerror(errno));
      return;
    }
    if (fds[1].revents != 0) return;  // drain requested
    if ((fds[0].revents & POLLIN) == 0) continue;
    const int cfd = ::accept(listen_fd_, nullptr, nullptr);
    if (cfd < 0) continue;
    Session session{std::make_shared<Conn>(), client_id_for(cfd), !gated_};
    session.conn->init(cfd, /*socket=*/true, /*owns=*/true);
    util::MutexLock lock(conns_mutex_);
    conns_.push_back(session.conn);
    readers_.emplace_back([this, session]() mutable {
      read_loop(session.conn->read_fd(), session);
      session.conn->close_fd();  // EOF, error, hangup or oversized: the reader owns the fd
    });
  }
}

bool Listener::start(std::string* error) {
  ::signal(SIGPIPE, SIG_IGN);
  if (!parse_error_.empty()) {
    if (error) *error = parse_error_;
    return false;
  }
  int p[2];
  if (::pipe(p) != 0) {
    if (error) *error = std::string("pipe: ") + std::strerror(errno);
    return false;
  }
  pipe_r_ = p[0];
  pipe_w_ = p[1];
  listen_fd_ = util::listen_on(address_, error);
  if (listen_fd_ < 0) return false;
  if (address_.kind == util::SocketAddress::Kind::kTcp) {
    port_ = util::bound_port(listen_fd_);
    gated_ = !config_.auth_token.empty();
  }
  accept_thread_ = std::thread([this] { accept_loop(); });
  started_ = true;
  return true;
}

std::string Listener::where() const {
  if (port_ < 0) return config_.address;
  return config_.address.substr(0, config_.address.rfind(':') + 1) + std::to_string(port_);
}

void Listener::request_drain() {
  const char byte = 'd';
  while (pipe_w_ >= 0 && ::write(pipe_w_, &byte, 1) < 0 && errno == EINTR) {
  }
}

void Listener::wait(const std::function<void()>& finish_work) {
  if (!started_ || waited_) return;
  waited_ = true;
  // 1. Stop accepting: the accept loop exits once the drain pipe fires.
  if (accept_thread_.joinable()) accept_thread_.join();
  ::close(listen_fd_);
  listen_fd_ = -1;
  if (address_.kind == util::SocketAddress::Kind::kUnix) ::unlink(address_.path.c_str());
  // 2. The owner finishes admitted work. Connections are still live:
  //    clients that keep sending get structured "draining" rejections, and
  //    every response to admitted work is written before this returns.
  if (finish_work) finish_work();
  // 3. Tear down connections and join their readers. The accept loop is
  //    joined, so swapping the containers out under the lock gives this
  //    thread sole ownership of both.
  std::vector<std::shared_ptr<Conn>> conns;
  std::vector<std::thread> readers;
  {
    util::MutexLock lock(conns_mutex_);
    conns.swap(conns_);
    readers.swap(readers_);
  }
  for (const auto& conn : conns) conn->request_close();
  for (auto& t : readers) t.join();
}

void Listener::serve_stream(int in_fd, int out_fd) {
  ::signal(SIGPIPE, SIG_IGN);
  Session session{std::make_shared<Conn>(), next_client_.fetch_add(1, std::memory_order_relaxed),
                  /*authed=*/true};
  session.conn->init(out_fd, /*socket=*/false, /*owns=*/false);
  read_loop(in_fd, session);
}

}  // namespace opm::serve
