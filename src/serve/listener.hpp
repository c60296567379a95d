#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "serve/conn.hpp"
#include "serve/protocol.hpp"
#include "util/metrics.hpp"
#include "util/mutex.hpp"
#include "util/socket.hpp"

/// The one listener under both front ends of the serve tier: opm_serve's
/// Server and opm_router's Router each own one and keep only their own
/// work. It owns the address ("unix:PATH" or "HOST:PORT", port 0 =
/// ephemeral), the accept loop and one reader thread per connection, and:
///   * framing: one request per line, blank lines ignored; an over-long
///     line gets an "oversized" error and a hangup (framing is lost), a
///     malformed one a structured error on a connection that stays open;
///   * the auth gate: on a TCP listener with an auth_token, a connection
///     whose first request is not {"type":"hello","token":...} with that
///     token gets one "auth" error and a hangup. Unix and stdio streams
///     are local trust (hello still answers);
///   * client identity: TCP connections from one IPv4 address share a
///     client id, so quotas and fairness bound the peer;
///   * the drain: a byte on drain_fd() (async-signal-safe) makes wait()
///     stop accepting, unlink the unix socket, let the owner finish its
///     admitted work, close every connection and join every thread.
namespace opm::serve {

/// One connection (or one serve_stream), owned by its reader thread.
struct Session {
  std::shared_ptr<Conn> conn;  ///< where every answer to this client goes
  std::uint64_t client = 0;    ///< client id (see "client identity")
  bool authed = false;         ///< passed the gate (or none applies)
};

struct ListenerConfig {
  std::string address;     ///< util::parse_address grammar
  std::string name;        ///< log prefix: "opm_serve" or "opm_router"
  std::string auth_token;  ///< TCP hello secret; empty = open listener
  std::size_t max_line_bytes = 256 * 1024;
  int shard = 0;           ///< envelope shard of the listener's own answers
  /// The owner's counters, each optional: unparsable and oversized lines,
  /// auth hangups, every non-blank line, and every line the listener
  /// answers itself (parse errors, hello, auth).
  util::Counter* errors_protocol = nullptr;
  util::Counter* rejected_auth = nullptr;
  util::Counter* lines = nullptr;
  util::Counter* answered = nullptr;
};

class Listener {
 public:
  /// Acts on one parsed request that passed the gate (never a hello).
  using OnRequest = std::function<void(protocol::Request, const Session&)>;
  /// Takes a line whose first non-blank byte is '['; false hangs up.
  /// Without one, such lines fail to parse like any other bad request.
  using OnBatch = std::function<bool(std::string_view, const Session&)>;

  Listener(ListenerConfig config, OnRequest on_request, OnBatch on_batch = nullptr);
  ~Listener();
  Listener(const Listener&) = delete;
  Listener& operator=(const Listener&) = delete;

  /// Binds (unlinking a stale unix file) and starts accepting. False +
  /// *error on failure.
  bool start(std::string* error);

  /// The port a TCP listener bound, or -1 (unix, or before start()).
  int bound_port() const { return port_; }
  /// The address with a TCP port 0 replaced by the bound port.
  std::string where() const;
  /// Write end of the self-pipe: one byte starts the drain.
  int drain_fd() const { return pipe_w_; }
  void request_drain();

  /// The drain (see above); `finish_work` runs while connections are
  /// still open. Returns at once if never started or already waited.
  void wait(const std::function<void()>& finish_work);

  /// Runs the line path over one open stream, ungated, until EOF on
  /// in_fd. Closes neither fd.
  void serve_stream(int in_fd, int out_fd);

  /// The gate for lines the listener does not parse (batches): true once
  /// `session` has passed hello or when no gate applies; otherwise answers
  /// one "auth" error under `env` and returns false (hang up).
  bool admit(const Session& session, const protocol::Envelope& env);

 private:
  void answer(const Session& session, std::string_view line);
  bool handle_line(std::string_view line, Session& session);
  void read_loop(int in_fd, Session& session);
  std::uint64_t client_id_for(int fd);
  void accept_loop();

  ListenerConfig config_;
  OnRequest on_request_;
  OnBatch on_batch_;
  util::SocketAddress address_;
  std::string parse_error_;
  bool gated_ = false;  ///< TCP with a token: connections start unauthenticated
  int listen_fd_ = -1;
  int port_ = -1;
  int pipe_r_ = -1;
  int pipe_w_ = -1;
  bool started_ = false;
  bool waited_ = false;

  util::Mutex conns_mutex_;
  std::vector<std::shared_ptr<Conn>> conns_ OPM_GUARDED_BY(conns_mutex_);
  std::vector<std::thread> readers_ OPM_GUARDED_BY(conns_mutex_);
  std::atomic<std::uint64_t> next_client_{1};
  std::thread accept_thread_;  // last: it uses everything above
};

/// A front end on one Listener (Server or Router), as run_until_drained
/// (serve/options.hpp) drives it.
class Frontend {
 public:
  Frontend() = default;
  virtual ~Frontend() = default;
  Frontend(const Frontend&) = delete;
  Frontend& operator=(const Frontend&) = delete;
  /// Binds and starts accepting. False + *error on failure.
  virtual bool start(std::string* error = nullptr) = 0;
  /// Blocks until a drain is requested, then drains. Call once.
  virtual void wait() = 0;

  int bound_port() const { return listener().bound_port(); }
  std::string where() const { return listener().where(); }
  int drain_fd() const { return listener().drain_fd(); }
  void request_drain() { listener().request_drain(); }

 protected:
  virtual Listener& listener() const = 0;
};

}  // namespace opm::serve
