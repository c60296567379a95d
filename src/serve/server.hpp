#pragma once

#include <cstddef>
#include <string>

#include "serve/dispatcher.hpp"

/// Transport layer of the sweep service: a Unix-domain or TCP listener
/// with newline framing, plus a single-stream mode (serve_stream) that
/// drives the same line-handling path over any pair of file descriptors —
/// that is what `opm_serve --stdio` and the pipe-based tests use.
///
/// Framing and fault policy per connection:
///   * one request per '\n'-terminated line; blank lines are ignored;
///   * a line longer than max_line_bytes gets an "oversized" error and the
///     connection is closed (framing is lost, resync is not possible);
///   * malformed JSON / invalid requests get structured errors and the
///     connection stays open — framing is intact;
///   * a client that disconnects mid-request is fine: its pending
///     responses are dropped on the floor, never written to a dead fd.
///
/// TCP listeners ("HOST:PORT" in listen_address) add two policies the
/// local Unix socket never needed:
///   * shared-secret auth: when auth_token is non-empty, the first
///     request on every TCP connection must be
///     {"type":"hello","token":"<secret>"} — anything else (or a wrong
///     token) gets an "auth" error and the connection is closed. Unix and
///     --stdio streams are local trust and skip the check (hello still
///     answers, so clients can probe either transport uniformly).
///   * per-peer client identity: connections from the same IPv4 address
///     share one dispatcher client id, so per-client quotas and fairness
///     apply to the peer, not to each of its sockets.
///
/// Graceful drain (SIGTERM path): the signal handler writes one byte to
/// drain_fd() (async-signal-safe). wait() then unblocks and runs the
/// sequence — stop accepting, unlink the socket, drain the dispatcher
/// (queued + in-flight finish; new submits are rejected as "draining"),
/// close connections, join every thread, return. The process exits 0 with
/// no orphaned socket file. The result cache's disk tier is write-through,
/// so no separate flush step exists or is needed.
namespace opm::serve {

struct ServerConfig {
  /// Listener in util::parse_address grammar ("unix:PATH" or
  /// "HOST:PORT").
  std::string listen_address = "unix:opm-serve.sock";
  std::string auth_token;  ///< TCP hello secret; empty = open listener
  std::size_t max_line_bytes = 256 * 1024;
  DispatchConfig dispatch;
};

class Server {
 public:
  explicit Server(const ServerConfig& config);
  ~Server();
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds the listener (unlinking any stale unix file), starts the
  /// accept loop. False + *error on failure (path too long, bind
  /// refused, ...).
  bool start(std::string* error = nullptr);

  /// The port a TCP listener actually bound (for "HOST:0" ephemeral
  /// binds), or -1 for unix listeners / before start().
  int bound_port() const;

  /// Write end of the self-pipe: write any byte to request a drain.
  /// Async-signal-safe by construction — this is what the SIGTERM handler
  /// uses.
  int drain_fd() const;

  /// Programmatic equivalent of the signal: nudges the accept loop to
  /// begin the drain sequence.
  void request_drain();

  /// Blocks until a drain is requested, then runs the full drain sequence
  /// and returns. Call once, from the thread that called start().
  void wait();

  /// Serves one already-open stream: reads request lines from in_fd until
  /// EOF, writes response lines to out_fd, then drains the dispatcher so
  /// every admitted request is answered before returning. Does not close
  /// either fd. Used by --stdio and by tests over pipes. Local trust: no
  /// auth gate.
  void serve_stream(int in_fd, int out_fd);

  const ServerConfig& config() const;
  Dispatcher& dispatcher();

 private:
  struct Impl;
  Impl* impl_;
};

}  // namespace opm::serve
