#pragma once

#include <string>
#include <string_view>

/// Socket and address helpers shared by the serve tier (server, router,
/// load generator). Thin wrappers over the POSIX calls with one error
/// convention: every fallible call returns an fd (or bool) and fills an
/// optional *error string; no exceptions, no errno leaking to callers.
///
/// Address grammar (one string names any listener or peer):
///
///   unix:PATH       Unix domain stream socket at PATH
///   HOST:PORT       TCP (AF_INET); HOST is a dotted quad or a name
///                   resolvable by getaddrinfo; PORT 0 asks the kernel
///                   for an ephemeral port (recover it via bound_port)
///   PATH            bare fallback: anything without a ':' is unix:PATH
///
/// TCP listeners set SO_REUSEADDR so CI restarts never trip
/// EADDRINUSE on a lingering TIME_WAIT socket.
namespace opm::util {

struct SocketAddress {
  enum class Kind { kUnix, kTcp };
  Kind kind = Kind::kUnix;
  std::string path;  ///< unix: socket file path
  std::string host;  ///< tcp: host name or dotted quad
  int port = 0;      ///< tcp: port (0 = ephemeral when listening)

  /// Round-trips through parse_address: "unix:PATH" or "HOST:PORT".
  std::string to_string() const;
};

/// Parses the grammar above. False (and *error) on an empty string or an
/// unparsable port; never touches the network.
bool parse_address(std::string_view text, SocketAddress* out, std::string* error = nullptr);

/// Binds + listens on `addr`. Unix listeners unlink a stale socket file
/// first; TCP listeners set SO_REUSEADDR. Returns the listening fd, or -1
/// with *error.
int listen_on(const SocketAddress& addr, std::string* error = nullptr, int backlog = 64);

/// Blocking connect to `addr`. Returns the connected fd, or -1 with
/// *error.
int connect_to(const SocketAddress& addr, std::string* error = nullptr);

/// The local port of a bound AF_INET fd (what a port-0 bind actually
/// got), or -1.
int bound_port(int fd);

/// Writes all of `data` to `fd`, retrying on EINTR and short writes.
/// Sockets are written with send(MSG_NOSIGNAL) so a dead peer raises no
/// SIGPIPE. False on any unrecoverable error.
bool send_all(int fd, std::string_view data, bool is_socket = true);

/// send_all of `head`, `body` and `tail`, in order, followed by '\n',
/// gathered into one sendmsg/writev per attempt: a line made of a head, a
/// payload kept elsewhere and a tail is sent without joining it, and no
/// line is copied just to terminate it.
bool send_line(int fd, std::string_view head, std::string_view body = {},
               std::string_view tail = {}, bool is_socket = true);

}  // namespace opm::util
