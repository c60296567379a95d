#pragma once

#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstddef>
#include <functional>
#include <string>
#include <string_view>

#include "util/mutex.hpp"
#include "util/socket.hpp"

/// Connection plumbing shared by the server and the router: a
/// mutex-guarded response sink (dispatcher workers and backend readers
/// write concurrently) and the newline framing loop both transports run.
namespace opm::serve {

/// One response sink. Sockets write via send(MSG_NOSIGNAL); pipes/files
/// via write() (the serve binaries also ignore SIGPIPE process-wide as a
/// second line of defense, since tests drive serve_stream over pipes).
/// The mutex serializes concurrent responses from different worker
/// threads and makes close-vs-write safe.
struct Conn {
  util::Mutex mutex;
  int fd OPM_GUARDED_BY(mutex) = -1;
  bool is_socket OPM_GUARDED_BY(mutex) = true;
  bool owns_fd OPM_GUARDED_BY(mutex) = true;
  bool open OPM_GUARDED_BY(mutex) = true;

  /// Publishes the fd and its flavor; called once, before the Conn is
  /// shared with any writer.
  void init(int new_fd, bool socket, bool owns) OPM_EXCLUDES(mutex) {
    util::MutexLock lock(mutex);
    fd = new_fd;
    is_socket = socket;
    owns_fd = owns;
  }

  /// The fd a reader loop should consume (readers never race close_fd:
  /// the reader itself is the closer).
  int read_fd() OPM_EXCLUDES(mutex) {
    util::MutexLock lock(mutex);
    return fd;
  }

  bool is_open() OPM_EXCLUDES(mutex) {
    util::MutexLock lock(mutex);
    return open && fd >= 0;
  }

  void write_line(std::string_view line) OPM_EXCLUDES(mutex) {
    util::MutexLock lock(mutex);
    if (!open || fd < 0) return;  // client went away: drop the response
    if (!util::send_line(fd, line, is_socket)) {
      open = false;  // broken pipe or similar; subsequent responses drop
    }
  }

  /// Wakes a reader blocked in read() and stops future writes. The fd is
  /// closed by whoever owns the reader loop, after it exits.
  void request_close() OPM_EXCLUDES(mutex) {
    util::MutexLock lock(mutex);
    open = false;
    if (fd >= 0 && is_socket) ::shutdown(fd, SHUT_RDWR);
  }

  void close_fd() OPM_EXCLUDES(mutex) {
    util::MutexLock lock(mutex);
    open = false;
    if (fd >= 0 && owns_fd) ::close(fd);
    fd = -1;
  }
};

/// Reads `fd` until EOF/error, invoking `on_line` for each complete
/// '\n'-terminated line (without the newline; the view lives only for the
/// call). Reads 64 KiB at a time, scans each byte for '\n' once and
/// consumes lines by offset, so framing is linear in the bytes read
/// however long a line is. A partial line at EOF is dropped. Returns false
/// when the stream was abandoned because a line exceeded `max_line_bytes`
/// — the caller owes the peer an "oversized" error, and framing is lost so
/// the connection must close.
inline bool for_each_line(int fd, std::size_t max_line_bytes,
                          const std::function<bool(std::string_view)>& on_line) {
  std::string buf;  // unconsumed bytes: the start of the next line
  char chunk[64 * 1024];
  for (;;) {
    const ssize_t n = ::read(fd, chunk, sizeof chunk);
    if (n < 0) {
      if (errno == EINTR) continue;
      return true;
    }
    if (n == 0) return true;  // EOF
    std::size_t scan = buf.size();  // the bytes before hold no '\n'
    buf.append(chunk, static_cast<std::size_t>(n));
    std::size_t head = 0;
    for (std::size_t nl; (nl = buf.find('\n', scan)) != std::string::npos; scan = head) {
      const std::string_view line(buf.data() + head, nl - head);
      head = nl + 1;
      if (line.size() > max_line_bytes) return false;
      if (!on_line(line)) return true;  // handler closed the connection
    }
    buf.erase(0, head);
    if (buf.size() > max_line_bytes) return false;
  }
}

}  // namespace opm::serve
