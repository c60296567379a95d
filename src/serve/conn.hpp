#pragma once

#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstddef>
#include <cstring>
#include <functional>
#include <memory>
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

  /// Sends one line — `head`, then `body` and `tail` — and its newline in
  /// one gathered write (util::send_line).
  void write_line(std::string_view head, std::string_view body = {},
                  std::string_view tail = {}) OPM_EXCLUDES(mutex) {
    util::MutexLock lock(mutex);
    if (!open || fd < 0) return;  // client went away: drop the response
    if (!util::send_line(fd, head, body, tail, is_socket)) {
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

/// The bytes read from a stream and not yet handed out as lines: what
/// for_each_line and LineClient read into. fill() reads straight into the
/// free tail of one heap block, which is never zero-filled; next_line()
/// hands out each complete line as a view and consumes it by offset, and
/// looks for '\n' only in bytes it has not scanned. The block restarts at
/// its start once every byte was consumed; only when its free tail runs
/// short does it move the unconsumed bytes to its start or double. Once
/// it fits the longest line, a line that does not arrive right behind
/// another is copied once, by the kernel's read.
class LineBuffer {
 public:
  /// The first block's size and the smallest free tail a read gets.
  static constexpr std::size_t kMinRead = 64 * 1024;

  /// One read() into the free tail: its result (bytes, 0 at EOF, or -1
  /// with errno set).
  ssize_t fill(int fd) {
    if (head_ == tail_) head_ = tail_ = scan_ = 0;
    if (capacity_ - tail_ < kMinRead) {
      const std::size_t pending = tail_ - head_;
      if (head_ > 0 && capacity_ - pending >= kMinRead) {
        std::memmove(data_.get(), data_.get() + head_, pending);
      } else {
        const std::size_t grown = std::max(2 * capacity_, pending + kMinRead);
        std::unique_ptr<char[]> block(new char[grown]);  // not value-initialized
        if (pending > 0) std::memcpy(block.get(), data_.get() + head_, pending);
        data_ = std::move(block);
        capacity_ = grown;
      }
      scan_ -= head_;
      tail_ = pending;
      head_ = 0;
    }
    const ssize_t n = ::read(fd, data_.get() + tail_, capacity_ - tail_);
    if (n > 0) tail_ += static_cast<std::size_t>(n);
    return n;
  }

  /// The next complete line, without its '\n'; it stays valid until the
  /// next fill() or clear(). False when no complete line is buffered.
  bool next_line(std::string_view* line) {
    const char* const first = data_.get();
    const void* nl = scan_ < tail_ ? std::memchr(first + scan_, '\n', tail_ - scan_) : nullptr;
    if (nl == nullptr) {
      scan_ = tail_;
      return false;
    }
    const auto end = static_cast<std::size_t>(static_cast<const char*>(nl) - first);
    *line = std::string_view(first + head_, end - head_);
    head_ = scan_ = end + 1;
    return true;
  }

  /// Bytes read but not handed out: the start of the next line.
  std::size_t pending() const { return tail_ - head_; }

  /// Drops the unconsumed bytes (the block stays for reuse).
  void clear() { head_ = tail_ = scan_ = 0; }

 private:
  std::unique_ptr<char[]> data_;
  std::size_t capacity_ = 0;
  std::size_t head_ = 0;  ///< first unconsumed byte
  std::size_t scan_ = 0;  ///< bytes [head_, scan_) hold no '\n'
  std::size_t tail_ = 0;  ///< one past the last byte read
};

/// Reads `fd` until EOF/error, invoking `on_line` for each complete
/// '\n'-terminated line (without the newline; the view lives only for the
/// call). Reads into a LineBuffer, so framing is linear in the bytes read
/// however long a line is. A partial line at EOF is dropped. Returns false
/// when the stream was abandoned because a line exceeded `max_line_bytes`
/// — the caller owes the peer an "oversized" error, and framing is lost so
/// the connection must close.
inline bool for_each_line(int fd, std::size_t max_line_bytes,
                          const std::function<bool(std::string_view)>& on_line) {
  LineBuffer buf;
  for (;;) {
    const ssize_t n = buf.fill(fd);
    if (n < 0) {
      if (errno == EINTR) continue;
      return true;
    }
    if (n == 0) return true;  // EOF
    std::string_view line;
    while (buf.next_line(&line)) {
      if (line.size() > max_line_bytes) return false;
      if (!on_line(line)) return true;  // handler closed the connection
    }
    if (buf.pending() > max_line_bytes) return false;
  }
}

}  // namespace opm::serve
