#include "serve/client.hpp"

#include <poll.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>

#include "serve/protocol.hpp"
#include "util/socket.hpp"

namespace opm::serve {

bool LineClient::connect(const std::string& address, std::string* error) {
  close();
  util::SocketAddress addr;
  if (!util::parse_address(address, &addr, error)) return false;
  fd_ = util::connect_to(addr, error);
  return fd_ >= 0;
}

bool LineClient::hello(const std::string& token, std::string* reply) {
  protocol::Request req;
  req.type = protocol::RequestType::kHello;
  req.version = 2;
  req.id = "hello";
  req.token = token;
  std::string line;
  protocol::ResponseView view;
  const bool ok = send_line(protocol::render_request(req)) && recv_line(&line) &&
                  protocol::parse_response(line, &view) && view.ok;
  if (reply) *reply = std::move(line);
  return ok;
}

bool LineClient::send_line(std::string_view line) {
  return fd_ >= 0 && util::send_line(fd_, line);
}

bool LineClient::recv_line(std::string* line, int timeout_ms) {
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::milliseconds(timeout_ms);
  for (;;) {
    std::string_view next;
    if (buf_.next_line(&next)) {
      line->assign(next);
      return true;
    }
    if (fd_ < 0) return false;
    if (timeout_ms >= 0) {
      const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
          deadline - std::chrono::steady_clock::now());
      pollfd pfd{fd_, POLLIN, 0};
      const int rc = ::poll(&pfd, 1, static_cast<int>(std::max<long long>(left.count(), 0)));
      if (rc < 0 && errno == EINTR) continue;
      if (rc <= 0) return false;
    }
    const ssize_t n = buf_.fill(fd_);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) {
      eof_ = n == 0;
      return false;
    }
    // No legal line is this long.
    if (buf_.pending() > protocol::kMaxResponseLineBytes) return false;
  }
}

bool LineClient::wait_eof() {
  std::string line;
  while (recv_line(&line)) {
  }
  return eof_;
}

int LineClient::release() {
  const int fd = fd_;
  fd_ = -1;
  close();
  return fd;
}

void LineClient::close() {
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
  eof_ = false;
  buf_.clear();
}

}  // namespace opm::serve
