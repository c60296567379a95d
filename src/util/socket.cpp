#include "util/socket.hpp"

#include <arpa/inet.h>
#include <netdb.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

namespace opm::util {

namespace {

std::string errno_text(const char* what) {
  return std::string(what) + ": " + std::strerror(errno);
}

bool fill_unix(const std::string& path, sockaddr_un* addr, std::string* error) {
  *addr = {};
  addr->sun_family = AF_UNIX;
  if (path.empty() || path.size() >= sizeof(addr->sun_path)) {
    if (error) *error = "unix socket path empty or too long: " + path;
    return false;
  }
  std::memcpy(addr->sun_path, path.c_str(), path.size() + 1);
  return true;
}

/// Resolves host:port through getaddrinfo (AF_INET, stream). False with
/// *error when nothing resolves.
bool fill_tcp(const SocketAddress& addr, sockaddr_in* out, std::string* error) {
  addrinfo hints{};
  hints.ai_family = AF_INET;
  hints.ai_socktype = SOCK_STREAM;
  addrinfo* res = nullptr;
  const std::string port = std::to_string(addr.port);
  const int rc = ::getaddrinfo(addr.host.c_str(), port.c_str(), &hints, &res);
  if (rc != 0 || res == nullptr) {
    if (error) *error = "resolve " + addr.host + ": " + ::gai_strerror(rc);
    if (res) ::freeaddrinfo(res);
    return false;
  }
  std::memcpy(out, res->ai_addr, sizeof(sockaddr_in));
  ::freeaddrinfo(res);
  return true;
}

}  // namespace

std::string SocketAddress::to_string() const {
  if (kind == Kind::kUnix) return "unix:" + path;
  return host + ":" + std::to_string(port);
}

bool parse_address(std::string_view text, SocketAddress* out, std::string* error) {
  if (text.empty()) {
    if (error) *error = "empty address";
    return false;
  }
  if (text.rfind("unix:", 0) == 0) {
    out->kind = SocketAddress::Kind::kUnix;
    out->path = std::string(text.substr(5));
    if (out->path.empty()) {
      if (error) *error = "empty unix socket path";
      return false;
    }
    return true;
  }
  const std::size_t colon = text.rfind(':');
  if (colon == std::string_view::npos) {  // bare path fallback
    out->kind = SocketAddress::Kind::kUnix;
    out->path = std::string(text);
    return true;
  }
  out->kind = SocketAddress::Kind::kTcp;
  out->host = std::string(text.substr(0, colon));
  const std::string_view port_text = text.substr(colon + 1);
  if (out->host.empty() || port_text.empty()) {
    if (error) *error = "address must be unix:PATH or HOST:PORT: " + std::string(text);
    return false;
  }
  int port = 0;
  for (const char c : port_text) {
    if (c < '0' || c > '9' || port > 65535) {
      if (error) *error = "invalid port in address: " + std::string(text);
      return false;
    }
    port = port * 10 + (c - '0');
  }
  if (port > 65535) {
    if (error) *error = "invalid port in address: " + std::string(text);
    return false;
  }
  out->port = port;
  return true;
}

int listen_on(const SocketAddress& addr, std::string* error, int backlog) {
  if (addr.kind == SocketAddress::Kind::kUnix) {
    sockaddr_un sa;
    if (!fill_unix(addr.path, &sa, error)) return -1;
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) {
      if (error) *error = errno_text("socket");
      return -1;
    }
    ::unlink(addr.path.c_str());  // stale file from a killed process
    if (::bind(fd, reinterpret_cast<const sockaddr*>(&sa), sizeof(sa)) != 0) {
      if (error) *error = "bind " + addr.path + ": " + std::strerror(errno);
      ::close(fd);
      return -1;
    }
    if (::listen(fd, backlog) != 0) {
      if (error) *error = errno_text("listen");
      ::close(fd);
      return -1;
    }
    return fd;
  }

  sockaddr_in sa;
  if (!fill_tcp(addr, &sa, error)) return -1;
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    if (error) *error = errno_text("socket");
    return -1;
  }
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&sa), sizeof(sa)) != 0) {
    if (error) *error = "bind " + addr.to_string() + ": " + std::strerror(errno);
    ::close(fd);
    return -1;
  }
  if (::listen(fd, backlog) != 0) {
    if (error) *error = errno_text("listen");
    ::close(fd);
    return -1;
  }
  return fd;
}

int connect_to(const SocketAddress& addr, std::string* error) {
  if (addr.kind == SocketAddress::Kind::kUnix) {
    sockaddr_un sa;
    if (!fill_unix(addr.path, &sa, error)) return -1;
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) {
      if (error) *error = errno_text("socket");
      return -1;
    }
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&sa), sizeof(sa)) != 0) {
      if (error) *error = "connect " + addr.path + ": " + std::strerror(errno);
      ::close(fd);
      return -1;
    }
    return fd;
  }

  sockaddr_in sa;
  if (!fill_tcp(addr, &sa, error)) return -1;
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    if (error) *error = errno_text("socket");
    return -1;
  }
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&sa), sizeof(sa)) != 0) {
    if (error) *error = "connect " + addr.to_string() + ": " + std::strerror(errno);
    ::close(fd);
    return -1;
  }
  return fd;
}

int bound_port(int fd) {
  sockaddr_in sa{};
  socklen_t len = sizeof(sa);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&sa), &len) != 0) return -1;
  if (sa.sin_family != AF_INET) return -1;
  return static_cast<int>(ntohs(sa.sin_port));
}

bool send_all(int fd, std::string_view data, bool is_socket) {
  const char* p = data.data();
  std::size_t left = data.size();
  while (left > 0) {
    const ssize_t n = is_socket ? ::send(fd, p, left, MSG_NOSIGNAL) : ::write(fd, p, left);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    p += n;
    left -= static_cast<std::size_t>(n);
  }
  return true;
}

bool send_line(int fd, std::string_view head, std::string_view body, std::string_view tail,
               bool is_socket) {
  char newline = '\n';
  iovec iov[4];
  int count = 0;
  const std::string_view pieces[] = {head, body, tail};
  for (const std::string_view piece : pieces)
    if (!piece.empty()) iov[count++] = {const_cast<char*>(piece.data()), piece.size()};
  iov[count++] = {&newline, 1};
  iovec* next = iov;
  while (count > 0) {
    msghdr msg{};
    msg.msg_iov = next;
    msg.msg_iovlen = static_cast<std::size_t>(count);
    const ssize_t n = is_socket ? ::sendmsg(fd, &msg, MSG_NOSIGNAL) : ::writev(fd, next, count);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    // Drop the parts written in full, then trim a partly written one.
    auto written = static_cast<std::size_t>(n);
    while (count > 0 && written >= next->iov_len) {
      written -= next->iov_len;
      ++next;
      --count;
    }
    if (count > 0) {
      next->iov_base = static_cast<char*>(next->iov_base) + written;
      next->iov_len -= written;
    }
  }
  return true;
}

}  // namespace opm::util
