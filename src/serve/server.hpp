#pragma once

#include <cstddef>
#include <string>

#include "serve/dispatcher.hpp"
#include "serve/listener.hpp"

/// The sweep service's front end: a serve::Listener (serve/listener.hpp:
/// framing, the auth gate, the drain) in front of one Dispatcher. The
/// server adds batches (a JSON-array line, each element answered on its
/// own line) and serve_stream, the same line path over any pair of fds
/// (`opm_serve --stdio`, the pipe tests). Its drain finishes admitted
/// work with Dispatcher::drain(), then flushes the result cache's
/// write-behind disk tier, so every record it stored is on disk before
/// the drain returns.
namespace opm::serve {

struct ServerConfig {
  /// Listener in util::parse_address grammar ("unix:PATH" or
  /// "HOST:PORT").
  std::string listen_address = "unix:opm-serve.sock";
  std::string auth_token;  ///< TCP hello secret; empty = open listener
  std::size_t max_line_bytes = 256 * 1024;
  DispatchConfig dispatch;
};

class Server : public Frontend {
 public:
  explicit Server(const ServerConfig& config);
  ~Server() override;

  bool start(std::string* error = nullptr) override;
  void wait() override;

  /// Serves one already-open stream: reads request lines from in_fd until
  /// EOF, writes response lines to out_fd, then drains the dispatcher and
  /// flushes the cache, so every admitted request is answered and every
  /// record it stored is on disk before returning. Does not close
  /// either fd. Used by --stdio and by tests over pipes. Local trust: no
  /// auth gate.
  void serve_stream(int in_fd, int out_fd);

 protected:
  Listener& listener() const override;

 private:
  struct Impl;
  Impl* impl_;
};

}  // namespace opm::serve
