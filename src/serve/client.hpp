#pragma once

#include <string>
#include <string_view>

#include "serve/conn.hpp"

namespace opm::serve {

/// The one blocking client of the serve tier's line protocol: what
/// serve_loadgen, opm_advise, the router's backend hello and the serve
/// tests dial with.
class LineClient {
 public:
  /// `timeout_ms` >= 0 bounds each recv_line that names no bound of its
  /// own (tests pass one, so a server bug fails a test instead of hanging
  /// the suite). The default blocks in read(), with no poll.
  explicit LineClient(int timeout_ms = -1) : timeout_ms_(timeout_ms) {}
  ~LineClient() { close(); }
  LineClient(const LineClient&) = delete;
  LineClient& operator=(const LineClient&) = delete;

  /// Connects to `address` (unix:PATH or HOST:PORT); false + *error.
  bool connect(const std::string& address, std::string* error = nullptr);
  /// The hello handshake: sends {"v":2,"req_id":"hello","type":"hello",
  /// "token":TOKEN} and reads the answer into *reply (empty when none
  /// came). True when the answer is ok.
  bool hello(const std::string& token, std::string* reply = nullptr);
  /// Sends `line` and its newline.
  bool send_line(std::string_view line);
  /// The next line, without its newline. False on EOF, error or timeout.
  bool recv_line(std::string* line) { return recv_line(line, timeout_ms_); }
  bool recv_line(std::string* line, int timeout_ms);
  /// Drops lines until the peer hangs up: true when it did, false on a
  /// timeout or an error.
  bool wait_eof();
  /// Hands the fd over and forgets it (the router keeps a backend's
  /// connection once its hello is answered); unread bytes are dropped.
  int release();
  void close();

 private:
  int fd_ = -1;
  int timeout_ms_;
  bool eof_ = false;
  LineBuffer buf_;  ///< bytes read past the last returned line
};

}  // namespace opm::serve
