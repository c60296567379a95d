#include "serve/options.hpp"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <csignal>
#include <iterator>

#include "core/sweep_config.hpp"
#include "util/cli.hpp"
#include "util/logging.hpp"

namespace opm::serve {

namespace {

std::vector<std::string> split_commas(const std::string& text) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (start <= text.size()) {
    const std::size_t comma = text.find(',', start);
    const std::size_t end = comma == std::string::npos ? text.size() : comma;
    if (end > start) out.push_back(text.substr(start, end - start));
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return out;
}

std::atomic<int> g_drain_fd{-1};

extern "C" void on_terminate(int) {
  const int fd = g_drain_fd.load(std::memory_order_relaxed);
  if (fd >= 0) {
    const char byte = 'd';
    // Async-signal-safe; the accept loop wakes on the pipe.
    [[maybe_unused]] const ssize_t rc = ::write(fd, &byte, 1);
  }
}

/// Non-empty when the command line still carries the retired
/// --socket=PATH: the message names its replacement, `flag`=unix:PATH
/// ("--listen" for listeners, "--connect" for clients). util::Cli ignores
/// unknown flags, so without this a script that kept --socket would bind
/// or dial the default socket without a word; callers print the message
/// and exit 2.
std::string retired_flag_error(const util::Cli& cli, const std::string& flag) {
  if (!cli.has("socket")) return {};
  const std::string path = cli.get("socket", "");
  return "--socket is retired; use " + flag + "=unix:" + (path.empty() ? "PATH" : path);
}

}  // namespace

Options resolve_options(const util::Cli& cli) {
  Options opt;
  opt.listen = cli.get("listen", opt.listen);
  opt.connect = cli.get("connect", opt.connect);
  opt.shards = split_commas(cli.get("shards", ""));
  opt.ring_shards = static_cast<int>(cli.get_int("ring-shards", opt.ring_shards));
  opt.shard_id = static_cast<int>(cli.get_int("shard-id", opt.shard_id));
  opt.shard_count = static_cast<int>(cli.get_int("shard-count", opt.shard_count));
  opt.token = cli.get("token", opt.token);
  opt.per_client_quota =
      static_cast<std::size_t>(cli.get_int("quota", static_cast<std::int64_t>(opt.per_client_quota)));
  opt.queue_depth =
      static_cast<std::size_t>(cli.get_int("queue-depth", static_cast<std::int64_t>(opt.queue_depth)));
  opt.serve_workers = static_cast<std::size_t>(
      cli.get_int("serve-workers", static_cast<std::int64_t>(opt.serve_workers)));
  opt.retry_after_ms = static_cast<int>(cli.get_int("retry-after-ms", opt.retry_after_ms));
  opt.max_line_bytes = static_cast<std::size_t>(
      cli.get_int("max-line-bytes", static_cast<std::int64_t>(opt.max_line_bytes)));
  opt.max_redirects = static_cast<int>(cli.get_int("max-redirects", opt.max_redirects));
  opt.stdio = cli.has("stdio");
  return opt;
}

ServerConfig to_server_config(const Options& opt) {
  ServerConfig config;
  config.listen_address = opt.listen;
  config.auth_token = opt.token;
  config.max_line_bytes = opt.max_line_bytes;
  config.dispatch.queue_depth = opt.queue_depth;
  config.dispatch.workers = opt.serve_workers;
  config.dispatch.retry_after_ms = opt.retry_after_ms;
  config.dispatch.per_client_quota = opt.per_client_quota;
  config.dispatch.shard_id = opt.shard_id;
  config.dispatch.shard_count = opt.shard_count;
  return config;
}

RouterConfig to_router_config(const Options& opt) {
  RouterConfig config;
  config.listen_address = opt.listen;
  config.backends = opt.shards;
  config.ring_shards = opt.ring_shards;
  config.auth_token = opt.token;
  config.max_line_bytes = opt.max_line_bytes;
  config.max_redirects = opt.max_redirects;
  return config;
}

std::vector<std::string_view> serve_flags() {
  std::vector<std::string_view> flags = {"listen",        "token",          "quota",
                                         "shard-id",      "shard-count",    "queue-depth",
                                         "serve-workers", "retry-after-ms", "max-line-bytes",
                                         "stdio"};
  flags.insert(flags.end(), std::begin(core::kSweepConfigFlags), std::end(core::kSweepConfigFlags));
  return flags;
}

std::vector<std::string_view> router_flags() {
  return {"listen", "shards", "ring-shards", "token", "max-redirects", "max-line-bytes"};
}

int check_flags(const std::string& name, const util::Cli& cli,
                const std::vector<std::string_view>& flags, const std::string& socket_flag) {
  if (const std::string retired = retired_flag_error(cli, socket_flag); !retired.empty()) {
    util::log_error(name + ": " + retired);
    return 2;
  }
  if (!cli.positional().empty()) {
    util::log_error(name + ": unexpected argument " + cli.positional().front());
    return 2;
  }
  for (const std::string& flag : cli.names()) {
    if (std::find(flags.begin(), flags.end(), flag) == flags.end()) {
      util::log_error(name + ": unknown flag --" + flag);
      return 2;
    }
  }
  return 0;
}

int run_until_drained(const std::string& name, Frontend& front, const std::string& detail) {
  std::string error;
  if (!front.start(&error)) {
    util::log_error(name + ": " + error);
    return 1;
  }
  g_drain_fd.store(front.drain_fd(), std::memory_order_relaxed);
  struct sigaction sa = {};
  sa.sa_handler = on_terminate;
  ::sigaction(SIGTERM, &sa, nullptr);
  ::sigaction(SIGINT, &sa, nullptr);

  util::log_info(name + " listening on " + front.where() + detail);
  front.wait();
  util::log_info(name + " drained cleanly");
  return 0;
}

}  // namespace opm::serve
