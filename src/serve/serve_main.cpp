#include <unistd.h>

#include <atomic>
#include <csignal>
#include <cstdlib>
#include <string>

#include "core/sweep_config.hpp"
#include "serve/options.hpp"
#include "serve/server.hpp"
#include "util/cli.hpp"
#include "util/logging.hpp"

/// opm_serve — the long-running sweep service (one shard of the tier, or
/// a standalone server).
///
///   opm_serve [--listen=ADDR] [--token=SECRET] [--quota=N]
///             [--shard-id=N] [--shard-count=N] [--queue-depth=N]
///             [--serve-workers=N] [--max-line-bytes=N]
///             [--retry-after-ms=N] [--stdio]
///             [--sweep-workers=N] [--cache-dir=PATH]
///             [--cache-max-bytes=N] [--no-cache] [--no-sweep-stats]
///
/// Listens on a Unix domain socket (default ./opm-serve.sock) or a TCP
/// address (--listen=HOST:PORT; port 0 binds an ephemeral port, printed
/// in the startup line) for newline-delimited JSON sweep requests (v1 or
/// v2 envelopes, see serve/protocol.hpp) and answers each with a payload
/// byte-identical to the offline bench output for the same request. TCP
/// listeners with --token require a hello handshake per connection.
/// With --shard-count, requests this shard does not own are redirected.
/// SIGTERM/SIGINT triggers a graceful drain: stop accepting, finish
/// in-flight work, exit 0. With --stdio it instead serves stdin→stdout
/// once and exits when stdin closes.
///
/// The sweep knobs are the same defaults → environment → CLI resolution
/// the bench harnesses use (core::resolve_sweep_config), so a server and
/// an offline run configured alike share one on-disk result cache.

namespace {

std::atomic<int> g_drain_fd{-1};

extern "C" void on_terminate(int) {
  const int fd = g_drain_fd.load(std::memory_order_relaxed);
  if (fd >= 0) {
    const char byte = 'd';
    // Async-signal-safe; the accept loop wakes on the pipe.
    [[maybe_unused]] const ssize_t rc = ::write(fd, &byte, 1);
  }
}

}  // namespace

int main(int argc, char** argv) {
  using namespace opm;
  const util::Cli cli(argc, argv);
  if (const std::string retired = serve::retired_flag_error(cli, "--listen"); !retired.empty()) {
    util::log_error("opm_serve: " + retired);
    return 2;
  }
  core::apply_sweep_config(core::resolve_sweep_config(argc, argv));

  const serve::Options opt = serve::resolve_options(cli);
  serve::Server server(serve::to_server_config(opt));

  if (opt.stdio) {
    server.serve_stream(0, 1);
    return 0;
  }

  std::string error;
  if (!server.start(&error)) {
    util::log_error("opm_serve: " + error);
    return 1;
  }
  g_drain_fd.store(server.drain_fd(), std::memory_order_relaxed);

  struct sigaction sa = {};
  sa.sa_handler = on_terminate;
  ::sigaction(SIGTERM, &sa, nullptr);
  ::sigaction(SIGINT, &sa, nullptr);

  std::string where = opt.listen;
  if (server.bound_port() >= 0) {
    // Re-render with the actual port so HOST:0 callers can discover it.
    const std::size_t colon = where.rfind(':');
    where = where.substr(0, colon + 1) + std::to_string(server.bound_port());
  }
  util::log_info("opm_serve listening on " + where);
  server.wait();
  util::log_info("opm_serve drained cleanly");
  return 0;
}
