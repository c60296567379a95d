#include <unistd.h>

#include <atomic>
#include <csignal>
#include <string>

#include "serve/options.hpp"
#include "serve/router.hpp"
#include "util/cli.hpp"
#include "util/logging.hpp"

/// opm_router — the sharding front end of the serve tier.
///
///   opm_router --shards=ADDR1,ADDR2,... [--listen=ADDR]
///              [--ring-shards=N] [--token=SECRET]
///              [--max-redirects=N] [--max-line-bytes=N]
///
/// Accepts client connections on --listen (default
/// unix:opm-router.sock), consistent-hashes each sweep request's
/// 128-bit key onto one backend shard from --shards (index = shard id),
/// and relays the response under the client's own envelope — a v1
/// client through the router sees byte-identical lines to a v1 client
/// on a standalone server. --token both gates the router's own TCP
/// listener and is presented to TCP backends as the hello credential.
/// SIGTERM/SIGINT drains: stop accepting, let forwarded requests come
/// back, exit 0.

namespace {

std::atomic<int> g_drain_fd{-1};

extern "C" void on_terminate(int) {
  const int fd = g_drain_fd.load(std::memory_order_relaxed);
  if (fd >= 0) {
    const char byte = 'd';
    [[maybe_unused]] const ssize_t rc = ::write(fd, &byte, 1);
  }
}

}  // namespace

int main(int argc, char** argv) {
  using namespace opm;
  const util::Cli cli(argc, argv);
  if (const std::string retired = serve::retired_flag_error(cli, "--listen"); !retired.empty()) {
    util::log_error("opm_router: " + retired);
    return 2;
  }
  serve::Options opt = serve::resolve_options(cli);
  if (!cli.has("listen")) opt.listen = "unix:opm-router.sock";

  serve::Router router(serve::to_router_config(opt));
  std::string error;
  if (!router.start(&error)) {
    util::log_error("opm_router: " + error);
    return 1;
  }
  g_drain_fd.store(router.drain_fd(), std::memory_order_relaxed);

  struct sigaction sa = {};
  sa.sa_handler = on_terminate;
  ::sigaction(SIGTERM, &sa, nullptr);
  ::sigaction(SIGINT, &sa, nullptr);

  std::string where = opt.listen;
  if (router.bound_port() >= 0) {
    const std::size_t colon = where.rfind(':');
    where = where.substr(0, colon + 1) + std::to_string(router.bound_port());
  }
  util::log_info("opm_router listening on " + where + " (" +
                 std::to_string(opt.shards.size()) +
                 " shards)");
  router.wait();
  util::log_info("opm_router drained cleanly");
  return 0;
}
