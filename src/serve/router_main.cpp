#include <string>

#include "serve/options.hpp"
#include "serve/router.hpp"
#include "util/cli.hpp"

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
/// back, exit 0. Any other flag, or any positional argument, exits 2
/// before anything connects.
int main(int argc, char** argv) {
  using namespace opm;
  const util::Cli cli(argc, argv);
  if (const int rc = serve::check_flags("opm_router", cli, serve::router_flags())) return rc;
  serve::Options opt = serve::resolve_options(cli);
  if (!cli.has("listen")) opt.listen = "unix:opm-router.sock";

  serve::Router router(serve::to_router_config(opt));
  return serve::run_until_drained("opm_router", router,
                                  " (" + std::to_string(opt.shards.size()) + " shards)");
}
