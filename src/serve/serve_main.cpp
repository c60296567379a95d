#include "core/sweep_config.hpp"
#include "serve/options.hpp"
#include "serve/server.hpp"
#include "util/cli.hpp"

/// opm_serve — the long-running sweep service (one shard of the tier, or
/// a standalone server).
///
///   opm_serve [--listen=ADDR] [--token=SECRET] [--quota=N]
///             [--shard-id=N] [--shard-count=N] [--queue-depth=N]
///             [--serve-workers=N] [--max-line-bytes=N]
///             [--retry-after-ms=N] [--stdio]
///             [--sweep-workers=N] [--cache-dir=PATH]
///             [--cache-max-bytes=N] [--no-cache] [--no-sweep-stats]
///             [--sample=off|fast]
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
/// once and exits when stdin closes. Any other flag, or any positional
/// argument, exits 2 before anything binds.
///
/// The sweep knobs are the same defaults → environment → CLI resolution
/// the bench harnesses use (core::resolve_sweep_config), so a server and
/// an offline run configured alike share one on-disk result cache.
int main(int argc, char** argv) {
  using namespace opm;
  const util::Cli cli(argc, argv);
  if (const int rc = serve::check_flags("opm_serve", cli, serve::serve_flags())) return rc;
  core::apply_sweep_config(core::resolve_sweep_config(argc, argv));

  const serve::Options opt = serve::resolve_options(cli);
  serve::Server server(serve::to_server_config(opt));
  if (opt.stdio) {
    server.serve_stream(0, 1);
    return 0;
  }
  return serve::run_until_drained("opm_serve", server);
}
