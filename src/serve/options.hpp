#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "serve/router.hpp"
#include "serve/server.hpp"

namespace opm::util {
class Cli;
}

/// One options surface for the whole serve tier, and the one main body
/// both serve binaries run. `opm_serve`, `opm_router`, and
/// `bench/serve_loadgen` all resolve their flags through serve::Options,
/// so a flag means the same thing everywhere it appears:
///
///   --listen=ADDR          listener (unix:PATH | HOST:PORT; port 0 = ephemeral)
///   --connect=ADDR         peer to talk to (loadgen; router backends use --shards)
///   --shards=A,B,...       backend shard addresses, comma-separated; index = shard id
///   --ring-shards=N        ring view size (default: number of backends / shard-count)
///   --shard-id=N           this server's shard identity
///   --shard-count=N        total shards (enables ownership redirects)
///   --token=SECRET         shared-secret hello auth on TCP listeners,
///                          and the credential clients/router present
///   --quota=N              per-client queued-request quota (0 = none)
///   --queue-depth=N        global admission bound
///   --serve-workers=N      dispatcher executor threads
///   --retry-after-ms=N     backoff hint in rejections
///   --max-line-bytes=N     request line limit
///   --max-redirects=N      router: redirect hops to follow
///   --stdio                opm_serve: serve stdin→stdout once
namespace opm::serve {

struct Options {
  std::string listen = "unix:opm-serve.sock";
  std::string connect;
  std::vector<std::string> shards;
  int ring_shards = 0;
  int shard_id = 0;
  int shard_count = 0;
  std::string token;
  std::size_t per_client_quota = 0;
  std::size_t queue_depth = 64;
  std::size_t serve_workers = 2;
  int retry_after_ms = 50;
  std::size_t max_line_bytes = 256 * 1024;
  int max_redirects = 1;
  bool stdio = false;
};

/// Resolves the shared flag surface (defaults above, overridden by CLI).
Options resolve_options(const util::Cli& cli);

/// The server/router configs an Options implies.
ServerConfig to_server_config(const Options& opt);
RouterConfig to_router_config(const Options& opt);

/// Each binary's closed flag list: the Options flags it applies, plus
/// core::resolve_sweep_config's for opm_serve.
std::vector<std::string_view> serve_flags();
std::vector<std::string_view> router_flags();

/// The command-line gate every serve-tier binary (opm_serve, opm_router,
/// serve_loadgen, opm_advise) runs first: 0 when `cli` holds only
/// `flags`; otherwise logs the offender under `name` and returns exit
/// code 2 (the retired --socket names `socket_flag`=unix:PATH: --listen
/// for listeners, --connect for clients). A misspelled flag is refused,
/// never silently replaced by its default.
int check_flags(const std::string& name, const util::Cli& cli,
                const std::vector<std::string_view>& flags,
                const std::string& socket_flag = "--listen");

/// The rest of both mains: start (exit 1 on failure), SIGTERM/SIGINT as
/// a drain request, "NAME listening on WHERE" + `detail`, wait, exit 0.
int run_until_drained(const std::string& name, Frontend& front, const std::string& detail = "");

}  // namespace opm::serve
