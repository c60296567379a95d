// opm_advise — ask the roofline-guided tuning advisor one question from
// the command line.
//
//   opm_advise --kernel spmv --platform knl-flat --objective perf
//   opm_advise --kernel gemm --platform broadwell-edram-off --json
//   opm_advise --kernel fft --platform knl-ddr --footprint-mb 512
//   opm_advise --kernel spmv --platform knl-ddr --connect 127.0.0.1:7070
//       --token s3cret
//
// Offline (the default) the tool runs the place → recommend → verify
// pipeline in-process and prints a human-readable report; --json prints
// the deterministic single-line JSON payload instead. With --connect the
// same question is sent as a {"v":2,"type":"advise"} request to a live
// opm_serve/opm_router and the served payload is printed — byte-identical
// to the offline --json output for the same question, which is the
// contract scripts/ci.sh pins.
//
// Sweep knobs (--sweep-workers, --cache-dir, --no-cache, ...) are the
// shared core::resolve_sweep_config surface, so the verification sweeps
// here hit the same result cache as the bench harnesses.

#include <cstdio>
#include <string>

#include "advise/advise.hpp"
#include "core/sweep_config.hpp"
#include "serve/client.hpp"
#include "serve/protocol.hpp"
#include "util/cli.hpp"

namespace {

using namespace opm;
namespace protocol = opm::serve::protocol;

int usage(std::FILE* to) {
  std::fputs(
      "usage: opm_advise --kernel K --platform P [options]\n"
      "\n"
      "  --kernel K        gemm|cholesky|spmv|sptrans|sptrsv|fft|stencil|stream\n"
      "  --platform P      baseline selector: broadwell-edram-{off,on},\n"
      "                    knl-{ddr,cache,flat,hybrid}\n"
      "  --objective O     perf (default) or energy\n"
      "  --footprint-mb N  production problem size in MiB (default: a\n"
      "                    canonical mid-range size for the kernel)\n"
      "  --no-verify       skip stage 3 (the measured confirmation sweep)\n"
      "  --json            print the deterministic JSON payload, not the\n"
      "                    human report\n"
      "  --connect ADDR    ask a live opm_serve/opm_router at ADDR\n"
      "                    (HOST:PORT or unix:PATH) instead of computing\n"
      "                    in-process; always prints the JSON payload\n"
      "  --token S         hello token for a gated --connect listener\n"
      "\n"
      "Sweep knobs (--sweep-workers N, --cache-dir PATH, --no-cache,\n"
      "--cache-max-bytes N, --no-sweep-stats) are shared with the bench\n"
      "harnesses.\n",
      to);
  return to == stdout ? 0 : 2;
}

int run_connected(const std::string& address, const std::string& token,
                  const protocol::Request& req) {
  serve::LineClient client;
  std::string error;
  if (!client.connect(address, &error)) {
    std::fprintf(stderr, "opm_advise: cannot connect to %s: %s\n", address.c_str(),
                 error.c_str());
    return 1;
  }
  std::string line;
  if (!token.empty() && !client.hello(token, &line)) {
    if (line.empty())
      std::fprintf(stderr, "opm_advise: hello handshake failed\n");
    else
      std::fprintf(stderr, "opm_advise: hello rejected: %s\n", line.c_str());
    return 1;
  }
  if (!client.send_line(protocol::render_request(req)) || !client.recv_line(&line)) {
    std::fprintf(stderr, "opm_advise: server closed the connection\n");
    return 1;
  }
  protocol::ResponseView view;
  if (!protocol::parse_response(line, &view)) {
    std::fprintf(stderr, "opm_advise: unparsable response: %s\n", line.c_str());
    return 1;
  }
  if (!view.ok) {
    std::fprintf(stderr, "opm_advise: server error (%s): %s\n", view.error.category.c_str(),
                 view.error.message.c_str());
    return 1;
  }
  std::fputs(view.payload.c_str(), stdout);
  std::fputc('\n', stdout);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const util::Cli cli(argc, argv);
  if (cli.has("help")) return usage(stdout);

  const std::string kernel_name = cli.get("kernel", "");
  const std::string platform = cli.get("platform", "");
  if (kernel_name.empty() || platform.empty()) {
    std::fprintf(stderr, "opm_advise: --kernel and --platform are required\n\n");
    return usage(stderr);
  }

  advise::AdviseRequest req;
  if (!advise::parse_kernel_token(kernel_name, &req.kernel)) {
    std::fprintf(stderr, "opm_advise: unknown kernel \"%s\"\n", kernel_name.c_str());
    return 2;
  }
  sim::Platform resolved;
  if (!advise::resolve_platform(platform, &resolved)) {
    std::fprintf(stderr,
                 "opm_advise: unknown platform \"%s\" (expected "
                 "broadwell-edram-{off,on} or knl-{ddr,cache,flat,hybrid})\n",
                 platform.c_str());
    return 2;
  }
  req.platform = platform;
  const std::string objective = cli.get("objective", "perf");
  if (!advise::parse_objective(objective, &req.objective)) {
    std::fprintf(stderr, "opm_advise: --objective must be perf or energy, not \"%s\"\n",
                 objective.c_str());
    return 2;
  }
  const double footprint_mb = cli.get_double("footprint-mb", 0.0);
  if (footprint_mb < 0.0) {
    std::fprintf(stderr, "opm_advise: --footprint-mb must be >= 0\n");
    return 2;
  }
  req.footprint_bytes = footprint_mb * 1024.0 * 1024.0;
  req.verify = !cli.has("no-verify");

  if (cli.has("connect")) {
    protocol::Request wire;
    wire.type = protocol::RequestType::kAdvise;
    wire.version = 2;
    wire.id = "opm-advise-cli";
    wire.platform_name = platform;
    wire.platform = resolved;
    wire.advise = req;
    return run_connected(cli.get("connect", ""), cli.get("token", ""), wire);
  }

  core::apply_sweep_config(core::resolve_sweep_config(argc, argv));
  try {
    if (cli.has("json")) {
      std::fputs(advise::run_and_render(req).c_str(), stdout);
      std::fputc('\n', stdout);
    } else {
      std::fputs(advise::render_text(advise::run_advise(req)).c_str(), stdout);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "opm_advise: %s\n", e.what());
    return 1;
  }
  return 0;
}
