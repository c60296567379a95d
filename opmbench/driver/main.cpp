// opmbench — the end-to-end benchmark driver (see ../README.md).
//
//   opmbench --workload=W --seed=N --seconds=S --trace=0|1 --bin-dir=DIR
//            --golden=FILE [--spans=FILE] [--git-rev=REV]
//   opmbench regen-pass --seed=N [--trace] [--spans=FILE]   (paper_regen child)
//   opmbench golden                                         (prints golden digests)
//
// Prints a human-readable report, then as its last line one JSON object:
// {"correct":..,"attempted":..,"failed":..,"metrics":{..}} — every
// end-to-end metric with --trace=0, every per-layer metric with --trace=1.
// Exits non-zero when any output was wrong or any request failed.
#include <iostream>
#include <string>
#include <vector>

#include "bench.hpp"
#include "core/result_cache.hpp"
#include "core/sweep.hpp"
#include "runs.hpp"
#include "sim/window_sampler.hpp"
#include "util/cli.hpp"
#include "util/format.hpp"

namespace {

using opmbench::Metric;

struct MetricSpec {
  const char* name;
  const char* unit;
};

// Keep in step with BENCHMARK.json.
constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},          {"throughput_rps", "1/s"}, {"latency_p50_ms", "ms"},
    {"latency_p99_ms", "ms"},  {"regen_s", "s"},          {"peak_rss_mb", "MiB"},
};

constexpr MetricSpec kPerLayer[] = {
    {"serve.render_request_us", "us"},
    {"serve.parse_request_us", "us"},
    {"serve.render_points_csv_us", "us"},
    {"serve.render_points_csv_ns_per_point", "ns/point"},
    {"serve.render_response_us", "us"},
    {"serve.router_rerender_us", "us"},
    {"serve.client_parse_us", "us"},
    {"serve.response_bytes", "bytes"},
    {"serve.ping_rtt_us", "us"},
    {"serve.shard_ping_rtt_us", "us"},
    {"serve.unattributed_us", "us"},
    {"serve.text_share", "ratio"},
    {"serve.dedup_ratio", "ratio"},
    {"serve.computed", "count"},
    {"core.sweep_us", "us"},
    {"core.sweep_ns_per_point", "ns/point"},
    {"core.cache_hit_us", "us"},
    {"core.cache_store_us", "us"},
    {"core.cache_hit_ratio", "ratio"},
    {"core.cache_bytes_stored", "bytes"},
    {"core.table4_ms", "ms"},
    {"core.table5_ms", "ms"},
    {"core.power_rows_ms", "ms"},
    {"core.figure_sweeps_ms", "ms"},
    {"core.pool_utilization", "ratio"},
    {"core.steals", "count"},
    {"kernels.predict_ns", "ns"},
    {"sparse.suite_build_ms", "ms"},
    {"advise.run_ms", "ms"},
    {"advise.place_recommend_ms", "ms"},
    {"advise.verify_ms", "ms"},
    {"advise.bdw_confirmed_or_marginal", "count"},
    {"advise.knl_confirmed_or_marginal", "count"},
    {"sim.lines_simulated", "count"},
    {"sim.lines_per_s", "1/s"},
    {"trace.reuse_ms", "ms"},
    {"trace.accesses", "count"},
    {"regen.sim_trace_advise_share", "ratio"},
    {"regen.traced_gap_ms", "ms"},
    {"gen.lateness_p99_ms", "ms"},
};

int usage() {
  std::cerr << "usage: opmbench --workload=serve_large_cold|serve_small_hot|paper_regen "
               "--seed=N --seconds=S --trace=0|1 --bin-dir=DIR --golden=FILE [--spans=FILE] "
               "[--git-rev=REV]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  const opm::util::Cli cli(argc, argv);
  const std::vector<std::string>& pos = cli.positional();
  if (!pos.empty() && pos[0] == "regen-pass")
    return opmbench::regen_pass_main(static_cast<std::uint64_t>(cli.get_int("seed", 1)),
                                     cli.has("trace"), false, cli.get("spans", ""));
  if (!pos.empty() && pos[0] == "golden") return opmbench::regen_pass_main(0, false, true, "");

  const std::string workload = cli.get("workload", "");
  opmbench::RunOptions opt;
  opt.seed = static_cast<std::uint64_t>(cli.get_int("seed", 1));
  opt.seconds = cli.get_double("seconds", 10.0);
  opt.trace = cli.get("trace", "0") == "1";
  opt.bin_dir = cli.get("bin-dir", "");
  opt.golden = cli.get("golden", "");
  opt.spans_path = cli.get("spans", "");
  if (opt.bin_dir.empty() || opt.seconds <= 0) return usage();

  // The driver's own library calls (references, traced composition) run
  // like a shard: serial sweeps, no result cache, exact simulation.
  opm::core::CacheConfig cc;
  cc.enabled = false;
  opm::core::configure_result_cache(cc);
  opm::core::set_sweep_workers(0);
  opm::sim::set_sampling_mode(opm::sim::SamplingMode::kOff);

  std::cout << opmbench::environment_line(cli.get("git-rev", "")) << "\n";
  std::cout << "workload " << workload << ", seed " << opt.seed << ", "
            << opm::util::format_fixed(opt.seconds, 1) << " s, trace " << (opt.trace ? 1 : 0)
            << "\n";
  opmbench::RunResult r;
  if (workload == "serve_large_cold") {
    r = opmbench::run_serve_large_cold(opt);
  } else if (workload == "serve_small_hot") {
    r = opmbench::run_serve_small_hot(opt);
  } else if (workload == "paper_regen") {
    r = opmbench::run_paper_regen(opt);
  } else {
    return usage();
  }
  for (const std::string& note : r.notes) std::cout << note << "\n";

  std::vector<Metric> e2e, layers;
  for (const MetricSpec& m : kEndToEnd) {
    const auto it = r.end_to_end.find(m.name);
    if (it == r.end_to_end.end()) {
      std::cout << "missing end-to-end metric " << m.name << "\n";
      r.correct = false;
    }
    e2e.push_back({m.name, it == r.end_to_end.end() ? 0.0 : it->second, m.unit});
  }
  // A layer a workload's path never crosses reads 0 (see README.md).
  for (const MetricSpec& m : kPerLayer) {
    const auto it = r.per_layer.find(m.name);
    layers.push_back({m.name, it == r.per_layer.end() ? 0.0 : it->second, m.unit});
  }
  const bool correct = r.correct && r.failed == 0 && r.attempted > 0;
  std::cout << "end-to-end:\n";
  for (const Metric& m : e2e) std::cout << opmbench::metric_line(m) << "\n";
  std::cout << opmbench::metric_line(
                   {"error_rate",
                    r.attempted ? static_cast<double>(r.failed) / static_cast<double>(r.attempted)
                                : 1.0,
                    "ratio"})
            << "  (" << r.failed << " failed of " << r.attempted << " attempted)\n";
  if (opt.trace) {
    std::cout << "per-layer (traced run):\n";
    for (const Metric& m : layers) std::cout << opmbench::metric_line(m) << "\n";
  }
  std::cout << opmbench::result_json(correct, r.attempted, r.failed, opt.trace ? layers : e2e)
            << std::endl;
  return correct ? 0 : 1;
}
