#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

/// The three workloads. Each run measures for `seconds`, checks every
/// output, and returns its end-to-end metrics; with `trace` it then runs
/// the same seeded inputs again under spans and returns per-layer metrics.
namespace opmbench {

struct RunOptions {
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string bin_dir;     ///< where opm_serve, opm_router and opmbench live
  std::string golden;      ///< paper_regen golden digests
  std::string spans_path;  ///< traced runs write their spans here (JSON lines)
};

struct RunResult {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, double> end_to_end;
  std::map<std::string, double> per_layer;
  std::vector<std::string> notes;  ///< human-readable report lines
};

RunResult run_serve_large_cold(const RunOptions& opt);
RunResult run_serve_small_hot(const RunOptions& opt);
RunResult run_paper_regen(const RunOptions& opt);

/// Child-process entry of paper_regen: one regeneration pass in a fresh
/// process, reported as one JSON line on stdout (traced passes also write
/// their spans to `spans_path`). With `all_variants` it regenerates every
/// advisor footprint variant and prints the golden digests instead.
int regen_pass_main(std::uint64_t seed, bool trace, bool all_variants,
                    const std::string& spans_path);

/// latency_p50_ms and latency_p99_ms from per-request (or per-pass)
/// latencies grouped in windows: each is quiet_quartile over windows of
/// that window's percentile. Adds a report line with the sample counts
/// and the tail rule over all samples.
void add_latency(std::vector<std::vector<double>> windows, RunResult* res);

}  // namespace opmbench
