// Demonstrates the content-addressed result cache on the full Table 4/5
// pipeline: one cold pass (compute + store), repeated disk-warm passes
// (memory tier dropped before each, records re-read and re-validated from
// disk), and repeated memory-warm passes. The harness FAILS (nonzero
// exit) if any warm output is not bit-identical to cold output, or if the
// MEDIAN disk-warm pass is less than 10x faster than the cold pass — the
// cache's two contracts.
//
// Warm phases are sampled through bench::Sampler per the statistical perf
// contract (docs/MODEL.md §12); the cold pass is inherently a single
// sample (recomputing it would require wiping and re-storing the cache).
// The harness emits BENCH_cache.json in the shared opm-bench schema for
// the CI trajectory gate (tools/opm_benchdiff).
//
//   --quick      fewer warm repeats (CI perf job)
//   --out=PATH   JSON output path (default BENCH_cache.json)
#include <chrono>
#include <filesystem>
#include <iostream>
#include <utility>

#include "common.hpp"
#include "core/result_cache.hpp"
#include "util/cli.hpp"
#include "util/format.hpp"

namespace {

struct PipelineResult {
  std::vector<opm::core::KernelSummary> table4;
  std::vector<opm::core::ModeSummary> table5;

  bool operator==(const PipelineResult&) const = default;
};

/// One full Table 4 + Table 5 pass.
PipelineResult run_pipeline(const opm::sparse::SyntheticCollection& suite) {
  PipelineResult r;
  r.table4 = opm::core::table4_edram(suite);
  r.table5 = opm::core::table5_mcdram(suite);
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace opm;
  namespace fs = std::filesystem;

  core::SweepConfig cfg = bench::init(argc, argv);
  const util::Cli cli(argc, argv);
  const bool quick = cli.has("quick");
  const std::string out_path = cli.get("out", "BENCH_cache.json");
  const int warm_repeats = quick ? 3 : 5;
  bench::banner("Cache effectiveness",
                "cold vs warm Table 4/5 pipeline through core::ResultCache");

  // A private subdirectory of the configured cache dir, wiped up front so
  // the first pass is genuinely cold even across repeated invocations.
  cfg.cache.enabled = true;
  cfg.cache.disk = true;
  cfg.cache.dir = (fs::path(cfg.cache.dir) / "cache_effectiveness").string();
  std::error_code ec;
  fs::remove_all(cfg.cache.dir, ec);
  core::configure_result_cache(cfg.cache);
  core::reset_result_cache_stats();

  const auto& suite = bench::paper_suite();

  // Cold pass: one sample by construction — the act of running it fills
  // the cache, so the sampler wraps a single repeat. It includes the
  // flush, so "cold" stays compute + publish with a write-behind disk tier.
  PipelineResult cold;
  bench::Sampler cold_sampler({.warmup = 0, .iters = 1, .repeats = 1});
  cold_sampler.run([&] {
    cold = run_pipeline(suite);
    core::ResultCache::instance().flush();
  });
  const core::CacheStats after_cold = core::result_cache_stats();
  const double cold_ms = cold_sampler.aggregate_ns().median / 1e6;

  // Disk-warm passes: the setup hook drops the memory tier before every
  // repeat, so each sample re-reads and re-validates the .opmrec records.
  // No warmup — a warmup pass would re-populate the memory tier.
  std::size_t warm_mismatches = 0;
  bench::Sampler disk_sampler({.warmup = 0, .iters = 1, .repeats = warm_repeats});
  disk_sampler.run(
      [&](int) { core::ResultCache::instance().clear_memory(); },
      [&] {
        if (!(run_pipeline(suite) == cold)) ++warm_mismatches;
      });
  const core::CacheStats after_disk = core::result_cache_stats();

  // Memory-warm passes: everything already resident in the sharded LRU.
  bench::Sampler mem_sampler({.warmup = 1, .iters = quick ? 2 : 3, .repeats = warm_repeats});
  mem_sampler.run([&] {
    if (!(run_pipeline(suite) == cold)) ++warm_mismatches;
  });
  const core::CacheStats after_mem = core::result_cache_stats();

  util::BenchMetric m_cold = bench::time_metric_ms("table45/cold_ms", cold_sampler);
  util::BenchMetric m_disk = bench::time_metric_ms("table45/disk_warm_ms", disk_sampler);
  util::BenchMetric m_mem = bench::time_metric_ms("table45/mem_warm_ms", mem_sampler);

  // Per-repeat speedup samples: cold wall over each disk-warm median —
  // a machine-speed-invariant trajectory of the cache's benefit.
  std::vector<std::vector<double>> speedups;
  for (const auto& rep : disk_sampler.samples_ns()) {
    std::vector<double> s;
    for (double ns : rep) s.push_back(ns > 0.0 ? cold_ms / (ns / 1e6) : 0.0);
    speedups.push_back(std::move(s));
  }
  util::BenchMetric m_speedup =
      bench::value_metric("table45/disk_speedup", "x", /*higher_is_better=*/true, speedups);

  const double disk_speedup = m_speedup.summary.median;
  const double mem_speedup =
      m_mem.summary.median > 0.0 ? cold_ms / m_mem.summary.median : 0.0;
  const bool identical = warm_mismatches == 0;

  std::cout << "\n" << util::pad("phase", 14) << util::pad("median wall", 13)
            << util::pad("cv", 8) << util::pad("speedup", 10) << util::pad("hits", 7)
            << util::pad("misses", 8) << "source\n";
  const auto print_phase = [&](const std::string& name, const util::BenchMetric& m,
                               double speedup, std::uint64_t hits, std::uint64_t misses,
                               const std::string& source) {
    std::cout << util::pad(name, 14)
              << util::pad(util::format_fixed(m.summary.median, 1) + " ms", 13)
              << util::pad(util::format_fixed(m.summary.cv * 100.0, 1) + "%", 8)
              << util::pad(util::format_fixed(speedup, 2) + "x", 10)
              << util::pad(std::to_string(hits), 7) << util::pad(std::to_string(misses), 8)
              << source << "\n";
  };
  print_phase("cold", m_cold, 1.0, after_cold.hits(), after_cold.misses,
              "compute + store");
  print_phase("disk-warm", m_disk, disk_speedup, after_disk.hits() - after_cold.hits(),
              after_disk.misses - after_cold.misses,
              ".opmrec records, re-validated x" + std::to_string(warm_repeats));
  print_phase("memory-warm", m_mem, mem_speedup, after_mem.hits() - after_disk.hits(),
              after_mem.misses - after_disk.misses, "sharded LRU");
  std::cout << "\nbytes stored: " << after_cold.bytes_stored
            << ", bytes loaded (all phases): " << after_mem.bytes_loaded
            << ", faults: " << after_mem.faults() << "\n";
  std::cout << "bit-identical cold vs warm: " << (identical ? "yes" : "NO") << "\n";

  util::BenchReport report = bench::make_report("cache", quick);
  report.knobs.emplace_back("warm_repeats", warm_repeats);
  report.knobs.emplace_back("mem_iters", mem_sampler.spec().iters);
  report.metrics = {m_cold, m_disk, m_mem, m_speedup};
  if (!bench::write_report(report, out_path)) return 1;

  bench::print_sweep_stats("cache_effectiveness");

  const bool fast_enough = disk_speedup >= 10.0;
  bench::shape_note(
      std::string("Cache contract: warm results are bit-identical to cold (") +
      (identical ? "holds" : "VIOLATED") + ") and the MEDIAN disk-warm pipeline runs "
      ">= 10x faster than cold (" + util::format_fixed(disk_speedup, 1) + "x, " +
      (fast_enough ? "holds" : "VIOLATED") + "); the memory tier adds another " +
      util::format_fixed(mem_speedup, 1) + "x-over-cold on top. This is the paper's "
      "on-package-memory story applied to the harness itself: identical request, served "
      "from the near tier, same bits as recomputation.");
  return (identical && fast_enough) ? 0 : 1;
}
