// Gates the simulation hot path: lines/sec of the flat SoA cache core
// (MemorySystem = MemorySystemT<FlatCache>) against the retained
// reference model (ReferenceMemorySystem = MemorySystemT<
// SetAssociativeCache>), which IS the pre-rewrite core — map-based sets,
// per-line tier walk, allocating prefetcher. Both run identical synthetic
// traces over the paper's platform configurations (Broadwell eDRAM
// off/on, KNL DDR/cache/flat/hybrid, prefetcher off/on).
//
// Measurement follows the statistical perf contract (docs/MODEL.md §12):
// each core runs `reps` repeat loops through bench::Sampler (fresh
// MemorySystem per repeat, one full-trace ns sample each), and the
// speedup is the ratio of MEDIANS across repeats — not a single
// best-of sample. The speedup gate is CV-aware: the required threshold
// relaxes by up to 50% when the measured coefficient of variation says
// the machine is noisy, eliminating the single-sample flake vector.
//
// The harness FAILS (nonzero exit) if any configuration's TrafficReport
// or per-tier CacheStats differ between the two cores (behavior-identity
// contract), or if any configuration's median speedup is below the
// CV-adjusted gate (default 2x). Results land in BENCH_sim.json in the
// shared opm-bench schema — the simulator's committed trajectory, diffed
// in CI by tools/opm_benchdiff.
//
// Under `--sample fast` (or OPM_SAMPLE=fast) the harness additionally
// runs the same traces through sim::WindowSampler — the sampled
// simulation path — and gates the next order of magnitude: the sampled
// core must clear `--sample-gate` (default full 5x / quick 3x, CV-aware
// like the main gate) over the FLAT core's median, and the extrapolated
// TrafficReport must agree with the exact full-trace report to within
// `--sample-tol` (default 1%) on every counter carrying at least 1% of
// the traffic, on every configuration. Sampling is deterministic
// (digest-seeded), so the error check is exact, not statistical.
//
//   --quick         smaller working set (CI perf job)
//   --reps=N        repeat loops per core (default 5)
//   --gate=X        minimum required median speedup (default full 2.0 /
//                   quick 1.7 — the 8 MiB quick working set keeps more of
//                   the trace resident in the simulated near tiers, which
//                   narrows the flat core's advantage over the map-based
//                   reference; the absolute floor is a sanity check, the
//                   committed-baseline diff is the real regression gate)
//   --gate-k=K      CV multiplier for the gate relaxation (default 3.0)
//   --sample fast   also measure + gate the WindowSampler path
//   --sample-gate=X sampled-vs-flat median speedup floor on the deep-walk
//                   (prefetcher) configs, where each observed line costs a
//                   demand walk plus prefetch fills and sampling pays most
//                   (full 5.0 / quick 3.0)
//   --sample-floor=X sampled-vs-flat floor on every other config (default
//                   3.0). The non-prefetch KNL walks are only three levels
//                   deep, so their sampled ceiling is set by the fixed
//                   per-observed-line accounting, not by skipped work —
//                   gating them at 5x would measure the host, not the code.
//   --sample-tol=X  extrapolation error ceiling (default 0.01)
//   --out=PATH      JSON output path (default BENCH_sim.json)
//
// Every core here is measured on ONE thread: the harness sets the shared
// pool to 0 workers, so the flat MemorySystem walks its trace directly
// instead of replaying set slices on the pool. The flat/ref and
// sampled/flat gates then compare serial cores and mean the same on 1
// core as on 64.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "common.hpp"
#include "core/sweep.hpp"
#include "sim/memory_system.hpp"
#include "sim/platform.hpp"
#include "sim/window_sampler.hpp"
#include "util/cli.hpp"
#include "util/fingerprint.hpp"
#include "util/format.hpp"

namespace {

using opm::sim::MemorySystem;
using opm::sim::Platform;
using opm::sim::ReferenceMemorySystem;

/// Streams the synthetic kernel-shaped trace through `sys` and returns the
/// line-granular access count. Deterministic: both cores see byte-identical
/// traces. The mix covers the shapes the real kernels issue — element-wise
/// streaming (STREAM/stencil), a 3-array triad with stores, a strided
/// column walk (GEMM panels), a seeded pointer chase (SpMV's x-gather),
/// multi-line block copies, and non-temporal stores.
template <class System>
std::uint64_t run_trace(System& sys, std::uint64_t ws_bytes, int passes) {
  const std::uint64_t base = 1ull << 20;
  const std::uint64_t n64 = ws_bytes / 8;  // 8-byte elements in the working set

  for (int p = 0; p < passes; ++p) {
    // Sequential element reads (the dominant kernel shape).
    for (std::uint64_t i = 0; i < n64; ++i) sys.load(base + i * 8, 8);

    // Triad over three quarter-size arrays: c[i] = a[i] + s * b[i].
    const std::uint64_t quarter = ws_bytes / 4;
    const std::uint64_t a = base, b = base + quarter, c = base + 2 * quarter;
    for (std::uint64_t i = 0; i < quarter / 8; ++i) {
      sys.load(a + i * 8, 8);
      sys.load(b + i * 8, 8);
      sys.store(c + i * 8, 8);
    }

    // Strided column walk, 4 lines apart (defeats the MRU hint).
    for (std::uint64_t off = 0; off < ws_bytes; off += 256) sys.load(base + off, 8);

    // Seeded pointer chase (xorshift64*, fixed seed: deterministic).
    std::uint64_t rng = 0x9e3779b97f4a7c15ull;
    for (std::uint64_t i = 0; i < n64 / 64; ++i) {
      rng ^= rng >> 12;
      rng ^= rng << 25;
      rng ^= rng >> 27;
      const std::uint64_t r = rng * 0x2545f4914f6cdd1dull;
      sys.load(base + (r % ws_bytes) / 8 * 8, 8);
    }

    // Block copies: 256-byte ranges exercise the multi-line batch loop.
    for (std::uint64_t off = 0; off + 256 <= ws_bytes / 4; off += 256) {
      sys.access_range(a + off, 256, false);
      sys.access_range(c + off, 256, true);
    }

    // Non-temporal store stream over the last quarter.
    for (std::uint64_t i = 0; i < quarter / 8; ++i)
      sys.store_nt(base + 3 * quarter + i * 8, 8);
  }
  return sys.lines_simulated();
}

struct Config {
  std::string name;
  Platform platform;
  bool prefetcher = false;
};

struct Row {
  std::string name;
  bool prefetcher = false;
  std::uint64_t lines = 0;
  opm::util::BenchMetric ref;   ///< reference core lines/sec across repeats
  opm::util::BenchMetric flat;  ///< flat core lines/sec across repeats
  bool identical = false;

  // --sample fast only: the WindowSampler path on the flat core.
  opm::util::BenchMetric sampled;  ///< sampled-path lines/sec across repeats
  double sample_err = 0.0;         ///< max per-counter extrapolation error
  bool sampler_engaged = false;    ///< the sampler actually dropped windows

  double speedup() const {
    return ref.summary.median > 0.0 ? flat.summary.median / ref.summary.median : 0.0;
  }
  double cv() const { return std::max(ref.summary.cv, flat.summary.cv); }

  double sample_speedup() const {
    return flat.summary.median > 0.0 ? sampled.summary.median / flat.summary.median : 0.0;
  }
  double sample_cv() const { return std::max(flat.summary.cv, sampled.summary.cv); }
};

/// Deterministic per-config sampler seed (content-addressed like the
/// advise probe's: same config name, same schedule).
opm::sim::SampleConfig sampler_config(const Config& cfg) {
  opm::util::Hasher128 h;
  h.add("opm.bench.sim_hotpath");
  h.add(cfg.name);
  return opm::sim::sample_config_for(h.digest());
}

/// Lines/sec across `reps` repeats for one core type on one config: a
/// fresh system per repeat (the setup hook), one full-trace sample each.
template <class System>
opm::util::BenchMetric measure(const std::string& metric_name, const Config& cfg,
                               std::uint64_t ws_bytes, int passes, int reps,
                               std::uint64_t lines) {
  std::optional<System> sys;
  opm::bench::Sampler sampler({.warmup = 0, .iters = 1, .repeats = reps});
  sampler.run(
      [&](int) {
        sys.emplace(cfg.platform);
        if (cfg.prefetcher) sys->enable_prefetcher();
      },
      [&] { run_trace(*sys, ws_bytes, passes); });
  return opm::bench::rate_metric(metric_name, "lines/s", static_cast<double>(lines),
                                 sampler);
}

/// Lines/sec of the sampled path: the same trace recorded through a
/// WindowSampler wrapping a fresh flat MemorySystem per repeat. The rate
/// is over the FULL observed line count (the work the sample stands in
/// for), so the ratio against the flat core's metric is the end-to-end
/// simulation speedup sampling delivers.
opm::util::BenchMetric measure_sampled(const std::string& metric_name, const Config& cfg,
                                       std::uint64_t ws_bytes, int passes, int reps,
                                       std::uint64_t lines) {
  std::optional<opm::sim::WindowSampler> sampler;
  opm::bench::Sampler s({.warmup = 0, .iters = 1, .repeats = reps});
  s.run(
      [&](int) {
        sampler.emplace(cfg.platform, sampler_config(cfg));
        if (cfg.prefetcher) sampler->enable_prefetcher();
      },
      [&] { run_trace(*sampler, ws_bytes, passes); });
  return opm::bench::rate_metric(metric_name, "lines/s", static_cast<double>(lines), s);
}

/// Max relative disagreement between the sampler's extrapolated
/// TrafficReport and the exact full-trace report, over every tier/device
/// counter carrying >= 1% of the line traffic (the same significance rule
/// the sampler's own error bound uses; minority counters only amplify
/// numeric noise). Deterministic: same seed, same answer.
double extrapolation_error(const Config& cfg, const opm::sim::TrafficReport& exact,
                           std::uint64_t ws_bytes, int passes, std::uint64_t lines,
                           bool* engaged) {
  opm::sim::WindowSampler sampler(cfg.platform, sampler_config(cfg));
  if (cfg.prefetcher) sampler.enable_prefetcher();
  run_trace(sampler, ws_bytes, passes);
  const opm::sim::SampledTraffic& st = sampler.sampled_report();
  *engaged = st.sampled;
  const double total = static_cast<double>(lines);
  double worst = 0.0;
  auto check = [&](std::uint64_t got, std::uint64_t want) {
    const double w = static_cast<double>(want);
    if (w <= 0.0 || w / total < 0.01) return;
    worst = std::max(worst, std::abs(static_cast<double>(got) - w) / w);
  };
  for (std::size_t i = 0; i < exact.tiers.size(); ++i) {
    check(st.traffic.tiers[i].hits, exact.tiers[i].hits);
    check(st.traffic.tiers[i].writebacks, exact.tiers[i].writebacks);
  }
  for (std::size_t i = 0; i < exact.devices.size(); ++i) {
    check(st.traffic.devices[i].hits, exact.devices[i].hits);
    check(st.traffic.devices[i].writebacks, exact.devices[i].writebacks);
    check(st.traffic.devices[i].prefetches, exact.devices[i].prefetches);
  }
  return worst;
}

/// Runs both cores once and compares every observable: the TrafficReport
/// (tier/device hits, bytes, writebacks, prefetches, totals) and the raw
/// per-tier CacheStats (hits/misses/evictions/dirty evictions).
bool identical_behavior(const Config& cfg, std::uint64_t ws_bytes, int passes) {
  MemorySystem flat(cfg.platform);
  ReferenceMemorySystem ref(cfg.platform);
  if (cfg.prefetcher) {
    flat.enable_prefetcher();
    ref.enable_prefetcher();
  }
  run_trace(flat, ws_bytes, passes);
  run_trace(ref, ws_bytes, passes);
  if (!(flat.report() == ref.report())) return false;
  for (std::size_t i = 0; i < cfg.platform.tiers.size(); ++i)
    if (!(flat.tier_stats(i) == ref.tier_stats(i))) return false;
  return flat.prefetch_fills() == ref.prefetch_fills();
}

}  // namespace

int main(int argc, char** argv) {
  using namespace opm;

  bench::init(argc, argv);
  core::set_sweep_workers(0);  // serial cores only (see the header)
  const util::Cli cli(argc, argv);
  const bool quick = cli.has("quick");
  const double gate = cli.get_double("gate", quick ? 1.7 : 2.0);
  const double gate_k = cli.get_double("gate-k", 3.0);
  const int reps = static_cast<int>(cli.get_int("reps", 5));
  const std::string out_path = cli.get("out", "BENCH_sim.json");
  const std::uint64_t ws_bytes = quick ? (8ull << 20) : (32ull << 20);
  const int passes = 1;
  // bench::init() already folded --sample / OPM_SAMPLE into the process
  // sampling mode; the harness measures the sampled path when it's on.
  const bool sample = sim::sampling_mode() == sim::SamplingMode::kFast;
  const double sample_gate = cli.get_double("sample-gate", quick ? 3.0 : 5.0);
  const double sample_floor = cli.get_double("sample-floor", 3.0);
  const double sample_tol = cli.get_double("sample-tol", 0.01);

  bench::banner("sim_hotpath",
                "flat SoA cache core vs reference model, median lines/sec across " +
                    std::to_string(reps) + " repeats, CV-aware gate >= " +
                    util::format_fixed(gate, 1) + "x");

  const std::vector<Config> configs = {
      {"bdw-edram-off", sim::broadwell(sim::EdramMode::kOff), false},
      {"bdw-edram-on", sim::broadwell(sim::EdramMode::kOn), false},
      {"bdw-edram-on+pf", sim::broadwell(sim::EdramMode::kOn), true},
      {"knl-ddr", sim::knl(sim::McdramMode::kOff), false},
      {"knl-cache", sim::knl(sim::McdramMode::kCache), false},
      {"knl-cache+pf", sim::knl(sim::McdramMode::kCache), true},
      {"knl-flat", sim::knl(sim::McdramMode::kFlat), false},
      {"knl-hybrid", sim::knl(sim::McdramMode::kHybrid), false},
  };

  std::vector<Row> rows;
  for (const auto& cfg : configs) {
    Row row;
    row.name = cfg.name;
    row.prefetcher = cfg.prefetcher;
    row.identical = identical_behavior(cfg, ws_bytes, passes);
    sim::TrafficReport exact;
    {
      MemorySystem probe(cfg.platform);
      if (cfg.prefetcher) probe.enable_prefetcher();
      row.lines = run_trace(probe, ws_bytes, passes);
      exact = probe.report();
    }
    row.ref = measure<ReferenceMemorySystem>(cfg.name + "/ref_lines_per_s", cfg,
                                             ws_bytes, passes, reps, row.lines);
    row.flat = measure<MemorySystem>(cfg.name + "/flat_lines_per_s", cfg, ws_bytes,
                                     passes, reps, row.lines);
    if (sample) {
      row.sampled = measure_sampled(cfg.name + "/sampled_lines_per_s", cfg, ws_bytes,
                                    passes, reps, row.lines);
      row.sample_err = extrapolation_error(cfg, exact, ws_bytes, passes, row.lines,
                                           &row.sampler_engaged);
    }
    rows.push_back(row);
    std::cout << util::pad(row.name, 18)
              << util::pad(util::format_fixed(row.ref.summary.median / 1e6, 1) +
                               " Ml/s ref",
                           16)
              << util::pad(util::format_fixed(row.flat.summary.median / 1e6, 1) +
                               " Ml/s flat",
                           17)
              << util::pad(util::format_fixed(row.speedup(), 2) + "x", 9)
              << util::pad("cv " + util::format_fixed(row.cv() * 100.0, 1) + "%", 10)
              << (row.identical ? "bit-identical" : "REPORTS DIFFER");
    if (sample)
      std::cout << "  "
                << util::pad(util::format_fixed(row.sampled.summary.median / 1e6, 1) +
                                 " Ml/s sampled",
                             21)
                << util::pad(util::format_fixed(row.sample_speedup(), 2) + "x", 9)
                << "err " << util::format_fixed(row.sample_err * 100.0, 2) << "%";
    std::cout << "\n";
  }

  // CV-aware gate: the threshold each config must clear is the nominal
  // gate relaxed by k·CV of its own measurement, capped at 50% — a noisy
  // container lowers the bar proportionally to the measured noise instead
  // of flaking, while a quiet machine still enforces the full 2x.
  double min_speedup = 0.0, worst_margin = 1e9;
  bool fast_enough = true, all_identical = true;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const double s = rows[i].speedup();
    const double relax = std::min(0.5, gate_k * rows[i].cv());
    const double threshold = gate * (1.0 - relax);
    if (i == 0 || s < min_speedup) min_speedup = s;
    worst_margin = std::min(worst_margin, s - threshold);
    if (s < threshold) {
      std::cout << "GATE FAIL: " << rows[i].name << " median speedup "
                << util::format_fixed(s, 2) << "x < threshold "
                << util::format_fixed(threshold, 2) << "x (gate "
                << util::format_fixed(gate, 1) << "x relaxed by "
                << util::format_fixed(relax * 100.0, 1) << "% for cv "
                << util::format_fixed(rows[i].cv() * 100.0, 1) << "%)\n";
      fast_enough = false;
    }
    all_identical = all_identical && rows[i].identical;
  }

  // Sampled gates (--sample fast only): the sampler must have actually
  // engaged (dropped windows), its extrapolated counters must sit within
  // sample_tol of the exact report, and its median throughput must clear
  // the CV-adjusted sample_gate over the flat core.
  bool sample_ok = true;
  double min_sample_speedup = 0.0, max_sample_err = 0.0;
  if (sample) {
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const Row& r = rows[i];
      if (i == 0 || r.sample_speedup() < min_sample_speedup)
        min_sample_speedup = r.sample_speedup();
      max_sample_err = std::max(max_sample_err, r.sample_err);
      if (!r.sampler_engaged) {
        std::cout << "SAMPLE GATE FAIL: " << r.name
                  << " trace too short — the sampler never dropped a window\n";
        sample_ok = false;
      }
      if (r.sample_err > sample_tol) {
        std::cout << "SAMPLE GATE FAIL: " << r.name << " extrapolation error "
                  << util::format_fixed(r.sample_err * 100.0, 2) << "% > "
                  << util::format_fixed(sample_tol * 100.0, 2) << "% ceiling\n";
        sample_ok = false;
      }
      const double cfg_gate = r.prefetcher ? sample_gate : std::min(sample_gate, sample_floor);
      const double relax = std::min(0.5, gate_k * r.sample_cv());
      const double threshold = cfg_gate * (1.0 - relax);
      if (r.sample_speedup() < threshold) {
        std::cout << "SAMPLE GATE FAIL: " << r.name << " sampled speedup "
                  << util::format_fixed(r.sample_speedup(), 2) << "x < threshold "
                  << util::format_fixed(threshold, 2) << "x (gate "
                  << util::format_fixed(cfg_gate, 1) << "x relaxed by "
                  << util::format_fixed(relax * 100.0, 1) << "% for cv "
                  << util::format_fixed(r.sample_cv() * 100.0, 1) << "%)\n";
        sample_ok = false;
      }
    }
  }

  util::BenchReport report = bench::make_report("sim", quick);
  report.knobs.emplace_back("working_set_bytes", static_cast<double>(ws_bytes));
  report.knobs.emplace_back("passes", passes);
  report.knobs.emplace_back("reps", reps);
  report.knobs.emplace_back("sample", sample ? 1.0 : 0.0);
  for (const Row& r : rows) {
    report.metrics.push_back(r.ref);
    report.metrics.push_back(r.flat);
    if (sample) report.metrics.push_back(r.sampled);
  }
  if (!bench::write_report(report, out_path)) return 1;

  std::string note =
      std::string("Hot-path contract: the flat core is behavior-identical to the "
                  "reference model on every platform configuration (") +
      (all_identical ? "holds" : "VIOLATED") + ") and its MEDIAN lines/sec across " +
      std::to_string(reps) + " repeats clears the CV-adjusted " +
      util::format_fixed(gate, 1) + "x gate (min speedup " +
      util::format_fixed(min_speedup, 2) + "x, " + (fast_enough ? "holds" : "VIOLATED") +
      "). The apparatus now sweeps the paper's parameter space at a rate set by the "
      "SoA lookup, not by hash-map probes and per-access allocation — and the claim "
      "is statistical, not a single lucky sample.";
  if (sample)
    note += " Sampled contract: the WindowSampler path clears the CV-adjusted " +
            util::format_fixed(sample_gate, 1) + "x gate over the flat core on the "
            "deep-walk (prefetcher) configs and the " +
            util::format_fixed(std::min(sample_gate, sample_floor), 1) +
            "x floor elsewhere (min " +
            util::format_fixed(min_sample_speedup, 2) +
            "x) with extrapolated traffic within " +
            util::format_fixed(sample_tol * 100.0, 1) + "% of the exact report (max " +
            util::format_fixed(max_sample_err * 100.0, 2) + "%, " +
            (sample_ok ? "holds" : "VIOLATED") + ").";
  bench::shape_note(note);
  return (fast_enough && all_identical && sample_ok) ? 0 : 1;
}
