#include <gtest/gtest.h>

#include <cstdlib>
#include <vector>

#include "core/valley.hpp"
#include "kernels/csr5.hpp"
#include "kernels/spmv.hpp"
#include "kernels/stencil.hpp"
#include "kernels/sptrsv.hpp"
#include "kernels/stream.hpp"
#include "sim/memory_system.hpp"
#include "sim/power.hpp"
#include "sim/prefetcher.hpp"
#include "sim/simd_probe.hpp"
#include "sparse/generators.hpp"
#include "trace/recorder.hpp"
#include "trace/sampler.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"

/// Tests for the extension features: the hardware prefetcher model, KNL
/// cluster modes, the EDP objective, and the original Valley model.
namespace opm {
namespace {

using util::GiB;
using util::MiB;

// ------------------------------------------------------------ prefetcher --

TEST(Prefetcher, DetectsSequentialStream) {
  sim::StridePrefetcher pf(4, 2);
  std::uint64_t out[2];
  EXPECT_EQ(pf.observe_into(0, out), 0u);    // allocate
  EXPECT_EQ(pf.observe_into(64, out), 0u);   // train (stride = +1 line)
  ASSERT_EQ(pf.observe_into(128, out), 2u);  // established: prefetch ahead
  EXPECT_EQ(out[0], 192u);
  EXPECT_EQ(out[1], 256u);
  EXPECT_EQ(pf.stream_hits(), 1u);
}

TEST(Prefetcher, DetectsDescendingStream) {
  sim::StridePrefetcher pf(4, 1);
  std::uint64_t out[1];
  pf.observe_into(64 * 100, out);
  pf.observe_into(64 * 99, out);
  ASSERT_EQ(pf.observe_into(64 * 98, out), 1u);
  EXPECT_EQ(out[0], 64u * 97);
}

TEST(Prefetcher, IgnoresRandomAccesses) {
  sim::StridePrefetcher pf(8, 4);
  util::Xoshiro256 rng(1);
  std::uint64_t issued = 0;
  std::uint64_t out[4];
  for (int i = 0; i < 2000; ++i) {
    issued += pf.observe_into(rng.bounded(1 << 20) * 64, out);
  }
  // Accidental stride matches are possible but must stay rare.
  EXPECT_LT(issued, 100u);
}

TEST(Prefetcher, TracksMultipleStreams) {
  sim::StridePrefetcher pf(4, 1);
  // Two interleaved sequential streams at distant bases.
  std::uint64_t hits_before = pf.stream_hits();
  std::uint64_t out[1];
  for (std::uint64_t i = 0; i < 8; ++i) {
    pf.observe_into(i * 64, out);
    pf.observe_into((1 << 20) + i * 64, out);
  }
  EXPECT_GE(pf.stream_hits() - hits_before, 10u);  // both streams locked on
}

TEST(Prefetcher, ResetClearsState) {
  sim::StridePrefetcher pf(4, 2);
  std::uint64_t out[2];
  pf.observe_into(0, out);
  pf.observe_into(64, out);
  pf.observe_into(128, out);
  pf.reset();
  EXPECT_EQ(pf.issued(), 0u);
  EXPECT_EQ(pf.observe_into(192, out), 0u);  // must retrain
}

// ------------------------------------------------- prefetcher stream match --

/// Verbatim copy of the earlier table-scan prefetcher (array of structs,
/// one branchy pass per observe) — the oracle for the SIMD-matched one.
class LegacyPrefetcher {
 public:
  LegacyPrefetcher(std::size_t streams, std::size_t depth) : depth_(depth), table_(streams) {}

  std::vector<std::uint64_t> observe(std::uint64_t line_addr) {
    std::vector<std::uint64_t> out;
    ++clock_;
    const std::int64_t line = static_cast<std::int64_t>(line_addr >> 6);
    Stream* free_slot = nullptr;
    Stream* oldest = nullptr;
    for (auto& s : table_) {
      if (!s.valid) {
        free_slot = &s;
        continue;
      }
      const std::int64_t last = static_cast<std::int64_t>(s.last_line);
      const std::int64_t delta = line - last;
      if (s.stride != 0 && delta == s.stride) {
        s.last_line = static_cast<std::uint64_t>(line);
        s.last_use = clock_;
        ++stream_hits_;
        for (std::size_t d = 1; d <= depth_; ++d) {
          const std::int64_t target = line + s.stride * static_cast<std::int64_t>(d);
          if (target < 0) break;
          out.push_back(static_cast<std::uint64_t>(target) << 6);
        }
        return out;
      }
      if (s.stride == 0 && delta != 0 && std::llabs(delta) <= 2) {
        s.stride = delta;
        s.last_line = static_cast<std::uint64_t>(line);
        s.last_use = clock_;
        return out;
      }
      if (oldest == nullptr || s.last_use < oldest->last_use) oldest = &s;
    }
    Stream* slot = free_slot != nullptr ? free_slot : oldest;
    slot->valid = true;
    slot->last_line = static_cast<std::uint64_t>(line);
    slot->stride = 0;
    slot->last_use = clock_;
    return out;
  }
  std::uint64_t stream_hits() const { return stream_hits_; }

 private:
  struct Stream {
    std::uint64_t last_line = 0;
    std::int64_t stride = 0;
    std::uint64_t last_use = 0;
    bool valid = false;
  };
  std::size_t depth_;
  std::uint64_t clock_ = 0;
  std::uint64_t stream_hits_ = 0;
  std::vector<Stream> table_;
};

/// Seeded line streams: interleaved ±1 / ±2 line strides (negative ones
/// included), repeat touches (delta 0), random gathers, and bursts of
/// fresh lines that fill the table and force least-recently-used
/// evictions.
std::vector<std::uint64_t> seeded_lines(std::uint64_t seed, int n) {
  util::Xoshiro256 rng(seed);
  std::int64_t heads[6] = {4000, 9000, 150000, 700, 60000, 30000};
  const std::int64_t steps[6] = {1, -1, 2, -2, 1, -2};
  std::vector<std::uint64_t> lines;
  for (int i = 0; i < n; ++i) {
    const std::uint64_t pick = rng.bounded(12);
    if (pick < 6) {
      heads[pick] += steps[pick];
      lines.push_back(static_cast<std::uint64_t>(heads[pick]));
    } else if (pick < 8) {
      lines.push_back(rng.bounded(1 << 20));
    } else if (pick < 10) {
      lines.push_back(static_cast<std::uint64_t>(heads[rng.bounded(6)]));
    } else {
      const std::uint64_t base = rng.bounded(1 << 20);
      for (int k = 0; k < 20; ++k) lines.push_back(base + 7 * static_cast<std::uint64_t>(k));
    }
  }
  return lines;
}

TEST(PrefetcherStreamMatch, SimdMatchesScalarOracleOnLiveTables) {
  for (const std::size_t streams : {1u, 3u, 4u, 6u, 16u, 17u}) {
    for (const std::uint64_t seed : {1u, 2u, 3u}) {
      sim::StridePrefetcher pf(streams, 4);
      std::uint64_t out[4];
      for (const std::uint64_t line : seeded_lines(seed, 4000)) {
        const auto want = sim::simd::match_stream_scalar(pf.table(), static_cast<std::int64_t>(line));
        ASSERT_EQ(sim::simd::match_stream(pf.table(), static_cast<std::int64_t>(line)), want)
            << streams << " streams, seed " << seed;
#if OPM_SIMD_X86
        if (__builtin_cpu_supports("avx2")) {
          ASSERT_EQ(sim::simd::match_stream_avx2(pf.table(), static_cast<std::int64_t>(line)), want)
              << streams << " streams, seed " << seed;
        }
#endif
        pf.observe_into(line << 6, out);
      }
    }
  }
}

TEST(PrefetcherStreamMatch, FreeSlotTiesTakeTheLastFreeSlot) {
  // A fresh table: every lookup that matches nothing allocates the LAST
  // free slot, so the table fills from the end.
  sim::StridePrefetcher pf(6, 2);
  std::uint64_t out[2];
  for (std::uint32_t k = 0; k < 6; ++k) {
    const auto m = sim::simd::match_stream(pf.table(), 1000 * (k + 1));
    EXPECT_FALSE(m.matched);
    EXPECT_EQ(m.slot, 5u - k);
    pf.observe_into(1000 * 64 * (k + 1), out);
  }
  // Full: the least recently used stream (the first one allocated) goes.
  const auto m = sim::simd::match_stream(pf.table(), 99999);
  EXPECT_FALSE(m.matched);
  EXPECT_EQ(m.slot, 5u);
}

TEST(PrefetcherStreamMatch, PrefetcherMatchesLegacyTableScan) {
  for (const std::size_t streams : {2u, 5u, 16u}) {
    for (const std::size_t depth : {1u, 4u, 8u}) {
      for (const std::uint64_t seed : {7u, 8u}) {
        sim::StridePrefetcher pf(streams, depth);
        LegacyPrefetcher legacy(streams, depth);
        std::uint64_t out[8];
        auto observe = [&](std::uint64_t line_addr) {
          return std::vector<std::uint64_t>(out, out + pf.observe_into(line_addr, out));
        };
        for (const std::uint64_t line : seeded_lines(seed, 3000))
          ASSERT_EQ(observe(line << 6), legacy.observe(line << 6))
              << streams << " streams, depth " << depth << ", seed " << seed;
        EXPECT_EQ(pf.stream_hits(), legacy.stream_hits());
        pf.reset();
        LegacyPrefetcher fresh(streams, depth);
        for (const std::uint64_t line : seeded_lines(seed + 100, 1000))
          ASSERT_EQ(observe(line << 6), fresh.observe(line << 6)) << "after reset";
      }
    }
  }
}

TEST(PrefetcherStreamMatch, SelfCheckCoversTheStreamMatch) {
  EXPECT_TRUE(sim::simd::stream_match_self_check());
  EXPECT_TRUE(sim::simd::self_check());
}

TEST(PrefetcherIntegration, CoversStreamingDemandMisses) {
  // TRIAD over arrays far beyond every cache: with the prefetcher the
  // demand misses reaching DDR shrink dramatically (covered by prefetch
  // fills); total DDR lines (demand + prefetch) stay comparable.
  const std::size_t n = (2 * MiB) / 8;
  std::vector<double> a(n), b(n), c(n);

  sim::MemorySystem plain(sim::broadwell(sim::EdramMode::kOff));
  trace::SystemRecorder rec_plain(plain);
  kernels::stream_triad_instrumented(a, b, c, 1.0, rec_plain);
  const auto demand_plain = plain.report().devices.back().hits;

  sim::MemorySystem with_pf(sim::broadwell(sim::EdramMode::kOff));
  with_pf.enable_prefetcher(16, 8);
  trace::SystemRecorder rec_pf(with_pf);
  kernels::stream_triad_instrumented(a, b, c, 1.0, rec_pf);
  const auto rep = with_pf.report();
  const auto demand_pf = rep.devices.back().hits;

  EXPECT_LT(demand_pf, demand_plain / 4);  // most demand misses covered
  EXPECT_GT(rep.devices.back().prefetches, demand_plain / 2);
  EXPECT_GT(with_pf.prefetch_fills(), 0u);
}

TEST(PrefetcherIntegration, DoesNotCoverRandomGathers) {
  util::Xoshiro256 rng(7);
  sim::MemorySystem ms(sim::broadwell(sim::EdramMode::kOff));
  ms.enable_prefetcher(16, 8);
  for (int i = 0; i < 20000; ++i) ms.load(rng.bounded(1 << 22) * 64, 8);
  const auto rep = ms.report();
  // Random gathers must still be served mostly by demand fetches.
  EXPECT_GT(rep.devices.back().hits, rep.devices.back().prefetches * 5);
}

// ---------------------------------------------------------- cluster modes --

TEST(ClusterModes, QuadrantIsDefaultLabel) {
  EXPECT_EQ(sim::knl(sim::McdramMode::kFlat).mode_label, "MCDRAM flat");
  EXPECT_EQ(sim::knl(sim::McdramMode::kFlat, sim::ClusterMode::kAllToAll).mode_label,
            "MCDRAM flat, all-to-all");
}

TEST(ClusterModes, AllToAllRaisesMemoryLatency) {
  const auto quad = sim::knl(sim::McdramMode::kFlat, sim::ClusterMode::kQuadrant);
  const auto a2a = sim::knl(sim::McdramMode::kFlat, sim::ClusterMode::kAllToAll);
  const auto snc = sim::knl(sim::McdramMode::kFlat, sim::ClusterMode::kSnc4);
  EXPECT_GT(a2a.devices[0].latency, quad.devices[0].latency);
  EXPECT_LT(snc.devices[0].latency, quad.devices[0].latency);
  // Bandwidths are unchanged by clustering.
  EXPECT_DOUBLE_EQ(a2a.devices[0].bandwidth, quad.devices[0].bandwidth);
}

TEST(ClusterModes, LatencyBoundKernelFeelsClustering) {
  // SpTRSV (latency-bound) must slow down under all-to-all and speed up
  // under SNC-4; Stream at full MLP must be nearly indifferent.
  const kernels::SptrsvShape shape{.rows = 2e6, .nnz = 1.6e7, .locality = 0.5,
                                   .avg_parallelism = 300.0, .levels = 6000.0};
  double g[3];
  int i = 0;
  for (auto cm : {sim::ClusterMode::kAllToAll, sim::ClusterMode::kQuadrant,
                  sim::ClusterMode::kSnc4}) {
    const auto p = sim::knl(sim::McdramMode::kFlat, cm);
    g[i++] = kernels::predict(p, kernels::sptrsv_model(p, shape)).gflops;
  }
  EXPECT_LT(g[0], g[1]);
  EXPECT_LT(g[1], g[2]);

  const auto quad = sim::knl(sim::McdramMode::kFlat, sim::ClusterMode::kQuadrant);
  const auto a2a = sim::knl(sim::McdramMode::kFlat, sim::ClusterMode::kAllToAll);
  const double s_quad =
      kernels::predict(quad, kernels::stream_model(quad, 4e8 / 24.0)).gflops;
  const double s_a2a = kernels::predict(a2a, kernels::stream_model(a2a, 4e8 / 24.0)).gflops;
  EXPECT_GT(s_a2a, s_quad * 0.80);  // bandwidth-bound: small sensitivity
}

// -------------------------------------------------------------------- EDP --

TEST(Edp, ProductOfEnergyAndTime) {
  sim::PowerEstimate p{.package = 40.0, .dram = 10.0};
  EXPECT_DOUBLE_EQ(sim::energy_delay_product(p, 2.0), 50.0 * 2.0 * 2.0);
}

TEST(Edp, BreaksEvenEarlierThanEnergy) {
  // With performance counting twice, a gain below the power cost can
  // still pay off in EDP terms.
  const double gain = 0.05, cost = 0.086;
  EXPECT_GT(sim::opm_energy_ratio(gain, cost), 1.0);  // loses on energy
  EXPECT_LT(sim::opm_edp_ratio(gain, cost), 1.0);     // wins on EDP
}

TEST(Edp, RatioFormula) {
  EXPECT_NEAR(sim::opm_edp_ratio(1.0, 0.0), 0.25, 1e-12);
  EXPECT_NEAR(sim::opm_edp_ratio(0.0, 0.5), 1.5, 1e-12);
}

// ----------------------------------------------------------- Valley model --

core::ValleyParams classic_params() {
  core::ValleyParams p;
  p.cache_bytes = 4.0 * MiB;
  p.per_thread_ws = 512.0 * 1024;
  p.flops_per_byte = 0.5;
  p.core_flops = 2.0e9;
  p.mem_latency = 100e-9;
  p.mem_bandwidth = 60e9;
  p.mlp_per_thread = 1.0;
  p.max_threads = 2048;
  return p;
}

TEST(Valley, HitRateMonotoneInThreads) {
  const auto p = classic_params();
  double prev = 2.0;
  for (double t = 1; t <= 512; t *= 2) {
    const double h = core::valley_hit_rate(p, t);
    EXPECT_LE(h, prev);
    EXPECT_GE(h, 0.0);
    EXPECT_LE(h, 1.0);
    prev = h;
  }
}

TEST(Valley, ClassicShapeHasPeakValleyRecovery) {
  const auto curve = core::valley_curve(classic_params());
  const auto f = core::analyze_valley(curve);
  EXPECT_TRUE(f.has_valley);
  EXPECT_GT(f.cache_peak_gflops, f.valley_gflops);
  EXPECT_GT(f.recovered_gflops, f.valley_gflops);
  // "Stay away from the valley": the ends beat the middle.
  EXPECT_GT(f.cache_peak_threads, 1.0);
  EXPECT_GT(f.valley_threads, f.cache_peak_threads);
}

TEST(Valley, NoValleyWithAbundantMlp) {
  core::ValleyParams p = classic_params();
  p.mlp_per_thread = 64.0;  // latency fully hidden from the start
  const auto f = core::analyze_valley(core::valley_curve(p));
  // Throughput may flatten at the bandwidth roof but must not dip.
  EXPECT_FALSE(f.has_valley);
}

TEST(Valley, BandwidthRoofCapsRecovery) {
  const auto p = classic_params();
  const double t = static_cast<double>(p.max_threads);
  const double at_max = core::valley_throughput(p, t);
  // The cache-served fraction rides above the memory roof; the miss
  // stream itself cannot exceed BW * intensity.
  const double hit = core::valley_hit_rate(p, t);
  const double roof = p.mem_bandwidth * p.flops_per_byte / (1.0 - hit);
  EXPECT_LE(at_max, roof * 1.0001);
}

TEST(Valley, SmallWorkingSetsNeverLeaveCacheRegion) {
  core::ValleyParams p = classic_params();
  p.per_thread_ws = 1024;  // 2048 threads x 1 KB = 2 MB < 4 MB cache
  p.max_threads = 1024;
  const auto f = core::analyze_valley(core::valley_curve(p));
  EXPECT_FALSE(f.has_valley);
  EXPECT_NEAR(f.recovered_gflops, 1024.0 * p.core_flops / 1e9, 1.0);
}

// --------------------------------------------------------- CSR5 autotune --

TEST(Csr5Autotune, FollowsMeanRowLength) {
  EXPECT_EQ(kernels::Csr5Matrix::autotune_sigma(sparse::make_tridiag_perturbed(256, 0.0, 1)),
            4);  // ~3 nnz/row
  EXPECT_EQ(kernels::Csr5Matrix::autotune_sigma(sparse::make_random_uniform(256, 10.0, 2)),
            10);
  EXPECT_EQ(kernels::Csr5Matrix::autotune_sigma(sparse::make_random_uniform(256, 40.0, 3)),
            16);
  EXPECT_EQ(kernels::Csr5Matrix::autotune_sigma(sparse::make_random_uniform(512, 100.0, 4)),
            32);
}

TEST(Csr5Autotune, TunedBuildStaysCorrect) {
  const sparse::Csr a = sparse::make_rmat(512, 12.0, 5);
  const int sigma = kernels::Csr5Matrix::autotune_sigma(a);
  const auto m = kernels::Csr5Matrix::build(a, 4, sigma);
  std::vector<double> x(static_cast<std::size_t>(a.cols), 1.0);
  std::vector<double> y1(static_cast<std::size_t>(a.rows));
  std::vector<double> y2(static_cast<std::size_t>(a.rows));
  m.spmv(x, y1);
  sparse::spmv_reference(a, x, y2);
  for (std::size_t i = 0; i < y1.size(); ++i) ASSERT_NEAR(y1[i], y2[i], 1e-10);
}

// --------------------------------------------------- stencil time stepping --

TEST(StencilRun, MatchesManualStepping) {
  kernels::StencilGrid a(20, 20, 20), b(20, 20, 20);
  a.seed(9);
  b.seed(9);
  kernels::stencil_run(a, 3, 4, 4);
  for (int s = 0; s < 3; ++s) {
    kernels::stencil_step(b, 4, 4);
    std::swap(b.current, b.previous);
  }
  EXPECT_EQ(a.current, b.current);
  EXPECT_EQ(a.previous, b.previous);
}

TEST(StencilRun, BlockingInvariantOverSteps) {
  kernels::StencilGrid blocked(20, 20, 20), unblocked(20, 20, 20);
  blocked.seed(10);
  unblocked.seed(10);
  kernels::stencil_run(blocked, 4, 3, 5);
  kernels::stencil_run(unblocked, 4, 0, 0);
  EXPECT_EQ(blocked.current, unblocked.current);
}

// ------------------------------------------------------- sampled reuse ----

TEST(SampledReuse, RateOneIsExact) {
  trace::ReuseDistanceAnalyzer exact;
  trace::SampledReuseAnalyzer sampled(1.0);
  util::Xoshiro256 rng(11);
  for (int i = 0; i < 5000; ++i) {
    const std::uint64_t addr = rng.bounded(400) * 64;
    exact.touch(addr, 8);
    sampled.touch(addr, 8);
  }
  for (std::uint64_t cap : {4096u, 65536u, 1u << 20}) {
    EXPECT_NEAR(sampled.estimated_miss_lines(cap),
                static_cast<double>(exact.miss_lines(cap / 64)), 1e-9);
  }
}

TEST(SampledReuse, EstimatesTrackExactWithinTolerance) {
  trace::ReuseDistanceAnalyzer exact;
  trace::SampledReuseAnalyzer sampled(0.25);
  util::Xoshiro256 rng(12);
  // A structured trace: streaming runs plus a hot set.
  for (int i = 0; i < 60000; ++i) {
    std::uint64_t addr;
    if (rng.uniform() < 0.5)
      addr = rng.bounded(64) * 64;  // hot region
    else
      addr = (4096 + rng.bounded(4096)) * 64;  // cold region
    exact.touch(addr, 8);
    sampled.touch(addr, 8);
  }
  EXPECT_LT(sampled.sampled(), sampled.observed());
  for (std::uint64_t cap : {16u * 1024, 64u * 1024, 256u * 1024}) {
    const double est = sampled.estimated_miss_lines(cap);
    const double real = static_cast<double>(exact.miss_lines(cap / 64));
    EXPECT_LT(est, real * 1.35 + 100.0) << "capacity " << cap;
    EXPECT_GT(est * 1.35 + 100.0, real) << "capacity " << cap;
  }
}

TEST(SampledReuse, RejectsBadRate) {
  EXPECT_THROW(trace::SampledReuseAnalyzer(0.0), std::invalid_argument);
  EXPECT_THROW(trace::SampledReuseAnalyzer(1.5), std::invalid_argument);
}

TEST(SampledReuse, HitRateBounded) {
  trace::SampledReuseAnalyzer sampled(0.5);
  for (std::uint64_t i = 0; i < 1000; ++i) sampled.touch(i * 64, 8);
  const double h = sampled.estimated_hit_rate(1u << 20);
  EXPECT_GE(h, 0.0);
  EXPECT_LE(h, 1.0);
}

}  // namespace
}  // namespace opm
