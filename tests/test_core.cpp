#include <limits>

#include <gtest/gtest.h>

#include "core/advisor.hpp"
#include "core/density.hpp"
#include "core/multitenant.hpp"
#include "core/experiment.hpp"
#include "core/roofline.hpp"
#include "core/speedup.hpp"
#include "core/stepping.hpp"
#include "kernels/fft.hpp"
#include "kernels/stream.hpp"
#include "util/units.hpp"

namespace opm::core {
namespace {

using util::GiB;
using util::MiB;

TEST(Roofline, AttainableIsMinOfRoofs) {
  EXPECT_DOUBLE_EQ(roofline_attainable(1.0, 100e9, 10e9), 10e9);
  EXPECT_DOUBLE_EQ(roofline_attainable(100.0, 100e9, 10e9), 100e9);
}

TEST(Roofline, BroadwellFigure) {
  const RooflineFigure fig = build_roofline(sim::broadwell(sim::EdramMode::kOn));
  EXPECT_NEAR(fig.opm_bandwidth, 102.4e9, 1e6);
  EXPECT_NEAR(fig.ddr_bandwidth, 34.1e9, 1e6);
  EXPECT_EQ(fig.placements.size(), 8u);
  // Ridge point: DP peak / OPM bandwidth = 236.8 / 102.4 ≈ 2.3 flop/byte.
  EXPECT_NEAR(fig.ridge_point_opm(), 236.8 / 102.4, 0.01);
  EXPECT_GT(fig.ridge_point_ddr(), fig.ridge_point_opm());
}

TEST(Roofline, StreamIsBandwidthBoundGemmComputeBound) {
  const RooflineFigure fig = build_roofline(sim::knl(sim::McdramMode::kFlat));
  const RooflinePlacement* stream = nullptr;
  const RooflinePlacement* gemm = nullptr;
  for (const auto& pl : fig.placements) {
    if (pl.kernel == "Stream") stream = &pl;
    if (pl.kernel == "GEMM") gemm = &pl;
  }
  ASSERT_TRUE(stream && gemm);
  // Stream: ceiling scales with the memory roof -> OPM beats DDR by ~5x.
  EXPECT_GT(stream->with_opm_gflops, stream->ddr_only_gflops * 3.0);
  // GEMM at n=1024: intensity 64 -> compute-bound, same ceiling either way.
  EXPECT_DOUBLE_EQ(gemm->with_opm_gflops, gemm->ddr_only_gflops);
}

TEST(Roofline, CacheAwareRoofsAreOrdered) {
  const auto roofs = cache_aware_roofs(sim::broadwell(sim::EdramMode::kOn));
  // L1, L2, L3, eDRAM, DDR: five roofs with non-increasing bandwidth and
  // non-decreasing ridge points.
  ASSERT_EQ(roofs.size(), 5u);
  for (std::size_t i = 1; i < roofs.size(); ++i) {
    EXPECT_GE(roofs[i - 1].bandwidth, roofs[i].bandwidth);
    EXPECT_LE(roofs[i - 1].ridge_point, roofs[i].ridge_point);
  }
  EXPECT_EQ(roofs.front().name, "L1");
  EXPECT_EQ(roofs.back().name, "DDR3-2133");
}

TEST(Roofline, CarmMatchesClassicAtTheBottom) {
  const sim::Platform p = sim::knl(sim::McdramMode::kFlat);
  const auto roofs = cache_aware_roofs(p);
  const auto fig = build_roofline(p);
  // The CARM DDR roof is the classic figure's DDR ceiling.
  EXPECT_DOUBLE_EQ(roofs.back().bandwidth, fig.ddr_bandwidth);
}

TEST(Multitenant, EqualSplitSumsToCapacity) {
  const sim::Platform brd = sim::broadwell(sim::EdramMode::kOn);
  std::vector<Tenant> tenants;
  tenants.push_back({.name = "a", .model = kernels::stream_model(brd, 1e6)});
  tenants.push_back({.name = "b", .model = kernels::stream_model(brd, 2e6)});
  const auto r = evaluate_partition(brd, tenants, PartitionPolicy::kEqual);
  double total = 0.0;
  for (double s : r.slice_bytes) total += s;
  EXPECT_NEAR(total, opm_capacity(brd), 1.0);
  EXPECT_NEAR(r.slice_bytes[0], r.slice_bytes[1], 1.0);
  EXPECT_GT(r.fairness, 0.0);
  EXPECT_LE(r.fairness, 1.0 + 1e-9);
}

TEST(Multitenant, OptimalNeverWorseThanEqual) {
  const sim::Platform brd = sim::broadwell(sim::EdramMode::kOn);
  std::vector<Tenant> tenants;
  // One tenant on its miss-curve knee, one with nothing to gain.
  tenants.push_back({.name = "knee", .model = kernels::fft_model(brd, 160.0)});
  tenants.push_back({.name = "noreuse", .model = kernels::stream_model(brd, 5e7)});
  const auto equal = evaluate_partition(brd, tenants, PartitionPolicy::kEqual);
  const auto optimal = evaluate_partition(brd, tenants, PartitionPolicy::kOptimal);
  EXPECT_GE(optimal.total_gflops, equal.total_gflops * 0.999);
}

TEST(Multitenant, SoloBaselineBoundsSharedThroughput) {
  const sim::Platform brd = sim::broadwell(sim::EdramMode::kOn);
  std::vector<Tenant> tenants;
  tenants.push_back({.name = "a", .model = kernels::fft_model(brd, 128.0)});
  tenants.push_back({.name = "b", .model = kernels::fft_model(brd, 160.0)});
  const auto r = evaluate_partition(brd, tenants, PartitionPolicy::kEqual);
  for (std::size_t i = 0; i < tenants.size(); ++i)
    EXPECT_LE(r.tenant_gflops[i], tenants[i].solo_gflops * 1.001);
}

TEST(Multitenant, OpmCapacityReadsTheTiers) {
  EXPECT_DOUBLE_EQ(opm_capacity(sim::broadwell(sim::EdramMode::kOn)), 128.0 * MiB);
  EXPECT_DOUBLE_EQ(opm_capacity(sim::broadwell(sim::EdramMode::kOff)), 0.0);
  EXPECT_DOUBLE_EQ(opm_capacity(sim::knl(sim::McdramMode::kCache)), 16.0 * 1024 * MiB);
}

TEST(Stepping, StreamOnBroadwellHasCachePeaksAndDdrPlateau) {
  const sim::Platform p = sim::broadwell(sim::EdramMode::kOff);
  const auto factory = [&p](double fp) { return kernels::stream_model(p, fp / 24.0); };
  const SteppingCurve curve = sweep_footprint(p, factory, 16.0 * 1024, 4.0 * GiB, 160);
  const CurveFeatures f = analyze_curve(curve);
  EXPECT_GE(f.peaks.size(), 1u);
  EXPECT_GT(f.max_gflops, f.final_plateau_gflops * 2.0);
  // The DDR plateau: triad flops = bandwidth/16; 34.1 GB/s -> ~2.1 GFlop/s.
  EXPECT_NEAR(f.final_plateau_gflops, 34.1 / 16.0, 1.0);
}

TEST(Stepping, EdramAddsAPeakInItsRegion) {
  const auto factory_for = [](const sim::Platform& p) {
    return [&p](double fp) { return kernels::stream_model(p, fp / 24.0); };
  };
  const sim::Platform off = sim::broadwell(sim::EdramMode::kOff);
  const sim::Platform on = sim::broadwell(sim::EdramMode::kOn);
  const SteppingCurve c_off = sweep_footprint(off, factory_for(off), 8.0 * MiB, 2.0 * GiB, 120);
  const SteppingCurve c_on = sweep_footprint(on, factory_for(on), 8.0 * MiB, 2.0 * GiB, 120);
  // Inside the eDRAM effective region (say 64 MB) the on-curve must win.
  double on_at_64m = 0.0, off_at_64m = 0.0;
  for (std::size_t i = 0; i < c_on.footprint_bytes.size(); ++i)
    if (std::abs(c_on.footprint_bytes[i] - 64.0 * MiB) / (64.0 * MiB) < 0.1) {
      on_at_64m = c_on.gflops[i];
      off_at_64m = c_off.gflops[i];
    }
  EXPECT_GT(on_at_64m, off_at_64m * 1.5);
}

TEST(Stepping, AnalyzeFindsSyntheticExtrema) {
  SteppingCurve c;
  c.footprint_bytes = {1, 2, 3, 4, 5, 6, 7};
  c.gflops = {1.0, 5.0, 2.0, 2.0, 8.0, 3.0, 3.0};
  const CurveFeatures f = analyze_curve(c);
  ASSERT_EQ(f.peaks.size(), 2u);
  EXPECT_DOUBLE_EQ(f.peaks[0].gflops, 5.0);
  EXPECT_DOUBLE_EQ(f.peaks[1].gflops, 8.0);
  ASSERT_GE(f.valleys.size(), 1u);
  EXPECT_DOUBLE_EQ(f.valleys[0].gflops, 2.0);
  EXPECT_DOUBLE_EQ(f.max_gflops, 8.0);
}

TEST(Stepping, ScaleOpmGrowsCapacityAndBandwidth) {
  const sim::Platform base = sim::broadwell(sim::EdramMode::kOn);
  const sim::Platform big = scale_opm(base, 2.0, 3.0);
  EXPECT_EQ(big.tiers.back().geometry.capacity, 256 * MiB);
  EXPECT_NEAR(big.tiers.back().bandwidth, 3.0 * 102.4e9, 1e6);
  // Standard tiers untouched.
  EXPECT_EQ(big.tiers[2].geometry.capacity, base.tiers[2].geometry.capacity);
}

TEST(Stepping, SchematicKernelReproducesFigure6Shape) {
  const sim::Platform p = sim::broadwell(sim::EdramMode::kOn);
  const SteppingCurve c =
      sweep_footprint(p, schematic_kernel(p, 0.2), 8.0 * 1024, 8.0 * GiB, 200);
  const CurveFeatures f = analyze_curve(c);
  // Multiple cache peaks with declining heights (Figure 6B).
  ASSERT_GE(f.peaks.size(), 2u);
  EXPECT_GT(f.peaks.front().gflops, f.peaks.back().gflops);
}

TEST(Advisor, McdramRulesFollowSection6) {
  const sim::Platform flat = sim::knl(sim::McdramMode::kFlat);
  AppProfile fits{.footprint_bytes = 8.0 * GiB, .hot_set_bytes = 1.0 * GiB};
  EXPECT_EQ(advise_mcdram(flat, fits).mode, sim::McdramMode::kFlat);

  AppProfile hot_small{.footprint_bytes = 32.0 * GiB, .hot_set_bytes = 4.0 * GiB};
  EXPECT_EQ(advise_mcdram(flat, hot_small).mode, sim::McdramMode::kHybrid);

  AppProfile hot_big{.footprint_bytes = 32.0 * GiB, .hot_set_bytes = 12.0 * GiB};
  EXPECT_EQ(advise_mcdram(flat, hot_big).mode, sim::McdramMode::kCache);

  AppProfile latency{.footprint_bytes = 32.0 * GiB, .hot_set_bytes = 1.0 * GiB,
                     .latency_bound = true};
  EXPECT_EQ(advise_mcdram(flat, latency).mode, sim::McdramMode::kOff);
}

TEST(Advisor, EdramEnergyUsesEquation1) {
  const sim::Platform on = sim::broadwell(sim::EdramMode::kOn);
  AppProfile gaining{.footprint_bytes = 64.0 * MiB, .expected_perf_gain = 0.20,
                     .expected_power_increase = 0.086};
  const EdramRecommendation rec = advise_edram(on, gaining);
  EXPECT_TRUE(rec.enable_for_performance);
  EXPECT_TRUE(rec.enable_for_energy);
  EXPECT_LT(rec.energy_ratio, 1.0);

  AppProfile losing = gaining;
  losing.expected_perf_gain = 0.02;
  EXPECT_FALSE(advise_edram(on, losing).enable_for_energy);
}

TEST(Advisor, EffectiveRegionSpansL3ToEdram) {
  const EffectiveRegion r = edram_effective_region(sim::broadwell(sim::EdramMode::kOn));
  EXPECT_NEAR(r.lo_bytes, (6.0 + 1.0 + 0.125) * MiB, 0.5 * MiB);
  EXPECT_NEAR(r.hi_bytes - r.lo_bytes, 128.0 * MiB, 1.0);
  EXPECT_TRUE(r.contains(64.0 * MiB));
  EXPECT_FALSE(r.contains(1.0 * MiB));
  EXPECT_FALSE(r.contains(1.0 * GiB));
}

TEST(Advisor, NoEdramNoRegion) {
  const EffectiveRegion r = edram_effective_region(sim::broadwell(sim::EdramMode::kOff));
  EXPECT_EQ(r.hi_bytes, 0.0);
}

TEST(Speedup, SummaryMath) {
  const double base[] = {10.0, 20.0};
  const double opm[] = {15.0, 18.0};
  const SpeedupSummary s = summarize_speedup(base, opm);
  EXPECT_DOUBLE_EQ(s.best_base_gflops, 20.0);
  EXPECT_DOUBLE_EQ(s.best_opm_gflops, 18.0);
  EXPECT_DOUBLE_EQ(s.avg_gap_gflops, 1.5);
  EXPECT_DOUBLE_EQ(s.max_gap_gflops, 5.0);
  EXPECT_DOUBLE_EQ(s.avg_speedup, (1.5 + 0.9) / 2.0);
  EXPECT_DOUBLE_EQ(s.max_speedup, 1.5);
  EXPECT_EQ(s.inputs, 2u);
}

TEST(Speedup, RejectsBadInput) {
  const double base[] = {1.0};
  const double opm[] = {1.0, 2.0};
  EXPECT_THROW(summarize_speedup(base, opm), std::invalid_argument);
  const double zero[] = {0.0};
  const double one[] = {1.0};
  EXPECT_THROW(summarize_speedup(zero, one), std::invalid_argument);
}

TEST(Density, GemmDensityShiftsRightWithEdram) {
  const DensityResult off = gemm_density(sim::broadwell(sim::EdramMode::kOff), 256, 7);
  const DensityResult on = gemm_density(sim::broadwell(sim::EdramMode::kOn), 256, 7);
  ASSERT_EQ(off.samples_gflops.size(), 256u);
  // Figure 1's two claims: the near-peak mass grows, the peak barely moves.
  EXPECT_GE(on.near_peak_fraction, off.near_peak_fraction);
  EXPECT_LT(on.best_gflops, off.best_gflops * 1.10);
  EXPECT_GE(on.best_gflops, off.best_gflops * 0.99);
}

TEST(Experiment, DenseSweepCoversGrid) {
  const auto points = sweep_dense(sim::broadwell(sim::EdramMode::kOn),
                                  DenseSweepRequest{.kernel = KernelId::kGemm,
                                                    .n_lo = 256,
                                                    .n_hi = 2304,
                                                    .n_step = 1024,
                                                    .nb_lo = 128,
                                                    .nb_hi = 512,
                                                    .nb_step = 128});
  EXPECT_EQ(points.size(), 3u * 4u);
  for (const auto& p : points) EXPECT_GT(p.gflops, 0.0);
}

TEST(Experiment, DenseSweepThrowsOnAStepThatDoesNotAdvance) {
  // Below one ulp of the upper bound the accumulated axis never moves
  // (1e17 + 1 == 1e17, and 2^53 + 1 rounds back to 2^53): the sweep
  // throws instead of growing the axis until memory runs out.
  const sim::Platform p = sim::knl(sim::McdramMode::kFlat);
  struct Axis {
    double lo, hi, step;
  };
  const Axis stuck[] = {
      {1e17, 1e17, 1},
      {0x1p53, 0x1p53 + 2, 1},
      {0x1p53 - 1, 0x1p53 + 2, 1},  // advances once, to 2^53, then sticks
      {128, 4096, 0},
      {128, 4096, std::numeric_limits<double>::quiet_NaN()},
      {128, std::numeric_limits<double>::infinity(), 128},
  };
  for (const Axis& a : stuck) {
    DenseSweepRequest n_axis;
    n_axis.n_lo = a.lo;
    n_axis.n_hi = a.hi;
    n_axis.n_step = a.step;
    EXPECT_THROW(sweep_dense(p, n_axis), std::invalid_argument) << a.lo << " " << a.step;
    DenseSweepRequest nb_axis;
    nb_axis.nb_lo = a.lo;
    nb_axis.nb_hi = a.hi;
    nb_axis.nb_step = a.step;
    EXPECT_THROW(sweep_dense(p, nb_axis), std::invalid_argument) << a.lo << " " << a.step;
  }
  // One ulp of the larger bound is enough.
  EXPECT_TRUE(dense_axis_advances(0x1p53, 0x1p53 + 2, 2));
  EXPECT_FALSE(dense_axis_advances(0x1p53, 0x1p53 + 2, 1));
  EXPECT_FALSE(dense_axis_advances(-1e17, 1, 1));
  // The rule does not cap an axis at floor((hi - lo) / step) + 1 points:
  // here that count is 171, and accumulating the step gives 172 values.
  EXPECT_EQ(sweep_dense(p, {.kernel = KernelId::kGemm,
                            .n_lo = 185.9062658947177,
                            .n_hi = 203.0062658947177,
                            .n_step = 0.1,
                            .nb_lo = 128,
                            .nb_hi = 128,
                            .nb_step = 128})
                .size(),
            172u);
}

TEST(Experiment, SparseSweepCoversSuite) {
  const auto suite = sparse::SyntheticCollection::test_suite(32, 100000);
  const auto points = sweep_sparse(sim::knl(sim::McdramMode::kCache),
                                   SparseSweepRequest{.kernel = KernelId::kSpmv}, suite);
  EXPECT_EQ(points.size(), suite.size());
  for (const auto& p : points) {
    EXPECT_GT(p.gflops, 0.0);
    EXPECT_GT(p.rows, 0.0);
    EXPECT_GE(p.input_id, 0);
  }
}

TEST(Experiment, TableInputsArePairedAcrossModes) {
  const auto suite = sparse::SyntheticCollection::test_suite(16, 50000);
  const auto a = table_inputs_gflops(sim::knl(sim::McdramMode::kOff), KernelId::kSpmv, suite);
  const auto b = table_inputs_gflops(sim::knl(sim::McdramMode::kFlat), KernelId::kSpmv, suite);
  EXPECT_EQ(a.size(), b.size());
  EXPECT_FALSE(a.empty());
}

TEST(Experiment, PowerRowsProduceFiniteAverages) {
  const auto suite = sparse::SyntheticCollection::test_suite(16, 50000);
  const auto rows = power_rows(sim::broadwell(sim::EdramMode::kOn), suite);
  EXPECT_EQ(rows.size(), 8u);
  for (const auto& r : rows) {
    EXPECT_GT(r.package_watts, 0.0);
    EXPECT_GE(r.dram_watts, 0.0);
    EXPECT_LT(r.package_watts, 200.0);
  }
}

}  // namespace
}  // namespace opm::core
