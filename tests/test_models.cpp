#include <gtest/gtest.h>

#include <cmath>

#include "kernels/cholesky.hpp"
#include "kernels/gemm.hpp"
#include "kernels/model.hpp"
#include "kernels/spmv.hpp"
#include "kernels/stencil.hpp"
#include "kernels/stream.hpp"
#include "sparse/generators.hpp"
#include "sparse/stats.hpp"
#include "trace/recorder.hpp"
#include "trace/reuse.hpp"
#include "util/rng.hpp"

/// Cross-validation of the analytical traffic models against exact
/// reuse-distance measurement of the instrumented kernels' real address
/// streams. The analytic miss curves only need to be right to within a
/// small factor — they feed a throughput model whose outputs the paper
/// reads on log-scaled axes — so tolerances here are factor bounds, not
/// percentages. This is the evidence that the large sweeps (which only use
/// the analytic path) stand on measured ground.
namespace opm::kernels {
namespace {

TEST(CapacityMissFraction, Shape) {
  EXPECT_NEAR(capacity_miss_fraction(100.0, 100.0), 0.5, 1e-12);
  EXPECT_LT(capacity_miss_fraction(100.0, 1000.0), 0.01);
  EXPECT_GT(capacity_miss_fraction(1000.0, 100.0), 0.99);
  EXPECT_EQ(capacity_miss_fraction(0.0, 100.0), 0.0);
  EXPECT_EQ(capacity_miss_fraction(100.0, 0.0), 1.0);
}

TEST(CapacityMissFraction, MonotoneInWorkingSet) {
  double prev = 0.0;
  for (double ws = 1.0; ws < 1e9; ws *= 2.0) {
    const double f = capacity_miss_fraction(ws, 1e6);
    EXPECT_GE(f, prev);
    prev = f;
  }
}

TEST(BuildWorkload, ChannelCountMatchesPlatform) {
  const sim::Platform p = sim::broadwell(sim::EdramMode::kOn);
  const LocalityModel m = stream_model(p, 1e6);
  const sim::Workload w = build_workload(p, m);
  EXPECT_EQ(w.channels.size(), p.tiers.size() + p.devices.size());
  EXPECT_EQ(sim::channel_name(p, 0), "L1");
  EXPECT_EQ(sim::channel_name(p, w.channels.size() - 1), "DDR3-2133");
}

TEST(BuildWorkload, FlatModeSplitsBottomTraffic) {
  const sim::Platform p = sim::knl(sim::McdramMode::kFlat);
  // Footprint 24 GB: 16 on MCDRAM, 8 on DDR, with the split penalty armed.
  const LocalityModel m = stream_model(p, 1e9);  // 24 GB
  const sim::Workload w = build_workload(p, m);
  const auto& mcdram = w.channels[w.channels.size() - 2];
  const auto& ddr = w.channels.back();
  EXPECT_EQ(sim::channel_name(p, w.channels.size() - 2), "MCDRAM");
  EXPECT_GT(mcdram.bytes, 0.0);
  EXPECT_GT(ddr.bytes, 0.0);
  // The split follows bytes, not the decimal footprint: 16 GiB of the
  /// 24e9-byte footprint lives on MCDRAM.
  const double expected = static_cast<double>(p.flat_opm_bytes) / (24.0e9);
  EXPECT_NEAR(mcdram.bytes / (mcdram.bytes + ddr.bytes), expected, 0.01);
  EXPECT_GT(mcdram.penalty, 1.0);
  EXPECT_GT(ddr.penalty, 1.0);
}

TEST(BuildWorkload, FlatModeNoPenaltyWhenFits) {
  const sim::Platform p = sim::knl(sim::McdramMode::kFlat);
  const LocalityModel m = stream_model(p, 1e7);  // 240 MB
  const sim::Workload w = build_workload(p, m);
  EXPECT_DOUBLE_EQ(w.channels.back().penalty, 1.0);
  EXPECT_NEAR(w.channels.back().bytes, 0.0, 1e-6);  // all on MCDRAM
}

TEST(Predict, ReportsBandwidthSplit) {
  const sim::Platform p = sim::knl(sim::McdramMode::kFlat);
  const Prediction pred = predict(p, stream_model(p, 1e7));
  EXPECT_GT(pred.opm_gbps, 0.0);
  EXPECT_NEAR(pred.ddr_gbps, 0.0, 1e-6);
  EXPECT_GT(pred.seconds, 0.0);
  EXPECT_GT(pred.gflops, 0.0);
}

// ---- trace-vs-model cross validation ------------------------------------

/// Measures the true miss curve of an instrumented kernel via reuse
/// distance and compares it with the model's miss_bytes at matching
/// capacities. `tolerance` is a multiplicative bound both ways.
void expect_curves_close(const trace::ReuseDistanceAnalyzer& measured,
                         const LocalityModel& model, std::initializer_list<double> capacities,
                         double tolerance) {
  for (double cap : capacities) {
    const double real = static_cast<double>(
        measured.miss_bytes(static_cast<std::uint64_t>(cap)));
    const double predicted = model.miss_bytes(cap);
    EXPECT_LT(predicted, real * tolerance) << "capacity " << cap;
    EXPECT_GT(predicted * tolerance, real) << "capacity " << cap;
  }
}

TEST(ModelValidation, StreamMatchesTrace) {
  const sim::Platform p = sim::broadwell(sim::EdramMode::kOff);
  const std::size_t n = 16384;  // 384 KB footprint
  std::vector<double> a(n), b(n), c(n);
  trace::ReuseDistanceAnalyzer reuse;
  // Two passes: the second exposes the steady-state reuse behaviour.
  for (int pass = 0; pass < 2; ++pass) stream_triad_instrumented(a, b, c, 1.0, reuse);

  LocalityModel m = stream_model(p, static_cast<double>(n));
  m.total_bytes *= 2.0;  // two passes
  const double fp = m.footprint;
  const double bytes = m.total_bytes;
  m.miss_bytes = [bytes, fp](double cap) {
    return bytes * capacity_miss_fraction(fp, cap);
  };
  // Below the footprint everything misses; above it only the cold pass.
  const double small = 64.0 * 1024;
  const double large = 4.0 * 1024 * 1024;
  EXPECT_NEAR(m.miss_bytes(small), static_cast<double>(reuse.miss_bytes(64 * 1024)), bytes * 0.30);
  // At large capacity the trace shows only cold misses (half the 2-pass
  // traffic); the smooth model may approach zero, so bound from above.
  EXPECT_LT(m.miss_bytes(large), static_cast<double>(reuse.miss_bytes(4 * 1024 * 1024)) * 1.2 +
                                     bytes * 0.05);
}

TEST(ModelValidation, GemmTrafficWithinFactor) {
  const sim::Platform p = sim::broadwell(sim::EdramMode::kOff);
  const std::size_t n = 96, nb = 32;
  dense::Matrix a(n, n), b(n, n), c(n, n);
  a.fill_random(1);
  b.fill_random(2);
  trace::ReuseDistanceAnalyzer reuse;
  gemm_instrumented(a, b, c, nb, reuse);

  const LocalityModel m = gemm_model(p, static_cast<double>(n), static_cast<double>(nb));
  // Mid-capacity: smaller than the 221 KB footprint, larger than a tile
  // set (3 * 32² * 8 = 24 KB): the blocked-traffic regime.
  expect_curves_close(reuse, m, {48.0 * 1024, 96.0 * 1024}, 4.0);
}

TEST(ModelValidation, GemmColdTrafficAtLargeCapacity) {
  const sim::Platform p = sim::broadwell(sim::EdramMode::kOff);
  const std::size_t n = 64, nb = 16;
  dense::Matrix a(n, n), b(n, n), c(n, n);
  a.fill_random(3);
  b.fill_random(4);
  trace::ReuseDistanceAnalyzer reuse;
  gemm_instrumented(a, b, c, nb, reuse);
  const LocalityModel m = gemm_model(p, static_cast<double>(n), static_cast<double>(nb));
  // Everything fits: both must collapse to ~cold footprint.
  const double cap = 8.0 * 1024 * 1024;
  const double real = static_cast<double>(reuse.miss_bytes(static_cast<std::uint64_t>(cap)));
  EXPECT_LT(m.miss_bytes(cap), real * 4.0);
  EXPECT_GT(m.miss_bytes(cap) * 4.0, real);
}

TEST(ModelValidation, SpmvGatherTrafficTracksLocality) {
  const sim::Platform p = sim::broadwell(sim::EdramMode::kOff);
  // Two matrices with identical shape, different locality.
  const sparse::Csr banded = sparse::make_banded(4096, 8, 8.0, 5);
  const sparse::Csr random = sparse::make_random_uniform(4096, 8.0, 5);
  std::vector<double> x(4096, 1.0), y(4096);

  trace::ReuseDistanceAnalyzer reuse_banded, reuse_random;
  trace::NullRecorder null;
  (void)null;
  spmv_csr_instrumented(banded, x, y, reuse_banded);
  spmv_csr_instrumented(random, x, y, reuse_random);

  // At a capacity holding the matrix stream lines but not retaining the
  // scattered vector, the random structure must miss more — in both the
  // measured traces and the models.
  const double cap = 16.0 * 1024;
  EXPECT_GT(reuse_random.miss_bytes(static_cast<std::uint64_t>(cap)),
            reuse_banded.miss_bytes(static_cast<std::uint64_t>(cap)));

  const auto sb = sparse::compute_stats(banded);
  const auto sr = sparse::compute_stats(random);
  const LocalityModel mb = spmv_model(
      p, {.rows = 4096, .nnz = static_cast<double>(sb.nnz), .locality = 0.95, .row_cv = 0.2});
  const LocalityModel mr = spmv_model(
      p, {.rows = 4096, .nnz = static_cast<double>(sr.nnz), .locality = 0.05, .row_cv = 0.2});
  EXPECT_GT(mr.miss_bytes(cap), mb.miss_bytes(cap));
}

TEST(ModelValidation, StencilStreamFloorMatchesTrace) {
  const sim::Platform p = sim::broadwell(sim::EdramMode::kOff);
  StencilGrid g(40, 40, 40);
  g.seed(1);
  trace::ReuseDistanceAnalyzer reuse;
  stencil_step_instrumented(g, 0, 0, reuse);

  // Big capacity: only cold misses remain. The step touches the whole
  // current grid (8·cells via neighbour reach) but only the interior of
  // the previous grid, so the floor sits between 4 and 16 bytes/cell.
  const double cells = 40.0 * 40.0 * 40.0;
  const double cold = static_cast<double>(reuse.miss_bytes(64 * 1024 * 1024));
  EXPECT_GT(cold, 4.0 * cells);
  EXPECT_LT(cold, 16.0 * cells);

  const LocalityModel m = stencil_model(p, 40.0, /*block_working_set=*/40.0 * 40 * 17 * 8);
  EXPECT_LT(m.miss_bytes(64.0 * 1024 * 1024), 24.0 * cells);
}

TEST(ModelValidation, TraceDrivenStreamSeesEdramRegion) {
  // End-to-end: run the instrumented TRIAD through the full Broadwell
  // MemorySystem and confirm the eDRAM serves the 8 MB steady state.
  sim::MemorySystem ms(sim::broadwell(sim::EdramMode::kOn));
  trace::SystemRecorder rec(ms);
  const std::size_t n = (8 * 1024 * 1024) / 24;  // ~8 MB over 3 arrays
  std::vector<double> a(n), b(n), c(n);
  for (int pass = 0; pass < 3; ++pass) stream_triad_instrumented(a, b, c, 1.0, rec);
  const auto rep = ms.report();
  EXPECT_GT(rep.bytes_from("eDRAM-L4"), rep.devices.back().bytes_served);
}

}  // namespace
}  // namespace opm::kernels
