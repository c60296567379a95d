#include <gtest/gtest.h>

#include <vector>

#include "kernels/csr5.hpp"
#include "kernels/spmv.hpp"
#include "kernels/sptrans.hpp"
#include "kernels/sptrsv.hpp"
#include "sparse/generators.hpp"
#include "trace/recorder.hpp"
#include "util/rng.hpp"

namespace opm::kernels {
namespace {

std::vector<double> random_vector(std::size_t n, std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  std::vector<double> v(n);
  for (auto& x : v) x = rng.uniform(-1.0, 1.0);
  return v;
}

double max_diff(std::span<const double> a, std::span<const double> b) {
  double worst = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) worst = std::max(worst, std::abs(a[i] - b[i]));
  return worst;
}

// ---------------------------------------------------------------- SpMV ----

TEST(Spmv, CsrMatchesReference) {
  const sparse::Csr a = sparse::make_random_uniform(200, 8.0, 1);
  const auto x = random_vector(200, 2);
  std::vector<double> y1(200), y2(200);
  spmv_csr(a, x, y1);
  sparse::spmv_reference(a, x, y2);
  EXPECT_LT(max_diff(y1, y2), 1e-12);
}

TEST(Spmv, InstrumentedMatchesPlain) {
  const sparse::Csr a = sparse::make_banded(100, 4, 5.0, 3);
  const auto x = random_vector(100, 4);
  std::vector<double> y1(100), y2(100);
  spmv_csr(a, x, y1);
  trace::NullRecorder null;
  spmv_csr_instrumented(a, x, y2, null);
  EXPECT_EQ(max_diff(y1, y2), 0.0);
}

/// CSR5 must be exact for every (omega, sigma) and structural corner case.
struct Csr5Case {
  int omega;
  int sigma;
};
class Csr5Param : public ::testing::TestWithParam<Csr5Case> {};

TEST_P(Csr5Param, MatchesReferenceOnVariedStructures) {
  const auto [omega, sigma] = GetParam();
  for (const sparse::Csr& a :
       {sparse::make_random_uniform(150, 7.0, 5), sparse::make_rmat(128, 6.0, 6),
        sparse::make_poisson2d(13), sparse::make_arrow(90, 5, 7)}) {
    const auto x = random_vector(static_cast<std::size_t>(a.cols), 8);
    std::vector<double> y1(static_cast<std::size_t>(a.rows));
    std::vector<double> y2(static_cast<std::size_t>(a.rows));
    const Csr5Matrix m = Csr5Matrix::build(a, omega, sigma);
    m.spmv(x, y1);
    sparse::spmv_reference(a, x, y2);
    ASSERT_LT(max_diff(y1, y2), 1e-10) << "omega=" << omega << " sigma=" << sigma;
  }
}

INSTANTIATE_TEST_SUITE_P(Shapes, Csr5Param,
                         ::testing::Values(Csr5Case{4, 16}, Csr5Case{4, 4}, Csr5Case{8, 32},
                                           Csr5Case{2, 2}, Csr5Case{1, 1}, Csr5Case{16, 3}));

TEST(Csr5, HandlesEmptyRows) {
  sparse::Coo coo;
  coo.rows = coo.cols = 10;
  coo.push(0, 0, 1.0);
  coo.push(5, 3, 2.0);  // rows 1-4 and 6-9 empty
  coo.push(5, 5, 3.0);
  coo.push(9, 9, 4.0);
  const sparse::Csr a = sparse::coo_to_csr(coo);
  const Csr5Matrix m = Csr5Matrix::build(a, 2, 2);
  const auto x = random_vector(10, 9);
  std::vector<double> y1(10), y2(10);
  m.spmv(x, y1);
  sparse::spmv_reference(a, x, y2);
  EXPECT_LT(max_diff(y1, y2), 1e-12);
}

TEST(Csr5, HandlesEmptyMatrix) {
  sparse::Coo coo;
  coo.rows = coo.cols = 4;
  const sparse::Csr a = sparse::coo_to_csr(coo);
  const Csr5Matrix m = Csr5Matrix::build(a);
  const auto x = random_vector(4, 10);
  std::vector<double> y(4, 99.0);
  m.spmv(x, y);
  for (double v : y) EXPECT_EQ(v, 0.0);
}

TEST(Csr5, SingleDenseRow) {
  sparse::Coo coo;
  coo.rows = coo.cols = 64;
  for (sparse::index_t c = 0; c < 64; ++c) coo.push(0, c, 1.0);
  const sparse::Csr a = sparse::coo_to_csr(coo);
  const Csr5Matrix m = Csr5Matrix::build(a, 4, 4);
  std::vector<double> x(64, 1.0), y1(64), y2(64);
  m.spmv(x, y1);
  sparse::spmv_reference(a, x, y2);
  EXPECT_LT(max_diff(y1, y2), 1e-12);
}

TEST(Csr5, InstrumentedMatchesPlain) {
  const sparse::Csr a = sparse::make_rmat(300, 9.0, 13);
  const Csr5Matrix m = Csr5Matrix::build(a, 4, 8);
  const auto x = random_vector(static_cast<std::size_t>(a.cols), 14);
  std::vector<double> y1(static_cast<std::size_t>(a.rows));
  std::vector<double> y2(static_cast<std::size_t>(a.rows));
  m.spmv(x, y1);
  trace::NullRecorder null;
  m.spmv_instrumented(x, y2, null);
  EXPECT_EQ(max_diff(y1, y2), 0.0);
}

TEST(Csr5, InstrumentedEmitsTileOrderedMatrixStream) {
  // The tiled storage reads values/indices in storage order: consecutive
  // val_base addresses, unlike CSR's per-row walk on skewed matrices.
  const sparse::Csr a = sparse::make_random_uniform(200, 6.0, 15);
  const Csr5Matrix m = Csr5Matrix::build(a, 2, 4);
  const auto x = random_vector(200, 16);
  std::vector<double> y(200);
  trace::VectorRecorder rec;
  m.spmv_instrumented(x, y, rec);
  EXPECT_GT(rec.events.size(), a.nnz() * 3);  // col + val + gather per nnz
}

TEST(Csr5, BytesExceedCsr) {
  const sparse::Csr a = sparse::make_random_uniform(200, 10.0, 11);
  const Csr5Matrix m = Csr5Matrix::build(a);
  EXPECT_GE(m.bytes(), a.bytes());  // descriptors add metadata
  EXPECT_EQ(m.nnz(), a.nnz());
}

TEST(Csr5, RejectsBadTileShape) {
  const sparse::Csr a = sparse::make_poisson2d(4);
  EXPECT_THROW(Csr5Matrix::build(a, 0, 4), std::invalid_argument);
  EXPECT_THROW(Csr5Matrix::build(a, 4, 0), std::invalid_argument);
}

// ------------------------------------------------------------- SpTRANS ----

class SptransParam : public ::testing::TestWithParam<int> {};

TEST_P(SptransParam, ScanMatchesSerialReference) {
  const sparse::Csr a = sparse::make_rmat(256, 5.0, GetParam());
  const sparse::Csc expected = sparse::csr_to_csc(a);
  const sparse::Csc got = sptrans_scan(a, GetParam() % 7 + 1);
  EXPECT_EQ(got.col_ptr, expected.col_ptr);
  EXPECT_EQ(got.row_idx, expected.row_idx);
  EXPECT_EQ(got.values, expected.values);
}

TEST_P(SptransParam, MergeMatchesSerialReference) {
  const sparse::Csr a = sparse::make_random_uniform(300, 6.0, GetParam() + 100);
  const sparse::Csc expected = sparse::csr_to_csc(a);
  const sparse::Csc got = sptrans_merge(a, static_cast<std::size_t>(64 << (GetParam() % 4)));
  EXPECT_EQ(got.col_ptr, expected.col_ptr);
  EXPECT_EQ(got.row_idx, expected.row_idx);
  EXPECT_EQ(got.values, expected.values);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SptransParam, ::testing::Values(1, 2, 3, 4, 5));

TEST(Sptrans, TransposeTwiceIsIdentity) {
  const sparse::Csr a = sparse::make_banded(200, 6, 8.0, 31);
  const sparse::Csc at = sptrans_scan(a, 4);
  // Interpret At as CSR and transpose again.
  const sparse::Csr at_csr = sparse::csc_as_csr_of_transpose(at);
  const sparse::Csc att = sptrans_scan(at_csr, 4);
  const sparse::Csr back = sparse::csc_as_csr_of_transpose(att);
  // back is (Aᵀ)ᵀ read through two view changes = A.
  EXPECT_TRUE(sparse::approx_equal(a, back, 0.0));
}

TEST(Sptrans, InstrumentedMatchesScan) {
  const sparse::Csr a = sparse::make_poisson2d(12);
  trace::NullRecorder null;
  const sparse::Csc got = sptrans_scan_instrumented(a, null);
  const sparse::Csc expected = sparse::csr_to_csc(a);
  EXPECT_EQ(got.row_idx, expected.row_idx);
  EXPECT_EQ(got.values, expected.values);
}

TEST(Sptrans, RejectsBadArguments) {
  const sparse::Csr a = sparse::make_poisson2d(4);
  EXPECT_THROW(sptrans_scan(a, 0), std::invalid_argument);
  EXPECT_THROW(sptrans_merge(a, 0), std::invalid_argument);
}

// -------------------------------------------------------------- SpTRSV ----

sparse::Csr random_lower(sparse::index_t n, double degree, std::uint64_t seed) {
  return sparse::lower_triangle_with_diagonal(sparse::make_random_uniform(n, degree, seed), 2.0);
}

TEST(Sptrsv, LevelScheduleCoversAllRowsOnce) {
  const sparse::Csr l = random_lower(300, 6.0, 1);
  const LevelSchedule s = build_level_schedule(l);
  EXPECT_EQ(s.order.size(), 300u);
  std::vector<bool> seen(300, false);
  for (auto r : s.order) {
    EXPECT_FALSE(seen[static_cast<std::size_t>(r)]);
    seen[static_cast<std::size_t>(r)] = true;
  }
}

TEST(Sptrsv, DependenciesRespectLevels) {
  const sparse::Csr l = random_lower(200, 5.0, 2);
  const LevelSchedule s = build_level_schedule(l);
  std::vector<std::size_t> level_of(200);
  for (std::size_t lev = 0; lev < s.levels(); ++lev)
    for (sparse::offset_t i = s.level_ptr[lev]; i < s.level_ptr[lev + 1]; ++i)
      level_of[static_cast<std::size_t>(s.order[static_cast<std::size_t>(i)])] = lev;
  for (sparse::index_t r = 0; r < l.rows; ++r)
    for (sparse::offset_t k = l.row_ptr[static_cast<std::size_t>(r)];
         k < l.row_ptr[static_cast<std::size_t>(r) + 1]; ++k) {
      const sparse::index_t c = l.col_idx[static_cast<std::size_t>(k)];
      if (c < r) {
        EXPECT_LT(level_of[static_cast<std::size_t>(c)], level_of[static_cast<std::size_t>(r)]);
      }
    }
}

TEST(Sptrsv, TridiagonalIsSequential) {
  const sparse::Csr l = sparse::lower_triangle_with_diagonal(
      sparse::make_tridiag_perturbed(64, 0.0, 3), 2.0);
  const LevelSchedule s = build_level_schedule(l);
  EXPECT_EQ(s.levels(), 64u);  // strict chain
  EXPECT_NEAR(s.average_parallelism(), 1.0, 1e-12);
}

TEST(Sptrsv, DiagonalMatrixIsOneLevel) {
  sparse::Coo coo;
  coo.rows = coo.cols = 32;
  for (sparse::index_t i = 0; i < 32; ++i) coo.push(i, i, 3.0);
  const LevelSchedule s = build_level_schedule(sparse::coo_to_csr(coo));
  EXPECT_EQ(s.levels(), 1u);
  EXPECT_DOUBLE_EQ(s.average_parallelism(), 32.0);
}

class SptrsvParam : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SptrsvParam, LevelsetSolvesSystem) {
  const sparse::Csr l = random_lower(250, 4.0 + static_cast<double>(GetParam()), GetParam());
  const auto b = random_vector(250, GetParam() * 7 + 1);
  std::vector<double> x1(250), x2(250);
  const LevelSchedule s = build_level_schedule(l);
  sptrsv_levelset(l, s, b, x1);
  sptrsv_reference(l, b, x2);
  EXPECT_LT(max_diff(x1, x2), 1e-9);
  EXPECT_LT(sptrsv_residual(l, x1, b), 1e-8);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SptrsvParam, ::testing::Values(1, 2, 3, 4, 5, 6));

TEST(Sptrsv, RejectsNonLowerTriangular) {
  const sparse::Csr a = sparse::make_poisson2d(4);  // has upper entries
  EXPECT_THROW(build_level_schedule(a), std::invalid_argument);
}

TEST(Sptrsv, ParallelismEstimateTracksReality) {
  // For small materialized suite members, the family estimate must agree
  // with the real level schedule within an order of magnitude.
  const auto suite = sparse::SyntheticCollection::test_suite(24, 20000);
  int checked = 0;
  for (std::size_t i = 0; i < suite.size() && checked < 6; ++i) {
    const auto& d = suite.descriptor(i);
    const sparse::Csr l =
        sparse::lower_triangle_with_diagonal(suite.materialize(i), 2.0);
    const LevelSchedule s = build_level_schedule(l);
    const double real = s.average_parallelism();
    const double est = estimate_sptrsv_parallelism(d);
    EXPECT_LT(est, real * 40.0) << d.name;
    EXPECT_GT(est * 400.0, real) << d.name;
    ++checked;
  }
  EXPECT_GE(checked, 4);
}

// ------------------------------------------------------ analytic models ----

TEST(SparseModels, MissCurvesMonotone) {
  const sim::Platform p = sim::knl(sim::McdramMode::kCache);
  const LocalityModel models[] = {
      spmv_model(p, {.rows = 1e5, .nnz = 2e6, .locality = 0.5, .row_cv = 0.3}),
      sptrans_model(p, {.rows = 1e5, .nnz = 2e6, .locality = 0.5}),
      sptrsv_model(p, {.rows = 1e5, .nnz = 2e6, .locality = 0.5, .avg_parallelism = 100}),
  };
  for (const auto& m : models) {
    double prev = m.miss_bytes(1 << 12);
    for (double c = 1 << 13; c < 1e12; c *= 4.0) {
      const double miss = m.miss_bytes(c);
      EXPECT_LE(miss, prev * 1.0000001);
      prev = miss;
    }
  }
}

TEST(SparseModels, LocalityReducesGatherTraffic) {
  const sim::Platform p = sim::broadwell(sim::EdramMode::kOn);
  const auto local = spmv_model(p, {.rows = 1e5, .nnz = 2e6, .locality = 0.95, .row_cv = 0.2});
  const auto scattered =
      spmv_model(p, {.rows = 1e5, .nnz = 2e6, .locality = 0.05, .row_cv = 0.2});
  EXPECT_LT(local.miss_bytes(1 << 16), scattered.miss_bytes(1 << 16));
}

TEST(SparseModels, Csr5ToleratesImbalanceBetter) {
  const sim::Platform p = sim::knl(sim::McdramMode::kFlat);
  const SpmvShape skewed{.rows = 1e5, .nnz = 2e6, .locality = 0.4, .row_cv = 4.0, .csr5 = true};
  SpmvShape skewed_csr = skewed;
  skewed_csr.csr5 = false;
  EXPECT_GT(spmv_model(p, skewed).compute_efficiency,
            spmv_model(p, skewed_csr).compute_efficiency);
}

TEST(SparseModels, SptrsvParallelismControlsMlp) {
  const sim::Platform p = sim::knl(sim::McdramMode::kFlat);
  const auto serial =
      sptrsv_model(p, {.rows = 1e6, .nnz = 5e6, .locality = 0.9, .avg_parallelism = 2});
  const auto wide =
      sptrsv_model(p, {.rows = 1e6, .nnz = 5e6, .locality = 0.9, .avg_parallelism = 1e5});
  EXPECT_LT(serial.mlp_max, wide.mlp_max);
  EXPECT_LT(serial.compute_efficiency, wide.compute_efficiency);
}

}  // namespace
}  // namespace opm::kernels
