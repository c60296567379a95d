#include <gtest/gtest.h>

#include <functional>
#include <numeric>
#include <sstream>

#include "sparse/collection.hpp"
#include "sparse/formats.hpp"
#include "sparse/generators.hpp"
#include "sparse/mm_io.hpp"
#include "sparse/segmented_sort.hpp"
#include "sparse/stats.hpp"
#include "util/fingerprint.hpp"
#include "util/rng.hpp"

namespace opm::sparse {
namespace {

Coo sample_coo() {
  Coo coo;
  coo.rows = 3;
  coo.cols = 3;
  coo.push(0, 2, 3.0);
  coo.push(0, 0, 1.0);
  coo.push(2, 1, 5.0);
  coo.push(1, 1, 4.0);
  return coo;
}

/// Digest of every byte a generator hands back: shape, row_ptr, col_idx
/// and values.
std::string csr_digest(const Csr& m) {
  util::Hasher128 h;
  h.add(static_cast<std::int64_t>(m.rows)).add(static_cast<std::int64_t>(m.cols));
  for (const offset_t v : m.row_ptr) h.add(static_cast<std::int64_t>(v));
  for (const index_t v : m.col_idx) h.add(static_cast<std::int64_t>(v));
  for (const double v : m.values) h.add(v);
  return h.digest().hex();
}

TEST(Generators, OutputsArePinnedByDigest) {
  // Every generator at fixed seeds, including the shapes the paper
  // regeneration builds (the 60000-row random matrix, the 20000-, 16384-
  // and 8192-row banded and random ones). The digests were taken from the
  // std::set row builders; any change to a generator's draw order or
  // output bytes moves them.
  const std::vector<std::pair<const char*, std::function<Csr()>>> cases = {
      {"5748f1ed186d1cd111d82ef2a141b171", [] { return make_banded(20000, 16, 10.0, 1); }},
      {"7884e5f11d584cbdc8b88ef1468b746e", [] { return make_banded(8192, 8, 8.0, 5); }},
      {"696e37ff715e4321e17e38a370fee498", [] { return make_banded(16384, 32, 12.0, 42); }},
      {"94b158c39703065b7113b017d2c6d0b4", [] { return make_random_uniform(60000, 12.0, 3); }},
      {"0168320baee0c95ff4c1f25ba305d325", [] { return make_random_uniform(20000, 10.0, 1); }},
      {"ad42dcc688d6f96bea4ba35625eb5e3b", [] { return make_random_uniform(8192, 8.0, 5); }},
      {"ec75ca32906f3505c882a3a901cfb7eb", [] { return make_random_uniform(50, 40.0, 9); }},
      {"f2c8992f7d7bf1169c9afa2acb9161ab", [] { return make_rmat(4000, 8.0, 7); }},
      {"120b51f614bc4912809e77c7a4d45189", [] { return make_block_diagonal(5000, 64, 0.2, 11); }},
      {"0cd83dfc151cc1d2196c21c12ee4d530", [] { return make_poisson2d(70); }},
      {"1d9921124f7f17508a78bf25ef3be320", [] { return make_poisson3d(20); }},
      {"48bb071dd034db7df3a2d4ea4c3c7320", [] { return make_arrow(9000, 12, 13); }},
      {"910a14c38c662dd98b4560281dd11f18", [] { return make_tridiag_perturbed(12000, 3.0, 17); }},
  };
  for (std::size_t i = 0; i < cases.size(); ++i)
    EXPECT_EQ(csr_digest(cases[i].second()), cases[i].first) << "case " << i;
}

TEST(Formats, CooToCsrSortsColumns) {
  const Csr a = coo_to_csr(sample_coo());
  EXPECT_EQ(a.rows, 3);
  EXPECT_EQ(a.nnz(), 4u);
  EXPECT_EQ(a.row_ptr, (std::vector<offset_t>{0, 2, 3, 4}));
  EXPECT_EQ(a.col_idx, (std::vector<index_t>{0, 2, 1, 1}));
  EXPECT_EQ(a.values, (std::vector<double>{1.0, 3.0, 4.0, 5.0}));
}

TEST(Formats, CooToCsrSumsDuplicates) {
  Coo coo;
  coo.rows = coo.cols = 2;
  coo.push(0, 1, 1.0);
  coo.push(0, 1, 2.5);
  const Csr a = coo_to_csr(coo);
  EXPECT_EQ(a.nnz(), 1u);
  EXPECT_DOUBLE_EQ(a.values[0], 3.5);
}

TEST(Formats, CooToCsrRejectsOutOfRange) {
  Coo coo;
  coo.rows = coo.cols = 2;
  coo.push(0, 5, 1.0);
  EXPECT_THROW(coo_to_csr(coo), std::out_of_range);
}

TEST(Formats, CsrCscRoundTrip) {
  const Csr a = coo_to_csr(sample_coo());
  const Csc c = csr_to_csc(a);
  const Csr back = csc_to_csr(c);
  EXPECT_TRUE(approx_equal(a, back, 0.0));
}

TEST(Formats, CscAsTransposeView) {
  const Csr a = coo_to_csr(sample_coo());
  const Csr at = csc_as_csr_of_transpose(csr_to_csc(a));
  // (i, j) of A appears as (j, i) of At.
  EXPECT_EQ(at.rows, a.cols);
  const Csr att = csc_as_csr_of_transpose(csr_to_csc(at));
  EXPECT_TRUE(approx_equal(a, att, 0.0));
}

TEST(Formats, LowerTriangleForcesDiagonal) {
  Coo coo;
  coo.rows = coo.cols = 3;
  coo.push(0, 0, 2.0);
  coo.push(1, 0, 1.0);   // no (1,1) diagonal
  coo.push(2, 2, 0.0);   // zero diagonal must be replaced
  coo.push(0, 2, 9.0);   // upper triangle must be dropped
  const Csr l = lower_triangle_with_diagonal(coo_to_csr(coo), 7.0);
  EXPECT_EQ(l.nnz(), 4u);  // (0,0) (1,0) (1,1) (2,2)
  double diag1 = 0.0, diag2 = 0.0;
  for (offset_t k = l.row_ptr[1]; k < l.row_ptr[2]; ++k)
    if (l.col_idx[static_cast<std::size_t>(k)] == 1) diag1 = l.values[static_cast<std::size_t>(k)];
  for (offset_t k = l.row_ptr[2]; k < l.row_ptr[3]; ++k)
    if (l.col_idx[static_cast<std::size_t>(k)] == 2) diag2 = l.values[static_cast<std::size_t>(k)];
  EXPECT_DOUBLE_EQ(diag1, 7.0);
  EXPECT_DOUBLE_EQ(diag2, 7.0);
}

TEST(Formats, SpmvReference) {
  const Csr a = coo_to_csr(sample_coo());
  const std::vector<double> x = {1.0, 2.0, 3.0};
  std::vector<double> y(3);
  spmv_reference(a, x, y);
  EXPECT_DOUBLE_EQ(y[0], 1.0 * 1 + 3.0 * 3);
  EXPECT_DOUBLE_EQ(y[1], 4.0 * 2);
  EXPECT_DOUBLE_EQ(y[2], 5.0 * 2);
}

TEST(MatrixMarket, ReadsGeneralReal) {
  std::istringstream in(
      "%%MatrixMarket matrix coordinate real general\n"
      "% comment line\n"
      "3 3 2\n"
      "1 1 2.5\n"
      "3 2 -1\n");
  const Coo coo = read_matrix_market(in);
  EXPECT_EQ(coo.rows, 3);
  EXPECT_EQ(coo.nnz(), 2u);
  EXPECT_EQ(coo.row[1], 2);
  EXPECT_EQ(coo.col[1], 1);
  EXPECT_DOUBLE_EQ(coo.val[0], 2.5);
}

TEST(MatrixMarket, ExpandsSymmetric) {
  std::istringstream in(
      "%%MatrixMarket matrix coordinate real symmetric\n"
      "2 2 2\n"
      "1 1 1.0\n"
      "2 1 5.0\n");
  const Coo coo = read_matrix_market(in);
  EXPECT_EQ(coo.nnz(), 3u);  // diagonal not mirrored, off-diagonal is
}

TEST(MatrixMarket, PatternGetsUnitValues) {
  std::istringstream in(
      "%%MatrixMarket matrix coordinate pattern general\n"
      "2 2 1\n"
      "2 2\n");
  const Coo coo = read_matrix_market(in);
  EXPECT_DOUBLE_EQ(coo.val[0], 1.0);
}

TEST(MatrixMarket, RejectsGarbage) {
  std::istringstream bad_banner("%%NotMM matrix coordinate real general\n1 1 0\n");
  EXPECT_THROW(read_matrix_market(bad_banner), std::runtime_error);
  std::istringstream truncated(
      "%%MatrixMarket matrix coordinate real general\n3 3 2\n1 1 2.0\n");
  EXPECT_THROW(read_matrix_market(truncated), std::runtime_error);
  std::istringstream out_of_range(
      "%%MatrixMarket matrix coordinate real general\n2 2 1\n5 1 2.0\n");
  EXPECT_THROW(read_matrix_market(out_of_range), std::runtime_error);
}

TEST(MatrixMarket, WriteReadRoundTrip) {
  const Csr a = coo_to_csr(sample_coo());
  std::stringstream io;
  write_matrix_market(io, a);
  const Csr back = coo_to_csr(read_matrix_market(io));
  EXPECT_TRUE(approx_equal(a, back, 1e-12));
}

TEST(Stats, ComputesBasicFeatures) {
  const Csr a = make_poisson2d(8);  // 64 rows, 5-point
  const MatrixStats s = compute_stats(a);
  EXPECT_EQ(s.rows, 64);
  EXPECT_EQ(s.nnz, static_cast<std::int64_t>(a.nnz()));
  EXPECT_NEAR(s.avg_row_nnz, static_cast<double>(s.nnz) / 64.0, 1e-12);
  EXPECT_LE(s.max_row_nnz, 5);
  EXPECT_GT(s.mean_band, 0.0);
  EXPECT_EQ(s.spmv_footprint_bytes, 12 * s.nnz + 20 * s.rows);
}

TEST(Stats, BandedHasSmallerBandThanRandom) {
  const MatrixStats banded = compute_stats(make_banded(512, 4, 6.0, 1));
  const MatrixStats random = compute_stats(make_random_uniform(512, 6.0, 1));
  EXPECT_LT(banded.mean_band, random.mean_band / 4.0);
}

TEST(SegmentedSort, SortsEachSegmentIndependently) {
  std::vector<std::int64_t> keys = {3, 1, 2, 9, 7, 8, 5};
  std::vector<std::int32_t> payload = {30, 10, 20, 90, 70, 80, 50};
  const std::vector<std::int64_t> seg = {0, 3, 7};
  segmented_sort(keys, payload, seg);
  EXPECT_EQ(keys, (std::vector<std::int64_t>{1, 2, 3, 5, 7, 8, 9}));
  EXPECT_EQ(payload, (std::vector<std::int32_t>{10, 20, 30, 50, 70, 80, 90}));
}

TEST(SegmentedSort, EmptySegmentsAreFine) {
  std::vector<std::int64_t> keys = {2, 1};
  const std::vector<std::int64_t> seg = {0, 0, 2, 2};
  segmented_sort(keys, {}, seg);
  EXPECT_EQ(keys, (std::vector<std::int64_t>{1, 2}));
}

class SegmentedSortProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SegmentedSortProperty, MatchesPerSegmentStdSort) {
  util::Xoshiro256 rng(GetParam());
  std::vector<std::int64_t> keys;
  std::vector<std::int64_t> seg = {0};
  for (int s = 0; s < 20; ++s) {
    const auto len = rng.bounded(100);  // includes long segments > threshold
    for (std::uint64_t i = 0; i < len; ++i)
      keys.push_back(static_cast<std::int64_t>(rng.bounded(1000)));
    seg.push_back(static_cast<std::int64_t>(keys.size()));
  }
  std::vector<std::int64_t> expected = keys;
  for (std::size_t s = 0; s + 1 < seg.size(); ++s)
    std::sort(expected.begin() + seg[s], expected.begin() + seg[s + 1]);
  segmented_sort(keys, {}, seg);
  EXPECT_EQ(keys, expected);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SegmentedSortProperty, ::testing::Values(1, 2, 3, 4, 5, 6));

TEST(SegmentedSort, RowOrderingByLength) {
  const std::vector<std::int64_t> row_ptr = {0, 3, 3, 8, 9};  // lengths 3,0,5,1
  const auto order = rows_by_descending_length(row_ptr);
  EXPECT_EQ(order, (std::vector<std::int32_t>{2, 0, 3, 1}));
}

TEST(Generators, AllEmitFullDiagonal) {
  for (const Csr& a : {make_banded(64, 3, 4.0, 1), make_random_uniform(64, 4.0, 2),
                       make_rmat(64, 4.0, 3), make_block_diagonal(64, 8, 0.5, 4),
                       make_poisson2d(8), make_poisson3d(4), make_arrow(64, 4, 5),
                       make_tridiag_perturbed(64, 2.0, 6)}) {
    for (index_t r = 0; r < a.rows; ++r) {
      bool has_diag = false;
      for (offset_t k = a.row_ptr[static_cast<std::size_t>(r)];
           k < a.row_ptr[static_cast<std::size_t>(r) + 1]; ++k)
        if (a.col_idx[static_cast<std::size_t>(k)] == r) has_diag = true;
      ASSERT_TRUE(has_diag) << "row " << r;
    }
  }
}

TEST(Generators, ColumnsSortedWithinRows) {
  for (const Csr& a : {make_rmat(128, 6.0, 7), make_random_uniform(128, 6.0, 8)}) {
    for (index_t r = 0; r < a.rows; ++r)
      for (offset_t k = a.row_ptr[static_cast<std::size_t>(r)] + 1;
           k < a.row_ptr[static_cast<std::size_t>(r) + 1]; ++k)
        ASSERT_LT(a.col_idx[static_cast<std::size_t>(k - 1)],
                  a.col_idx[static_cast<std::size_t>(k)]);
  }
}

TEST(Generators, Deterministic) {
  const Csr a = make_random_uniform(128, 8.0, 42);
  const Csr b = make_random_uniform(128, 8.0, 42);
  EXPECT_TRUE(approx_equal(a, b, 0.0));
}

TEST(Generators, BandedStaysInBand) {
  const Csr a = make_banded(256, 5, 8.0, 9);
  for (index_t r = 0; r < a.rows; ++r)
    for (offset_t k = a.row_ptr[static_cast<std::size_t>(r)];
         k < a.row_ptr[static_cast<std::size_t>(r) + 1]; ++k)
      ASSERT_LE(std::abs(a.col_idx[static_cast<std::size_t>(k)] - r), 5);
}

TEST(Generators, Poisson3dDegree) {
  const Csr a = make_poisson3d(5);
  EXPECT_EQ(a.rows, 125);
  EXPECT_EQ(a.nnz(), 125u * 7 - 2u * 3 * 25);  // minus boundary entries
}

TEST(Generators, RmatHeavyTail) {
  const Csr a = make_rmat(1024, 8.0, 10);
  const MatrixStats s = compute_stats(a);
  EXPECT_GT(s.max_row_nnz, 4 * static_cast<std::int64_t>(s.avg_row_nnz));
}

TEST(Collection, PaperSuiteHas968Members) {
  const SyntheticCollection suite = SyntheticCollection::paper_suite();
  EXPECT_EQ(suite.size(), 968u);
}

TEST(Collection, AllMembersPassPaperFilter) {
  const SyntheticCollection suite = SyntheticCollection::paper_suite();
  for (const auto& d : suite.descriptors()) {
    EXPECT_GT(d.nnz, 200000) << d.name;  // the paper's nnz > 200k filter
    EXPECT_GT(d.rows, 0) << d.name;
    EXPECT_EQ(d.footprint_bytes, 12 * d.nnz + 20 * d.rows);
  }
}

TEST(Collection, SpansTheFeatureSpace) {
  const SyntheticCollection suite = SyntheticCollection::paper_suite();
  std::int64_t min_rows = 1ll << 60, max_rows = 0, max_nnz = 0;
  for (const auto& d : suite.descriptors()) {
    min_rows = std::min(min_rows, d.rows);
    max_rows = std::max(max_rows, d.rows);
    max_nnz = std::max(max_nnz, d.nnz);
  }
  EXPECT_LE(min_rows, 2000);
  EXPECT_GE(max_rows, 1000000);
  EXPECT_GE(max_nnz, 10000000);
}

TEST(Collection, MaterializedMatchesDescriptorApproximately) {
  const SyntheticCollection suite = SyntheticCollection::test_suite(24, 40000);
  ASSERT_GT(suite.size(), 8u);
  for (std::size_t i = 0; i < suite.size(); i += 3) {
    const auto& d = suite.descriptor(i);
    const Csr a = suite.materialize(i);
    EXPECT_NEAR(static_cast<double>(a.rows), static_cast<double>(d.rows),
                0.1 * static_cast<double>(d.rows) + 64.0)
        << d.name;
    // nnz within a factor of ~2.5 of the target (generators are random).
    EXPECT_GT(static_cast<double>(a.nnz()), 0.3 * static_cast<double>(d.nnz)) << d.name;
    EXPECT_LT(static_cast<double>(a.nnz()), 3.0 * static_cast<double>(d.nnz)) << d.name;
  }
}

TEST(Collection, LocalityOrderingHoldsOnRealMatrices) {
  // The descriptor locality scores must rank real band concentration:
  // banded members should have much smaller mean_band/rows than random.
  const SyntheticCollection suite = SyntheticCollection::test_suite(40, 20000);
  double banded_rel = -1.0, random_rel = -1.0;
  for (std::size_t i = 0; i < suite.size(); ++i) {
    const auto& d = suite.descriptor(i);
    if (d.family != Family::kBanded && d.family != Family::kRandomUniform) continue;
    const MatrixStats s = compute_stats(suite.materialize(i));
    const double rel = s.mean_band / static_cast<double>(s.rows);
    if (d.family == Family::kBanded && banded_rel < 0.0) banded_rel = rel;
    if (d.family == Family::kRandomUniform && random_rel < 0.0) random_rel = rel;
  }
  ASSERT_GE(banded_rel, 0.0);
  ASSERT_GE(random_rel, 0.0);
  // The smallest suite members carry ~200 nnz/row (the paper's nnz filter
  // forces density at 1000 rows), so the band is wide in relative terms —
  // but random scatter must still be clearly wider.
  EXPECT_LT(banded_rel * 2.0, random_rel);
}

}  // namespace
}  // namespace opm::sparse
