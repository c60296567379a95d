#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <sstream>

#include "core/validation.hpp"
#include "kernels/gemm.hpp"
#include "kernels/parallel.hpp"
#include "kernels/spmv.hpp"
#include "kernels/stream.hpp"
#include "sim/config_io.hpp"
#include "sim/timing.hpp"
#include "sparse/generators.hpp"
#include "sparse/segmented_sort.hpp"
#include "trace/recorder.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace opm {
namespace {

// ------------------------------------------------------------ thread pool --

TEST(ThreadPool, InlineWhenZeroWorkers) {
  util::ThreadPool pool(0);
  EXPECT_EQ(pool.workers(), 0u);
  std::vector<int> hits(100, 0);
  pool.parallel_for(0, 100, 10, [&](std::size_t i) { hits[i]++; });
  for (int h : hits) EXPECT_EQ(h, 1);
}

TEST(ThreadPool, EveryIndexRunsExactlyOnce) {
  util::ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(10000);
  pool.parallel_for(0, hits.size(), 64, [&](std::size_t i) { hits[i]++; });
  for (const auto& h : hits) ASSERT_EQ(h.load(), 1);
}

TEST(ThreadPool, EmptyAndTinyRanges) {
  util::ThreadPool pool(2);
  int count = 0;
  pool.parallel_for(5, 5, 8, [&](std::size_t) { ++count; });
  EXPECT_EQ(count, 0);
  pool.parallel_for(7, 8, 100, [&](std::size_t i) { count += static_cast<int>(i); });
  EXPECT_EQ(count, 7);
}

TEST(ThreadPool, SumReductionViaAtomics) {
  util::ThreadPool pool(3);
  std::atomic<long long> sum(0);
  pool.parallel_for(1, 1001, 37, [&](std::size_t i) { sum += static_cast<long long>(i); });
  EXPECT_EQ(sum.load(), 500500);
}

TEST(ThreadPool, ReusableAcrossCalls) {
  util::ThreadPool pool(2);
  for (int round = 0; round < 20; ++round) {
    std::atomic<int> n(0);
    pool.parallel_for(0, 100, 9, [&](std::size_t) { n++; });
    ASSERT_EQ(n.load(), 100);
  }
}

// ------------------------------------------------------- parallel kernels --

class PoolSizes : public ::testing::TestWithParam<std::size_t> {};

TEST_P(PoolSizes, SpmvParallelMatchesSerial) {
  util::ThreadPool pool(GetParam());
  const sparse::Csr a = sparse::make_rmat(1024, 8.0, 1);
  util::Xoshiro256 rng(2);
  std::vector<double> x(1024);
  for (auto& v : x) v = rng.uniform(-1.0, 1.0);
  std::vector<double> y1(1024), y2(1024);
  kernels::spmv_csr(a, x, y1);
  kernels::spmv_csr_parallel(a, x, y2, pool);
  EXPECT_EQ(y1, y2);  // bit-identical: same per-row summation order
}

TEST_P(PoolSizes, GemmParallelMatchesSerial) {
  util::ThreadPool pool(GetParam());
  const std::size_t n = 64;
  dense::Matrix a(n, n), b(n, n), c1(n, n), c2(n, n);
  a.fill_random(3);
  b.fill_random(4);
  kernels::gemm_tiled(a, b, c1, 16);
  kernels::gemm_tiled_parallel(a, b, c2, 16, pool);
  EXPECT_EQ(c1.max_abs_diff(c2), 0.0);
}

TEST_P(PoolSizes, TriadParallelMatchesSerial) {
  util::ThreadPool pool(GetParam());
  std::vector<double> a1(5000), a2(5000), b(5000), c(5000);
  util::Xoshiro256 rng(5);
  for (std::size_t i = 0; i < b.size(); ++i) {
    b[i] = rng.uniform();
    c[i] = rng.uniform();
  }
  kernels::stream_triad(a1, b, c, 2.5);
  kernels::stream_triad_parallel(a2, b, c, 2.5, pool);
  EXPECT_EQ(a1, a2);
}

TEST_P(PoolSizes, SptrsvLevelParallelMatchesSerial) {
  util::ThreadPool pool(GetParam());
  const sparse::Csr l = sparse::lower_triangle_with_diagonal(
      sparse::make_random_uniform(800, 6.0, 6), 2.0);
  const kernels::LevelSchedule schedule = kernels::build_level_schedule(l);
  std::vector<double> b(800, 1.0), x1(800), x2(800);
  kernels::sptrsv_levelset(l, schedule, b, x1);
  kernels::sptrsv_levelset_parallel(l, schedule, b, x2, pool);
  EXPECT_EQ(x1, x2);
}

INSTANTIATE_TEST_SUITE_P(Workers, PoolSizes, ::testing::Values(0, 1, 2, 4));

// --------------------------------------------------------------- P2P solve --

TEST(SptrsvP2p, MatchesReference) {
  const sparse::Csr l = sparse::lower_triangle_with_diagonal(
      sparse::make_rmat(512, 7.0, 7), 2.0);
  std::vector<double> b(512);
  util::Xoshiro256 rng(8);
  for (auto& v : b) v = rng.uniform(-1.0, 1.0);
  std::vector<double> x1(512), x2(512);
  kernels::sptrsv_reference(l, b, x1);
  kernels::sptrsv_p2p(l, b, x2);
  double worst = 0.0;
  for (std::size_t i = 0; i < x1.size(); ++i)
    worst = std::max(worst, std::abs(x1[i] - x2[i]));
  EXPECT_LT(worst, 1e-10);
}

TEST(SptrsvP2p, SequentialChainStillSolves) {
  const sparse::Csr l = sparse::lower_triangle_with_diagonal(
      sparse::make_tridiag_perturbed(200, 0.0, 9), 2.0);
  std::vector<double> b(200, 1.0), x(200);
  kernels::sptrsv_p2p(l, b, x);
  EXPECT_LT(kernels::sptrsv_residual(l, x, b), 1e-10);
}

TEST(SptrsvP2p, DiagonalSolvesInOnePass) {
  sparse::Coo coo;
  coo.rows = coo.cols = 16;
  for (sparse::index_t i = 0; i < 16; ++i) coo.push(i, i, 2.0);
  std::vector<double> b(16, 4.0), x(16);
  kernels::sptrsv_p2p(sparse::coo_to_csr(coo), b, x);
  for (double v : x) EXPECT_DOUBLE_EQ(v, 2.0);
}

// ------------------------------------------------------ row permutation ----

TEST(PermuteRows, ReordersAndValidates) {
  const sparse::Csr a = sparse::make_random_uniform(64, 5.0, 10);
  const auto order = sparse::rows_by_descending_length(a.row_ptr);
  const sparse::Csr p = sparse::permute_rows(a, order);
  // Row lengths are now non-increasing (the paper's segmented-sort order).
  for (std::size_t r = 1; r < static_cast<std::size_t>(p.rows); ++r)
    ASSERT_GE(p.row_ptr[r] - p.row_ptr[r - 1], p.row_ptr[r + 1] - p.row_ptr[r]);
  // SpMV commutes with the permutation: (P·A)x == P·(Ax).
  std::vector<double> x(64, 1.0), y_orig(64), y_perm(64);
  sparse::spmv_reference(a, x, y_orig);
  sparse::spmv_reference(p, x, y_perm);
  for (std::size_t i = 0; i < order.size(); ++i)
    ASSERT_DOUBLE_EQ(y_perm[i], y_orig[static_cast<std::size_t>(order[i])]);
}

TEST(PermuteRows, RejectsBadPermutations) {
  const sparse::Csr a = sparse::make_poisson2d(4);
  std::vector<sparse::index_t> dup(static_cast<std::size_t>(a.rows), 0);
  EXPECT_THROW(sparse::permute_rows(a, dup), std::invalid_argument);
  std::vector<sparse::index_t> small = {0, 1};
  EXPECT_THROW(sparse::permute_rows(a, small), std::invalid_argument);
}

// -------------------------------------------------------- platform config --

TEST(PlatformConfig, RoundTripsBroadwell) {
  const sim::Platform original = sim::broadwell(sim::EdramMode::kOn);
  const sim::Platform back = sim::parse_platform_string(sim::to_config(original));
  EXPECT_EQ(back.name, original.name);
  EXPECT_EQ(back.cores, original.cores);
  EXPECT_DOUBLE_EQ(back.dp_peak_flops, original.dp_peak_flops);
  ASSERT_EQ(back.tiers.size(), original.tiers.size());
  for (std::size_t i = 0; i < back.tiers.size(); ++i) {
    EXPECT_EQ(back.tiers[i].geometry.name, original.tiers[i].geometry.name);
    EXPECT_EQ(back.tiers[i].geometry.capacity, original.tiers[i].geometry.capacity);
    EXPECT_EQ(back.tiers[i].kind, original.tiers[i].kind);
    EXPECT_DOUBLE_EQ(back.tiers[i].bandwidth, original.tiers[i].bandwidth);
    EXPECT_DOUBLE_EQ(back.tiers[i].latency, original.tiers[i].latency);
  }
  ASSERT_EQ(back.devices.size(), original.devices.size());
  EXPECT_DOUBLE_EQ(back.devices[0].bandwidth, original.devices[0].bandwidth);
}

TEST(PlatformConfig, RoundTripsKnlAllModes) {
  for (auto mode : {sim::McdramMode::kOff, sim::McdramMode::kCache, sim::McdramMode::kFlat,
                    sim::McdramMode::kHybrid}) {
    const sim::Platform original = sim::knl(mode);
    const sim::Platform back = sim::parse_platform_string(sim::to_config(original));
    EXPECT_EQ(back.mode_label, original.mode_label);
    EXPECT_EQ(back.flat_opm_bytes, original.flat_opm_bytes);
    EXPECT_DOUBLE_EQ(back.split_penalty, original.split_penalty);
    EXPECT_EQ(back.tiers.size(), original.tiers.size());
    EXPECT_EQ(back.devices.size(), original.devices.size());
  }
}

TEST(PlatformConfig, ParsedPlatformDrivesPredictions) {
  const sim::Platform p = sim::parse_platform_string(sim::to_config(sim::knl(sim::McdramMode::kFlat)));
  const auto pred = kernels::predict(p, kernels::stream_model(p, 4e8 / 24.0));
  EXPECT_GT(pred.gflops, 10.0);  // runs like a real KNL-flat
}

TEST(PlatformConfig, RejectsMalformedInput) {
  EXPECT_THROW(sim::parse_platform_string("bogus_key = 3\ndevice = name:D capacity:1 "
                                          "bandwidth:1 latency:1 on_package:0\n"),
               std::runtime_error);
  EXPECT_THROW(sim::parse_platform_string("name = x\n"), std::runtime_error);  // no device
  EXPECT_THROW(sim::parse_platform_string("tier = garbage\ndevice = name:D capacity:1 "
                                          "bandwidth:1 latency:1 on_package:0\n"),
               std::runtime_error);
}

/// Expects parse_platform_string(text) to throw std::runtime_error whose
/// message starts "platform config line <line>: " and names `field`.
void expect_config_error(const std::string& text, int line, const std::string& field) {
  try {
    (void)sim::parse_platform_string(text);
    ADD_FAILURE() << "accepted: " << text;
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_EQ(what.rfind("platform config line " + std::to_string(line) + ": ", 0), 0u) << what;
    EXPECT_NE(what.find(field), std::string::npos) << what;
  }
}

const std::string kDevice = "device = name:D capacity:1024 bandwidth:1e9 latency:1e-7\n";
const std::string kTier = "tier = name:T capacity:4096 line:64 ways:8 bandwidth:1e9 latency:1e-9";

TEST(PlatformConfig, RejectsNegativeCapacity) {
  // std::stoull used to negate this into 18446744073709551615.
  expect_config_error("name = x\ntier = name:T capacity:-1 line:64 ways:8 bandwidth:1e9 "
                      "latency:1e-9\n" + kDevice,
                      2, "capacity");
  expect_config_error("device = name:D capacity:-1 bandwidth:1e9 latency:1e-7\n", 1, "capacity");
  expect_config_error(kDevice + "flat_opm_bytes = -4096\n", 2, "flat_opm_bytes");
}

TEST(PlatformConfig, RejectsZeroLineWaysOrCapacity) {
  expect_config_error(kDevice + "tier = name:T capacity:4096 line:0 ways:8 bandwidth:1e9 "
                                "latency:1e-9\n",
                      2, "line");
  expect_config_error(kDevice + "tier = name:T capacity:4096 line:64 ways:0 bandwidth:1e9 "
                                "latency:1e-9\n",
                      2, "ways");
  expect_config_error(kDevice + "tier = name:T capacity:0 line:64 ways:8 bandwidth:1e9 "
                                "latency:1e-9\n",
                      2, "capacity");
  expect_config_error("device = name:D capacity:0 bandwidth:1e9 latency:1e-7\n", 1, "capacity");
}

TEST(PlatformConfig, RejectsNegativeValues) {
  expect_config_error("device = name:D capacity:1024 bandwidth:-5 latency:1e-7\n", 1,
                      "bandwidth");
  expect_config_error(kDevice + kTier + " tag_overhead:-0.1\n", 2, "tag_overhead");
  expect_config_error(kDevice + "split_penalty = -1\n", 2, "split_penalty");
  expect_config_error(kDevice + "cores = -4\n", 2, "cores");
}

TEST(PlatformConfig, RejectsNonFiniteValues) {
  expect_config_error(kDevice + "dp_peak_flops = nan\n", 2, "dp_peak_flops");
  expect_config_error(kDevice + "sp_peak_flops = inf\n", 2, "sp_peak_flops");
  expect_config_error(kDevice + "frequency = 1e999\n", 2, "frequency");
  expect_config_error("device = name:D capacity:1024 bandwidth:1e9 latency:nan\n", 1, "latency");
}

TEST(PlatformConfig, RejectsNonNumericWithLineNumber) {
  // std::stoi used to throw a bare std::invalid_argument("stoi") here.
  expect_config_error("# header\n" + kDevice + "cores = abc\n", 3, "cores");
  expect_config_error(kDevice + "threads = \n", 2, "threads");
  expect_config_error("device = name:D capacity:lots bandwidth:1e9 latency:1e-7\n", 1,
                      "capacity");
  expect_config_error(kDevice + "device = name:E capacity:1024 bandwidth:1e9 latency:1e-7 "
                                "on_package:yes\n",
                      2, "on_package");
}

TEST(PlatformConfig, RejectsTrailingText) {
  expect_config_error(kDevice + "cores = 4x\n", 2, "cores");
  expect_config_error(kDevice + "dp_peak_flops = 1e12 flop/s\n", 2, "dp_peak_flops");
  expect_config_error("device = name:D capacity:1024 bandwidth:1e9GB latency:1e-7\n", 1,
                      "bandwidth");
  expect_config_error(kDevice + "tier = name:T capacity:4096 line:64.5 ways:8 bandwidth:1e9 "
                                "latency:1e-9\n",
                      2, "line");
}

TEST(PlatformConfig, RejectsUnknownFields) {
  expect_config_error(kDevice + kTier + " bandwith:2e9\n", 2, "bandwith");
}

TEST(PlatformConfig, RejectsMoreChannelsThanTheCap) {
  // Every tier and device is one timing-model channel; the ninth is refused
  // on its own line.
  std::string text = kDevice;
  for (std::size_t i = 1; i < sim::kMaxChannels; ++i) text += kTier + "\n";
  EXPECT_NO_THROW(sim::parse_platform_string(text));
  expect_config_error(text + kTier + "\n", static_cast<int>(sim::kMaxChannels) + 1,
                      std::to_string(sim::kMaxChannels));
}

TEST(PlatformConfig, CommentsAndBlanksIgnored) {
  const std::string text =
      "# a comment\n"
      "\n"
      "name = toy  # trailing comment\n"
      "device = name:MEM capacity:1024 bandwidth:1e9 latency:1e-7 on_package:0\n";
  const sim::Platform p = sim::parse_platform_string(text);
  EXPECT_EQ(p.name, "toy");
  EXPECT_EQ(p.devices.size(), 1u);
}

// ------------------------------------------------------ validation report --

TEST(Validation, PerfectModelScoresOne) {
  const sim::Platform p = sim::broadwell(sim::EdramMode::kOff);
  trace::ReuseDistanceAnalyzer measured;
  // A pure stream over 1 MB, twice.
  for (int pass = 0; pass < 2; ++pass)
    for (std::uint64_t i = 0; i < (1u << 20) / 64; ++i) measured.touch(i * 64, 64);

  kernels::LocalityModel model;
  model.footprint = 1 << 20;
  model.total_bytes = 2.0 * (1 << 20);
  model.miss_bytes = [&model](double cap) {
    // Exact for this trace: below 1 MB everything misses (cyclic LRU),
    // above it only the cold pass.
    return cap < model.footprint ? model.total_bytes : model.footprint;
  };
  const auto report = core::validate_model(measured, model, p);
  ASSERT_EQ(report.rows.size(), p.tiers.size());
  EXPECT_LT(report.worst_factor, 1.05);
}

TEST(Validation, DetectsBadModel) {
  const sim::Platform p = sim::broadwell(sim::EdramMode::kOff);
  trace::ReuseDistanceAnalyzer measured;
  for (std::uint64_t i = 0; i < 4096; ++i) measured.touch(i * 64, 64);

  kernels::LocalityModel model;
  model.miss_bytes = [](double) { return 1.0e9; };  // wildly pessimistic
  const auto report = core::validate_model(measured, model, p);
  EXPECT_GT(report.worst_factor, 100.0);
}

TEST(Validation, RealKernelsValidateWithinFactorFour) {
  const sim::Platform p = sim::broadwell(sim::EdramMode::kOff);

  // GEMM at a trace-friendly size.
  {
    const std::size_t n = 96, nb = 32;
    dense::Matrix a(n, n), b(n, n), c(n, n);
    a.fill_random(1);
    b.fill_random(2);
    trace::ReuseDistanceAnalyzer reuse;
    kernels::gemm_instrumented(a, b, c, nb, reuse);
    const auto model = kernels::gemm_model(p, double(n), double(nb));
    // Only the L1/L2 boundaries are meaningful at this size (the whole
    // problem fits L3), so check those rows.
    const auto report = core::validate_model(reuse, model, p);
    EXPECT_GT(report.rows[0].ratio, 0.25);
    EXPECT_LT(report.rows[0].ratio, 4.0);
  }

  // SpMV on a scattered matrix.
  {
    const sparse::Csr a = sparse::make_random_uniform(4096, 8.0, 5);
    std::vector<double> x(4096, 1.0), y(4096);
    trace::ReuseDistanceAnalyzer reuse;
    kernels::spmv_csr_instrumented(a, x, y, reuse);
    const auto model = kernels::spmv_model(
        p, {.rows = 4096, .nnz = static_cast<double>(a.nnz()), .locality = 0.05,
            .row_cv = 0.3});
    const auto report = core::validate_model(reuse, model, p);
    EXPECT_GT(report.rows[0].ratio, 0.25);
    EXPECT_LT(report.rows[0].ratio, 4.0);
  }
}

TEST(Validation, FormatsReadableTable) {
  
  core::ValidationReport report;
  report.rows.push_back({.boundary = "L1", .capacity_bytes = 131072,
                         .measured_bytes = 1e6, .modeled_bytes = 2e6, .ratio = 2.0});
  report.worst_factor = 2.0;
  const std::string text = core::format_report(report);
  EXPECT_NE(text.find("L1"), std::string::npos);
  EXPECT_NE(text.find("2.00"), std::string::npos);
}

}  // namespace
}  // namespace opm
