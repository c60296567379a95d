#include <gtest/gtest.h>

#include <cmath>

#include "core/experiment.hpp"
#include "kernels/cholesky.hpp"
#include "kernels/fft.hpp"
#include "kernels/gemm.hpp"
#include "kernels/spmv.hpp"
#include "kernels/sptrans.hpp"
#include "kernels/sptrsv.hpp"
#include "kernels/stencil.hpp"
#include "kernels/stream.hpp"

/// The full (platform x kernel) prediction matrix, sanity-checked: every
/// combination the bench harnesses can reach must produce a finite,
/// positive, physically-bounded prediction. This is the net under every
/// sweep — a model change that produces NaNs, negative times, or
/// beyond-peak throughput anywhere fails here before it reaches a figure.
namespace opm {
namespace {

std::vector<sim::Platform> all_platforms() {
  return {sim::broadwell(sim::EdramMode::kOff), sim::broadwell(sim::EdramMode::kOn),
          sim::knl(sim::McdramMode::kOff),      sim::knl(sim::McdramMode::kCache),
          sim::knl(sim::McdramMode::kFlat),     sim::knl(sim::McdramMode::kHybrid)};
}

std::vector<kernels::LocalityModel> models_for(const sim::Platform& p) {
  std::vector<kernels::LocalityModel> out;
  for (double n : {512.0, 4096.0, 20000.0}) {
    out.push_back(kernels::gemm_model(p, n, 256.0));
    out.push_back(kernels::cholesky_model(p, n, 256.0));
  }
  for (double rows : {1e4, 1e6}) {
    out.push_back(kernels::spmv_model(p, {.rows = rows, .nnz = rows * 12, .locality = 0.5,
                                          .row_cv = 0.5}));
    out.push_back(kernels::sptrans_model(p, {.rows = rows, .nnz = rows * 12,
                                             .locality = 0.5, .merge_based = true}));
    out.push_back(kernels::sptrsv_model(p, {.rows = rows, .nnz = rows * 8, .locality = 0.5,
                                            .avg_parallelism = rows / 100.0,
                                            .levels = 100.0}));
  }
  for (double edge : {64.0, 512.0, 1280.0}) {
    out.push_back(kernels::fft_model(p, edge));
    out.push_back(kernels::stencil_model(p, edge));
  }
  for (double n : {1e4, 1e7, 2e9}) out.push_back(kernels::stream_model(p, n));
  return out;
}

class PlatformMatrix : public ::testing::TestWithParam<int> {};

TEST_P(PlatformMatrix, AllPredictionsPhysical) {
  const sim::Platform p = all_platforms()[static_cast<std::size_t>(GetParam())];
  for (const auto& model : models_for(p)) {
    const kernels::Prediction pred = kernels::predict(p, model);
    ASSERT_TRUE(std::isfinite(pred.gflops)) << p.mode_label;
    ASSERT_GT(pred.gflops, 0.0) << p.mode_label;
    ASSERT_GT(pred.seconds, 0.0) << p.mode_label;
    ASSERT_FALSE(sim::channel_name(p, pred.timing.bound_channel).empty()) << p.mode_label;
    // Nothing beats the machine's DP peak.
    ASSERT_LE(pred.gflops, p.dp_peak_flops / 1e9 * 1.0001) << p.mode_label;
    // Utilization is a fraction of peak.
    ASSERT_GE(pred.utilization, 0.0) << p.mode_label;
    ASSERT_LE(pred.utilization, 1.0001) << p.mode_label;
    // Bandwidth attribution is finite and non-negative.
    ASSERT_GE(pred.ddr_gbps, 0.0) << p.mode_label;
    ASSERT_GE(pred.opm_gbps, 0.0) << p.mode_label;
    ASSERT_TRUE(std::isfinite(pred.ddr_gbps + pred.opm_gbps)) << p.mode_label;
    // Channel accounting: no negative loads, no NaN times.
    for (std::size_t c = 0; c < pred.workload.channels.size(); ++c) {
      ASSERT_GE(pred.workload.channels[c].bytes, 0.0) << p.mode_label;
      ASSERT_TRUE(std::isfinite(pred.timing.channel_times[c])) << p.mode_label;
    }
  }
}

TEST_P(PlatformMatrix, MissCurvesMonotoneEverywhere) {
  const sim::Platform p = all_platforms()[static_cast<std::size_t>(GetParam())];
  for (const auto& model : models_for(p)) {
    double prev = model.miss_bytes(1024.0);
    for (double cap = 4096.0; cap <= 1e12; cap *= 8.0) {
      const double miss = model.miss_bytes(cap);
      ASSERT_TRUE(std::isfinite(miss));
      ASSERT_GE(miss, -1e-9);
      ASSERT_LE(miss, prev * 1.000001) << "capacity " << cap;
      prev = miss;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllPlatforms, PlatformMatrix, ::testing::Range(0, 6));

}  // namespace
}  // namespace opm
