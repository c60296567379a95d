#include <gtest/gtest.h>

#include "sim/platform.hpp"
#include "sim/power.hpp"
#include "sim/timing.hpp"

namespace opm::sim {
namespace {

Platform flat_peak_platform() {
  Platform p;
  p.name = "synthetic";
  p.cores = 4;
  p.dp_peak_flops = 100e9;
  p.sp_peak_flops = 200e9;
  p.devices.push_back({.name = "DDR", .capacity = 1ull << 34, .bandwidth = 10e9,
                       .latency = 100e-9});
  return p;
}

TEST(Timing, ComputeBoundWhenNoTraffic) {
  Workload w{.flops = 100e9, .compute_efficiency = 1.0, .mlp_lines = 64};
  const auto t = predict_time(flat_peak_platform(), w);
  EXPECT_DOUBLE_EQ(t.total_time, 1.0);
  EXPECT_EQ(t.bound_channel, kComputeBound);
  EXPECT_EQ(channel_name(flat_peak_platform(), t.bound_channel), "compute");
}

TEST(Timing, EfficiencyScalesComputeTime) {
  Workload w{.flops = 100e9, .compute_efficiency = 0.5, .mlp_lines = 64};
  EXPECT_DOUBLE_EQ(predict_time(flat_peak_platform(), w).total_time, 2.0);
}

TEST(Timing, SinglePrecisionUsesSpPeak) {
  Workload w{.flops = 200e9, .compute_efficiency = 1.0, .mlp_lines = 64};
  EXPECT_DOUBLE_EQ(predict_time(flat_peak_platform(), w, /*double_precision=*/false).total_time,
                   1.0);
}

TEST(Timing, BandwidthBoundChannelDominates) {
  Workload w{.flops = 1e9, .compute_efficiency = 1.0, .mlp_lines = 1e9};
  w.channels.push_back({.bytes = 20e9, .bandwidth = 10e9, .latency = 100e-9});
  const auto t = predict_time(flat_peak_platform(), w);
  EXPECT_NEAR(t.total_time, 2.0, 1e-9);
  EXPECT_EQ(t.bound_channel, 0u);
  EXPECT_EQ(channel_name(flat_peak_platform(), t.bound_channel), "DDR");
}

TEST(Timing, LatencyBoundWhenMlpLow) {
  // 1 outstanding line, 100 ns latency: 64 B / 100 ns = 0.64 GB/s,
  // far below the 10 GB/s channel peak.
  ChannelLoad ch{.bytes = 1e9, .bandwidth = 10e9, .latency = 100e-9};
  EXPECT_NEAR(effective_bandwidth(ch, 1.0, 64.0), 0.64e9, 1e6);
  EXPECT_NEAR(effective_bandwidth(ch, 1e6, 64.0), 10e9, 1e3);
}

TEST(Timing, TagOverheadShavesBandwidth) {
  ChannelLoad ch{.bytes = 1e9, .bandwidth = 100e9, .latency = 0.0, .tag_overhead = 0.10};
  EXPECT_NEAR(effective_bandwidth(ch, 64, 64), 90e9, 1e3);
}

TEST(Timing, PenaltyDividesBandwidth) {
  ChannelLoad ch{.bytes = 1e9, .bandwidth = 100e9, .latency = 0.0, .penalty = 4.0};
  EXPECT_NEAR(effective_bandwidth(ch, 1e9, 64), 25e9, 1e3);
}

TEST(Timing, HigherLatencyDeviceLosesWhenLatencyBound) {
  // The paper's SpTRSV finding: at low MLP, MCDRAM (higher latency)
  // delivers less than DDR despite 5x the bandwidth.
  ChannelLoad mcdram{.bytes = 1e9, .bandwidth = 490e9, .latency = 160e-9};
  ChannelLoad ddr{.bytes = 1e9, .bandwidth = 102e9, .latency = 130e-9};
  const double mlp = 16.0;
  EXPECT_LT(effective_bandwidth(mcdram, mlp, 64), effective_bandwidth(ddr, mlp, 64));
  // ...and wins once MLP is plentiful.
  const double mlp_hi = 4096.0;
  EXPECT_GT(effective_bandwidth(mcdram, mlp_hi, 64), effective_bandwidth(ddr, mlp_hi, 64));
}

TEST(Timing, GflopsHelper) {
  Workload w{.flops = 50e9};
  TimingBreakdown t;
  t.total_time = 2.0;
  EXPECT_DOUBLE_EQ(gflops(w, t), 25.0);
}

TEST(Power, PackageScalesWithUtilization) {
  const Platform p = broadwell(EdramMode::kOff);
  const auto idle = estimate_power(p, 0.0, 0.0, 0.0);
  const auto busy = estimate_power(p, 1.0, 0.0, 0.0);
  EXPECT_NEAR(idle.package, p.package_idle_watts, 1e-9);
  EXPECT_NEAR(busy.package, p.package_max_watts, 1e-9);
}

TEST(Power, DramPowerScalesWithBandwidth) {
  const Platform p = broadwell(EdramMode::kOff);
  const auto e = estimate_power(p, 0.5, 20.0, 0.0);
  EXPECT_NEAR(e.dram, 20.0 * p.dram_watts_per_gbps, 1e-9);
}

TEST(Power, EdramAddsStaticAndDynamicPower) {
  const auto off = estimate_power(broadwell(EdramMode::kOff), 0.5, 10.0, 0.0);
  const auto on = estimate_power(broadwell(EdramMode::kOn), 0.5, 10.0, 50.0);
  EXPECT_GT(on.package, off.package);
  EXPECT_GT(on.opm, 0.0);
  EXPECT_EQ(off.opm, 0.0);
}

TEST(Power, UtilizationClamped) {
  const Platform p = broadwell(EdramMode::kOff);
  EXPECT_NEAR(estimate_power(p, 2.0, 0.0, 0.0).package, p.package_max_watts, 1e-9);
  EXPECT_NEAR(estimate_power(p, -1.0, 0.0, 0.0).package, p.package_idle_watts, 1e-9);
}

TEST(Power, EnergyIsPowerTimesTime) {
  PowerEstimate e{.package = 50.0, .dram = 10.0};
  EXPECT_DOUBLE_EQ(energy_joules(e, 2.0), 120.0);
}

TEST(Energy, Equation1BreakEven) {
  // Paper: with eDRAM costing +8.6% power, gains above 8.6% save energy.
  EXPECT_FALSE(opm_saves_energy(0.05, 0.086));
  EXPECT_TRUE(opm_saves_energy(0.10, 0.086));
  EXPECT_NEAR(opm_energy_ratio(0.086, 0.086), 1.0, 1e-12);
}

TEST(Energy, RatioFormula) {
  // E_w / E_wo = (1 + W) / (1 + P).
  EXPECT_NEAR(opm_energy_ratio(1.0, 0.0), 0.5, 1e-12);
  EXPECT_NEAR(opm_energy_ratio(0.0, 0.5), 1.5, 1e-12);
}

}  // namespace
}  // namespace opm::sim
