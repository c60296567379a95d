#include "kernels/model.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "util/units.hpp"

namespace opm::kernels {

double capacity_miss_fraction(double ws, double capacity, double sharpness) {
  if (ws <= 0.0) return 0.0;
  if (capacity <= 0.0) return 1.0;
  // Logistic in the log domain: 0.5 exactly at ws == capacity. This is the
  // smooth stand-in for the LRU cliff; real traces transition over roughly
  // one octave, which sharpness ≈ 6 matches.
  const double ratio = capacity / ws;
  return 1.0 / (1.0 + std::pow(ratio, sharpness));
}

namespace {

/// MLP availability for misses past a capacity `reference`: when the
/// footprint barely exceeds it, misses are sparse in the instruction
/// stream and cannot overlap — the paper's cache-valley mechanism ("the
/// memory-level-parallelism at this point is insufficient to saturate the
/// bandwidth of the lower memory hierarchy", Figure 6). Ramps to 1 once
/// the footprint is ~2.5x the reference capacity (the paper's valleys are
/// narrow dips right past each cache peak).
///
/// Demand misses are generated at the last *on-chip* cache, so OPM tiers
/// and backing devices all ramp against the on-chip capacity: an OPM tier
/// filters bytes away from the device but does not change the
/// parallelism of the miss stream — which is exactly why adding an OPM
/// can never hurt (paper section 5.1).
double mlp_ramp(double footprint, double reference) {
  if (reference <= 0.0) return 1.0;
  const double r = footprint / reference;
  if (r <= 1.0) return 0.05;
  return std::clamp((r - 1.0) / 1.5, 0.05, 1.0);
}

double effective_tier_capacity(const sim::CacheTierSpec& tier, double dm_factor) {
  double cap = static_cast<double>(tier.geometry.capacity);
  if (tier.kind == sim::TierKind::kMemorySide && tier.geometry.associativity == 1)
    cap *= dm_factor;  // direct-mapped conflict derating
  return cap;
}

}  // namespace

sim::Workload build_workload(const sim::Platform& platform, const LocalityModel& model) {
  if (platform.tiers.size() + platform.devices.size() > sim::kMaxChannels)
    throw std::invalid_argument("build_workload: " + platform.name +
                                " has more tiers + devices than sim::kMaxChannels");
  sim::Workload work;
  work.flops = model.flops;
  work.compute_efficiency = model.compute_efficiency;
  work.mlp_lines = model.mlp_max;
  work.line_size = 64.0;
  work.fixed_time = model.fixed_seconds;

  // Demand misses emerge from the last on-chip (standard) cache; every
  // channel below it shares that miss stream's parallelism ramp.
  double onchip_cap = 0.0;
  for (const auto& tier : platform.tiers)
    if (tier.kind == sim::TierKind::kStandard)
      onchip_cap += static_cast<double>(tier.geometry.capacity);

  double cap_above = 0.0;
  for (const auto& tier : platform.tiers) {
    sim::ChannelLoad ch;
    ch.bytes = cap_above <= 0.0 ? model.total_bytes : model.miss_bytes(cap_above);
    ch.bandwidth = tier.bandwidth;
    ch.tag_overhead = tier.tag_overhead;
    // Fold the per-channel MLP ramp into the latency term: the timing
    // model computes concurrency bandwidth as mlp * line / latency, so
    // dividing the ramp out of the latency scales MLP per channel.
    const double reference = tier.kind == sim::TierKind::kStandard ? cap_above : onchip_cap;
    const double ramp = mlp_ramp(model.footprint, reference);
    ch.bytes = std::min(ch.bytes, model.total_bytes);
    ch.latency = tier.latency / ramp;
    work.channels.push_back(ch);
    cap_above += effective_tier_capacity(tier, model.direct_mapped_factor);
  }

  // Backing devices: the bottom traffic splits across the flat OPM
  // partition and DDR by footprint placement (numactl --preferred).
  const double bottom = std::min(model.miss_bytes(cap_above), model.total_bytes);
  const double ramp = mlp_ramp(model.footprint, onchip_cap);
  const bool has_flat = platform.flat_opm_bytes > 0;
  const double opm_frac =
      has_flat ? std::min(1.0, static_cast<double>(platform.flat_opm_bytes) /
                                   std::max(model.footprint, 1.0))
               : 0.0;
  const bool straddles = has_flat && model.footprint > static_cast<double>(platform.flat_opm_bytes);
  const double penalty = straddles ? platform.split_penalty : 1.0;

  for (std::size_t d = 0; d < platform.devices.size(); ++d) {
    const auto& dev = platform.devices[d];
    sim::ChannelLoad ch;
    const bool is_flat_opm = has_flat && d == 0;
    ch.bytes = is_flat_opm ? bottom * opm_frac
                           : (has_flat ? bottom * (1.0 - opm_frac) : bottom);
    ch.bandwidth = dev.bandwidth;
    ch.latency = dev.latency / ramp;
    ch.penalty = penalty;
    work.channels.push_back(ch);
  }
  return work;
}

Prediction predict(const sim::Platform& platform, const LocalityModel& model) {
  Prediction out{.workload = build_workload(platform, model)};
  out.timing = sim::predict_time(platform, out.workload, /*double_precision=*/true);
  out.seconds = out.timing.total_time;
  out.gflops = sim::gflops(out.workload, out.timing);
  if (out.seconds > 0.0) {
    double ddr_bytes = 0.0;
    double opm_bytes = 0.0;
    std::size_t ci = platform.tiers.size();
    // Device channels follow the tier channels in build_workload order.
    for (std::size_t d = 0; d < platform.devices.size(); ++d, ++ci) {
      if (platform.devices[d].on_package)
        opm_bytes += out.workload.channels[ci].bytes;
      else
        ddr_bytes += out.workload.channels[ci].bytes;
    }
    // OPM cache tiers (eDRAM L4, MCDRAM cache mode) also draw OPM power.
    for (std::size_t t = 0; t < platform.tiers.size(); ++t)
      if (platform.tiers[t].kind != sim::TierKind::kStandard)
        opm_bytes += out.workload.channels[t].bytes;
    out.ddr_gbps = util::to_gbps(ddr_bytes / out.seconds);
    out.opm_gbps = util::to_gbps(opm_bytes / out.seconds);
    out.utilization = model.flops / (out.seconds * platform.dp_peak_flops);
  }
  return out;
}

}  // namespace opm::kernels
