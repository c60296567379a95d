#include "kernels/model.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <stdexcept>

#include "util/units.hpp"

namespace opm::kernels {

namespace {

/// capacity_miss_fraction's last evaluations on one thread, round-robin.
/// All-zero entries are empty: their ws key is +0.0, which returns before
/// the table is consulted.
struct MissMemo {
  std::uint64_t ws[kMissMemoEntries];
  std::uint64_t capacity[kMissMemoEntries];
  std::uint64_t sharpness[kMissMemoEntries];
  double fraction[kMissMemoEntries];
  std::size_t next;
};

thread_local MissMemo t_miss_memo{};

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

}  // namespace

double capacity_miss_fraction(double ws, double capacity, double sharpness) {
  if (ws <= 0.0) return 0.0;
  if (capacity <= 0.0) return 1.0;
  // The same argument bits always give the same result bits, so a stored
  // result is exactly the one the formula below would return.
  MissMemo& memo = t_miss_memo;
  const auto w = std::bit_cast<std::uint64_t>(ws);
  const auto c = std::bit_cast<std::uint64_t>(capacity);
  const auto k = std::bit_cast<std::uint64_t>(sharpness);
  for (std::size_t i = 0; i < kMissMemoEntries; ++i)
    if (memo.ws[i] == w && memo.capacity[i] == c && memo.sharpness[i] == k)
      return memo.fraction[i];
  // Logistic in the log domain: 0.5 exactly at ws == capacity. This is the
  // smooth stand-in for the LRU cliff; real traces transition over roughly
  // one octave, which sharpness ≈ 6 matches.
  const double ratio = capacity / ws;
  const double fraction = 1.0 / (1.0 + std::pow(ratio, sharpness));
  const std::size_t slot = memo.next;
  memo.next = (slot + 1) % kMissMemoEntries;
  memo.ws[slot] = w;
  memo.capacity[slot] = c;
  memo.sharpness[slot] = k;
  memo.fraction[slot] = fraction;
  return fraction;
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

/// Cache-line size every workload converts MLP into bandwidth with.
constexpr double kLineSize = 64.0;

double effective_tier_capacity(const sim::CacheTierSpec& tier, double dm_factor) {
  double cap = static_cast<double>(tier.geometry.capacity);
  if (tier.kind == sim::TierKind::kMemorySide && tier.geometry.associativity == 1)
    cap *= dm_factor;  // direct-mapped conflict derating
  return cap;
}

}  // namespace

bool ChannelRates::fits(const LocalityModel& model) const {
  return same_bits(footprint, model.footprint) && same_bits(mlp_max, model.mlp_max) &&
         same_bits(direct_mapped_factor, model.direct_mapped_factor);
}

ChannelRates channel_rates(const sim::Platform& platform, const LocalityModel& model) {
  if (platform.tiers.size() + platform.devices.size() > sim::kMaxChannels)
    throw std::invalid_argument("channel_rates: " + platform.name +
                                " has more tiers + devices than sim::kMaxChannels");
  ChannelRates rates{.footprint = model.footprint,
                     .mlp_max = model.mlp_max,
                     .direct_mapped_factor = model.direct_mapped_factor};
  const auto add_channel = [&](const sim::ChannelLoad& ch) {
    rates.latency.push_back(ch.latency);
    rates.effective_bw.push_back(sim::effective_bandwidth(ch, model.mlp_max, kLineSize));
  };

  // Demand misses emerge from the last on-chip (standard) cache; every
  // channel below it shares that miss stream's parallelism ramp.
  double onchip_cap = 0.0;
  for (const auto& tier : platform.tiers)
    if (tier.kind == sim::TierKind::kStandard)
      onchip_cap += static_cast<double>(tier.geometry.capacity);

  double cap_above = 0.0;
  for (const auto& tier : platform.tiers) {
    sim::ChannelLoad ch;
    ch.bandwidth = tier.bandwidth;
    ch.tag_overhead = tier.tag_overhead;
    // Fold the per-channel MLP ramp into the latency term: the timing
    // model computes concurrency bandwidth as mlp * line / latency, so
    // dividing the ramp out of the latency scales MLP per channel.
    const double reference = tier.kind == sim::TierKind::kStandard ? cap_above : onchip_cap;
    const double ramp = mlp_ramp(model.footprint, reference);
    ch.latency = tier.latency / ramp;
    rates.capacity_above.push_back(cap_above);
    add_channel(ch);
    cap_above += effective_tier_capacity(tier, model.direct_mapped_factor);
  }
  rates.bottom_capacity = cap_above;

  // Backing devices: the bottom traffic splits across the flat OPM
  // partition and DDR by footprint placement (numactl --preferred).
  const double ramp = mlp_ramp(model.footprint, onchip_cap);
  rates.has_flat = platform.flat_opm_bytes > 0;
  rates.opm_frac =
      rates.has_flat ? std::min(1.0, static_cast<double>(platform.flat_opm_bytes) /
                                         std::max(model.footprint, 1.0))
                     : 0.0;
  const bool straddles =
      rates.has_flat && model.footprint > static_cast<double>(platform.flat_opm_bytes);
  rates.penalty = straddles ? platform.split_penalty : 1.0;
  for (const auto& dev : platform.devices) {
    sim::ChannelLoad ch;
    ch.bandwidth = dev.bandwidth;
    ch.latency = dev.latency / ramp;
    ch.penalty = rates.penalty;
    add_channel(ch);
  }
  return rates;
}

namespace {

/// build_workload with the rates built, into a default-constructed `work`:
/// only the miss-curve calls and the byte split are the point's own.
void fold_workload(const sim::Platform& platform, const ChannelRates& rates,
                   const LocalityModel& model, sim::Workload& work) {
  work.flops = model.flops;
  work.compute_efficiency = model.compute_efficiency;
  work.mlp_lines = model.mlp_max;
  work.line_size = kLineSize;
  work.fixed_time = model.fixed_seconds;

  for (std::size_t t = 0; t < platform.tiers.size(); ++t) {
    const auto& tier = platform.tiers[t];
    const double cap_above = rates.capacity_above[t];
    sim::ChannelLoad ch;
    ch.bytes = cap_above <= 0.0 ? model.total_bytes : model.miss_bytes(cap_above);
    ch.bandwidth = tier.bandwidth;
    ch.tag_overhead = tier.tag_overhead;
    ch.bytes = std::min(ch.bytes, model.total_bytes);
    ch.latency = rates.latency[t];
    work.channels.push_back(ch);
  }

  const double bottom = std::min(model.miss_bytes(rates.bottom_capacity), model.total_bytes);
  for (std::size_t d = 0; d < platform.devices.size(); ++d) {
    sim::ChannelLoad ch;
    const bool is_flat_opm = rates.has_flat && d == 0;
    ch.bytes = is_flat_opm ? bottom * rates.opm_frac
                           : (rates.has_flat ? bottom * (1.0 - rates.opm_frac) : bottom);
    ch.bandwidth = platform.devices[d].bandwidth;
    ch.latency = rates.latency[platform.tiers.size() + d];
    ch.penalty = rates.penalty;
    work.channels.push_back(ch);
  }
}

}  // namespace

sim::Workload build_workload(const sim::Platform& platform, const LocalityModel& model) {
  sim::Workload work;
  fold_workload(platform, channel_rates(platform, model), model, work);
  return work;
}

Prediction predict(const sim::Platform& platform, const LocalityModel& model) {
  return predict(platform, channel_rates(platform, model), model);
}

Prediction predict(const sim::Platform& platform, const ChannelRates& rates,
                   const LocalityModel& model) {
  // Filled in place: a Prediction is over half a kilobyte, and building
  // its workload and timing apart and copying them in made a dense sweep
  // about 15% slower.
  Prediction out;
  fold_workload(platform, rates, model, out.workload);
  sim::predict_time(platform, out.workload, rates.effective_bw, /*double_precision=*/true,
                    out.timing);
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
