#include "sim/timing.hpp"

#include <algorithm>

#include "util/units.hpp"

namespace opm::sim {

std::string_view channel_name(const Platform& platform, std::size_t i) {
  if (i == kComputeBound) return "compute";
  if (i < platform.tiers.size()) return platform.tiers[i].geometry.name;
  i -= platform.tiers.size();
  if (i < platform.devices.size()) return platform.devices[i].name;
  throw std::out_of_range("sim::channel_name: no such channel on " + platform.name);
}

double effective_bandwidth(const ChannelLoad& channel, double mlp_lines, double line_size) {
  const double peak = channel.bandwidth * (1.0 - channel.tag_overhead);
  double bw = peak;
  if (channel.latency > 0.0 && mlp_lines > 0.0) {
    // Little's law: concurrency-limited throughput.
    const double concurrency_bw = mlp_lines * line_size / channel.latency;
    bw = std::min(bw, concurrency_bw);
  }
  const double penalty = std::max(channel.penalty, 1.0);
  return bw / penalty;
}

TimingBreakdown predict_time(const Platform& platform, const Workload& work,
                             bool double_precision) {
  ChannelArray<double> effective_bw;
  for (std::size_t c = 0; c < work.channels.size(); ++c)
    effective_bw.push_back(effective_bandwidth(work.channels[c], work.mlp_lines, work.line_size));
  TimingBreakdown out;
  predict_time(platform, work, effective_bw, double_precision, out);
  return out;
}

void predict_time(const Platform& platform, const Workload& work,
                  const ChannelArray<double>& effective_bw, bool double_precision,
                  TimingBreakdown& out) {
  const double peak = double_precision ? platform.dp_peak_flops : platform.sp_peak_flops;
  const double eff = std::clamp(work.compute_efficiency, 1e-6, 1.0);
  out.compute_time = peak > 0.0 ? work.flops / (peak * eff) : 0.0;

  out.total_time = out.compute_time;
  for (std::size_t c = 0; c < work.channels.size(); ++c) {
    const ChannelLoad& ch = work.channels[c];
    const double bw = effective_bw[c];
    const double t = (bw > 0.0 && ch.bytes > 0.0) ? ch.bytes / bw : 0.0;
    out.channel_times.push_back(t);
    out.channel_eff_bw.push_back(bw);
    if (t > out.total_time) {
      out.total_time = t;
      out.bound_channel = c;
    }
  }
  out.total_time += std::max(work.fixed_time, 0.0);
}

double gflops(const Workload& work, const TimingBreakdown& timing) {
  return timing.total_time > 0.0 ? util::to_gflops(work.flops / timing.total_time) : 0.0;
}

}  // namespace opm::sim
