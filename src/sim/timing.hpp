#pragma once

#include <cstddef>
#include <stdexcept>
#include <string_view>

#include "sim/platform.hpp"

/// Analytical execution-time prediction.
///
/// This is the quantitative core of the reproduction: given how many flops
/// a kernel performs and how many bytes each hierarchy tier must deliver,
/// it predicts execution time on a simulated platform under an overlap
/// model — compute and every transfer channel proceed concurrently and the
/// slowest one bounds the run. Channels can be *bandwidth-bound* (traffic /
/// peak bandwidth) or *latency-bound* (limited by outstanding-miss
/// concurrency, i.e. memory-level parallelism) — the distinction the paper
/// uses to explain why SpTRSV loses on MCDRAM while SpMV wins (section
/// 4.2.2).
///
/// Every per-channel container here is a fixed-capacity inline array, so a
/// prediction touches no heap: a cold served sweep evaluates thousands of
/// them per request.
namespace opm::sim {

/// Most channels one workload carries: a platform's tiers plus its
/// devices. The built-in platforms use at most 5; kernels::build_workload
/// and parse_platform reject platforms that need more.
inline constexpr std::size_t kMaxChannels = 8;

/// TimingBreakdown::bound_channel when no channel outlasts compute.
inline constexpr std::size_t kComputeBound = static_cast<std::size_t>(-1);

/// Fixed-capacity sequence of per-channel values, stored inline.
template <typename T>
class ChannelArray {
 public:
  /// Throws std::length_error past kMaxChannels entries.
  void push_back(const T& value) {
    if (size_ == kMaxChannels)
      throw std::length_error("sim::ChannelArray: more than kMaxChannels channels");
    items_[size_++] = value;
  }

  std::size_t size() const { return size_; }
  const T& operator[](std::size_t i) const { return items_[i]; }
  const T& back() const { return items_[size_ - 1]; }

 private:
  T items_[kMaxChannels]{};
  std::size_t size_ = 0;
};

/// One transfer channel: a cache tier or a backing device under load.
/// Channels carry no name; channel_name() resolves one by index.
struct ChannelLoad {
  double bytes = 0.0;         ///< bytes this channel must deliver
  double bandwidth = 0.0;     ///< peak bytes/s of the channel
  double latency = 0.0;       ///< seconds per line when unloaded
  double tag_overhead = 0.0;  ///< fraction of bandwidth lost to tag checks
  double penalty = 1.0;       ///< multiplicative slowdown (flat-mode split)
};

/// A kernel execution expressed as work for the timing model.
struct Workload {
  double flops = 0.0;
  /// Fraction of machine peak the compute stages can reach given the
  /// kernel's tuning (tiling quality, vectorization, dependency stalls).
  double compute_efficiency = 1.0;
  /// Average outstanding line requests across the whole machine. Low MLP
  /// makes channels latency-bound; high MLP saturates bandwidth.
  double mlp_lines = 64.0;
  /// Cache-line size used to convert MLP into deliverable bytes/s.
  double line_size = 64.0;
  /// Non-overlappable serial time (e.g. level-set barrier costs in
  /// SpTRSV); added on top of the overlapped compute/transfer maximum.
  double fixed_time = 0.0;
  ChannelArray<ChannelLoad> channels{};
};

/// Result of a prediction, with per-channel attribution for analysis.
struct TimingBreakdown {
  double compute_time = 0.0;
  ChannelArray<double> channel_times{};   ///< aligned with Workload::channels
  ChannelArray<double> channel_eff_bw{};  ///< effective bandwidth used
  double total_time = 0.0;
  /// Index of the limiting channel in Workload::channels, or kComputeBound.
  std::size_t bound_channel = kComputeBound;
};

/// Name of channel `i` of a workload built for `platform` by
/// kernels::build_workload: the tiers first, then the devices.
/// kComputeBound resolves to "compute". The view refers into `platform`.
/// Throws std::out_of_range for any other index past the last device.
std::string_view channel_name(const Platform& platform, std::size_t i);

/// Effective deliverable bandwidth of one channel under the given MLP:
/// min(peak * (1 - tag_overhead), mlp_lines * line_size / latency) / penalty.
double effective_bandwidth(const ChannelLoad& channel, double mlp_lines, double line_size);

/// Predicts the execution time of `work` on `platform`.
/// `double_precision` selects the flop peak (the paper evaluates DP only).
TimingBreakdown predict_time(const Platform& platform, const Workload& work,
                             bool double_precision = true);

/// predict_time with each channel's effective_bandwidth already known,
/// written into `out`, which must be default-constructed (so a caller can
/// fill a TimingBreakdown that lives inside a larger result in place).
/// `effective_bw[c]` must be effective_bandwidth(work.channels[c],
/// work.mlp_lines, work.line_size), one entry per channel. The overload
/// above computes them and calls this one, so both give the same bits.
void predict_time(const Platform& platform, const Workload& work,
                  const ChannelArray<double>& effective_bw, bool double_precision,
                  TimingBreakdown& out);

/// Convenience: GFlop/s implied by a breakdown.
double gflops(const Workload& work, const TimingBreakdown& timing);

}  // namespace opm::sim
