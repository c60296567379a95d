#pragma once

#include <cstddef>
#include <new>
#include <type_traits>

#include "sim/platform.hpp"
#include "sim/timing.hpp"

/// The analytical traffic-model framework — the executable Stepping Model.
///
/// Every kernel describes one execution as a LocalityModel: how many flops
/// it performs, how many bytes its cores request, and — the key piece — a
/// *miss curve* `miss_bytes(C)`: the bytes that must be fetched from below
/// a cache of capacity C. The miss curve is exactly what reuse-distance
/// analysis measures on real traces (opm::trace::ReuseDistanceAnalyzer),
/// which is how these models are cross-validated.
///
/// `build_workload` folds a LocalityModel against a Platform's tier stack:
/// each tier's channel load is the miss traffic of all capacity above it;
/// flat-mode OPM partitions split the bottom traffic by footprint; and the
/// direct-mapped MCDRAM cache pays a conflict-factor capacity derating and
/// a tag-check bandwidth overhead. Combined with the MLP ramp, the
/// timing-model output reproduces the paper's cache peaks and valleys
/// (Figure 6) quantitatively.
namespace opm::kernels {

/// Smooth miss fraction of a working set `ws` against capacity `capacity`:
/// ≈0 when ws ≪ capacity, 0.5 at ws = capacity, ≈1 when ws ≫ capacity.
/// `sharpness` controls the transition width in the log domain.
///
/// Each thread keeps its last kMissMemoEntries evaluations of the
/// logistic, keyed on the exact bits of the three arguments, and returns
/// the stored result on a repeat: every point of a dense sweep row asks
/// for the same (footprint, capacity) pairs (docs/MODEL.md §3).
double capacity_miss_fraction(double ws, double capacity, double sharpness = 6.0);

/// Entries in capacity_miss_fraction's per-thread memo.
inline constexpr std::size_t kMissMemoEntries = 8;

/// A miss curve stored inline: any trivially copyable callable
/// `double(double)` whose captures fit in kCapacity bytes, invoked through
/// one function pointer. Builders assign their lambdas as they are
/// (`m.miss_bytes = [n, nb](double capacity) { ... };`); nothing is
/// allocated, and copying one is a plain byte copy. A capture that is too
/// large or not trivially copyable fails to compile.
class MissCurve {
 public:
  static constexpr std::size_t kCapacity = 48;

  MissCurve() = default;

  template <typename F, typename = std::enable_if_t<!std::is_same_v<std::decay_t<F>, MissCurve>>>
  MissCurve(const F& curve) : call_(&invoke<F>) {  // implicit: lambdas assign directly
    static_assert(std::is_trivially_copyable_v<F>,
                  "miss curve captures must be trivially copyable");
    static_assert(sizeof(F) <= kCapacity && alignof(F) <= alignof(std::max_align_t),
                  "miss curve captures exceed MissCurve::kCapacity");
    static_assert(std::is_invocable_r_v<double, const F&, double>,
                  "a miss curve maps a capacity (double) to bytes (double)");
    ::new (static_cast<void*>(storage_)) F(curve);
  }

  /// Bytes requested from below a cache of `capacity` bytes.
  double operator()(double capacity) const { return call_(storage_, capacity); }

  /// False for a default-constructed (empty) curve, which must not be called.
  explicit operator bool() const { return call_ != nullptr; }

 private:
  template <typename F>
  static double invoke(const unsigned char* storage, double capacity) {
    return (*std::launder(reinterpret_cast<const F*>(storage)))(capacity);
  }

  alignas(std::max_align_t) unsigned char storage_[kCapacity] = {};
  double (*call_)(const unsigned char*, double) = nullptr;
};

/// Analytic description of one kernel execution on one problem size.
struct LocalityModel {
  double flops = 0.0;
  /// Bytes the cores request (L1 channel load).
  double total_bytes = 0.0;
  /// Distinct bytes touched (decides flat-mode placement and MLP ramp).
  double footprint = 0.0;
  /// Miss curve: capacity (bytes) -> bytes requested from below it.
  /// Must be non-increasing in capacity.
  MissCurve miss_bytes;
  /// Fraction of machine peak flops the compute stages can achieve.
  double compute_efficiency = 1.0;
  /// Outstanding cache-line requests machine-wide at full memory pressure.
  /// Latency-bound kernels (SpTRSV) have intrinsically low values. The
  /// fraction of this actually available to a channel ramps with the
  /// footprint relative to the on-chip cache capacity — the paper's
  /// cache-valley mechanism ("MLP at this point is insufficient to
  /// saturate the bandwidth of the lower memory hierarchy").
  double mlp_max = 64.0;
  /// Effective-capacity derating for direct-mapped memory-side caches
  /// (conflict misses; MCDRAM cache mode).
  double direct_mapped_factor = 0.6;
  /// Non-overlappable serial time per execution (synchronization costs);
  /// forwarded to sim::Workload::fixed_time.
  double fixed_seconds = 0.0;
};

/// Predicted performance of a model on a platform.
struct Prediction {
  sim::Workload workload{};
  sim::TimingBreakdown timing{};
  double gflops = 0.0;
  double seconds = 0.0;
  /// Average bandwidth drawn from DDR and from OPM during the run (GB/s),
  /// inputs to the power model.
  double ddr_gbps = 0.0;
  double opm_gbps = 0.0;
  /// Achieved compute utilization (flops over machine DP peak).
  double utilization = 0.0;
};

/// The part of a prediction fixed by the platform and by three model
/// fields — footprint, mlp_max and direct_mapped_factor — and by nothing
/// else: each tier's miss-curve argument, every channel's ramped latency
/// and effective bandwidth, and the flat partition's split. Along a row of
/// a dense (n, nb) sweep only nb moves and none of the three does, so
/// core::sweep_dense builds one ChannelRates per row and predicts every
/// point of the row with it.
struct ChannelRates {
  /// The model fields these rates were built from (see fits()).
  double footprint = 0.0;
  double mlp_max = 0.0;
  double direct_mapped_factor = 0.0;
  /// Per tier: the capacity above it, which its miss-curve call takes.
  sim::ChannelArray<double> capacity_above{};
  /// Every tier's capacity: the bottom traffic's miss-curve argument.
  double bottom_capacity = 0.0;
  /// Per channel, tiers then devices: the latency with the MLP ramp
  /// divided out, and sim::effective_bandwidth under mlp_max.
  sim::ChannelArray<double> latency{};
  sim::ChannelArray<double> effective_bw{};
  /// Share of the bottom traffic placed in the flat OPM partition, and the
  /// devices' slowdown when the footprint straddles it.
  bool has_flat = false;
  double opm_frac = 0.0;
  double penalty = 1.0;

  /// True when `model` has this ChannelRates' footprint, mlp_max and
  /// direct_mapped_factor bit for bit, so predicting it with these rates
  /// gives the bits predict(platform, model) gives.
  bool fits(const LocalityModel& model) const;
};

/// The ChannelRates of `model` on `platform`. Calls no miss curve. Throws
/// std::invalid_argument when the platform has more than
/// sim::kMaxChannels tiers + devices.
ChannelRates channel_rates(const sim::Platform& platform, const LocalityModel& model);

/// Folds the locality model against the platform's hierarchy: one channel
/// per tier, then one per device (sim::channel_name resolves them). Throws
/// std::invalid_argument when the platform has more than sim::kMaxChannels
/// tiers + devices.
sim::Workload build_workload(const sim::Platform& platform, const LocalityModel& model);

/// Full pipeline: workload -> timing -> throughput + power-model inputs.
/// Allocates nothing. Its floating-point operations run in a fixed order,
/// so every output bit — and every golden and cache payload built from
/// it — stays put (docs/MODEL.md §3).
Prediction predict(const sim::Platform& platform, const LocalityModel& model);

/// predict with the rates already built: `rates` must come from
/// channel_rates on this platform for a model that rates.fits(). The
/// two-argument predict is this one with channel_rates(platform, model).
Prediction predict(const sim::Platform& platform, const ChannelRates& rates,
                   const LocalityModel& model);

}  // namespace opm::kernels
