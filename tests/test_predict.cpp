// kernels::predict against a verbatim copy of its earlier vector-and-string
// implementation, bit for bit, plus a heap-allocation guard.
//
// The reference below (namespace opm::ref) is the build_workload /
// predict_time / predict that stored channel names as std::string, the
// per-channel results in std::vector and the miss curve in a
// std::function. The optimized code must reproduce every one of its
// outputs exactly — compared with memcmp, no tolerance — on seeded random
// locality models and on all eight kernel builders, over every built-in
// platform, KNL under each cluster mode, and a parsed config with a victim
// tier, three devices and a flat partition.
//
// The reference's models come from the same builders, so their miss
// curves call the memoized capacity_miss_fraction too. Three more oracles
// cover what it cannot: the memo against a local copy of the formula,
// predictions with channel rates built from another model, and dense
// sweeps (whose rows share rates) against predict point by point.
//
// This binary also replaces every form of global operator new with a
// per-thread counting version. The guard tests pin that the model builders
// and predict allocate nothing, and that a serial 4,096-point sweep with
// the result cache off allocates a bounded handful (its output vectors and
// stats records), not a few per point. Counts are per thread and the
// sweeps run serial, so the numbers are the same on any core count.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <iterator>
#include <limits>
#include <new>
#include <string>
#include <thread>
#include <vector>

#include "core/experiment.hpp"
#include "core/result_cache.hpp"
#include "core/sweep.hpp"
#include "kernels/cholesky.hpp"
#include "kernels/fft.hpp"
#include "kernels/gemm.hpp"
#include "kernels/model.hpp"
#include "kernels/spmv.hpp"
#include "kernels/sptrans.hpp"
#include "kernels/sptrsv.hpp"
#include "kernels/stencil.hpp"
#include "kernels/stream.hpp"
#include "sim/config_io.hpp"
#include "sim/platform.hpp"
#include "sim/timing.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"

// ------------------------------------------------------- counting new --

namespace {

thread_local std::size_t t_allocations = 0;

void* counted_alloc(std::size_t size) {
  ++t_allocations;
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

void* counted_alloc(std::size_t size, std::align_val_t align) {
  ++t_allocations;
  const std::size_t a = std::max(static_cast<std::size_t>(align), sizeof(void*));
  void* p = nullptr;
  if (posix_memalign(&p, a, size == 0 ? 1 : size) == 0) return p;
  throw std::bad_alloc();
}

/// Allocations made by the calling thread since construction.
class AllocationCount {
 public:
  std::size_t operator()() const { return t_allocations - start_; }

 private:
  std::size_t start_ = t_allocations;
};

}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return counted_alloc(size);
  } catch (...) {
    return nullptr;
  }
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return counted_alloc(size);
  } catch (...) {
    return nullptr;
  }
}
void* operator new(std::size_t size, std::align_val_t align) { return counted_alloc(size, align); }
void* operator new[](std::size_t size, std::align_val_t align) {
  return counted_alloc(size, align);
}
void* operator new(std::size_t size, std::align_val_t align, const std::nothrow_t&) noexcept {
  try {
    return counted_alloc(size, align);
  } catch (...) {
    return nullptr;
  }
}
void* operator new[](std::size_t size, std::align_val_t align, const std::nothrow_t&) noexcept {
  try {
    return counted_alloc(size, align);
  } catch (...) {
    return nullptr;
  }
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t, const std::nothrow_t&) noexcept {
  std::free(p);
}

// ----------------------------------------------------------- reference --
//
// Verbatim copies of the earlier src/sim/timing.cpp and
// src/kernels/model.cpp bodies, over their own vector-and-string types.

namespace opm::ref {

namespace sim {

using opm::sim::CacheTierSpec;
using opm::sim::Platform;
using opm::sim::TierKind;

struct ChannelLoad {
  std::string name;
  double bytes = 0.0;
  double bandwidth = 0.0;
  double latency = 0.0;
  double tag_overhead = 0.0;
  double penalty = 1.0;
};

struct Workload {
  double flops = 0.0;
  double compute_efficiency = 1.0;
  double mlp_lines = 64.0;
  double line_size = 64.0;
  double fixed_time = 0.0;
  std::vector<ChannelLoad> channels;
};

struct TimingBreakdown {
  double compute_time = 0.0;
  std::vector<double> channel_times;
  std::vector<double> channel_eff_bw;
  double total_time = 0.0;
  std::string bound_by;
};

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
  TimingBreakdown out;
  const double peak = double_precision ? platform.dp_peak_flops : platform.sp_peak_flops;
  const double eff = std::clamp(work.compute_efficiency, 1e-6, 1.0);
  out.compute_time = peak > 0.0 ? work.flops / (peak * eff) : 0.0;

  out.total_time = out.compute_time;
  out.bound_by = "compute";
  out.channel_times.reserve(work.channels.size());
  out.channel_eff_bw.reserve(work.channels.size());
  for (const auto& ch : work.channels) {
    const double bw = effective_bandwidth(ch, work.mlp_lines, work.line_size);
    const double t = (bw > 0.0 && ch.bytes > 0.0) ? ch.bytes / bw : 0.0;
    out.channel_times.push_back(t);
    out.channel_eff_bw.push_back(bw);
    if (t > out.total_time) {
      out.total_time = t;
      out.bound_by = ch.name;
    }
  }
  out.total_time += std::max(work.fixed_time, 0.0);
  return out;
}

double gflops(const Workload& work, const TimingBreakdown& timing) {
  return timing.total_time > 0.0 ? util::to_gflops(work.flops / timing.total_time) : 0.0;
}

}  // namespace sim

namespace kernels {

using opm::kernels::LocalityModel;

struct Prediction {
  sim::Workload workload;
  sim::TimingBreakdown timing;
  double gflops = 0.0;
  double seconds = 0.0;
  double ddr_gbps = 0.0;
  double opm_gbps = 0.0;
  double utilization = 0.0;
};

namespace {

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
    ch.name = tier.geometry.name;
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
    ch.name = dev.name;
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
  Prediction out;
  out.workload = kernels::build_workload(platform, model);  // qualified: no ADL into opm::kernels
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

}  // namespace kernels

}  // namespace opm::ref

// --------------------------------------------------------------- tests --

namespace opm {
namespace {

using kernels::LocalityModel;

std::vector<sim::Platform> builtin_platforms() {
  return {sim::broadwell(sim::EdramMode::kOff), sim::broadwell(sim::EdramMode::kOn),
          sim::knl(sim::McdramMode::kOff),      sim::knl(sim::McdramMode::kCache),
          sim::knl(sim::McdramMode::kFlat),     sim::knl(sim::McdramMode::kHybrid)};
}

/// Seven channels: two standard tiers, a victim tier, a direct-mapped
/// memory-side tier, and three devices behind a flat partition.
constexpr const char* kSyntheticConfig =
    "name = synthetic\n"
    "mode_label = victim + 3 devices\n"
    "cores = 16\n"
    "threads = 32\n"
    "frequency = 2e9\n"
    "sp_peak_flops = 2e12\n"
    "dp_peak_flops = 1e12\n"
    "tier = name:L1 kind:standard capacity:524288 line:64 ways:8 bandwidth:4e12 latency:1e-9\n"
    "tier = name:L2 kind:standard capacity:16777216 line:64 ways:16 bandwidth:1e12 "
    "latency:5e-9\n"
    "tier = name:V3 kind:victim capacity:67108864 line:64 ways:16 bandwidth:4e11 latency:2e-8 "
    "tag_overhead:0.05\n"
    "tier = name:MS4 kind:memory-side capacity:1073741824 line:64 ways:1 bandwidth:3e11 "
    "latency:6e-8 tag_overhead:0.1\n"
    "device = name:HBM capacity:4294967296 bandwidth:4e11 latency:1.5e-7 on_package:1\n"
    "device = name:NVM capacity:274877906944 bandwidth:2e10 latency:3e-7 on_package:0\n"
    "device = name:DDR capacity:68719476736 bandwidth:9e10 latency:1e-7 on_package:0\n"
    "flat_opm_bytes = 4294967296\n"
    "split_penalty = 1.25\n";

/// Every platform the differential covers: the 6 built-ins, KNL in all
/// four MCDRAM modes under each cluster mode, and the parsed config.
std::vector<sim::Platform> differential_platforms() {
  std::vector<sim::Platform> out = builtin_platforms();
  for (auto cluster : {sim::ClusterMode::kAllToAll, sim::ClusterMode::kSnc4})
    for (auto mode : {sim::McdramMode::kOff, sim::McdramMode::kCache, sim::McdramMode::kFlat,
                      sim::McdramMode::kHybrid})
      out.push_back(sim::knl(mode, cluster));
  out.push_back(sim::parse_platform_string(kSyntheticConfig));
  return out;
}

bool same_bits(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

/// Compares `got` with the reference prediction of `m` field by field, by
/// bit pattern. Returns the number of differing fields and describes the
/// first one in `*first`.
std::size_t count_diffs(const sim::Platform& p, const kernels::Prediction& got,
                        const LocalityModel& m, std::string* first) {
  const ref::kernels::Prediction want = ref::kernels::predict(p, m);
  std::size_t diffs = 0;
  const auto check = [&](bool same, const std::string& what) {
    if (same) return;
    if (diffs++ == 0) *first = p.mode_label + ": " + what;
  };
  check(same_bits(got.gflops, want.gflops), "gflops");
  check(same_bits(got.seconds, want.seconds), "seconds");
  check(same_bits(got.ddr_gbps, want.ddr_gbps), "ddr_gbps");
  check(same_bits(got.opm_gbps, want.opm_gbps), "opm_gbps");
  check(same_bits(got.utilization, want.utilization), "utilization");
  check(same_bits(got.timing.compute_time, want.timing.compute_time), "compute_time");
  check(same_bits(got.timing.total_time, want.timing.total_time), "total_time");
  check(sim::channel_name(p, got.timing.bound_channel) == want.timing.bound_by, "bound channel");
  const std::size_t n = want.workload.channels.size();
  check(got.workload.channels.size() == n && got.timing.channel_times.size() == n &&
            got.timing.channel_eff_bw.size() == n,
        "channel count");
  if (got.workload.channels.size() != n) return diffs;
  for (std::size_t c = 0; c < n; ++c) {
    const sim::ChannelLoad& g = got.workload.channels[c];
    const ref::sim::ChannelLoad& w = want.workload.channels[c];
    const std::string at = " of channel " + w.name;
    check(sim::channel_name(p, c) == w.name, "name" + at);
    check(same_bits(g.bytes, w.bytes), "bytes" + at);
    check(same_bits(g.bandwidth, w.bandwidth), "bandwidth" + at);
    check(same_bits(g.latency, w.latency), "latency" + at);
    check(same_bits(g.tag_overhead, w.tag_overhead), "tag_overhead" + at);
    check(same_bits(g.penalty, w.penalty), "penalty" + at);
    check(same_bits(got.timing.channel_times[c], want.timing.channel_times[c]), "time" + at);
    check(same_bits(got.timing.channel_eff_bw[c], want.timing.channel_eff_bw[c]),
          "effective bandwidth" + at);
  }
  return diffs;
}

std::size_t count_diffs(const sim::Platform& p, const LocalityModel& m, std::string* first) {
  return count_diffs(p, kernels::predict(p, m), m, first);
}

/// A seeded random locality model. Efficiencies land outside [1e-6, 1]
/// often enough to make predict_time's clamp fire; footprints straddle
/// the flat-OPM boundary on platforms that have one.
LocalityModel random_model(util::Xoshiro256& rng, const sim::Platform& p) {
  LocalityModel m;
  const double log_fp = p.flat_opm_bytes > 0
                            ? std::log2(static_cast<double>(p.flat_opm_bytes)) + rng.uniform(-2, 2)
                            : rng.uniform(8.0, 40.0);
  m.footprint = rng.uniform() < 0.05 ? static_cast<double>(p.flat_opm_bytes) : std::exp2(log_fp);
  m.total_bytes = m.footprint * rng.uniform(0.25, 64.0);
  m.flops = m.total_bytes * std::exp2(rng.uniform(-8.0, 8.0));
  // The stream term may exceed total_bytes so build_workload's clamp fires.
  const double stream = m.total_bytes * rng.uniform(0.0, 1.5);
  const double reuse = m.total_bytes * rng.uniform(0.0, 1.0);
  const double fp = m.footprint;
  const double hot = m.footprint * rng.uniform(0.001, 1.0);
  const double sharpness = rng.uniform(1.0, 12.0);
  m.miss_bytes = [stream, reuse, fp, hot, sharpness](double capacity) {
    return stream * kernels::capacity_miss_fraction(fp, capacity, sharpness) +
           reuse * kernels::capacity_miss_fraction(hot, capacity);
  };
  constexpr double kOffRange[] = {-0.5, 0.0, 1e-9, 1.5, 40.0};
  m.compute_efficiency = rng.uniform() < 0.3 ? kOffRange[rng.bounded(5)] : rng.uniform(1e-6, 1.0);
  m.mlp_max = rng.uniform() < 0.05 ? 0.0 : std::exp2(rng.uniform(0.0, 12.0));
  m.direct_mapped_factor = rng.uniform(0.05, 1.0);
  m.fixed_seconds = rng.uniform() < 0.5 ? rng.uniform(0.0, 1e-2) : 0.0;
  return m;
}

/// One model from each of the eight kernel builders on a random shape.
std::vector<LocalityModel> random_kernel_models(util::Xoshiro256& rng, const sim::Platform& p) {
  const double n = std::exp2(rng.uniform(4.0, 15.5));
  const double nb = std::exp2(rng.uniform(0.0, 13.0));
  const double rows = std::floor(std::exp2(rng.uniform(4.0, 26.0)));
  const double nnz = rows * rng.uniform(1.0, 64.0);
  const double locality = rng.uniform();
  const double par = rng.uniform(1.0, rows);
  return {
      kernels::gemm_model(p, n, nb),
      kernels::cholesky_model(p, n, nb),
      kernels::spmv_model(p, {.rows = rows, .nnz = nnz, .locality = locality,
                              .row_cv = rng.uniform(0.0, 5.0), .csr5 = rng.uniform() < 0.5}),
      kernels::sptrsv_model(p, {.rows = rows, .nnz = nnz, .locality = locality,
                                .avg_parallelism = par,
                                .levels = rng.uniform() < 0.5 ? 0.0 : rows / par}),
      kernels::sptrans_model(p, {.rows = rows, .nnz = nnz, .locality = locality,
                                 .merge_based = rng.uniform() < 0.5}),
      kernels::fft_model(p, std::exp2(rng.uniform(2.0, 11.0))),
      kernels::stencil_model(p, std::exp2(rng.uniform(3.0, 11.0)),
                             std::exp2(rng.uniform(14.0, 26.0))),
      kernels::stream_model(p, std::exp2(rng.uniform(6.0, 32.0)), rng.uniform() < 0.5),
  };
}

TEST(PredictDifferential, RandomLocalityModelsMatchReferenceBitForBit) {
  util::Xoshiro256 rng(20171112);
  std::size_t diffs = 0;
  std::size_t cases = 0;
  std::string first;
  for (const sim::Platform& p : differential_platforms()) {
    for (int i = 0; i < 1500; ++i) {
      diffs += count_diffs(p, random_model(rng, p), &first);
      ++cases;
    }
  }
  EXPECT_EQ(cases, 15u * 1500u);
  EXPECT_EQ(diffs, 0u) << "first difference: " << first;
}

TEST(PredictDifferential, KernelBuildersMatchReferenceBitForBit) {
  util::Xoshiro256 rng(3072);
  std::size_t diffs = 0;
  std::string first;
  for (const sim::Platform& p : differential_platforms())
    for (int i = 0; i < 150; ++i)
      for (const LocalityModel& m : random_kernel_models(rng, p))
        diffs += count_diffs(p, m, &first);
  EXPECT_EQ(diffs, 0u) << "first difference: " << first;
}

TEST(PredictDifferential, RatesOfAnotherModelWithTheSameKeyMatchReference) {
  // The rates depend on footprint, mlp_max and direct_mapped_factor only:
  // rates built from a donor that shares those three predict any model.
  util::Xoshiro256 rng(2507);
  std::size_t diffs = 0;
  std::size_t cases = 0;
  std::string first;
  for (const sim::Platform& p : differential_platforms()) {
    for (int i = 0; i < 400; ++i) {
      const LocalityModel donor = random_model(rng, p);
      LocalityModel m = random_model(rng, p);
      m.footprint = donor.footprint;
      m.mlp_max = donor.mlp_max;
      m.direct_mapped_factor = donor.direct_mapped_factor;
      const kernels::ChannelRates rates = kernels::channel_rates(p, donor);
      ASSERT_TRUE(rates.fits(m));
      diffs += count_diffs(p, kernels::predict(p, rates, m), m, &first);
      ++cases;
    }
    // A dense sweep row: the rates of one tile edge serve every other edge.
    for (int i = 0; i < 50; ++i) {
      const double n = std::exp2(rng.uniform(4.0, 15.5));
      const double nb = std::exp2(rng.uniform(0.0, 13.0));
      const LocalityModel gemm = kernels::gemm_model(p, n, nb);
      const LocalityModel chol = kernels::cholesky_model(p, n, nb);
      const kernels::ChannelRates gemm_row =
          kernels::channel_rates(p, kernels::gemm_model(p, n, 8));
      const kernels::ChannelRates chol_row =
          kernels::channel_rates(p, kernels::cholesky_model(p, n, 8));
      ASSERT_TRUE(gemm_row.fits(gemm) && chol_row.fits(chol));
      diffs += count_diffs(p, kernels::predict(p, gemm_row, gemm), gemm, &first);
      diffs += count_diffs(p, kernels::predict(p, chol_row, chol), chol, &first);
      cases += 2;
    }
  }
  EXPECT_EQ(cases, 15u * 500u);
  EXPECT_EQ(diffs, 0u) << "first difference: " << first;
}

TEST(PredictDifferential, RatesFitOnlyModelsWithTheSameKeyBits) {
  const sim::Platform p = sim::knl(sim::McdramMode::kCache);
  const LocalityModel m = kernels::gemm_model(p, 4096, 256);
  const kernels::ChannelRates rates = kernels::channel_rates(p, m);
  EXPECT_TRUE(rates.fits(m));
  // The fields the rates do not read may change freely.
  LocalityModel other = kernels::gemm_model(p, 4096, 1024);
  other.flops *= 3.0;
  other.fixed_seconds = 1e-3;
  EXPECT_TRUE(rates.fits(other));
  // One ulp in any of the three does not fit.
  for (double LocalityModel::*field :
       {&LocalityModel::footprint, &LocalityModel::mlp_max, &LocalityModel::direct_mapped_factor}) {
    LocalityModel moved = m;
    moved.*field = std::nextafter(moved.*field, 0.0);
    EXPECT_FALSE(rates.fits(moved));
  }
}

TEST(PredictDifferential, ParsedConfigUsesEveryChannelKind) {
  const sim::Platform p = sim::parse_platform_string(kSyntheticConfig);
  ASSERT_EQ(p.tiers.size() + p.devices.size(), 7u);
  EXPECT_EQ(p.tiers[2].kind, sim::TierKind::kVictim);
  EXPECT_EQ(p.tiers[3].kind, sim::TierKind::kMemorySide);
  EXPECT_GT(p.flat_opm_bytes, 0u);
  // A footprint past the flat partition loads all three devices.
  const kernels::Prediction pred = kernels::predict(p, kernels::stream_model(p, 1e9));
  for (std::size_t c = p.tiers.size(); c < pred.workload.channels.size(); ++c)
    EXPECT_GT(pred.workload.channels[c].bytes, 0.0) << sim::channel_name(p, c);
}

// ------------------------------------------------------ miss-curve memo --

/// capacity_miss_fraction's formula, without the per-thread memo.
double miss_fraction_formula(double ws, double capacity, double sharpness) {
  if (ws <= 0.0) return 0.0;
  if (capacity <= 0.0) return 1.0;
  const double ratio = capacity / ws;
  return 1.0 / (1.0 + std::pow(ratio, sharpness));
}

/// Runs seeded call sequences through capacity_miss_fraction and counts
/// the results whose bits differ from the formula's. Key pools are shorter
/// than, as long as and longer than the memo, so calls hit, miss and
/// evict; keys sit one ulp from each other and repeat under another
/// sharpness; arguments include ±0, subnormals, infinities and NaN.
std::size_t memo_mismatches(std::uint64_t seed) {
  struct Key {
    double ws;
    double capacity;
    double sharpness;
  };
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double specials[] = {0.0,  -0.0, std::numeric_limits<double>::denorm_min(), 1e-310,
                             kInf, -kInf, nan, -1.0, 1.0};
  const double sharpnesses[] = {6.0, 1.0, 2.5, 12.0, 0.0, -3.0, kInf, nan};
  constexpr std::size_t kTable = kernels::kMissMemoEntries;
  const std::size_t pool_sizes[] = {1, 2, 3, kTable - 1, kTable, kTable + 1, 2 * kTable + 3};
  util::Xoshiro256 rng(seed);
  const auto argument = [&] {
    return rng.uniform() < 0.15 ? specials[rng.bounded(std::size(specials))]
                                : std::exp2(rng.uniform(-20.0, 40.0));
  };
  std::size_t mismatches = 0;
  std::vector<Key> pool;
  for (int sequence = 0; sequence < 300; ++sequence) {
    const std::size_t size = pool_sizes[rng.bounded(std::size(pool_sizes))];
    pool.clear();
    while (pool.size() < size) {
      const Key key{argument(), argument(),
                    rng.uniform() < 0.5 ? 6.0 : sharpnesses[rng.bounded(std::size(sharpnesses))]};
      pool.push_back(key);
      const Key neighbours[] = {{std::nextafter(key.ws, kInf), key.capacity, key.sharpness},
                                {key.ws, std::nextafter(key.capacity, -kInf), key.sharpness},
                                {key.ws, key.capacity, key.sharpness + 1.0}};
      for (const Key& near : neighbours)
        if (pool.size() < size && rng.uniform() < 0.3) pool.push_back(near);
    }
    // Cycle through the pool, alternate its two ends, or pick at random.
    const std::uint64_t pattern = rng.bounded(3);
    for (std::size_t call = 0; call < 64; ++call) {
      const std::size_t i = pattern == 0   ? call % size
                            : pattern == 1 ? (call % 2) * (size - 1)
                                           : rng.bounded(size);
      const Key& k = pool[i];
      const double got = kernels::capacity_miss_fraction(k.ws, k.capacity, k.sharpness);
      if (!same_bits(got, miss_fraction_formula(k.ws, k.capacity, k.sharpness))) ++mismatches;
    }
  }
  return mismatches;
}

TEST(MissMemo, MatchesTheFormulaBitForBitThroughHitsAndEvictions) {
  EXPECT_EQ(memo_mismatches(7), 0u);
  // The default sharpness shares the table with explicit ones.
  for (double ws : {1e6, std::nextafter(1e6, 0.0), 1e6})
    for (double capacity : {5e5, 1e6, 2e6})
      EXPECT_TRUE(same_bits(kernels::capacity_miss_fraction(ws, capacity),
                            miss_fraction_formula(ws, capacity, 6.0)));
}

TEST(MissMemo, EachThreadKeepsItsOwnTable) {
  constexpr std::size_t kThreads = 4;
  std::size_t mismatches[kThreads] = {};
  std::vector<std::thread> threads;  // opm-lint: allow(thread-ownership) — four tables at once
  for (std::size_t t = 0; t < kThreads; ++t)
    threads.emplace_back([&mismatches, t] { mismatches[t] = memo_mismatches(100 + t); });
  for (auto& thread : threads) thread.join();
  for (std::size_t t = 0; t < kThreads; ++t) EXPECT_EQ(mismatches[t], 0u) << "thread " << t;
}

TEST(ChannelCap, BuildWorkloadRejectsPlatformsPastTheCap) {
  sim::Platform p = sim::knl(sim::McdramMode::kHybrid);
  while (p.tiers.size() + p.devices.size() < sim::kMaxChannels) p.tiers.push_back(p.tiers.back());
  EXPECT_NO_THROW(kernels::predict(p, kernels::stream_model(p, 1e6)));
  p.tiers.push_back(p.tiers.back());
  EXPECT_THROW(kernels::build_workload(p, kernels::stream_model(p, 1e6)), std::invalid_argument);
  EXPECT_THROW(kernels::predict(p, kernels::stream_model(p, 1e6)), std::invalid_argument);
}

TEST(ChannelCap, ChannelArrayRefusesAnEntryPastTheCap) {
  sim::Workload w;
  for (std::size_t c = 0; c < sim::kMaxChannels; ++c) w.channels.push_back({.bytes = 1.0});
  EXPECT_THROW(w.channels.push_back({}), std::length_error);
  EXPECT_EQ(w.channels.size(), sim::kMaxChannels);
}

TEST(ChannelName, ResolvesTiersThenDevices) {
  const sim::Platform p = sim::knl(sim::McdramMode::kHybrid);
  EXPECT_EQ(sim::channel_name(p, 0), "L1");
  EXPECT_EQ(sim::channel_name(p, 2), "MCDRAM$(8G)");
  EXPECT_EQ(sim::channel_name(p, 3), "MCDRAM-flat(8G)");
  EXPECT_EQ(sim::channel_name(p, 4), "DDR4-2133");
  EXPECT_EQ(sim::channel_name(p, sim::kComputeBound), "compute");
  EXPECT_THROW(sim::channel_name(p, 5), std::out_of_range);
}

// ------------------------------------------------------ allocation guard --

TEST(AllocationGuard, CounterSeesHeapTraffic) {
  const sim::Platform p = sim::broadwell(sim::EdramMode::kOn);
  const LocalityModel m = kernels::gemm_model(p, 4096, 256);
  const AllocationCount count;
  const ref::kernels::Prediction old = ref::kernels::predict(p, m);
  EXPECT_GT(count(), 0u) << "the vector-and-string reference must register allocations";
  EXPECT_GT(old.gflops, 0.0);
}

TEST(AllocationGuard, ModelBuildersAllocateNothing) {
  for (const sim::Platform& p : builtin_platforms()) {
    const double n = 2048, nb = 256, rows = 1 << 20, nnz = 1 << 24;
    const AllocationCount builders;
    const LocalityModel built[] = {
        kernels::gemm_model(p, n, nb),
        kernels::cholesky_model(p, n, nb),
        kernels::spmv_model(p, {.rows = rows, .nnz = nnz, .locality = 0.3}),
        kernels::sptrsv_model(p, {.rows = rows, .nnz = nnz, .avg_parallelism = 64}),
        kernels::sptrans_model(p, {.rows = rows, .nnz = nnz}),
        kernels::fft_model(p, 512),
        kernels::stencil_model(p, 512),
        kernels::stream_model(p, 1e8),
    };
    EXPECT_EQ(builders(), 0u) << p.mode_label;
    for (const LocalityModel& m : built) EXPECT_TRUE(static_cast<bool>(m.miss_bytes));
  }
}

TEST(AllocationGuard, PredictAllocatesNothingOnAnyBuiltinPlatform) {
  for (const sim::Platform& p : builtin_platforms()) {
    const LocalityModel models[] = {
        kernels::gemm_model(p, 8192, 512),
        kernels::spmv_model(p, {.rows = 1 << 22, .nnz = 1 << 26, .locality = 0.1}),
        kernels::stream_model(p, 1e9),
    };
    double sink = 0.0;
    const AllocationCount count;
    for (const LocalityModel& m : models) {
      sink += kernels::predict(p, m).gflops;
      sink += kernels::predict(p, kernels::channel_rates(p, m), m).seconds;
    }
    EXPECT_EQ(count(), 0u) << p.mode_label;
    EXPECT_GT(sink, 0.0);
  }
}

/// Serial sweeps with the result cache off, restored afterwards.
class SerialUncachedSweeps : public ::testing::Test {
 protected:
  void SetUp() override {
    saved_workers_ = core::sweep_workers();
    core::set_sweep_workers(0);
    core::ResultCache::instance().configure(core::CacheConfig{});
  }
  void TearDown() override { core::set_sweep_workers(saved_workers_); }

 private:
  std::size_t saved_workers_ = 0;
};

TEST_F(SerialUncachedSweeps, DenseSweepAllocatesPerSweepNotPerPoint) {
  const sim::Platform p = sim::knl(sim::McdramMode::kFlat);
  // 64 orders x 64 tile edges = 4,096 points.
  const core::DenseSweepRequest req{.kernel = core::KernelId::kGemm,
                                    .n_lo = 512,
                                    .n_hi = 512 + 63 * 128,
                                    .n_step = 128,
                                    .nb_lo = 32,
                                    .nb_hi = 64 * 32,
                                    .nb_step = 32};
  ASSERT_EQ(core::sweep_dense(p, req).size(), 4096u);  // warm-up
  const AllocationCount count;
  const std::vector<core::SweepPoint> points = core::sweep_dense(p, req);
  const std::size_t allocations = count();
  ASSERT_EQ(points.size(), 4096u);
  EXPECT_LT(allocations, 64u);
}

TEST(RowRates, DenseSweepsEqualPointByPointPredictionsOnEveryBuiltinPlatform) {
  const std::size_t saved_workers = core::sweep_workers();
  core::ResultCache::instance().configure(core::CacheConfig{});
  // Rows long enough to share one ChannelRates, and rows too short to.
  const core::DenseSweepRequest shapes[] = {
      {.n_lo = 256, .n_hi = 256 + 11 * 704, .n_step = 704, .nb_lo = 8, .nb_hi = 8 + 23 * 96,
       .nb_step = 96},
      {.n_lo = 100, .n_hi = 100 + 30 * 333, .n_step = 333, .nb_lo = 16, .nb_hi = 48,
       .nb_step = 16},
  };
  const std::size_t expected_points[] = {12 * 24, 31 * 3};
  std::size_t diffs = 0;
  std::string first;
  for (std::size_t workers : {0, 4}) {
    core::set_sweep_workers(workers);
    for (const sim::Platform& p : builtin_platforms()) {
      for (core::KernelId kernel : {core::KernelId::kGemm, core::KernelId::kCholesky}) {
        for (std::size_t s = 0; s < std::size(shapes); ++s) {
          core::DenseSweepRequest req = shapes[s];
          req.kernel = kernel;
          const std::vector<core::SweepPoint> points = core::sweep_dense(p, req);
          ASSERT_EQ(points.size(), expected_points[s]);
          // Back to front, so the memo holds other rows' keys than the
          // sweep's did at each point.
          for (std::size_t i = points.size(); i-- > 0;) {
            const core::SweepPoint& pt = points[i];
            const LocalityModel m = kernel == core::KernelId::kGemm
                                        ? kernels::gemm_model(p, pt.x, pt.y)
                                        : kernels::cholesky_model(p, pt.x, pt.y);
            if (same_bits(pt.gflops, kernels::predict(p, m).gflops) &&
                same_bits(pt.footprint, m.footprint))
              continue;
            if (diffs++ == 0)
              first = p.mode_label + " " + core::to_string(kernel) + " shape " +
                      std::to_string(s) + " point " + std::to_string(i) + ", " +
                      std::to_string(workers) + " workers";
          }
        }
      }
    }
  }
  core::set_sweep_workers(saved_workers);
  EXPECT_EQ(diffs, 0u) << "first difference: " << first;
}

TEST_F(SerialUncachedSweeps, FootprintSweepAllocatesPerSweepNotPerPoint) {
  const sim::Platform p = sim::broadwell(sim::EdramMode::kOn);
  const core::FootprintSweepRequest req{
      .kernel = core::KernelId::kFft, .fp_lo = 16.0 * 1024, .fp_hi = 64.0e9, .points = 4096};
  ASSERT_EQ(core::sweep_footprint_kernel(p, req).size(), 4096u);  // warm-up
  const AllocationCount count;
  const std::vector<core::SweepPoint> points = core::sweep_footprint_kernel(p, req);
  const std::size_t allocations = count();
  ASSERT_EQ(points.size(), 4096u);
  EXPECT_LT(allocations, 64u);
}

}  // namespace
}  // namespace opm
