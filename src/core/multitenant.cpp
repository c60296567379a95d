#include "core/multitenant.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "core/stepping.hpp"

namespace opm::core {

const char* to_string(PartitionPolicy policy) {
  switch (policy) {
    case PartitionPolicy::kEqual: return "equal";
    case PartitionPolicy::kProportional: return "proportional";
    case PartitionPolicy::kOptimal: return "optimal";
  }
  return "?";
}

double opm_capacity(const sim::Platform& platform) {
  double total = 0.0;
  for (const auto& tier : platform.tiers)
    if (tier.kind != sim::TierKind::kStandard)
      total += static_cast<double>(tier.geometry.capacity);
  return total;
}

namespace {

/// Scales a platform's OPM tiers to `slice` bytes for one tenant's view
/// (bandwidth is shared too: scaled by slice / total).
sim::Platform tenant_view(const sim::Platform& platform, double slice_bytes,
                          double total_opm_bytes, bool share_bandwidth) {
  const double cap_scale =
      total_opm_bytes > 0.0 ? std::max(slice_bytes / total_opm_bytes, 1e-6) : 1.0;
  // Bandwidth is a shared resource: a tenant with half the capacity draws
  // roughly half the channel time in steady state.
  const double bw_scale = share_bandwidth ? cap_scale : 1.0;
  return scale_opm(platform, cap_scale, bw_scale);
}

double tenant_gflops_at(const sim::Platform& platform, const Tenant& tenant,
                        double slice_bytes, double total, bool share_bandwidth) {
  const sim::Platform view = tenant_view(platform, slice_bytes, total, share_bandwidth);
  return kernels::predict(view, tenant.model).gflops;
}

double jain_fairness(const std::vector<double>& normalized) {
  double sum = 0.0, sq = 0.0;
  for (double v : normalized) {
    sum += v;
    sq += v * v;
  }
  if (sq <= 0.0) return 0.0;
  return sum * sum / (static_cast<double>(normalized.size()) * sq);
}

}  // namespace

PartitionResult evaluate_partition(const sim::Platform& platform, std::vector<Tenant>& tenants,
                                   PartitionPolicy policy, bool share_bandwidth) {
  PartitionResult out;
  out.policy = policy;
  const double total = opm_capacity(platform);
  const std::size_t n = tenants.size();
  if (n == 0 || total <= 0.0) return out;

  // Solo baselines for the fairness normalization.
  for (auto& t : tenants)
    t.solo_gflops = tenant_gflops_at(platform, t, total, total, share_bandwidth);

  out.slice_bytes.assign(n, total / static_cast<double>(n));
  if (policy == PartitionPolicy::kProportional) {
    double fp_sum = 0.0;
    for (const auto& t : tenants) fp_sum += t.model.footprint;
    for (std::size_t i = 0; i < n; ++i)
      out.slice_bytes[i] = fp_sum > 0.0 ? total * tenants[i].model.footprint / fp_sum
                                        : total / static_cast<double>(n);
  } else if (policy == PartitionPolicy::kOptimal) {
    // Greedy hill climbing in 1/32 granules: repeatedly move a granule
    // from the donor losing least to the receiver gaining most.
    const double granule = total / 32.0;
    for (int iter = 0; iter < 256; ++iter) {
      double best_gain = 1e-9;
      std::size_t best_from = n, best_to = n;
      for (std::size_t from = 0; from < n; ++from) {
        if (out.slice_bytes[from] < granule * 1.5) continue;
        for (std::size_t to = 0; to < n; ++to) {
          if (to == from) continue;
          const double before =
              tenant_gflops_at(platform, tenants[from], out.slice_bytes[from], total,
                               share_bandwidth) +
              tenant_gflops_at(platform, tenants[to], out.slice_bytes[to], total,
                               share_bandwidth);
          const double after =
              tenant_gflops_at(platform, tenants[from], out.slice_bytes[from] - granule,
                               total, share_bandwidth) +
              tenant_gflops_at(platform, tenants[to], out.slice_bytes[to] + granule, total,
                               share_bandwidth);
          if (after - before > best_gain) {
            best_gain = after - before;
            best_from = from;
            best_to = to;
          }
        }
      }
      if (best_from == n) break;  // local optimum
      out.slice_bytes[best_from] -= granule;
      out.slice_bytes[best_to] += granule;
    }
  }

  std::vector<double> normalized;
  for (std::size_t i = 0; i < n; ++i) {
    const double g =
        tenant_gflops_at(platform, tenants[i], out.slice_bytes[i], total, share_bandwidth);
    out.tenant_gflops.push_back(g);
    out.total_gflops += g;
    normalized.push_back(tenants[i].solo_gflops > 0.0 ? g / tenants[i].solo_gflops : 0.0);
  }
  out.fairness = jain_fairness(normalized);
  return out;
}

}  // namespace opm::core
