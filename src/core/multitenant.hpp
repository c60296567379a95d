#pragma once

#include <string>
#include <vector>

#include "kernels/model.hpp"
#include "sim/platform.hpp"

/// Multi-tenant OPM partitioning — the paper's future-work question 1
/// ("under a multi-user/multi-application scenario, how would OS
/// distribute the OPM resources among applications based on fairness,
/// efficiency and consistency?", section 8) made executable.
///
/// Co-running applications share the OPM capacity. The OS (or hypervisor)
/// assigns each tenant a slice; each tenant's throughput follows its own
/// miss curve evaluated at its slice. This module evaluates partitioning
/// policies against total throughput and fairness.
namespace opm::core {

/// One co-running application: a name plus its kernel model.
struct Tenant {
  std::string name;
  kernels::LocalityModel model;
  /// Throughput if it owned the whole OPM (for fairness normalization);
  /// filled by evaluate().
  double solo_gflops = 0.0;
};

/// How the OPM capacity is split.
enum class PartitionPolicy {
  kEqual,         ///< capacity / tenants each
  kProportional,  ///< proportional to each tenant's footprint
  kOptimal,       ///< hill-climbing on total throughput
};

const char* to_string(PartitionPolicy policy);

/// Result of evaluating one policy.
struct PartitionResult {
  PartitionPolicy policy;
  std::vector<double> slice_bytes;     ///< per-tenant OPM capacity
  std::vector<double> tenant_gflops;   ///< per-tenant throughput at that slice
  double total_gflops = 0.0;
  /// Jain's fairness index over normalized throughput (gflops / solo),
  /// 1.0 = perfectly fair, 1/N = one tenant starves the rest.
  double fairness = 0.0;
};

/// Evaluates `policy` for the tenants on `platform` (must have an OPM
/// cache tier, e.g. broadwell eDRAM-on or knl cache mode).
PartitionResult evaluate_partition(const sim::Platform& platform, std::vector<Tenant>& tenants,
                                   PartitionPolicy policy, bool share_bandwidth = true);

/// Total OPM (non-standard tier) capacity of a platform in bytes.
double opm_capacity(const sim::Platform& platform);

}  // namespace opm::core
