#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sim/cache.hpp"
#include "util/fingerprint.hpp"

/// Platform descriptions for the two evaluated machines (paper Table 3) and
/// their OPM tuning options (paper Table 1).
///
/// The paper's machines are discontinued hardware; these structs are the
/// simulation substitute. Every observation in the paper is a function of
/// the parameters captured here: tier capacities, bandwidths, latencies,
/// peak flop rates, and the OPM mode semantics.
namespace opm::sim {

/// eDRAM tuning options on Broadwell (BIOS switch).
enum class EdramMode { kOff, kOn };

/// MCDRAM tuning options on Knights Landing.
enum class McdramMode {
  kOff,     ///< "w/o MCDRAM": allocate everything on DDR
  kCache,   ///< 16 GB direct-mapped memory-side cache
  kFlat,    ///< 16 GB addressable memory, numactl-preferred, spill to DDR
  kHybrid,  ///< 8 GB cache + 8 GB flat
};

/// KNL mesh clustering modes (BIOS option; the paper evaluates in
/// quadrant, "the default mode [that] normally achieves the optimal
/// performance without explicit NUMA complexity", section 3.3).
enum class ClusterMode {
  kQuadrant,  ///< tag directories co-located with memory quadrants
  kAllToAll,  ///< no affinity: longest average mesh trips
  kSnc4,      ///< sub-NUMA: shortest local trips, software must place data
};

const char* to_string(EdramMode mode);
const char* to_string(McdramMode mode);
const char* to_string(ClusterMode mode);

/// How a cache tier behaves in the hierarchy walk.
enum class TierKind {
  kStandard,  ///< ordinary inclusive-ish CPU cache (L1/L2/L3)
  kVictim,    ///< non-inclusive victim cache filled by upper-level evictions
              ///< (eDRAM L4 on Broadwell, paper section 2.1)
  kMemorySide ///< memory-side cache in front of DRAM (MCDRAM cache mode,
              ///< paper section 2.2; tags held in the OPM itself)
};

/// One cache tier of a platform: geometry plus timing characteristics.
struct CacheTierSpec {
  CacheGeometry geometry;
  TierKind kind = TierKind::kStandard;
  double bandwidth = 0.0;     ///< bytes/s deliverable from this tier
  double latency = 0.0;       ///< seconds per line on a hit in this tier
  double tag_overhead = 0.0;  ///< fractional bandwidth lost to tag checks
                              ///< (MCDRAM cache mode keeps tags in MCDRAM)
};

/// One backing-memory device (OPM flat partition or DDR).
struct MemoryDeviceSpec {
  std::string name;
  std::uint64_t capacity = 0;
  double bandwidth = 0.0;  ///< bytes/s
  double latency = 0.0;    ///< seconds for a single line, unloaded
  bool on_package = false;
};

/// A fully-configured machine: what the paper calls a "platform + tuning
/// option" combination (e.g. "KNL with MCDRAM in hybrid mode").
struct Platform {
  std::string name;        ///< e.g. "Broadwell i7-5775c"
  std::string mode_label;  ///< e.g. "eDRAM on", "MCDRAM flat"
  int cores = 1;
  int threads = 1;              ///< optimal thread count used by the paper (Table 2 row-dependent; this is the machine max)
  double frequency = 0.0;       ///< Hz
  double sp_peak_flops = 0.0;   ///< single-precision machine peak, flop/s
  double dp_peak_flops = 0.0;   ///< double-precision machine peak, flop/s

  /// Cache tiers ordered from closest-to-core (L1) to last-level. Victim
  /// and memory-side tiers appear at the position they occupy physically.
  std::vector<CacheTierSpec> tiers;

  /// Backing devices. When `flat_opm_bytes > 0`, the first device is the
  /// OPM flat partition and addresses [0, flat_opm_bytes) route to it
  /// (numactl --preferred emulation); everything else routes to DDR.
  std::vector<MemoryDeviceSpec> devices;
  std::uint64_t flat_opm_bytes = 0;

  /// Multiplicative slowdown on *both* devices when an array straddles the
  /// OPM/DDR boundary in flat mode. Models the NoC bus conflicts and L2 set
  /// conflicts the paper reports when data is split between MCDRAM and DDR
  /// (paper section 4.2.1, observation II).
  double split_penalty = 1.0;

  /// Average memory power draw characteristics for the power model.
  double package_idle_watts = 0.0;
  double package_max_watts = 0.0;
  double dram_watts_per_gbps = 0.0;  ///< DDR power per GB/s drawn
  double opm_watts_static = 0.0;     ///< OPM static power when enabled
  double opm_watts_per_gbps = 0.0;   ///< OPM dynamic power per GB/s drawn

  /// DDR device (always the last device).
  const MemoryDeviceSpec& ddr() const { return devices.back(); }
};

/// Builds the Broadwell i7-5775c platform (paper Table 3 row 1) with the
/// given eDRAM mode (paper Table 1).
Platform broadwell(EdramMode mode);

/// Builds the Knights Landing 7210 platform (paper Table 3 row 2) with the
/// given MCDRAM mode (paper Table 1) and mesh cluster mode. The paper's
/// evaluation uses quadrant mode (section 3.3); the other modes shift the
/// L2-miss trip latency across the 2D mesh and are provided for the
/// cluster-mode ablation (`bench/ablation_cluster_modes`).
Platform knl(McdramMode mode, ClusterMode cluster = ClusterMode::kQuadrant);

/// Streams every model-relevant field of `p` (names, geometry, timing,
/// power calibration) into `h`. The platform fingerprint is part of every
/// sweep's result-cache key, so recalibrating any platform constant
/// re-keys — and thereby invalidates — all of that platform's cached
/// results.
void hash_platform(util::Hasher128& h, const Platform& p);

/// Digest of hash_platform over a fresh hasher.
util::Digest128 fingerprint(const Platform& p);

}  // namespace opm::sim
