#include "sim/platform.hpp"

#include "util/units.hpp"

namespace opm::sim {

using util::GiB;
using util::Giga;
using util::KiB;
using util::MiB;

const char* to_string(EdramMode mode) {
  return mode == EdramMode::kOn ? "eDRAM on" : "eDRAM off";
}

const char* to_string(McdramMode mode) {
  switch (mode) {
    case McdramMode::kOff: return "DDR only";
    case McdramMode::kCache: return "MCDRAM cache";
    case McdramMode::kFlat: return "MCDRAM flat";
    case McdramMode::kHybrid: return "MCDRAM hybrid";
  }
  return "?";
}

const char* to_string(ClusterMode mode) {
  switch (mode) {
    case ClusterMode::kQuadrant: return "quadrant";
    case ClusterMode::kAllToAll: return "all-to-all";
    case ClusterMode::kSnc4: return "SNC-4";
  }
  return "?";
}

Platform broadwell(EdramMode mode) {
  Platform p;
  p.name = "Broadwell i7-5775c";
  p.mode_label = to_string(mode);
  p.cores = 4;
  p.threads = 8;
  p.frequency = 3.7e9;
  // Paper Table 3: 473.6 SP / 236.8 DP GFlop/s (4 cores x 3.7 GHz x 16 DP
  // flop/cycle with two AVX2 FMA pipes).
  p.sp_peak_flops = 473.6 * Giga;
  p.dp_peak_flops = 236.8 * Giga;

  // Per-core L1/L2 plus shared L3, amounts and timings from Intel's
  // published Broadwell characteristics. Bandwidths are aggregate across
  // cores; latencies are unloaded per-line.
  p.tiers.push_back({.geometry = {.name = "L1", .capacity = 4 * 32 * KiB, .line_size = 64,
                                  .associativity = 8},
                     .kind = TierKind::kStandard,
                     .bandwidth = 1100.0 * Giga,
                     .latency = 1.2e-9});
  p.tiers.push_back({.geometry = {.name = "L2", .capacity = 4 * 256 * KiB, .line_size = 64,
                                  .associativity = 8},
                     .kind = TierKind::kStandard,
                     .bandwidth = 560.0 * Giga,
                     .latency = 3.5e-9});
  p.tiers.push_back({.geometry = {.name = "L3", .capacity = 6 * MiB, .line_size = 64,
                                  .associativity = 12},
                     .kind = TierKind::kStandard,
                     .bandwidth = 250.0 * Giga,
                     .latency = 11.0e-9});
  if (mode == EdramMode::kOn) {
    // 128 MB eDRAM L4: a non-inclusive victim cache filled from L3
    // evictions; 102.4 GB/s via OPIO, latency between L3 and DDR (the
    // paper: "shorter access latency than DDR", section 2.3(b)).
    p.tiers.push_back({.geometry = {.name = "eDRAM-L4", .capacity = 128 * MiB,
                                    .line_size = 64, .associativity = 16},
                       .kind = TierKind::kVictim,
                       .bandwidth = 102.4 * Giga,
                       .latency = 42.0e-9});
  }

  p.devices.push_back({.name = "DDR3-2133", .capacity = 16 * GiB,
                       .bandwidth = 34.1 * Giga, .latency = 75.0e-9,
                       .on_package = false});

  // Power model calibration: the paper (Fig. 26) reports the eDRAM-on
  // configuration drawing ~5.6 W more on average, an +8.6 % package delta.
  p.package_idle_watts = 12.0;
  p.package_max_watts = 65.0;
  p.dram_watts_per_gbps = 0.18;
  p.opm_watts_static = (mode == EdramMode::kOn) ? 1.0 : 0.0;  // ~1 W OPIO (paper section 2.1)
  p.opm_watts_per_gbps = (mode == EdramMode::kOn) ? 0.09 : 0.0;
  return p;
}

Platform knl(McdramMode mode, ClusterMode cluster) {
  Platform p;
  p.name = "Knights Landing 7210";
  p.mode_label = to_string(mode);
  if (cluster != ClusterMode::kQuadrant)
    p.mode_label += std::string(", ") + to_string(cluster);
  p.cores = 64;
  p.threads = 256;
  p.frequency = 1.5e9;
  // Paper Table 3 lists 3072 / 6144; the SP/DP columns are transposed
  // there (DP cannot exceed SP). We use SP = 6144, DP = 3072 GFlop/s
  // (64 cores x 1.5 GHz x 32 DP flop/cycle with dual AVX-512 FMA).
  p.sp_peak_flops = 6144.0 * Giga;
  p.dp_peak_flops = 3072.0 * Giga;

  p.tiers.push_back({.geometry = {.name = "L1", .capacity = 64 * 32 * KiB, .line_size = 64,
                                  .associativity = 8},
                     .kind = TierKind::kStandard,
                     .bandwidth = 6000.0 * Giga,
                     .latency = 2.0e-9});
  // 32 tiles x 1 MB shared L2 (paper Table 3: "32 MB L2").
  p.tiers.push_back({.geometry = {.name = "L2", .capacity = 32 * MiB, .line_size = 64,
                                  .associativity = 16},
                     .kind = TierKind::kStandard,
                     .bandwidth = 1800.0 * Giga,
                     .latency = 13.0e-9});

  // An L2 miss crosses the 2D mesh to a tag directory and on to an EDC or
  // DDR controller; the cluster mode decides how long that trip is.
  // Quadrant (the paper's configuration) co-locates directories with
  // their memory quadrant; all-to-all adds an extra mesh traversal both
  // ways; SNC-4 shortens local trips when software places data correctly
  // (our NUMA-oblivious kernels get the average benefit only).
  const double mesh_delta = cluster == ClusterMode::kAllToAll ? 30.0e-9
                            : cluster == ClusterMode::kSnc4   ? -12.0e-9
                                                              : 0.0;
  const double mcdram_bw = 490.0 * Giga;            // paper Table 3
  const double mcdram_lat = 160.0e-9 + mesh_delta;  // higher than DDR (section 2.2)
  const double ddr_bw = 102.0 * Giga;
  const double ddr_lat = 130.0e-9 + mesh_delta;

  switch (mode) {
    case McdramMode::kOff:
      break;
    case McdramMode::kCache:
      // Direct-mapped memory-side cache covering all addressable memory;
      // tags are stored in MCDRAM itself, costing a slice of bandwidth.
      p.tiers.push_back({.geometry = {.name = "MCDRAM$", .capacity = 16 * GiB,
                                      .line_size = 64, .associativity = 1},
                         .kind = TierKind::kMemorySide,
                         .bandwidth = mcdram_bw,
                         .latency = mcdram_lat,
                         .tag_overhead = 0.10});
      break;
    case McdramMode::kFlat:
      p.devices.push_back({.name = "MCDRAM", .capacity = 16 * GiB, .bandwidth = mcdram_bw,
                           .latency = mcdram_lat, .on_package = true});
      p.flat_opm_bytes = 16 * GiB;
      // Paper section 4.2.1 (II): splitting one working set across MCDRAM
      // and DDR makes performance "extremely poor" (NoC bus conflicts, L2
      // set conflicts and dual-port transactions).
      p.split_penalty = 6.0;
      break;
    case McdramMode::kHybrid:
      // 50/50 hybrid: 8 GB memory-side cache plus 8 GB flat partition.
      // The split happens *inside* each of the 8 MCDRAM devices, so both
      // halves still span all channels and each can draw the full
      // bandwidth when it is the only one active.
      p.tiers.push_back({.geometry = {.name = "MCDRAM$(8G)", .capacity = 8 * GiB,
                                      .line_size = 64, .associativity = 1},
                         .kind = TierKind::kMemorySide,
                         .bandwidth = mcdram_bw,
                         .latency = mcdram_lat,
                         .tag_overhead = 0.10});
      p.devices.push_back({.name = "MCDRAM-flat(8G)", .capacity = 8 * GiB,
                           .bandwidth = mcdram_bw, .latency = mcdram_lat,
                           .on_package = true});
      p.flat_opm_bytes = 8 * GiB;
      p.split_penalty = 3.0;
      break;
  }

  p.devices.push_back({.name = "DDR4-2133", .capacity = 96 * GiB, .bandwidth = ddr_bw,
                       .latency = ddr_lat, .on_package = false});

  // Power calibration: the paper (Fig. 27) reports flat-mode MCDRAM adding
  // ~9.8 W on average (+6.9 %); MCDRAM cannot be physically disabled, so
  // its static power is drawn in every mode (paper section 5.2).
  p.package_idle_watts = 70.0;
  p.package_max_watts = 215.0;
  p.dram_watts_per_gbps = 0.10;
  p.opm_watts_static = 8.0;  // always on
  p.opm_watts_per_gbps = (mode == McdramMode::kOff) ? 0.0 : 0.08;
  return p;
}

void hash_platform(util::Hasher128& h, const Platform& p) {
  h.add(std::string_view("opm.sim.Platform.v1"));
  h.add(std::string_view(p.name)).add(std::string_view(p.mode_label));
  h.add(std::int64_t{p.cores}).add(std::int64_t{p.threads});
  h.add(p.frequency).add(p.sp_peak_flops).add(p.dp_peak_flops);
  h.add(static_cast<std::uint64_t>(p.tiers.size()));
  for (const auto& t : p.tiers) {
    h.add(std::string_view(t.geometry.name));
    h.add(t.geometry.capacity);
    h.add(std::uint64_t{t.geometry.line_size}).add(std::uint64_t{t.geometry.associativity});
    h.add(t.geometry.write_allocate);
    h.add(static_cast<std::uint64_t>(t.geometry.policy));
    h.add(static_cast<std::uint64_t>(t.kind));
    h.add(t.bandwidth).add(t.latency).add(t.tag_overhead);
  }
  h.add(static_cast<std::uint64_t>(p.devices.size()));
  for (const auto& d : p.devices) {
    h.add(std::string_view(d.name));
    h.add(d.capacity).add(d.bandwidth).add(d.latency).add(d.on_package);
  }
  h.add(p.flat_opm_bytes).add(p.split_penalty);
  h.add(p.package_idle_watts).add(p.package_max_watts);
  h.add(p.dram_watts_per_gbps).add(p.opm_watts_static).add(p.opm_watts_per_gbps);
}

util::Digest128 fingerprint(const Platform& p) {
  util::Hasher128 h;
  hash_platform(h, p);
  return h.digest();
}

}  // namespace opm::sim
