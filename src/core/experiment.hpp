#pragma once

#include <string>
#include <vector>

#include "core/speedup.hpp"
#include "kernels/model.hpp"
#include "sim/platform.hpp"
#include "sparse/collection.hpp"

/// Shared experiment sweeps — the canonical input sets behind every figure
/// and both summary tables, so that all bench harnesses report consistent
/// numbers.
///
/// Dense kernels sweep (matrix order, tile size) grids (appendix A.2.1/2);
/// sparse kernels sweep the 968-matrix synthetic suite; Stream/Stencil/FFT
/// sweep footprints. Everything runs through the analytical models and the
/// timing model — the trace-driven simulator validates those models in the
/// test suite.
///
/// Every sweep here fans out over the process-wide work-stealing pool
/// (core/sweep.hpp); results are written by index, so output is
/// bit-identical for any core::set_sweep_workers() setting, including the
/// serial workers == 0 mode.
namespace opm::core {

/// Which kernel a sweep is for.
enum class KernelId { kGemm, kCholesky, kSpmv, kSptrans, kSptrsv, kFft, kStencil, kStream };
const char* to_string(KernelId id);

/// One sampled point of any sweep.
struct SweepPoint {
  double x = 0.0;          ///< primary axis (matrix order / footprint bytes)
  double y = 0.0;          ///< secondary axis (tile size; 0 when unused)
  double gflops = 0.0;
  double footprint = 0.0;  ///< bytes
  double rows = 0.0;       ///< sparse sweeps: matrix rows
  double nnz = 0.0;        ///< sparse sweeps: nonzeros
  int input_id = -1;       ///< sparse sweeps: suite member id

  /// Exact comparison — the sweeps guarantee bit-identical output for any
  /// worker count, and the determinism tests hold them to it.
  bool operator==(const SweepPoint&) const = default;
};

// ---------------------------------------------------------------- requests --
//
// Canonical request structs are THE sweep API: designated initializers,
// defaults matching the paper's appendix A.2 configuration, operator==,
// and a stable canonical serialization — so each struct, combined with the
// platform (and suite) fingerprints and the cache version, IS the
// result-cache key.

/// Dense (n, nb) grid sweep request for GEMM or Cholesky. Defaults are the
/// appendix A.2.1 Broadwell grid; KNL harnesses widen to n_hi = 32000.
struct DenseSweepRequest {
  KernelId kernel = KernelId::kGemm;
  double n_lo = 256.0;
  double n_hi = 16128.0;
  double n_step = 512.0;
  double nb_lo = 128.0;
  double nb_hi = 4096.0;
  double nb_step = 128.0;

  bool operator==(const DenseSweepRequest&) const = default;
};

/// True when a dense grid axis — lo, lo + step, lo + 2 step, ...
/// accumulated while <= hi — moves at every step: lo, hi and step are
/// finite, and step is positive and at least one ulp of the larger bound
/// magnitude, so every value up to hi advances by at least half a step.
/// protocol::parse_request answers an axis that fails this with
/// "bad-request"; sweep_dense throws before it builds one.
bool dense_axis_advances(double lo, double hi, double step);

/// Sparse-suite sweep request. `merge_based` selects the MergeTrans
/// variant for SpTRANS (the paper's KNL configuration); ignored by the
/// other kernels. The suite itself stays a separate argument — its
/// descriptors are fingerprinted into the cache key.
struct SparseSweepRequest {
  KernelId kernel = KernelId::kSpmv;
  bool merge_based = false;

  bool operator==(const SparseSweepRequest&) const = default;
};

/// Footprint sweep request for Stream / Stencil / FFT; bounds in bytes,
/// log-spaced points. Defaults are the appendix A.2.8 Broadwell Stream
/// range (16 KB up to 2^24 elements x 24 bytes).
struct FootprintSweepRequest {
  KernelId kernel = KernelId::kStream;
  double fp_lo = 16.0 * 1024.0;
  double fp_hi = 16777216.0 * 24.0;
  std::size_t points = 64;

  bool operator==(const FootprintSweepRequest&) const = default;
};

/// Canonical, bit-exact serializations (doubles rendered as C99 hex
/// floats). Equal requests serialize identically; any field change
/// changes the text. This is what gets hashed into the cache key.
std::string serialize(const DenseSweepRequest& req);
std::string serialize(const SparseSweepRequest& req);
std::string serialize(const FootprintSweepRequest& req);

/// Cache keys: fingerprint of (cache version, request serialization,
/// platform spec[, suite descriptors]). Exposed so tests can pin the
/// sensitivity contract: any field change yields a distinct key.
util::Digest128 sweep_cache_key(const sim::Platform& platform, const DenseSweepRequest& req);
util::Digest128 sweep_cache_key(const sim::Platform& platform, const SparseSweepRequest& req,
                                const sparse::SyntheticCollection& suite);
util::Digest128 sweep_cache_key(const sim::Platform& platform,
                                const FootprintSweepRequest& req);

// ------------------------------------------------------------------ sweeps --

/// Dense (n, nb) grid sweep for GEMM or Cholesky (appendix A.2.1).
std::vector<SweepPoint> sweep_dense(const sim::Platform& platform,
                                    const DenseSweepRequest& req);

/// Sparse sweep over a synthetic suite.
std::vector<SweepPoint> sweep_sparse(const sim::Platform& platform,
                                     const SparseSweepRequest& req,
                                     const sparse::SyntheticCollection& suite);

/// Footprint sweep for Stream / Stencil / FFT.
std::vector<SweepPoint> sweep_footprint_kernel(const sim::Platform& platform,
                                               const FootprintSweepRequest& req);

/// The canonical per-kernel input set for the summary tables: returns the
/// predicted GFlop/s for every input of `kernel` on `platform` (paired
/// across platforms because inputs are deterministic).
std::vector<double> table_inputs_gflops(const sim::Platform& platform, KernelId kernel,
                                        const sparse::SyntheticCollection& suite);

/// Table 4: per-kernel summary of eDRAM-on vs eDRAM-off on Broadwell.
struct KernelSummary {
  KernelId kernel = KernelId::kGemm;
  SpeedupSummary summary;

  bool operator==(const KernelSummary&) const = default;
};
std::vector<KernelSummary> table4_edram(const sparse::SyntheticCollection& suite);

/// Table 5: per-kernel, per-mode summaries of MCDRAM modes vs DDR on KNL.
struct ModeSummary {
  KernelId kernel = KernelId::kGemm;
  SpeedupSummary flat;
  SpeedupSummary cache;
  SpeedupSummary hybrid;

  bool operator==(const ModeSummary&) const = default;
};
std::vector<ModeSummary> table5_mcdram(const sparse::SyntheticCollection& suite);

/// Average power/energy per kernel for the Figure 26/27 reproductions:
/// mean package and DDR power across the kernel's canonical inputs.
struct PowerRow {
  KernelId kernel = KernelId::kGemm;
  double package_watts = 0.0;
  double dram_watts = 0.0;

  bool operator==(const PowerRow&) const = default;
};
std::vector<PowerRow> power_rows(const sim::Platform& platform,
                                 const sparse::SyntheticCollection& suite);

}  // namespace opm::core
