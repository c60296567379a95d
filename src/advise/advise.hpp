#pragma once

#include <string>
#include <string_view>

#include "core/experiment.hpp"
#include "core/roofline.hpp"
#include "sim/platform.hpp"
#include "sparse/collection.hpp"
#include "util/fingerprint.hpp"

/// opm::advise — the roofline-guided tuning advisor.
///
/// The paper's real payload is its Section 6 guidelines: given a kernel, a
/// platform, and a problem size, which memory mode should you run in? This
/// subsystem answers that question end-to-end in three stages:
///
///   1. **place** — run the kernel's instrumented variant through the
///      trace-driven simulator on a per-core slice of the baseline
///      platform's cache hierarchy, measure the bytes that actually left
///      the on-chip caches, and place the kernel on the roofline from the
///      *measured* arithmetic intensity (core::place_measured), not the
///      static Table 2 formulas.
///   2. **recommend** — estimate the footprint and hot set at the
///      requested problem size from the kernel's analytical miss curve,
///      feed them through the Section 6 rules (core/advisor) and the
///      Stepping Model (kernels::predict on both configurations), and emit
///      an OPM mode plus a blocking/allocation hint and a predicted
///      speedup (or Eq. 1 energy ratio for the energy objective).
///   3. **verify** — execute the kernel's canonical table-input sweep
///      under both the recommended and the baseline configuration
///      (through the cached core/sweep path, so repeat queries are nearly
///      free), and mark the recommendation `confirmed`, `marginal`, or
///      `refuted` from the measured delta, with the predicted-vs-measured
///      gap attached.
///
/// The rendered JSON payload is deterministic (doubles as C99 %a hex-float
/// strings) and cached in the ResultCache under the request fingerprint,
/// so the offline CLI (tools/opm_advise) and the serve tier
/// ({"type":"advise"}) produce byte-identical answers for the same
/// question. Counters land in util::MetricsRegistry under "advise.".
namespace opm::advise {

/// What the user is optimizing for.
enum class Objective { kPerf, kEnergy };

const char* to_string(Objective objective);
bool parse_objective(std::string_view name, Objective* out);

/// A canonical tuning question. `platform` is the *baseline* selector the
/// user runs on today (same grammar as the serve protocol:
/// broadwell-edram-{off,on}, knl-{ddr,cache,flat,hybrid});
/// `footprint_bytes` is the production problem size (0 = a canonical
/// mid-range size for the kernel's paper input set).
struct AdviseRequest {
  core::KernelId kernel = core::KernelId::kSpmv;
  std::string platform = "knl-ddr";
  double footprint_bytes = 0.0;
  Objective objective = Objective::kPerf;
  bool verify = true;

  bool operator==(const AdviseRequest&) const = default;
};

/// Canonical bit-exact serialization (doubles as %a hex floats): equal
/// requests serialize identically, any field change changes the text.
std::string serialize(const AdviseRequest& req);

/// 128-bit fingerprint of (advise payload version, resolved platform spec,
/// canonical serialization, suite fingerprint for sparse kernels, the
/// process-wide verify switch). This is the coalescing AND payload-cache
/// identity of the request. Throws std::invalid_argument for an unknown
/// platform selector.
util::Digest128 advise_cache_key(const AdviseRequest& req);

/// The platform selectors the advisor accepts (identical grammar to the
/// serve protocol; the protocol delegates here).
bool resolve_platform(std::string_view name, sim::Platform* out);

/// Wire/CLI token for a kernel ("spmv", "gemm", ...) and its inverse —
/// the same lowercase grammar the serve protocol's "kernel" field uses.
const char* kernel_token(core::KernelId kernel);
bool parse_kernel_token(std::string_view name, core::KernelId* out);

/// The sparse suite verification sweeps run against (the paper's
/// 968-matrix synthetic collection, built once per process).
const sparse::SyntheticCollection& advise_suite();

/// Stage 1 output: the kernel placed on the baseline platform's roofline
/// from simulator-measured traffic. The probe runs at a fixed small size
/// against a per-core slice of the cache hierarchy; `roofline` holds the
/// placement extrapolated to the requested problem size along the Table 2
/// intensity curve (constant for streaming kernels, growing with n for the
/// dense ones), while probe_* keep the raw probe numbers.
struct Placement {
  core::MeasuredPlacement roofline;  ///< intensity + attainable roofs at request size
  double probe_flops = 0.0;          ///< useful flops the probe executed
  double probe_measured_bytes = 0.0; ///< probe bytes that left the on-chip caches
  double requested_bytes = 0.0;      ///< bytes the cores asked for in the probe
  double static_intensity = 0.0;     ///< Table 2 formula at the requested size
  double ridge_opm = 0.0;            ///< flop/byte where the OPM roof meets peak
  double ridge_ddr = 0.0;
  /// "memory-bound" (bound under both roofs), "ddr-bound" (only the DDR
  /// roof binds — the OPM lifts it to the compute roof), "compute-bound".
  std::string bound;
};

/// Stage 2 output: the Section 6 recommendation plus the Stepping-Model
/// prediction backing it.
struct Recommendation {
  std::string platform;       ///< recommended selector (may equal the baseline)
  std::string mode_label;     ///< e.g. "MCDRAM flat", "eDRAM on"
  std::string reason;         ///< the advisor rule that fired (warnings included)
  std::string hint;           ///< blocking / allocation hint
  double footprint_bytes = 0.0;  ///< problem size the rules reasoned about
  double hot_set_bytes = 0.0;    ///< from the analytical miss curve
  bool latency_bound = false;
  double predicted_base_gflops = 0.0;  ///< Stepping Model on the baseline
  double predicted_gflops = 0.0;       ///< Stepping Model on the recommendation
  double predicted_speedup = 0.0;
  double energy_ratio = 0.0;  ///< Eq. 1 predicted E_rec / E_base (< 1 saves energy)
};

enum class Verdict { kConfirmed, kMarginal, kRefuted, kSkipped };
const char* to_string(Verdict verdict);

/// Stage 3 output: the measured delta of recommended vs baseline over the
/// kernel's canonical table inputs.
struct Verification {
  Verdict verdict = Verdict::kSkipped;
  double measured_speedup = 0.0;  ///< mean per-input speedup (rec / base)
  double measured_metric = 0.0;   ///< gated metric: perf speedup, or energy gain
  double predicted_speedup = 0.0; ///< echo of the Stepping-Model prediction
  double gap = 0.0;               ///< predicted - measured (speedup units)
  std::size_t inputs = 0;         ///< paired table inputs compared
  std::string note;
};

/// How the stage-1 probe traffic was obtained (sim/window_sampler.hpp).
/// Exact runs leave this defaulted; under SamplingMode::kFast the probe
/// records through a WindowSampler and reports the extrapolation bound
/// here — rendered into the payload and echoed in protocol-v2 envelopes
/// so clients can tell fast answers from exact ones.
struct SamplingInfo {
  bool sampled = false;
  double max_rel_error = 0.0;  ///< per-tier extrapolation error bound
};

struct AdviseResult {
  AdviseRequest request;
  Placement placement;
  Recommendation recommendation;
  Verification verification;
  SamplingInfo sampling;
};

/// Process-wide verify switch (hot-reloadable via the serve "config"
/// request). When off, run_advise() skips stage 3 and reports
/// Verdict::kSkipped. Default: on.
void set_verify_enabled(bool enabled);
bool verify_enabled();

/// The full place → recommend → verify pipeline. Throws
/// std::invalid_argument for an unknown platform selector.
AdviseResult run_advise(const AdviseRequest& req);

/// Verifies an arbitrary (baseline, candidate) configuration pair for a
/// kernel — the engine behind stage 3, exposed so tests and benches can
/// score deliberately bad recommendations (and obtain kRefuted).
Verification verify_modes(core::KernelId kernel, const std::string& baseline,
                          const std::string& candidate, Objective objective,
                          double predicted_speedup);

/// Deterministic single-line JSON rendering of a result (doubles as %a
/// hex-float strings). This exact text is what the serve tier returns as
/// the "advise" payload and what the CLI prints with --json — the
/// byte-identity contract.
std::string render_json(const AdviseResult& result);

/// Multi-line human-readable rendering (the CLI's default output).
std::string render_text(const AdviseResult& result);

/// Payload-cached entry point: looks the rendered JSON up in the
/// ResultCache under advise_cache_key(), computing and storing on a miss.
/// This is what protocol::execute() calls for "advise" requests.
std::string run_and_render(const AdviseRequest& req);

/// The canonical mid-range footprint assumed when a request leaves
/// `footprint_bytes` at 0 (kernel- and platform-dependent; mirrors the
/// paper's table input ranges).
double default_footprint_bytes(core::KernelId kernel, const sim::Platform& baseline);

/// Scans a rendered advise payload, in the JSON-escaped form a serve
/// flight holds (a backslash before each quote), for its "sampling"
/// section. Returns true and fills `sampled` / `max_rel_error_hex` (a
/// view of the %a hex string inside the payload, which escaping leaves
/// as it is) when the payload carries one. This is how the serve
/// dispatcher derives the protocol-v2 envelope's sampled/max_rel_error
/// members from a fresh OR cache-served payload without re-running the
/// pipeline.
bool payload_sampling(std::string_view escaped_payload, bool* sampled,
                      std::string_view* max_rel_error_hex);

}  // namespace opm::advise
