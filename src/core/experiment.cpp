#include "core/experiment.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <utility>

#include "core/result_cache.hpp"
#include "core/sweep.hpp"
#include "kernels/cholesky.hpp"
#include "kernels/fft.hpp"
#include "kernels/gemm.hpp"
#include "kernels/spmv.hpp"
#include "kernels/sptrans.hpp"
#include "kernels/sptrsv.hpp"
#include "kernels/stencil.hpp"
#include "kernels/stream.hpp"
#include "sim/power.hpp"
#include "util/format.hpp"

namespace opm::core {

const char* to_string(KernelId id) {
  switch (id) {
    case KernelId::kGemm: return "GEMM";
    case KernelId::kCholesky: return "Cholesky";
    case KernelId::kSpmv: return "SpMV";
    case KernelId::kSptrans: return "SpTRANS";
    case KernelId::kSptrsv: return "SpTRSV";
    case KernelId::kFft: return "FFT";
    case KernelId::kStencil: return "Stencil";
    case KernelId::kStream: return "Stream";
  }
  return "?";
}

namespace {

/// Appends `,name=<v as %a hex>`: exact and locale-independent, so
/// serializations are stable across platforms.
void append_field(std::string& s, const char* name, double v) {
  s += ',';
  s += name;
  s += '=';
  util::append_hexf(s, v);
}

/// Consults the result cache around `compute`. On a hit the payload is the
/// exact bytes a cold run would produce and a synthetic SweepStats record
/// is logged under the sweep's name; on a miss the computed sweep's own
/// record is annotated with the probe. With the cache disabled this is a
/// plain call to `compute`.
template <typename T, typename Fn>
std::vector<T> cached_sweep(const std::string& name, const util::Digest128& key,
                            Fn&& compute) {
  ResultCache& cache = ResultCache::instance();
  if (!cache.enabled()) return compute();
  CacheProbe probe;
  if (auto hit = cache.find<T>(key, &probe)) {
    detail::record_cache_hit(name.c_str(), hit->size(), probe);
    return std::move(*hit);
  }
  std::vector<T> out = compute();
  cache.store<T>(key, out, &probe);
  detail::annotate_cache_miss(name.c_str(), probe);
  return out;
}

/// Row-length skew assumed per family (feeds the SpMV/CSR efficiency
/// penalty; validated against materialized MatrixStats in tests).
double family_row_cv(sparse::Family family) {
  switch (family) {
    case sparse::Family::kRmat: return 3.0;
    case sparse::Family::kArrow: return 4.0;
    case sparse::Family::kRandomUniform: return 0.3;
    default: return 0.15;
  }
}

kernels::LocalityModel sparse_model(const sim::Platform& platform, KernelId kernel,
                                    const sparse::MatrixDescriptor& d, bool merge_based) {
  const auto rows = static_cast<double>(d.rows);
  const auto nnz = static_cast<double>(d.nnz);
  switch (kernel) {
    case KernelId::kSpmv:
      return kernels::spmv_model(
          platform, {.rows = rows, .nnz = nnz, .locality = d.locality,
                     .row_cv = family_row_cv(d.family), .csr5 = true});
    case KernelId::kSptrans:
      return kernels::sptrans_model(platform, {.rows = rows, .nnz = nnz,
                                               .locality = d.locality,
                                               .merge_based = merge_based});
    case KernelId::kSptrsv: {
      const double par = kernels::estimate_sptrsv_parallelism(d);
      return kernels::sptrsv_model(platform, {.rows = rows, .nnz = nnz,
                                              .locality = d.locality,
                                              .avg_parallelism = par,
                                              .levels = rows / par});
    }
    default:
      throw std::invalid_argument("sparse_model: not a sparse kernel");
  }
}

kernels::LocalityModel footprint_model(const sim::Platform& platform, KernelId kernel,
                                       double fp) {
  switch (kernel) {
    case KernelId::kStream:
      return kernels::stream_model(platform, fp / 24.0);
    case KernelId::kStencil:
      return kernels::stencil_model(platform, std::cbrt(fp / 16.0));
    case KernelId::kFft:
      return kernels::fft_model(platform, std::cbrt(fp / 16.0));
    default:
      throw std::invalid_argument("footprint_model: not a footprint kernel");
  }
}

}  // namespace

// ---------------------------------------------------------------- requests --

std::string serialize(const DenseSweepRequest& req) {
  std::string s = "dense{kernel=";
  s += to_string(req.kernel);
  append_field(s, "n_lo", req.n_lo);
  append_field(s, "n_hi", req.n_hi);
  append_field(s, "n_step", req.n_step);
  append_field(s, "nb_lo", req.nb_lo);
  append_field(s, "nb_hi", req.nb_hi);
  append_field(s, "nb_step", req.nb_step);
  s += '}';
  return s;
}

std::string serialize(const SparseSweepRequest& req) {
  std::string s = "sparse{kernel=";
  s += to_string(req.kernel);
  s += ",merge_based=";
  s += req.merge_based ? "1" : "0";
  s += "}";
  return s;
}

std::string serialize(const FootprintSweepRequest& req) {
  std::string s = "footprint{kernel=";
  s += to_string(req.kernel);
  append_field(s, "fp_lo", req.fp_lo);
  append_field(s, "fp_hi", req.fp_hi);
  s += ",points=" + std::to_string(req.points) + "}";  // opm-lint: allow(float-print) — integer field
  return s;
}

namespace {

/// Common key prefix: domain tag, cache version, platform spec.
util::Hasher128 key_base(const char* tag, const sim::Platform& platform) {
  util::Hasher128 h;
  h.add(std::string_view(tag));
  h.add(kResultCacheVersion);
  sim::hash_platform(h, platform);
  return h;
}

}  // namespace

util::Digest128 sweep_cache_key(const sim::Platform& platform, const DenseSweepRequest& req) {
  util::Hasher128 h = key_base("opm.sweep_dense", platform);
  h.add(std::string_view(serialize(req)));
  return h.digest();
}

util::Digest128 sweep_cache_key(const sim::Platform& platform, const SparseSweepRequest& req,
                                const sparse::SyntheticCollection& suite) {
  util::Hasher128 h = key_base("opm.sweep_sparse", platform);
  h.add(std::string_view(serialize(req)));
  const util::Digest128 sfp = suite.fingerprint();
  h.add(sfp.hi);
  h.add(sfp.lo);
  return h.digest();
}

util::Digest128 sweep_cache_key(const sim::Platform& platform,
                                const FootprintSweepRequest& req) {
  util::Hasher128 h = key_base("opm.sweep_footprint", platform);
  h.add(std::string_view(serialize(req)));
  return h.digest();
}

// ------------------------------------------------------------------ sweeps --

bool dense_axis_advances(double lo, double hi, double step) {
  const double bound = std::max(std::fabs(lo), std::fabs(hi));
  return std::isfinite(lo) && std::isfinite(hi) && std::isfinite(step) && step > 0.0 &&
         step >= std::nextafter(bound, std::numeric_limits<double>::infinity()) - bound;
}

std::vector<SweepPoint> sweep_dense(const sim::Platform& platform,
                                    const DenseSweepRequest& req) {
  if (!dense_axis_advances(req.n_lo, req.n_hi, req.n_step) ||
      !dense_axis_advances(req.nb_lo, req.nb_hi, req.nb_step))
    throw std::invalid_argument("sweep_dense: a grid step does not advance its axis");
  const std::string name = std::string("sweep_dense:") + to_string(req.kernel);
  return cached_sweep<SweepPoint>(name, sweep_cache_key(platform, req), [&] {
    // The grid coordinates are accumulated serially (floating-point step
    // sums must not depend on the worker count); only the model
    // evaluations fan out. Every row (one n) steps through the same nbs.
    std::vector<double> ns;
    std::vector<double> nbs;
    for (double n = req.n_lo; n <= req.n_hi; n += req.n_step) ns.push_back(n);
    for (double nb = req.nb_lo; nb <= req.nb_hi; nb += req.nb_step) nbs.push_back(nb);
    const auto model_at = [&](double n, double nb) {
      return req.kernel == KernelId::kGemm ? kernels::gemm_model(platform, n, nb)
                                           : kernels::cholesky_model(platform, n, nb);
    };

    // Along a row only nb moves, and nb changes none of the fields the
    // channel rates depend on: one ChannelRates per row, built here in
    // grid order. A row whose points would not outweigh its rates (a
    // served grid may have a million one-point rows) predicts point by
    // point.
    std::vector<kernels::ChannelRates> rows;
    if (nbs.size() * sizeof(SweepPoint) >= sizeof(kernels::ChannelRates)) {
      rows.reserve(ns.size());
      for (double n : ns) rows.push_back(kernels::channel_rates(platform, model_at(n, nbs[0])));
    }

    return sweep_transform(name.c_str(), ns.size() * nbs.size(), 4, [&](std::size_t i) {
      const std::size_t row = i / nbs.size();
      const double n = ns[row];
      const double nb = nbs[i % nbs.size()];
      const kernels::LocalityModel model = model_at(n, nb);
      // A point the row's rates do not fit gets its own; correctness never
      // rests on how the builders fill a row.
      const kernels::Prediction pred = !rows.empty() && rows[row].fits(model)
                                           ? kernels::predict(platform, rows[row], model)
                                           : kernels::predict(platform, model);
      return SweepPoint{.x = n, .y = nb, .gflops = pred.gflops, .footprint = model.footprint};
    });
  });
}

std::vector<SweepPoint> sweep_sparse(const sim::Platform& platform,
                                     const SparseSweepRequest& req,
                                     const sparse::SyntheticCollection& suite) {
  const std::string name = std::string("sweep_sparse:") + to_string(req.kernel);
  return cached_sweep<SweepPoint>(name, sweep_cache_key(platform, req, suite), [&] {
    return sweep_transform(name.c_str(), suite.size(), 8, [&](std::size_t i) {
      const auto& d = suite.descriptor(i);
      const kernels::LocalityModel model =
          sparse_model(platform, req.kernel, d, req.merge_based);
      const kernels::Prediction pred = kernels::predict(platform, model);
      return SweepPoint{.x = model.footprint,
                        .y = 0.0,
                        .gflops = pred.gflops,
                        .footprint = model.footprint,
                        .rows = static_cast<double>(d.rows),
                        .nnz = static_cast<double>(d.nnz),
                        .input_id = d.id};
    });
  });
}

std::vector<SweepPoint> sweep_footprint_kernel(const sim::Platform& platform,
                                               const FootprintSweepRequest& req) {
  if (req.points == 0 || !(req.fp_hi > req.fp_lo)) return {};
  const std::string name = std::string("sweep_footprint:") + to_string(req.kernel);
  return cached_sweep<SweepPoint>(name, sweep_cache_key(platform, req), [&] {
    const double log_lo = std::log2(req.fp_lo);
    const double log_hi = std::log2(req.fp_hi);
    return sweep_transform(name.c_str(), req.points, 8, [&](std::size_t i) {
      const double t =
          req.points > 1 ? static_cast<double>(i) / static_cast<double>(req.points - 1) : 0.0;
      const double fp = std::exp2(log_lo + (log_hi - log_lo) * t);
      const kernels::LocalityModel model = footprint_model(platform, req.kernel, fp);
      const kernels::Prediction pred = kernels::predict(platform, model);
      return SweepPoint{.x = fp, .y = 0.0, .gflops = pred.gflops, .footprint = model.footprint};
    });
  });
}

// ------------------------------------------------------------------ tables --

std::vector<double> table_inputs_gflops(const sim::Platform& platform, KernelId kernel,
                                        const sparse::SyntheticCollection& suite) {
  const bool knl = platform.cores >= 32;
  util::Hasher128 h = key_base("opm.table_inputs", platform);
  h.add(std::string_view(to_string(kernel)));
  const util::Digest128 sfp = suite.fingerprint();
  h.add(sfp.hi);
  h.add(sfp.lo);
  const std::string name = std::string("table_inputs:") + to_string(kernel);
  return cached_sweep<double>(name, h.digest(), [&]() -> std::vector<double> {
    std::vector<double> out;
    switch (kernel) {
      case KernelId::kGemm:
      case KernelId::kCholesky: {
        const double n_hi = knl ? 32000.0 : 16128.0;
        for (const auto& p :
             sweep_dense(platform, {.kernel = kernel,
                                    .n_lo = 256.0,
                                    .n_hi = n_hi,
                                    .n_step = (n_hi - 256.0) / 15.0,
                                    .nb_lo = 128.0,
                                    .nb_hi = 4096.0,
                                    .nb_step = 256.0}))
          out.push_back(p.gflops);
        return out;
      }
      case KernelId::kSpmv:
      case KernelId::kSptrans:
      case KernelId::kSptrsv: {
        for (const auto& p :
             sweep_sparse(platform, {.kernel = kernel, .merge_based = knl}, suite))
          out.push_back(p.gflops);
        return out;
      }
      case KernelId::kStream: {
        // Appendix A.2.8: array sizes up to 2^24 elements on Broadwell and
        // 2^26 on KNL — footprints capped well inside MCDRAM.
        const double fp_hi = (knl ? double(1 << 26) : double(1 << 24)) * 24.0;
        for (const auto& p : sweep_footprint_kernel(
                 platform,
                 {.kernel = kernel, .fp_lo = 16.0 * 1024, .fp_hi = fp_hi, .points = 64}))
          out.push_back(p.gflops);
        return out;
      }
      case KernelId::kStencil:
      case KernelId::kFft: {
        // Grids from ~8 MB up to a quarter of DDR (past the 16 GB MCDRAM
        // boundary on KNL, exposing the flat-mode spill).
        const double fp_lo = 8.0 * 1024 * 1024;
        const double fp_hi = static_cast<double>(platform.ddr().capacity) * 0.25;
        for (const auto& p : sweep_footprint_kernel(
                 platform, {.kernel = kernel, .fp_lo = fp_lo, .fp_hi = fp_hi, .points = 64}))
          out.push_back(p.gflops);
        return out;
      }
    }
    return out;
  });
}

namespace {
constexpr KernelId kAllKernels[] = {KernelId::kGemm,    KernelId::kCholesky,
                                    KernelId::kSpmv,    KernelId::kSptrans,
                                    KernelId::kSptrsv,  KernelId::kFft,
                                    KernelId::kStencil, KernelId::kStream};
constexpr std::size_t kKernelCount = std::size(kAllKernels);

/// Table keys hash the suite fingerprint only — the paper's platform
/// matrix is fixed inside each table function, so it is captured by the
/// domain tag plus the cache version.
util::Digest128 suite_key(const char* tag, const sparse::SyntheticCollection& suite) {
  util::Hasher128 h;
  h.add(std::string_view(tag));
  h.add(kResultCacheVersion);
  const util::Digest128 sfp = suite.fingerprint();
  h.add(sfp.hi);
  h.add(sfp.lo);
  return h.digest();
}
}  // namespace

std::vector<KernelSummary> table4_edram(const sparse::SyntheticCollection& suite) {
  return cached_sweep<KernelSummary>("table4_edram", suite_key("opm.table4_edram", suite), [&] {
    const sim::Platform off = sim::broadwell(sim::EdramMode::kOff);
    const sim::Platform on = sim::broadwell(sim::EdramMode::kOn);
    // Kernels fan out as the top-level sweep; the per-kernel input sweeps
    // nest inside it on the same pool.
    return sweep_transform("table4_edram", kKernelCount, 1, [&](std::size_t ki) {
      const KernelId k = kAllKernels[ki];
      const auto base = table_inputs_gflops(off, k, suite);
      const auto opm = table_inputs_gflops(on, k, suite);
      return KernelSummary{k, summarize_speedup(base, opm)};
    });
  });
}

std::vector<ModeSummary> table5_mcdram(const sparse::SyntheticCollection& suite) {
  return cached_sweep<ModeSummary>("table5_mcdram", suite_key("opm.table5_mcdram", suite), [&] {
    const sim::Platform ddr = sim::knl(sim::McdramMode::kOff);
    const sim::Platform flat = sim::knl(sim::McdramMode::kFlat);
    const sim::Platform cache = sim::knl(sim::McdramMode::kCache);
    const sim::Platform hybrid = sim::knl(sim::McdramMode::kHybrid);
    return sweep_transform("table5_mcdram", kKernelCount, 1, [&](std::size_t ki) {
      const KernelId k = kAllKernels[ki];
      const auto base = table_inputs_gflops(ddr, k, suite);
      ModeSummary row;
      row.kernel = k;
      row.flat = summarize_speedup(base, table_inputs_gflops(flat, k, suite));
      row.cache = summarize_speedup(base, table_inputs_gflops(cache, k, suite));
      row.hybrid = summarize_speedup(base, table_inputs_gflops(hybrid, k, suite));
      return row;
    });
  });
}

std::vector<PowerRow> power_rows(const sim::Platform& platform,
                                 const sparse::SyntheticCollection& suite) {
  const bool knl = platform.cores >= 32;
  util::Hasher128 kh = key_base("opm.power_rows", platform);
  const util::Digest128 sfp = suite.fingerprint();
  kh.add(sfp.hi);
  kh.add(sfp.lo);
  return cached_sweep<PowerRow>("power_rows", kh.digest(), [&] {
    return sweep_transform("power_rows", kKernelCount, 1, [&](std::size_t ki) {
      const KernelId k = kAllKernels[ki];
      // The canonical input list is built serially; the per-input power
      // estimates fan out (nested) and are then averaged in index order, so
      // the row is bit-identical to the old serial accumulation.
      std::vector<kernels::LocalityModel> models;
      switch (k) {
        case KernelId::kGemm:
        case KernelId::kCholesky: {
          const double n_hi = knl ? 32000.0 : 16128.0;
          for (double n = 1024.0; n <= n_hi; n += (n_hi - 1024.0) / 7.0)
            models.push_back(k == KernelId::kGemm
                                 ? kernels::gemm_model(platform, n, 512.0)
                                 : kernels::cholesky_model(platform, n, 512.0));
          break;
        }
        case KernelId::kSpmv:
        case KernelId::kSptrans:
        case KernelId::kSptrsv: {
          for (std::size_t i = 0; i < suite.size(); i += suite.size() / 32 + 1)
            models.push_back(sparse_model(platform, k, suite.descriptor(i), knl));
          break;
        }
        default: {
          const double fp_lo = 4.0 * 1024 * 1024;
          const double fp_hi = static_cast<double>(platform.ddr().capacity) * 0.25;
          for (const auto& p : sweep_footprint_kernel(
                   platform, {.kernel = k, .fp_lo = fp_lo, .fp_hi = fp_hi, .points = 16}))
            models.push_back(footprint_model(platform, k, p.x));
          break;
        }
      }
      const auto estimates =
          sweep_transform("power_rows:inputs", models.size(), 4, [&](std::size_t i) {
            const kernels::Prediction pred = kernels::predict(platform, models[i]);
            // Even bandwidth-bound kernels keep the cores and uncore roughly
            // half busy (stalled pipelines, prefetchers, memory controllers),
            // so package activity is floored at 0.5 during a run — this is
            // what keeps the relative OPM power delta near the paper's
            // +8.6%/+6.9%.
            const double activity = std::max(pred.utilization, 0.5);
            const sim::PowerEstimate p =
                sim::estimate_power(platform, activity, pred.ddr_gbps, pred.opm_gbps);
            return std::pair<double, double>{p.package, p.dram};
          });
      PowerRow row{.kernel = k};
      for (const auto& [package, dram] : estimates) {
        row.package_watts += package;
        row.dram_watts += dram;
      }
      if (!estimates.empty()) {
        row.package_watts /= static_cast<double>(estimates.size());
        row.dram_watts /= static_cast<double>(estimates.size());
      }
      return row;
    });
  });
}

}  // namespace opm::core
