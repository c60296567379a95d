// paper_regen: the whole-paper regeneration path. Each pass is a fresh
// process (so in-process memoization is as cold as a user's harness run)
// that regenerates the data behind every table and figure through the
// public calls the bench harnesses make, with the result cache off, exact
// simulation and a sweep pool of nproc workers.
#include <algorithm>
#include <fstream>
#include <functional>
#include <iostream>
#include <sstream>
#include <thread>

#include "advise/advise.hpp"
#include "bench.hpp"
#include "core/experiment.hpp"
#include "core/result_cache.hpp"
#include "core/sweep.hpp"
#include "core/sweep_config.hpp"
#include "core/validation.hpp"
#include "dense/matrix.hpp"
#include "kernels/gemm.hpp"
#include "kernels/spmv.hpp"
#include "kernels/stencil.hpp"
#include "kernels/stream.hpp"
#include "proc.hpp"
#include "runs.hpp"
#include "sim/cache.hpp"
#include "sim/memory_system.hpp"
#include "sim/window_sampler.hpp"
#include "sparse/generators.hpp"
#include "sparse/stats.hpp"
#include "trace/recorder.hpp"
#include "trace/reuse.hpp"
#include "util/fingerprint.hpp"
#include "util/format.hpp"
#include "util/json.hpp"
#include "util/metrics.hpp"
#include "util/units.hpp"
#include "workloads.hpp"

namespace opmbench {

namespace {

using opm::core::KernelId;
using opm::util::Digest128;
using opm::util::Hasher128;

const char* const kBroadwell[] = {"broadwell-edram-off", "broadwell-edram-on"};
const char* const kKnl[] = {"knl-ddr", "knl-cache", "knl-flat", "knl-hybrid"};
const char* const kAdvisePlatforms[] = {"broadwell-edram-off", "knl-ddr"};
const KernelId kKernels[] = {KernelId::kGemm,    KernelId::kCholesky, KernelId::kSpmv,
                             KernelId::kSptrans, KernelId::kSptrsv,   KernelId::kFft,
                             KernelId::kStencil, KernelId::kStream};
/// Advisor footprint variants: the kernel's canonical size (0), half and
/// double it. Every variant keeps the 8/8 and 7/8 gates.
const double kAdviseScale[] = {0.0, 0.5, 2.0};
const char* const kAdviseVariant[] = {"default", "half", "double"};
constexpr std::size_t kAdviseVariants = 3;

opm::sim::Platform platform_of(const char* selector) {
  opm::sim::Platform p;
  opm::advise::resolve_platform(selector, &p);
  return p;
}

/// What one dataset's regeneration hands back besides its digest.
struct Extra {
  std::size_t points = 0;           ///< sweep points (figure sweeps)
  std::uint64_t accesses = 0;       ///< reuse-analyzer accesses (validation)
  int verdict_ok = -1;              ///< advisor: 1 confirmed/marginal, 0 refuted
};

/// Context of one pass: the suite, and (traced passes) the span log the
/// datasets nest their inner layer spans into.
struct Ctx {
  const opm::sparse::SyntheticCollection& suite;
  SpanLog* log = nullptr;
  int parent = -1;
  std::string request;

  template <class Fn>
  auto span(const char* name, Fn&& fn) {
    if (log == nullptr) return fn();
    ScopedSpan s(*log, name, parent, request);
    return fn();
  }
};

struct Dataset {
  std::string name;
  const char* span;  ///< layer span name of the whole dataset
  std::function<Digest128(Ctx&, Extra&)> run;
};

void hash_points(Hasher128& h, const std::vector<opm::core::SweepPoint>& pts) {
  for (const auto& p : pts)
    h.add(p.x).add(p.y).add(p.gflops).add(p.footprint).add(p.rows).add(p.nnz).add(
        static_cast<std::int64_t>(p.input_id));
}

void hash_summary(Hasher128& h, const opm::core::SpeedupSummary& s) {
  h.add(s.best_base_gflops).add(s.best_opm_gflops).add(s.avg_gap_gflops).add(s.max_gap_gflops);
  h.add(s.avg_speedup).add(s.max_speedup).add(static_cast<std::uint64_t>(s.inputs));
}

void hash_report(Hasher128& h, const opm::core::ValidationReport& r) {
  for (const auto& row : r.rows)
    h.add(std::string_view(row.boundary)).add(row.capacity_bytes).add(row.measured_bytes).add(
        row.modeled_bytes).add(row.ratio);
  h.add(r.worst_factor);
}

Dataset figure_dataset(const char* selector, KernelId kernel, bool knl) {
  const std::string name =
      std::string("figure/") + selector + "/" + opm::advise::kernel_token(kernel);
  return {name, "core.figure_sweep", [selector, kernel, knl](Ctx& ctx, Extra& extra) {
            const opm::sim::Platform p = platform_of(selector);
            std::vector<opm::core::SweepPoint> pts;
            switch (kernel) {
              case KernelId::kGemm:
              case KernelId::kCholesky: {
                opm::core::DenseSweepRequest req{.kernel = kernel};
                if (knl) {
                  req.n_hi = 32000;
                  req.n_step = 1024;
                  req.nb_step = 256;
                }
                pts = opm::core::sweep_dense(p, req);
                break;
              }
              case KernelId::kSpmv:
              case KernelId::kSptrans:
              case KernelId::kSptrsv:
                pts = opm::core::sweep_sparse(
                    p, {.kernel = kernel, .merge_based = knl && kernel == KernelId::kSptrans},
                    ctx.suite);
                break;
              case KernelId::kStream:
                pts = knl ? opm::core::sweep_footprint_kernel(
                                p, {kernel, 64.0 * 1024, 40.0 * 1024 * 1024 * 1024.0, 96})
                          : opm::core::sweep_footprint_kernel(
                                p, {kernel, 16.0 * 1024, double(1 << 24) * 24.0, 96});
                break;
              case KernelId::kStencil:
                pts = knl ? opm::core::sweep_footprint_kernel(
                                p, {kernel, 8.0 * 1024 * 1024, 40.0 * 1024 * 1024 * 1024.0, 96})
                          : opm::core::sweep_footprint_kernel(
                                p, {kernel, 128.0 * 1024, 4.0 * 1024 * 1024 * 1024.0, 80});
                break;
              case KernelId::kFft:
                pts = knl ? opm::core::sweep_footprint_kernel(
                                p, {kernel, 13.0 * 1024 * 1024, 22.0 * 1024 * 1024 * 1024.0, 96})
                          : opm::core::sweep_footprint_kernel(
                                p, {kernel, 4.0 * 1024 * 1024, 3.2e9, 80});
                break;
            }
            extra.points = pts.size();
            Hasher128 h;
            hash_points(h, pts);
            return h.digest();
          }};
}

Dataset advise_dataset(const char* selector, KernelId kernel, std::size_t variant) {
  const std::string name = std::string("advise/") + selector + "/" +
                           opm::advise::kernel_token(kernel) + "/" + kAdviseVariant[variant];
  return {name, "advise.run", [selector, kernel, variant](Ctx&, Extra& extra) {
            opm::advise::AdviseRequest req;
            req.kernel = kernel;
            req.platform = selector;
            req.footprint_bytes =
                kAdviseScale[variant] *
                opm::advise::default_footprint_bytes(kernel, platform_of(selector));
            const opm::advise::AdviseResult r = opm::advise::run_advise(req);
            extra.verdict_ok = r.verification.verdict == opm::advise::Verdict::kConfirmed ||
                               r.verification.verdict == opm::advise::Verdict::kMarginal;
            return Hasher128().add(std::string_view(opm::advise::render_json(r))).digest();
          }};
}

/// validation_report: one instrumented kernel run into a reuse-distance
/// analyzer, checked against its analytical model.
template <class Body>
Dataset validation_dataset(const char* name, Body body) {
  return {std::string("validation/") + name, "trace.validation",
          [body](Ctx& ctx, Extra& extra) {
            const opm::sim::Platform p = opm::sim::broadwell(opm::sim::EdramMode::kOff);
            opm::trace::ReuseDistanceAnalyzer reuse;
            double iterations = 1.0;
            const opm::kernels::LocalityModel model =
                ctx.span("trace.reuse", [&] { return body(p, reuse, &iterations); });
            const opm::core::ValidationReport report = ctx.span("core.validate_model", [&] {
              return opm::core::validate_model(reuse, model, p, iterations);
            });
            extra.accesses = reuse.accesses();
            Hasher128 h;
            hash_report(h, report);
            return h.digest();
          }};
}

/// ablation_prefetcher: demand misses and prefetch fills of one kernel
/// trace on Broadwell's simulated hierarchy, with or without the stride
/// prefetcher.
Dataset prefetch_dataset(const char* trace, bool prefetch) {
  return {std::string("prefetch/") + trace + (prefetch ? "/on" : "/off"), "sim.prefetcher",
          [trace = std::string(trace), prefetch](Ctx&, Extra&) {
            opm::sim::MemorySystem ms(opm::sim::broadwell(opm::sim::EdramMode::kOff));
            if (prefetch) ms.enable_prefetcher(16, 8);
            opm::trace::SystemRecorder rec(ms);
            if (trace == "stream_triad") {
              const std::size_t n = (4 * opm::util::MiB) / 8;
              std::vector<double> a(n), b(n), c(n);
              opm::kernels::stream_triad_instrumented(a, b, c, 1.0, rec);
            } else {
              const opm::sparse::Csr m = opm::sparse::make_random_uniform(60000, 12.0, 3);
              std::vector<double> x(60000, 1.0), y(60000);
              opm::kernels::spmv_csr_instrumented(m, x, y, rec);
            }
            const auto rep = ms.report();
            return Hasher128().add(rep.devices.back().hits).add(rep.devices.back().prefetches)
                .digest();
          }};
}

/// ablation_replacement: hit rate of a 1 MB 8-way cache under LRU, FIFO
/// and random replacement on one kernel trace.
Dataset replacement_dataset(const char* trace) {
  return {std::string("replacement/") + trace, "sim.replacement",
          [trace = std::string(trace)](Ctx&, Extra&) {
            opm::trace::VectorRecorder rec;
            if (trace == "stream_2mb_x2") {
              const std::size_t n = (2 * opm::util::MiB) / 24;
              std::vector<double> a(n), b(n), c(n);
              for (int pass = 0; pass < 2; ++pass)
                opm::kernels::stream_triad_instrumented(a, b, c, 1.0, rec);
            } else {
              const opm::sparse::Csr a = trace == "spmv_banded"
                                             ? opm::sparse::make_banded(20000, 16, 10.0, 1)
                                             : opm::sparse::make_random_uniform(20000, 10.0, 1);
              std::vector<double> x(20000, 1.0), y(20000);
              opm::kernels::spmv_csr_instrumented(a, x, y, rec);
            }
            Hasher128 h;
            for (const auto policy :
                 {opm::sim::ReplacementPolicy::kLru, opm::sim::ReplacementPolicy::kFifo,
                  opm::sim::ReplacementPolicy::kRandom}) {
              opm::sim::SetAssociativeCache cache({.name = "c", .capacity = 1024 * 1024,
                                                   .line_size = 64, .associativity = 8,
                                                   .policy = policy});
              for (const auto& e : rec.events) {
                const std::uint64_t line = e.addr & ~63ull;
                const std::uint64_t end = (e.addr + e.size - 1) & ~63ull;
                for (std::uint64_t l = line; l <= end; l += 64) cache.access(l, e.is_write);
              }
              h.add(cache.stats().hit_rate());
            }
            return h.digest();
          }};
}

/// Every dataset of one pass, in canonical order. `variant(i)` picks the
/// footprint variant of advisor question i (platform-major).
std::vector<Dataset> datasets(const std::function<std::size_t(std::size_t)>& variant) {
  std::vector<Dataset> out;
  out.push_back({"table4", "core.table4", [](Ctx& ctx, Extra&) {
                   Hasher128 h;
                   for (const auto& row : opm::core::table4_edram(ctx.suite)) {
                     h.add(static_cast<std::int64_t>(row.kernel));
                     hash_summary(h, row.summary);
                   }
                   return h.digest();
                 }});
  out.push_back({"table5", "core.table5", [](Ctx& ctx, Extra&) {
                   Hasher128 h;
                   for (const auto& row : opm::core::table5_mcdram(ctx.suite)) {
                     h.add(static_cast<std::int64_t>(row.kernel));
                     hash_summary(h, row.flat);
                     hash_summary(h, row.cache);
                     hash_summary(h, row.hybrid);
                   }
                   return h.digest();
                 }});
  for (const char* sel : {"broadwell-edram-off", "broadwell-edram-on", "knl-ddr", "knl-flat"}) {
    out.push_back({std::string("power/") + sel, "core.power_rows", [sel](Ctx& ctx, Extra&) {
                     Hasher128 h;
                     for (const auto& row : opm::core::power_rows(platform_of(sel), ctx.suite))
                       h.add(static_cast<std::int64_t>(row.kernel))
                           .add(row.package_watts)
                           .add(row.dram_watts);
                     return h.digest();
                   }});
  }
  for (const char* sel : kBroadwell)
    for (const KernelId k : kKernels) out.push_back(figure_dataset(sel, k, false));
  for (const char* sel : kKnl)
    for (const KernelId k : kKernels) out.push_back(figure_dataset(sel, k, true));
  std::size_t question = 0;
  for (const char* sel : kAdvisePlatforms)
    for (const KernelId k : kKernels) out.push_back(advise_dataset(sel, k, variant(question++)));

  using opm::kernels::LocalityModel;
  using opm::sim::Platform;
  using Reuse = opm::trace::ReuseDistanceAnalyzer;
  out.push_back(validation_dataset("stream", [](const Platform& p, Reuse& r, double* iters) {
    const std::size_t n = (1 << 20) / 24;
    std::vector<double> a(n), b(n), c(n);
    for (int pass = 0; pass < 2; ++pass) opm::kernels::stream_triad_instrumented(a, b, c, 1.0, r);
    *iters = 2.0;
    return opm::kernels::stream_model(p, static_cast<double>(n));
  }));
  out.push_back(validation_dataset("gemm", [](const Platform& p, Reuse& r, double*) {
    const std::size_t n = 96, nb = 32;
    opm::dense::Matrix a(n, n), b(n, n), c(n, n);
    a.fill_random(1);
    b.fill_random(2);
    opm::kernels::gemm_instrumented(a, b, c, nb, r);
    return opm::kernels::gemm_model(p, double(n), double(nb));
  }));
  for (const bool banded : {false, true}) {
    out.push_back(validation_dataset(
        banded ? "spmv_banded" : "spmv_random", [banded](const Platform& p, Reuse& r, double*) {
          const opm::sparse::Csr a = banded ? opm::sparse::make_banded(8192, 8, 8.0, 5)
                                            : opm::sparse::make_random_uniform(8192, 8.0, 5);
          const auto stats = opm::sparse::compute_stats(a);
          std::vector<double> x(8192, 1.0), y(8192);
          opm::kernels::spmv_csr_instrumented(a, x, y, r);
          return opm::kernels::spmv_model(
              p, {.rows = 8192, .nnz = static_cast<double>(stats.nnz),
                  .locality = banded ? 0.95 : 0.05, .row_cv = stats.row_cv});
        }));
  }
  out.push_back(validation_dataset("stencil", [](const Platform& p, Reuse& r, double*) {
    opm::kernels::StencilGrid g(40, 40, 40);
    g.seed(7);
    opm::kernels::stencil_step_instrumented(g, 0, 0, r);
    return opm::kernels::stencil_model(p, 40.0, 3.0 * 40 * 40 * 8);
  }));
  for (const char* t : {"stream_triad", "spmv_random"})
    for (const bool pf : {false, true}) out.push_back(prefetch_dataset(t, pf));
  for (const char* t : {"spmv_banded", "spmv_random", "stream_2mb_x2"})
    out.push_back(replacement_dataset(t));
  return out;
}

constexpr std::size_t kAdviseQuestions = 16;
constexpr std::uint64_t kTracedPasses = 3;

bool is_broadwell_question(const std::string& name) {
  return name.rfind("advise/broadwell", 0) == 0;
}

void configure_pass() {
  opm::core::CacheConfig cc;
  cc.enabled = false;
  opm::core::configure_result_cache(cc);
  const unsigned hw = std::thread::hardware_concurrency();
  opm::core::set_sweep_workers(hw == 0 ? 1 : hw);
  opm::sim::set_sampling_mode(opm::sim::SamplingMode::kOff);
  opm::core::set_sweep_telemetry(true);
}

/// Pool accounting folded from the sweep stats log.
struct PoolTotals {
  double busy = 0.0, capacity = 0.0, steals = 0.0;
  void drain() {
    for (const auto& s : opm::core::drain_sweep_stats()) {
      if (s.workers == 0) continue;
      busy += s.busy_seconds;
      capacity += s.wall_seconds * static_cast<double>(s.workers);
      steals += static_cast<double>(s.steals);
    }
  }
};

std::string num(double v) { return opm::util::format_json_number(v); }

/// A pass report carries every field the parent reads.
bool well_formed(const opm::util::JsonValue& doc, bool traced) {
  for (const char* key : {"ready_ns", "pass_s", "bdw_ok", "knl_ok"}) {
    const opm::util::JsonValue* v = doc.find(key);
    if (v == nullptr || !v->is_number()) return false;
  }
  const opm::util::JsonValue* datasets = doc.find("datasets");
  if (datasets == nullptr || !datasets->is_array()) return false;
  for (const opm::util::JsonValue& d : datasets->items) {
    const opm::util::JsonValue* name = d.find("name");
    const opm::util::JsonValue* digest = d.find("digest");
    if (name == nullptr || !name->is_string() || digest == nullptr || !digest->is_string())
      return false;
  }
  const opm::util::JsonValue* layers = doc.find("layers");
  return !traced || (layers != nullptr && layers->is_object());
}

}  // namespace

// --------------------------------------------------------------- the child --

int regen_pass_main(std::uint64_t seed, bool trace, bool all_variants,
                    const std::string& spans_path) {
  configure_pass();
  // Setup: the sweep pool (configure_pass builds it) and the input suites
  // every sparse sweep and the advisor read.
  const std::int64_t suite0 = now_ns();
  const opm::sparse::SyntheticCollection suite = opm::sparse::SyntheticCollection::paper_suite();
  const double suite_ms = static_cast<double>(now_ns() - suite0) * 1e-6;
  (void)opm::advise::advise_suite();
  const std::int64_t ready_ns = now_ns();

  if (all_variants) {
    // Golden file: every dataset, every advisor footprint variant.
    std::vector<std::pair<std::string, std::string>> lines;
    for (std::size_t v = 0; v < kAdviseVariants; ++v) {
      for (Dataset& d : datasets([v](std::size_t) { return v; })) {
        if (v > 0 && d.name.rfind("advise/", 0) != 0) continue;
        Ctx ctx{suite, nullptr, -1, {}};
        Extra extra;
        lines.emplace_back(d.name, d.run(ctx, extra).hex());
      }
    }
    std::sort(lines.begin(), lines.end());
    for (const auto& [name, digest] : lines) std::cout << name << ' ' << digest << '\n';
    return 0;
  }

  const std::size_t count = datasets([](std::size_t) { return std::size_t{0}; }).size();
  const RegenPlan plan = regen_plan(seed, count, kAdviseQuestions, kAdviseVariants);
  std::vector<Dataset> all = datasets([&](std::size_t q) { return plan.advise_variant[q]; });

  SpanLog log;
  SpanLog* span_log = trace ? &log : nullptr;
  PoolTotals pool;
  opm::util::Counter& sim_lines = opm::util::MetricsRegistry::instance().counter(
      "sim.lines_simulated");
  const std::uint64_t lines0 = sim_lines.value();
  std::uint64_t prefetch_lines = 0;
  double prefetch_s = 0.0;
  std::uint64_t accesses = 0;
  int bdw_ok = 0, knl_ok = 0;
  std::vector<double> sweep_us, sweep_ns_per_point;

  std::ostringstream ds;
  const std::int64_t start_ns = now_ns();
  const int root = trace ? log.begin("regen.pass", -1, "") : -1;
  for (std::size_t k = 0; k < all.size(); ++k) {
    Dataset& d = all[plan.order[k]];
    Ctx ctx{suite, span_log, -1, d.name};
    Extra extra;
    const std::uint64_t lines_before = sim_lines.value();
    const int span = trace ? log.begin(d.span, root, d.name) : -1;
    ctx.parent = span;
    const std::int64_t t0 = now_ns();
    const Digest128 digest = d.run(ctx, extra);
    const std::int64_t t1 = now_ns();
    if (trace) log.end(span);
    pool.drain();
    const double ms = static_cast<double>(t1 - t0) * 1e-6;
    if (std::string_view(d.span) == "sim.prefetcher") {
      prefetch_lines += sim_lines.value() - lines_before;
      prefetch_s += ms * 1e-3;
    }
    if (std::string_view(d.span) == "core.figure_sweep") {
      sweep_us.push_back(ms * 1e3);
      sweep_ns_per_point.push_back(ms * 1e6 / static_cast<double>(std::max<std::size_t>(
                                                  extra.points, 1)));
    }
    accesses += extra.accesses;
    if (extra.verdict_ok == 1) ++(is_broadwell_question(d.name) ? bdw_ok : knl_ok);
    ds << (k ? "," : "") << "{\"name\":\"" << d.name << "\",\"ms\":" << num(ms)
       << ",\"digest\":\"" << digest.hex() << "\"}";
  }
  if (trace) log.end(root);
  const double pass_s = seconds_since(start_ns);
  const std::uint64_t pass_lines = sim_lines.value() - lines0;

  std::cout << "{\"ready_ns\":" << ready_ns << ",\"pass_s\":" << num(pass_s)
            << ",\"bdw_ok\":" << bdw_ok << ",\"knl_ok\":" << knl_ok << ",\"datasets\":["
            << ds.str() << "]";
  if (trace) {
    const std::vector<Span>& spans = log.spans();
    const std::vector<std::int64_t> self = self_times(spans);
    auto total_ms = [&](const char* name) {
      double sum = 0.0;
      for (std::size_t i = 0; i < spans.size(); ++i)
        if (spans[i].name == name) sum += static_cast<double>(spans[i].end_ns - spans[i].start_ns);
      return sum * 1e-6;
    };
    double datasets_ms = 0.0;
    for (std::size_t i = 0; i < spans.size(); ++i)
      if (spans[i].parent == root && root >= 0)
        datasets_ms += static_cast<double>(spans[i].end_ns - spans[i].start_ns) * 1e-6;
    const double sim_trace_advise = total_ms("sim.prefetcher") + total_ms("sim.replacement") +
                                    total_ms("trace.validation") + total_ms("advise.run");

    // The advisor split: stage 3 alone is verify-on minus verify-off with
    // the stage-1 probe already memoized; the cold place + recommend cost
    // is the pass's own (cold) run minus that.
    std::vector<double> run_ms = self_times_of(spans, self, "advise.run", 1e-6);
    std::vector<double> verify_ms;
    for (const char* sel : kAdvisePlatforms) {
      for (const KernelId k : kKernels) {
        opm::advise::AdviseRequest req;
        req.kernel = k;
        req.platform = sel;
        opm::advise::set_verify_enabled(true);
        std::int64_t t0 = now_ns();
        (void)opm::advise::run_advise(req);
        const double on = static_cast<double>(now_ns() - t0) * 1e-6;
        opm::advise::set_verify_enabled(false);
        t0 = now_ns();
        (void)opm::advise::run_advise(req);
        const double off = static_cast<double>(now_ns() - t0) * 1e-6;
        verify_ms.push_back(on - off);
      }
    }
    opm::advise::set_verify_enabled(true);
    const double verify = median(verify_ms);

    // One kernels::predict on the KNL GEMM figure's shape.
    const opm::sim::Platform knl = platform_of("knl-flat");
    const auto model = opm::kernels::gemm_model(knl, 16000.0, 1024.0);
    std::vector<double> predict_ns;
    for (int rep = 0; rep < 21; ++rep) {
      const std::int64_t t0 = now_ns();
      double sink = 0.0;
      for (int i = 0; i < 100; ++i) sink += opm::kernels::predict(knl, model).gflops;
      predict_ns.push_back(static_cast<double>(now_ns() - t0) / 100.0 + (sink < 0 ? 1 : 0));
    }

    std::cout << ",\"layers\":{"
              << "\"core.table4_ms\":" << num(total_ms("core.table4"))
              << ",\"core.table5_ms\":" << num(total_ms("core.table5"))
              << ",\"core.power_rows_ms\":" << num(total_ms("core.power_rows"))
              << ",\"core.figure_sweeps_ms\":" << num(total_ms("core.figure_sweep"))
              << ",\"core.sweep_us\":" << num(median(sweep_us))
              << ",\"core.sweep_ns_per_point\":" << num(median(sweep_ns_per_point))
              << ",\"core.pool_utilization\":"
              << num(pool.capacity > 0 ? pool.busy / pool.capacity : 0.0)
              << ",\"core.steals\":" << num(pool.steals)
              << ",\"kernels.predict_ns\":" << num(median(predict_ns))
              << ",\"sparse.suite_build_ms\":" << num(suite_ms)
              << ",\"advise.run_ms\":" << num(median(run_ms))
              << ",\"advise.verify_ms\":" << num(verify)
              << ",\"advise.place_recommend_ms\":" << num(median(run_ms) - verify)
              << ",\"advise.bdw_confirmed_or_marginal\":" << bdw_ok
              << ",\"advise.knl_confirmed_or_marginal\":" << knl_ok
              << ",\"sim.lines_simulated\":" << num(static_cast<double>(pass_lines))
              << ",\"sim.lines_per_s\":"
              << num(prefetch_s > 0 ? static_cast<double>(prefetch_lines) / prefetch_s : 0.0)
              << ",\"trace.reuse_ms\":" << num(total_ms("trace.reuse"))
              << ",\"trace.accesses\":" << accesses
              << ",\"regen.sim_trace_advise_share\":"
              << num(datasets_ms > 0 ? sim_trace_advise / datasets_ms : 0.0)
              << ",\"regen.traced_datasets_ms\":" << num(datasets_ms) << "}";
    if (!spans_path.empty()) log.write_jsonl(spans_path);
  }
  std::cout << "}\n";
  return 0;
}

// -------------------------------------------------------------- the parent --

RunResult run_paper_regen(const RunOptions& opt) {
  RunResult res;
  std::map<std::string, std::string> golden;
  {
    std::ifstream is(opt.golden);
    std::string name, digest;
    while (is >> name >> digest) golden[name] = digest;
  }
  if (golden.empty()) {
    res.correct = false;
    res.attempted = res.failed = 1;
    res.notes.push_back("cannot read golden digests from " + opt.golden);
    return res;
  }

  std::vector<double> setups, passes, rss, latencies;
  std::size_t datasets_untraced = 0;
  std::map<std::string, std::vector<double>> layers;
  double measured_s = 0.0;
  std::size_t regenerated = 0, mismatched = 0, gate_failures = 0, pass_count = 0;
  Hasher128 combined;

  // One pass in a fresh child process; false when it could not run.
  auto run_pass = [&](std::uint64_t pass, bool traced) {
    std::vector<std::string> argv = {opt.bin_dir + "/opmbench", "regen-pass",
                                     "--seed=" + std::to_string(opt.seed * 1000 + pass)};
    if (traced) {
      argv.push_back("--trace");
      if (!opt.spans_path.empty()) argv.push_back("--spans=" + opt.spans_path);
    }
    ++pass_count;
    Child child;
    std::string error;
    const std::int64_t spawn_ns = now_ns();
    if (!child.spawn(argv, "", &error)) {
      res.notes.push_back("cannot spawn a regeneration pass: " + error);
      ++gate_failures;
      return false;
    }
    const std::string out = child.read_all();
    const std::int64_t exit_ns = now_ns();  // stdout closes when the pass exits
    double peak = 0.0;
    const int rc = child.stop(false, 300.0, &peak);
    const std::size_t nl = out.rfind('\n', out.size() >= 2 ? out.size() - 2 : 0);
    const auto doc = opm::util::parse_json(nl == std::string::npos ? out : out.substr(nl + 1));
    if (rc != 0 || !doc || !well_formed(*doc, traced)) {
      res.notes.push_back("regeneration pass " + std::to_string(pass) + " failed (exit " +
                          std::to_string(rc) + ")");
      ++gate_failures;
      return false;
    }
    for (const auto& d : doc->find("datasets")->items) {
      const std::string& name = d.find("name")->string;
      const std::string& digest = d.find("digest")->string;
      ++regenerated;
      auto it = golden.find(name);
      if (it == golden.end() || it->second != digest) {
        ++mismatched;
        res.notes.push_back("dataset " + name + " differs from its golden digest");
      }
      if (!traced) ++datasets_untraced;
      if (pass == 0 && !traced)
        combined.add(std::string_view(name)).add(std::string_view(digest));
    }
    const int bdw = static_cast<int>(doc->find("bdw_ok")->number);
    const int knl = static_cast<int>(doc->find("knl_ok")->number);
    if (bdw < 8 || knl < 7) {
      ++gate_failures;
      res.notes.push_back("advisor gate failed: broadwell " + std::to_string(bdw) +
                          "/8, knl " + std::to_string(knl) + "/8");
    }
    if (traced) {
      for (const auto& [name, v] : doc->find("layers")->members) layers[name].push_back(v.number);
      return true;
    }
    setups.push_back(
        static_cast<double>(static_cast<std::int64_t>(doc->find("ready_ns")->number) - spawn_ns) *
        1e-9);
    passes.push_back(doc->find("pass_s")->number);
    latencies.push_back(static_cast<double>(exit_ns - spawn_ns) * 1e-6);
    measured_s += passes.back();
    rss.push_back(peak);
    return true;
  };

  const std::int64_t run_start = now_ns();
  for (std::uint64_t pass = 0; passes.size() < 2 || measured_s < opt.seconds; ++pass) {
    if (!run_pass(pass, false)) break;
    if (seconds_since(run_start) > 6.0 * opt.seconds + 120.0) break;  // runaway guard
  }
  // The traced passes replay the first passes' seeds under spans.
  if (opt.trace)
    for (std::uint64_t pass = 0; pass < kTracedPasses; ++pass)
      if (!run_pass(pass, true)) break;

  res.attempted = regenerated + pass_count;  // every dataset, plus each pass's advisor gate
  res.failed = mismatched + gate_failures;
  res.correct = res.failed == 0;
  res.end_to_end["setup_s"] = median(setups);
  const double per_pass =
      passes.empty() ? 0.0 : static_cast<double>(datasets_untraced) / static_cast<double>(passes.size());
  std::vector<double> pass_rates;
  for (double p : passes) pass_rates.push_back(per_pass / p);
  res.end_to_end["throughput_rps"] = quiet_quartile(pass_rates, /*higher_is_better=*/true);
  // A user regenerating the paper waits for a whole pass, process start
  // to exit: that is this workload's latency sample.
  add_latency({latencies}, &res);
  res.end_to_end["regen_s"] = quiet_quartile(passes);
  res.end_to_end["peak_rss_mb"] = median(rss);
  res.notes.push_back("passes " + std::to_string(passes.size()) + ", datasets per pass " +
                      std::to_string(passes.empty() ? 0 : datasets_untraced / passes.size()) +
                      ", combined digest of pass 0 " + combined.digest().hex());
  for (const auto& [name, values] : layers) res.per_layer[name] = median(values);
  if (opt.trace) {
    const double traced = res.per_layer["regen.traced_datasets_ms"];
    res.per_layer.erase("regen.traced_datasets_ms");
    res.per_layer["regen.traced_gap_ms"] = traced - res.end_to_end["regen_s"] * 1e3;
    res.notes.push_back(
        "traced: sim + trace + advise spans take " +
        opm::util::format_fixed(100.0 * res.per_layer["regen.sim_trace_advise_share"], 1) +
        "% of the pass; traced dataset spans sum to " + opm::util::format_fixed(traced, 1) +
        " ms vs untraced regen_s " +
        opm::util::format_fixed(res.end_to_end["regen_s"] * 1e3, 1) + " ms");
  }
  return res;
}

}  // namespace opmbench
