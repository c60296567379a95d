// Ablation: the hardware stride prefetcher in the trace-driven simulator.
// Streaming kernels (TRIAD) have nearly all demand misses covered;
// irregular gathers (random SpMV x-accesses) gain nothing — the asymmetry
// behind the paper's kernels reaching (Stream) or missing (SpMV) the
// DRAM bandwidth plateau.
#include <functional>
#include <iostream>

#include "common.hpp"
#include "kernels/spmv.hpp"
#include "kernels/stream.hpp"
#include "sim/memory_system.hpp"
#include "sparse/generators.hpp"
#include "trace/recorder.hpp"
#include "util/csv.hpp"
#include "util/format.hpp"
#include "util/units.hpp"

namespace {
struct Counts {
  std::uint64_t demand = 0;
  std::uint64_t prefetch = 0;
};

template <typename RunFn>
Counts run(bool prefetch, RunFn&& body) {
  using namespace opm;
  sim::MemorySystem ms(sim::broadwell(sim::EdramMode::kOff));
  if (prefetch) ms.enable_prefetcher(16, 8);
  trace::SystemRecorder rec(ms);
  body(rec);
  const auto rep = ms.report();
  return {rep.devices.back().hits, rep.devices.back().prefetches};
}
}  // namespace

int main() {
  using namespace opm;
  bench::banner("Ablation", "Stride prefetcher coverage: streams vs gathers");

  const std::size_t n = (4 * util::MiB) / 8;
  std::vector<double> a(n), b(n), c(n);
  auto triad = [&](auto& rec) { kernels::stream_triad_instrumented(a, b, c, 1.0, rec); };

  const sparse::Csr m = sparse::make_random_uniform(60000, 12.0, 3);
  std::vector<double> x(60000, 1.0), y(60000);
  auto spmv = [&](auto& rec) { kernels::spmv_csr_instrumented(m, x, y, rec); };

  util::CsvWriter csv(std::cout);
  csv.header({"kernel", "demand_misses_plain", "demand_misses_prefetch",
              "prefetch_fills", "demand_coverage"});
  for (auto& [name, body] :
       std::vector<std::pair<std::string, std::function<void(trace::SystemRecorder&)>>>{
           {"stream_triad", triad}, {"spmv_random", spmv}}) {
    const Counts plain = run(false, body);
    const Counts pf = run(true, body);
    const double coverage =
        1.0 - static_cast<double>(pf.demand) / static_cast<double>(std::max<std::uint64_t>(plain.demand, 1));
    csv.row(name, plain.demand, pf.demand, pf.prefetch,
            util::format_fixed(100.0 * coverage, 1) + "%");
  }

  bench::shape_note(
      "TRIAD's demand misses are almost entirely converted to prefetch fills; random-"
      "gather SpMV keeps most of its demand misses. This is why the analytic models give "
      "streaming kernels full effective bandwidth (high mlp_max) while gather-bound and "
      "dependence-bound kernels stay latency-limited.");
  return 0;
}
