// Quickstart: the full pipeline on one kernel.
//
// 1. Build a simulated OPM platform (Broadwell with eDRAM).
// 2. Run a real SpMV on a real synthetic matrix (correctness).
// 3. Stream its exact address trace through the trace-driven cache
//    simulator and read the per-tier traffic.
// 4. Predict throughput with the analytical model on both eDRAM modes and
//    see the eDRAM effective region.
//
// Build & run:  cmake -B build -G Ninja && cmake --build build
//               ./build/examples/quickstart
#include <iostream>
#include <vector>

#include "kernels/csr5.hpp"
#include "kernels/model.hpp"
#include "kernels/spmv.hpp"
#include "sim/memory_system.hpp"
#include "sim/platform.hpp"
#include "sparse/generators.hpp"
#include "sparse/stats.hpp"
#include "trace/recorder.hpp"
#include "util/format.hpp"

int main() {
  using namespace opm;

  // --- 1. a platform (paper Table 3, tuning per Table 1) ----------------
  const sim::Platform off = sim::broadwell(sim::EdramMode::kOff);
  const sim::Platform on = sim::broadwell(sim::EdramMode::kOn);
  std::cout << "platform: " << on.name << ", DP peak "
            << util::format_gflops(on.dp_peak_flops) << ", eDRAM "
            << util::format_bytes(on.tiers.back().geometry.capacity) << " at "
            << util::format_bandwidth(on.tiers.back().bandwidth) << "\n";

  // --- 2. a real kernel on real data ------------------------------------
  const sparse::Csr a = sparse::make_banded(20000, 16, 12.0, /*seed=*/42);
  const sparse::MatrixStats stats = sparse::compute_stats(a);
  std::vector<double> x(static_cast<std::size_t>(a.cols), 1.0);
  std::vector<double> y_csr(static_cast<std::size_t>(a.rows));
  std::vector<double> y_csr5(static_cast<std::size_t>(a.rows));
  kernels::spmv_csr(a, x, y_csr);
  kernels::Csr5Matrix::build(a).spmv(x, y_csr5);
  double diff = 0.0;
  for (std::size_t i = 0; i < y_csr.size(); ++i)
    diff = std::max(diff, std::abs(y_csr[i] - y_csr5[i]));
  std::cout << "\nmatrix: " << stats.rows << " rows, " << stats.nnz << " nnz, footprint "
            << util::format_bytes(static_cast<std::uint64_t>(stats.spmv_footprint_bytes))
            << "; CSR vs CSR5 max diff " << diff << "\n";

  // --- 3. exact trace through the simulated hierarchy -------------------
  sim::MemorySystem machine(on);
  trace::SystemRecorder recorder(machine);
  for (int iteration = 0; iteration < 2; ++iteration)
    kernels::spmv_csr_instrumented(a, x, y_csr, recorder);
  std::cout << "\ntrace-driven traffic (2 SpMV iterations):\n";
  for (const auto& tier : machine.report().tiers)
    std::cout << "  " << util::pad(tier.name, 10) << util::format_bytes(tier.bytes_served)
              << " served\n";
  for (const auto& dev : machine.report().devices)
    std::cout << "  " << util::pad(dev.name, 10) << util::format_bytes(dev.bytes_served)
              << " served\n";

  // --- 4. analytical prediction across modes ----------------------------
  const kernels::SpmvShape shape{.rows = static_cast<double>(stats.rows),
                                 .nnz = static_cast<double>(stats.nnz),
                                 .locality = 0.95,  // banded: near-diagonal gathers
                                 .row_cv = stats.row_cv};
  const auto p_off = kernels::predict(off, kernels::spmv_model(off, shape));
  const auto p_on = kernels::predict(on, kernels::spmv_model(on, shape));
  std::cout << "\npredicted SpMV throughput:\n"
            << "  w/o eDRAM: " << util::format_fixed(p_off.gflops, 2) << " GFlop/s (bound by "
            << sim::channel_name(off, p_off.timing.bound_channel) << ")\n"
            << "  w/  eDRAM: " << util::format_fixed(p_on.gflops, 2) << " GFlop/s (bound by "
            << sim::channel_name(on, p_on.timing.bound_channel) << ")\n"
            << "  speedup:   " << util::format_speedup(p_on.gflops / p_off.gflops) << "\n";
  return 0;
}
