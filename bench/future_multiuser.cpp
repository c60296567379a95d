// Future-work exploration: OPM partitioning across co-running tenants —
// the paper's section 8 question 1 ("how would OS distribute the OPM
// resources among applications based on fairness, efficiency and
// consistency?"), answered quantitatively with the library's models.
//
// Scenario: three applications share a Broadwell eDRAM — an SpMV whose
// footprint fits comfortably, an FFT living exactly in the eDRAM
// effective region, and a Stream that cannot reuse anything. The study
// compares equal, proportional and throughput-optimal capacity splits.
#include <iostream>

#include "common.hpp"
#include "core/multitenant.hpp"
#include "kernels/fft.hpp"
#include "kernels/spmv.hpp"
#include "kernels/stream.hpp"
#include "util/csv.hpp"
#include "util/format.hpp"
#include "util/units.hpp"

int main() {
  using namespace opm;
  bench::banner("Future work", "Multi-tenant OPM partitioning (paper section 8, question 1)");

  const sim::Platform brd = sim::broadwell(sim::EdramMode::kOn);
  std::vector<core::Tenant> tenants;
  tenants.push_back({.name = "SpMV(30MB)",
                     .model = kernels::spmv_model(
                         brd, {.rows = 3e5, .nnz = 2e6, .locality = 0.4, .row_cv = 0.5})});
  tenants.push_back({.name = "FFT(64MB)", .model = kernels::fft_model(brd, 160.0)});
  tenants.push_back({.name = "Stream(1GB)", .model = kernels::stream_model(brd, 4.5e7)});

  util::CsvWriter csv(std::cout);
  csv.header({"policy", "slices_mb", "tenant_gflops", "total_gflops", "jain_fairness"});
  double best_total = 0.0, equal_total = 0.0;
  for (auto policy : {core::PartitionPolicy::kEqual, core::PartitionPolicy::kProportional,
                      core::PartitionPolicy::kOptimal}) {
    const auto result = core::evaluate_partition(brd, tenants, policy);
    std::string slices, gflops;
    for (std::size_t i = 0; i < result.slice_bytes.size(); ++i) {
      slices += i ? "|" : "";
      slices += util::format_fixed(result.slice_bytes[i] / (1 << 20), 0);
      gflops += i ? "|" : "";
      gflops += util::format_fixed(result.tenant_gflops[i], 2);
    }
    csv.row(core::to_string(policy), slices, gflops,
            util::format_fixed(result.total_gflops, 2),
            util::format_fixed(result.fairness, 3));
    if (policy == core::PartitionPolicy::kEqual) equal_total = result.total_gflops;
    best_total = std::max(best_total, result.total_gflops);
  }

  bench::shape_note(
      "The throughput-optimal split starves the no-reuse Stream tenant (extra capacity "
      "buys it nothing) and feeds the tenants whose working sets sit on their miss-curve "
      "knees — an efficiency/fairness tension the OS would have to arbitrate, exactly the "
      "question the paper leaves open. Optimal beats equal by " +
      util::format_fixed(100.0 * (best_total / equal_total - 1.0), 1) +
      "% total throughput here.");
  return 0;
}
