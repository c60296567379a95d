#include "workloads.hpp"

#include <algorithm>
#include <cmath>
#include <set>

#include "util/rng.hpp"

namespace opmbench {

namespace {

const char* const kPlatforms[] = {"broadwell-edram-off", "broadwell-edram-on", "knl-ddr",
                                  "knl-cache",           "knl-flat",           "knl-hybrid"};
const char* const kFootprintKernels[] = {"stream", "stencil", "fft"};
const char* const kAdviseKernels[] = {"gemm", "cholesky", "spmv",    "sptrans",
                                      "sptrsv", "fft",    "stencil", "stream"};
const char* const kAdviseBaselines[] = {"broadwell-edram-off", "knl-ddr", "knl-flat"};

/// Integer in [lo, hi].
std::int64_t between(opm::util::Xoshiro256& rng, std::int64_t lo, std::int64_t hi) {
  return lo + static_cast<std::int64_t>(rng.bounded(static_cast<std::uint64_t>(hi - lo + 1)));
}

const char* platform(opm::util::Xoshiro256& rng) { return kPlatforms[rng.bounded(6)]; }

std::string num(std::int64_t v) { return std::to_string(v); }

std::string dense_line(opm::util::Xoshiro256& rng, std::int64_t nx_lo, std::int64_t nx_hi,
                       std::int64_t ny_lo, std::int64_t ny_hi) {
  const std::int64_t nx = between(rng, nx_lo, nx_hi);
  const std::int64_t ny = between(rng, ny_lo, ny_hi);
  const std::int64_t n_lo = between(rng, 128, 1024);
  const std::int64_t n_step = between(rng, 64, 512);
  const std::int64_t nb_lo = between(rng, 16, 256);
  const std::int64_t nb_step = between(rng, 16, 128);
  return std::string("{\"type\":\"dense\",\"platform\":\"") + platform(rng) +
         "\",\"kernel\":\"" + (rng.bounded(2) ? "gemm" : "cholesky") + "\",\"n_lo\":" +
         num(n_lo) + ",\"n_hi\":" + num(n_lo + (nx - 1) * n_step) + ",\"n_step\":" +
         num(n_step) + ",\"nb_lo\":" + num(nb_lo) + ",\"nb_hi\":" +
         num(nb_lo + (ny - 1) * nb_step) + ",\"nb_step\":" + num(nb_step) + "}";
}

std::string footprint_line(opm::util::Xoshiro256& rng, std::int64_t points_lo,
                           std::int64_t points_hi, std::int64_t decades_lo,
                           std::int64_t decades_hi) {
  const std::int64_t fp_lo = between(rng, 16 * 1024, 256 * 1024);
  const std::int64_t fp_hi = fp_lo << between(rng, decades_lo, decades_hi);
  return std::string("{\"type\":\"footprint\",\"platform\":\"") + platform(rng) +
         "\",\"kernel\":\"" + kFootprintKernels[rng.bounded(3)] + "\",\"fp_lo\":" + num(fp_lo) +
         ",\"fp_hi\":" + num(fp_hi) + ",\"points\":" + num(between(rng, points_lo, points_hi)) +
         "}";
}

/// Every distinct sparse-suite request: 6 platforms x {spmv, sptrsv,
/// sptrans scan, sptrans merge}.
std::vector<std::string> all_sparse_lines() {
  std::vector<std::string> out;
  for (const char* p : kPlatforms) {
    for (const char* k : {"spmv", "sptrsv"})
      out.push_back(std::string("{\"type\":\"sparse\",\"platform\":\"") + p +
                    "\",\"kernel\":\"" + k + "\"}");
    for (const char* merge : {"false", "true"})
      out.push_back(std::string("{\"type\":\"sparse\",\"platform\":\"") + p +
                    "\",\"kernel\":\"sptrans\",\"merge_based\":" + merge + "}");
  }
  return out;
}

template <class T>
void shuffle(std::vector<T>& v, opm::util::Xoshiro256& rng) {
  for (std::size_t i = v.size(); i > 1; --i) std::swap(v[i - 1], v[rng.bounded(i)]);
}

}  // namespace

std::string with_req_id(const std::string& line, const std::string& id) {
  return "{\"v\":2,\"req_id\":\"" + id + "\"," + line.substr(1);
}

std::vector<std::string> large_cold_round(std::uint64_t seed, std::uint64_t round) {
  opm::util::Xoshiro256 rng(seed * 0x9E3779B97F4A7C15ull + round * 0xD1B54A32D192ED03ull + 1);
  // Fixed counts per type keep every round's mix (and so its cost) alike
  // across seeds; the seed picks the requests and their order.
  std::vector<std::string> sparse = all_sparse_lines();
  shuffle(sparse, rng);
  sparse.resize(kColdSparse);
  std::set<std::string> seen(sparse.begin(), sparse.end());
  std::vector<std::string> lines = sparse;
  while (lines.size() < kColdSparse + kColdFootprint) {
    std::string line = footprint_line(rng, 2000, 4000, 10, 16);
    if (seen.insert(line).second) lines.push_back(std::move(line));
  }
  while (lines.size() < kColdRoundRequests) {
    std::string line = dense_line(rng, 40, 64, 50, 64);
    if (seen.insert(line).second) lines.push_back(std::move(line));
  }
  shuffle(lines, rng);
  std::vector<std::string> out;
  for (const std::string& line : lines)
    out.push_back(with_req_id(line, std::string("c") + std::to_string(round) + "-" +
                                        std::to_string(out.size())));
  return out;
}

std::vector<std::string> small_hot_universe(std::uint64_t seed) {
  opm::util::Xoshiro256 rng(seed * 0xBF58476D1CE4E5B9ull + 7);
  std::set<std::string> seen;
  auto distinct = [&](std::size_t count, auto make) {
    std::vector<std::string> out;
    while (out.size() < count) {
      std::string line = make();
      if (seen.insert(line).second) out.push_back(std::move(line));
    }
    return out;
  };
  std::vector<std::string> sparse = all_sparse_lines();
  shuffle(sparse, rng);
  // Advisor questions: every kernel on three fixed baselines (what the
  // shards compute, and so their memory, stays alike across seeds); the
  // seed picks objective and problem size.
  std::vector<std::string> advise;
  for (std::size_t i = 0; i < kHotUniverse / 10; ++i) {
    for (;;) {
      std::string line = std::string("{\"type\":\"advise\",\"platform\":\"") +
                         kAdviseBaselines[i / 8 % 3] + "\",\"kernel\":\"" + kAdviseKernels[i % 8] +
                         "\",\"objective\":\"" + (rng.bounded(4) == 0 ? "energy" : "perf") +
                         "\",\"footprint_bytes\":" + num(between(rng, 1, 64) << 28) + "}";
      if (seen.insert(line).second) {
        advise.push_back(std::move(line));
        break;
      }
    }
  }
  shuffle(advise, rng);
  // Rank r's type is fixed — sparse at r % 10 == 5, advise at r % 10 == 9,
  // footprint at the other even ranks, dense at the other odd ones — so
  // every seed puts the same share of the zipf traffic on each type.
  std::vector<std::string> footprint =
      distinct(kHotUniverse / 2, [&] { return footprint_line(rng, 16, 64, 4, 12); });
  std::vector<std::string> dense = distinct(kHotUniverse * 3 / 10,
                                            [&] { return dense_line(rng, 4, 16, 4, 16); });
  std::vector<std::string> out;
  for (std::size_t r = 0; r < kHotUniverse; ++r) {
    std::vector<std::string>& from = r % 10 == 5 ? sparse
                                     : r % 10 == 9 ? advise
                                     : r % 2 == 0  ? footprint
                                                   : dense;
    out.push_back(std::move(from.back()));
    from.pop_back();
  }
  return out;
}

std::vector<std::size_t> zipf_draws(std::size_t n, std::size_t count, std::uint64_t seed) {
  std::vector<double> cdf(n);
  double total = 0.0;
  for (std::size_t r = 0; r < n; ++r) {
    total += 1.0 / static_cast<double>(r + 1);
    cdf[r] = total;
  }
  opm::util::Xoshiro256 rng(seed);
  std::vector<std::size_t> out(count);
  for (auto& t : out) {
    const double u = rng.uniform() * total;
    t = static_cast<std::size_t>(std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
    if (t >= n) t = n - 1;
  }
  return out;
}

std::vector<Arrival> open_loop_schedule(std::uint64_t seed, double rate, double seconds,
                                        std::size_t n_uniques) {
  const auto count = static_cast<std::size_t>(std::llround(rate * seconds));
  opm::util::Xoshiro256 rng(seed ^ 0x5C4ED01Eull);
  std::vector<std::int64_t> due(count);
  for (auto& d : due) d = static_cast<std::int64_t>(rng.uniform() * seconds * 1e9);
  std::sort(due.begin(), due.end());
  const std::vector<std::size_t> ranks = zipf_draws(n_uniques, count, seed ^ 0x21FFull);
  std::vector<Arrival> out(count);
  for (std::size_t i = 0; i < count; ++i) out[i] = {due[i], ranks[i]};
  return out;
}

RegenPlan regen_plan(std::uint64_t seed, std::size_t datasets, std::size_t advise_questions,
                     std::size_t advise_variants) {
  opm::util::Xoshiro256 rng(seed * 0x94D049BB133111EBull + 3);
  RegenPlan plan;
  plan.order.resize(datasets);
  for (std::size_t i = 0; i < datasets; ++i) plan.order[i] = i;
  shuffle(plan.order, rng);
  plan.advise_variant.resize(advise_questions);
  for (auto& v : plan.advise_variant) v = rng.bounded(advise_variants);
  return plan;
}

}  // namespace opmbench
