#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

/// Seeded input generators of the three workloads. Everything the program
/// under test receives comes from here, and the same seed always yields
/// the same inputs (tests/test_opmbench.cpp pins that).
namespace opmbench {

// -------------------------------------------------------- serve_large_cold --

/// Requests per cold round. Each round runs against a fresh tier and a
/// fresh cache directory, so memory and disk use per round stay fixed
/// however fast the tier is.
inline constexpr std::size_t kColdRoundRequests = 160;
inline constexpr std::size_t kColdSparse = 12;
inline constexpr std::size_t kColdFootprint = 20;

/// One round of all-distinct large requests as v2 request lines, in
/// seeded order: 128 dense grids of 2000-4096 points, 20 footprint sweeps
/// of 2000-4000 points and 12 sparse-suite sweeps (968 points each).
std::vector<std::string> large_cold_round(std::uint64_t seed, std::uint64_t round);

// --------------------------------------------------------- serve_small_hot --

/// Distinct small requests the hot mix draws from.
inline constexpr std::size_t kHotUniverse = 240;

/// The hot universe in zipf rank order (rank 0 is the hottest): 120
/// footprint sweeps of 16-64 points, 72 dense grids of at most 256
/// points, the 24 sparse sweeps and 24 advise requests (10%), each type
/// at fixed ranks. Lines carry no req_id; the load generator adds one per
/// send (see with_req_id).
std::vector<std::string> small_hot_universe(std::uint64_t seed);

/// A request object line (`{...}` without req_id) as a v2 line with `id`.
std::string with_req_id(const std::string& line, const std::string& id);

/// `count` seeded zipf(s=1) rank draws over `n` items: rank r is drawn
/// with probability proportional to 1/(r+1).
std::vector<std::size_t> zipf_draws(std::size_t n, std::size_t count, std::uint64_t seed);

/// One open-loop arrival: due time (ns after the schedule starts) and the
/// universe index to send.
struct Arrival {
  std::int64_t due_ns = 0;
  std::size_t unique = 0;
};

/// Open-loop schedule: round(rate * seconds) arrivals scattered uniformly
/// over [0, seconds) — a Poisson process conditioned on its count, so the
/// offered load is exactly `rate` — sorted by due time, each naming a
/// zipf-drawn member of a universe of `n_uniques`.
std::vector<Arrival> open_loop_schedule(std::uint64_t seed, double rate, double seconds,
                                        std::size_t n_uniques);

// ------------------------------------------------------------- paper_regen --

/// Per-seed choices of one regeneration pass: the order the datasets run
/// in, and which footprint variant each advisor question uses.
struct RegenPlan {
  std::vector<std::size_t> order;           ///< permutation of dataset indices
  std::vector<std::size_t> advise_variant;  ///< per advisor question, index into variants
};

RegenPlan regen_plan(std::uint64_t seed, std::size_t datasets, std::size_t advise_questions,
                     std::size_t advise_variants);

}  // namespace opmbench
