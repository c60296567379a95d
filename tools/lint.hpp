#pragma once

#include <cstddef>
#include <iosfwd>
#include <string>
#include <vector>

/// opm_lint — the project-invariant checker behind the `static` CI job.
///
/// The repo's determinism and concurrency disciplines are mostly social
/// contracts ("seeded RNG only", "canonical %a serialization", "every
/// mutex-protected field is annotated"). This library makes them
/// mechanical: a token-level scan over src/ bench/ tests/ that needs no
/// compiler, no external dependencies, and runs in milliseconds — so it
/// sits *before* the sanitizer build matrix and fails fast.
///
/// The scanner is deliberately token-level, not a parser: it strips
/// comments and string literals (tracking multi-line state), then matches
/// rule tokens against the code text (or, for the %-conversion rule,
/// against the literal text). Each rule has a stable ID, a path scope, and
/// a per-line escape hatch:
///
///     do_risky_thing();  // opm-lint: allow(rule-id[,rule-id...]) — why
///
/// Rules (the authoritative table lives in docs/MODEL.md §10):
///   rng           rand()/srand()/std::random_device/time() outside
///                 util/rng — results must come from seeded generators
///   thread-ownership  raw std::thread/std::jthread outside
///                 util/thread_pool and src/serve
///   float-print   %f/%e/%g conversions or std::to_string in canonical
///                 serialization paths (must use util::append_hexf)
///   guarded-mutex a class declaring a mutex member with no
///                 OPM_GUARDED_BY field in the same class
///   pragma-once   every header starts its life with #pragma once
///   no-endl       std::endl in src/ hot paths (use "\n")
namespace opm::lint {

struct Finding {
  std::string file;   ///< path as scanned (relative to the scan root)
  std::size_t line;   ///< 1-based
  std::string rule;   ///< stable rule ID
  std::string message;

  bool operator==(const Finding&) const = default;
};

struct RuleInfo {
  const char* id;
  const char* summary;
};

/// The rule table, in diagnostic order (stable IDs; see docs/MODEL.md §10).
const std::vector<RuleInfo>& rules();

/// Scans one in-memory source. `path` decides which rules apply (scoping
/// is by path substring, e.g. "util/rng." exempts the RNG implementation)
/// and is echoed into the findings.
std::vector<Finding> check_source(const std::string& path, const std::string& content);

/// Walks every *.hpp/*.h/*.cpp/*.cc under the given files-or-directories
/// (sorted, so output order is deterministic) and concatenates
/// check_source results. Unreadable paths produce an "io" finding rather
/// than a crash.
std::vector<Finding> check_paths(const std::vector<std::string>& roots);

/// CLI entry point (main() is a one-liner around this, so tests can pin
/// the exit-code contract): 0 = clean, 1 = findings, 2 = usage/IO error.
/// Findings and the summary line go to `out`; usage errors to `err`.
int run(const std::vector<std::string>& args, std::ostream& out, std::ostream& err);

}  // namespace opm::lint
