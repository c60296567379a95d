#pragma once

#include <cstddef>
#include <iosfwd>
#include <string>
#include <vector>

/// opm_analyze — the repo's one static checker (docs/MODEL.md §10).
///
/// The determinism and concurrency disciplines behind the byte-identical
/// tables are mostly social contracts ("seeded RNG only", "canonical %a
/// serialization", "every mutex-protected field is annotated", "util is
/// the bottom layer"). opm_analyze makes them mechanical: it lexes every
/// C++ source once with the shared tokenizer (tools/lexer.*), needs no
/// compiler, and runs in well under a second — so it sits *before* the
/// sanitizer build matrix and fails fast. Ten passes share the lexed
/// inputs, in table order:
///
///   lock-order   harvest util::MutexLock acquisition scopes across all
///                annotated files, build the global lock-order graph
///                (edge A→B when B is acquired while A is held), and fail
///                on cycles — static deadlock detection for ALL
///                interleavings, complementing TSan which only sees the
///                interleavings a test happens to exercise
///   protocol     the serve error-kind taxonomy must be exhaustive: every
///                kind constructed in src/serve must appear in the
///                protocol.hpp taxonomy comment, in docs/MODEL.md, and in
///                a string literal of tests/test_serve.cpp or
///                tests/test_router.cpp; every kind the router/loadgen
///                compare against must actually exist; the router must
///                handle "redirect"
///   metrics      every dotted counter name is well-formed, written by
///                exactly one src/ file (its owner), never a near-miss
///                (edit distance 1) of a sibling, and every name
///                referenced from bench gates, tools, tests, or
///                scripts/ci.sh resolves to a defined counter — catching
///                "cache.missses"-style typos that today read as zero
///   layering     include-graph construction with file-level cycle
///                detection and the architecture rules enforced
///                (util includes only util; sim never core/serve/advise;
///                core never serve/advise; advise never serve; src never
///                bench/tests/tools/examples)
///   rng          rand()/srand()/time()/std::random_device outside
///                util/rng — results must come from seeded generators
///   thread-ownership  raw std::thread/std::jthread outside
///                util/thread_pool and src/serve
///   float-print  %f/%e/%g conversions or std::to_string in canonical
///                serialization paths (must use util::append_hexf)
///   guarded-mutex  a src/ class declaring a mutex member with no
///                OPM_GUARDED_BY field in the same class
///   pragma-once  every header carries #pragma once
///   no-endl      std::endl in src/ hot paths (use "\n")
///
/// The last six are per-line rules: token-level matches over each C++
/// input's classified lines, scoped by path. Non-C++ inputs
/// (docs/MODEL.md, scripts/ci.sh) are reference text for the cross-file
/// passes only.
///
/// One suppression mechanism: a line comment carrying the `opm-lint`
/// allow marker with a list of pass ids silences those passes' findings
/// on that line (docs/MODEL.md §10 spells it). A marker inside a string
/// literal or a block comment is data. A marker that names an unknown id,
/// or an id with no finding on its own line, is itself a finding — so
/// suppressions can only shrink.
///
/// Exit contract (same as opm_benchdiff): 0 clean, 1 findings, 2
/// usage/IO error.
namespace opm::analyze {

struct Finding {
  std::string file;     ///< path as scanned (repo-root-relative)
  std::size_t line;     ///< 1-based; 0 = whole-file / cross-file
  std::string pass;     ///< a pass id, "marker" (unknown id in a marker) or "io"
  std::string key;      ///< stable identity within a cross-file pass ("" for per-line rules)
  std::string message;

  bool operator==(const Finding&) const = default;
};

struct PassInfo {
  const char* id;
  const char* summary;
};

/// The pass table, in execution order (stable IDs; docs/MODEL.md §10).
const std::vector<PassInfo>& passes();

/// One input file. Non-C++ paths (docs/MODEL.md, scripts/ci.sh) take part
/// as reference text: the protocol pass looks kinds up in MODEL.md, the
/// metrics pass scans ci.sh for dotted counter names.
struct SourceFile {
  std::string path;
  std::string content;
};

/// Per-pass wall time + finding count for the CI job summary.
struct PassTiming {
  std::string pass;
  double seconds = 0.0;
  std::size_t findings = 0;
};

struct Report {
  std::vector<Finding> findings;    ///< after marker suppression, sorted
  std::vector<PassTiming> timing;   ///< one entry per executed pass
};

/// Runs every pass over in-memory sources, then applies the line markers.
/// `only_pass` restricts execution — and the stale-marker check — to one
/// pass id ("" = all).
Report analyze_sources(const std::vector<SourceFile>& sources,
                       const std::string& only_pass = {});

/// Loads *.hpp/*.h/*.cpp/*.cc under the roots (files or directories,
/// sorted for determinism) plus any explicitly-listed non-C++ files, then
/// analyzes. Unreadable paths produce "io" findings.
Report analyze_paths(const std::vector<std::string>& roots,
                     const std::string& only_pass = {});

/// CLI entry point (main() is a one-liner around this):
///   opm_analyze [--pass=ID] [--list-passes] <path>...
/// Prints file:line: [pass] message lines, per-pass timing, and a
/// summary. Exit: 0 clean, 1 findings, 2 usage/IO error.
int run(const std::vector<std::string>& args, std::ostream& out, std::ostream& err);

}  // namespace opm::analyze
