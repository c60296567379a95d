#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "util/bench_report.hpp"

/// opm_benchdiff — the trajectory gate behind the `perf` CI job.
///
/// Compares a fresh BENCH_<name>.json (util::BenchReport, the opm-bench
/// schema) against the committed baseline and fails only on a
/// *statistically meaningful* regression: the harmful-direction relative
/// delta of each metric's median must exceed a CV-aware tolerance,
///
///     tolerance = max(rel_floor, k * max(cv_base, cv_cur, cv_floor))
///
/// so a noisy metric (high run-to-run CV) earns a wide band and a stable
/// one is held tight. Absolute thresholds scattered through harnesses are
/// sanity floors; this diff against the committed trajectory is the real
/// regression contract (docs/MODEL.md §12).
///
/// Coverage is part of the contract in both directions: a baseline
/// metric missing from the current report fails (something stopped being
/// measured), and a current metric absent from the baseline fails too
/// (the harness grew a metric the committed trajectory does not gate —
/// a stale baseline). `--allow-new` downgrades the latter to a note for
/// intentional transitions; the durable fix is `--update-baseline`.
///
/// Exit-code contract (mirrors opm_analyze, pinned by tests/test_benchdiff):
///   0  every baseline metric present and within tolerance (improvements
///      included — they print, they never fail)
///   1  at least one regression, baseline metric missing from current,
///      or current metric uncovered by the baseline (unless --allow-new)
///   2  structural incompatibility: unparsable/invalid file, schema
///      version skew, bench-name mismatch, knob set or value mismatch,
///      unit mismatch, usage error
namespace opm::benchdiff {

struct Tolerance {
  double k = 3.0;          ///< CV multiplier
  double rel_floor = 0.05; ///< minimum tolerated relative delta
  double cv_floor = 0.02;  ///< CV assumed when measured CV is smaller
};

enum class Status {
  kOk,          ///< within tolerance
  kImproved,    ///< beyond tolerance in the *helpful* direction
  kRegression,  ///< beyond tolerance in the harmful direction
  kMissing,     ///< baseline metric absent from the current report
  kUncovered,   ///< current metric absent from the baseline (stale baseline)
};

struct MetricDiff {
  std::string name;
  double base_median = 0.0;
  double cur_median = 0.0;
  /// Relative delta of medians, signed so that positive = harmful
  /// (slower for lower-is-better, less throughput for higher-is-better).
  double rel_delta = 0.0;
  double tolerance = 0.0;
  Status status = Status::kOk;

  bool operator==(const MetricDiff&) const = default;
};

struct DiffResult {
  std::vector<MetricDiff> rows;       ///< one per baseline metric, in order
  std::vector<std::string> errors;    ///< structural incompatibilities
  std::vector<std::string> notes;     ///< informational (new metrics, ...)

  bool structural() const { return !errors.empty(); }
  bool regressed() const;
  /// 0 clean, 1 regression/missing, 2 structural.
  int exit_code() const;
};

/// Pure comparison — no IO, so tests can drive it with synthetic reports.
/// `allow_new` downgrades uncovered current metrics to notes.
DiffResult diff_reports(const util::BenchReport& base, const util::BenchReport& cur,
                        const Tolerance& tol = {}, bool allow_new = false);

/// CLI entry point (main() is a one-liner around this, so tests can pin
/// the exit-code contract). Usage:
///   opm_benchdiff [--k=X] [--rel-floor=X] [--cv-floor=X] [--allow-new]
///                 BASELINE CURRENT
///   opm_benchdiff --update-baseline BASELINE CURRENT
///   opm_benchdiff --validate FILE...
/// Diagnostics and the per-metric table go to `out`; usage/IO errors to
/// `err`.
int run(const std::vector<std::string>& args, std::ostream& out, std::ostream& err);

}  // namespace opm::benchdiff
