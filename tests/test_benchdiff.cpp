// Tests for opm_benchdiff (tools/benchdiff.*): the CV-aware tolerance rule
// (pass within max(rel_floor, k·CV), fail beyond it), harmful-direction
// handling for both metric polarities, missing metrics, structural
// incompatibilities (knobs, units, bench name, schema version), the
// --update-baseline workflow, and the CLI exit-code contract — mirroring
// tests/test_analyze.cpp for the other CI tool.
//
// This suite is also the in-repo demonstration of the acceptance claim:
// the perf gate fails on an injected synthetic regression while passing
// on a faithful re-measurement within noise.

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "benchdiff.hpp"
#include "util/bench_report.hpp"

namespace {

using opm::benchdiff::DiffResult;
using opm::benchdiff::MetricDiff;
using opm::benchdiff::Status;
using opm::benchdiff::Tolerance;
using opm::benchdiff::diff_reports;
using opm::util::BenchMetric;
using opm::util::BenchReport;

BenchMetric metric(const std::string& name, double median, double cv,
                   bool higher_is_better = true, const std::string& unit = "ops/s") {
  BenchMetric m;
  m.name = name;
  m.unit = unit;
  m.higher_is_better = higher_is_better;
  m.repeats = 3;
  m.iters = 5;
  m.summary.count = 15;
  m.summary.median = median;
  m.summary.mean = median;
  m.summary.min = median * 0.9;
  m.summary.max = median * 1.1;
  m.summary.p95 = median * 1.05;
  m.summary.cv = cv;
  m.summary.stddev = cv * median;
  m.repeat_medians = {median, median, median};
  return m;
}

BenchReport report(std::vector<BenchMetric> metrics) {
  BenchReport r;
  r.bench = "synthetic";
  r.git_rev = "abc1234";
  r.quick = true;
  r.environment = {{"hardware_threads", "1"}};
  r.knobs = {{"reps", 3.0}};
  r.metrics = std::move(metrics);
  return r;
}

const MetricDiff& only_row(const DiffResult& d) {
  EXPECT_EQ(d.rows.size(), 1u);
  return d.rows.front();
}

// --- tolerance rule ---

TEST(BenchDiff, PassesWithinCvTolerance) {
  // cv 0.05 -> tolerance = max(0.05, 3*0.05) = 15%; a 3% dip is noise.
  const auto base = report({metric("m", 100.0, 0.05)});
  const auto cur = report({metric("m", 97.0, 0.05)});
  const DiffResult d = diff_reports(base, cur);
  EXPECT_EQ(only_row(d).status, Status::kOk);
  EXPECT_NEAR(only_row(d).rel_delta, 0.03, 1e-12);
  EXPECT_NEAR(only_row(d).tolerance, 0.15, 1e-12);
  EXPECT_EQ(d.exit_code(), 0);
}

TEST(BenchDiff, FailsBeyondCvTolerance) {
  // A 30% throughput drop is far outside the 15% band: regression, exit 1.
  const auto base = report({metric("m", 100.0, 0.05)});
  const auto cur = report({metric("m", 70.0, 0.05)});
  const DiffResult d = diff_reports(base, cur);
  EXPECT_EQ(only_row(d).status, Status::kRegression);
  EXPECT_TRUE(d.regressed());
  EXPECT_EQ(d.exit_code(), 1);
}

TEST(BenchDiff, NoisyMetricEarnsWiderBand) {
  // Same 30% drop, but the baseline itself swings 12% run to run:
  // tolerance = 3*0.12 = 36% absorbs it.
  const auto base = report({metric("m", 100.0, 0.12)});
  const auto cur = report({metric("m", 70.0, 0.05)});
  EXPECT_EQ(only_row(diff_reports(base, cur)).status, Status::kOk);
}

TEST(BenchDiff, WiderCvOfTheTwoRunsWins) {
  // The CURRENT run being noisy must widen the band too — a fresh noisy
  // machine should not fail a tight committed baseline.
  const auto base = report({metric("m", 100.0, 0.0)});
  const auto cur = report({metric("m", 85.0, 0.10)});
  const DiffResult d = diff_reports(base, cur);
  EXPECT_NEAR(only_row(d).tolerance, 0.30, 1e-12);
  EXPECT_EQ(only_row(d).status, Status::kOk);
}

TEST(BenchDiff, CvFloorGuardsDegenerateCv) {
  // Both runs report cv = 0 (single repeat): the floor cv 0.02 and the
  // rel_floor 0.05 still leave a 5% band rather than zero tolerance.
  const auto base = report({metric("m", 100.0, 0.0)});
  const DiffResult ok = diff_reports(base, report({metric("m", 96.0, 0.0)}));
  EXPECT_EQ(only_row(ok).status, Status::kOk);
  EXPECT_NEAR(only_row(ok).tolerance, 0.06, 1e-12);  // k*cv_floor = 3*0.02
  const DiffResult bad = diff_reports(base, report({metric("m", 90.0, 0.0)}));
  EXPECT_EQ(only_row(bad).status, Status::kRegression);
}

TEST(BenchDiff, CustomToleranceKnobs) {
  Tolerance strict;
  strict.k = 1.0;
  strict.rel_floor = 0.01;
  strict.cv_floor = 0.0;
  const auto base = report({metric("m", 100.0, 0.02)});
  const auto cur = report({metric("m", 97.0, 0.02)});
  // Default (k=3): 3% < max(5%, 6%) -> ok. Strict: 3% > max(1%, 2%) -> fail.
  EXPECT_EQ(only_row(diff_reports(base, cur)).status, Status::kOk);
  EXPECT_EQ(only_row(diff_reports(base, cur, strict)).status, Status::kRegression);
}

// --- direction handling ---

TEST(BenchDiff, LowerIsBetterDirection) {
  const auto base = report({metric("wall_ms", 100.0, 0.02, /*higher_is_better=*/false, "ms")});
  // 30% slower = harmful for a time metric.
  const DiffResult slow = diff_reports(
      base, report({metric("wall_ms", 130.0, 0.02, false, "ms")}));
  EXPECT_EQ(only_row(slow).status, Status::kRegression);
  EXPECT_NEAR(only_row(slow).rel_delta, 0.30, 1e-12);
  // 30% faster = improvement, prints but never fails.
  const DiffResult fast = diff_reports(
      base, report({metric("wall_ms", 70.0, 0.02, false, "ms")}));
  EXPECT_EQ(only_row(fast).status, Status::kImproved);
  EXPECT_EQ(fast.exit_code(), 0);
}

TEST(BenchDiff, HigherIsBetterImprovementNeverFails) {
  const auto base = report({metric("m", 100.0, 0.02)});
  const DiffResult d = diff_reports(base, report({metric("m", 200.0, 0.02)}));
  EXPECT_EQ(only_row(d).status, Status::kImproved);
  EXPECT_EQ(d.exit_code(), 0);
}

// --- missing / extra metrics ---

TEST(BenchDiff, MissingBaselineMetricFails) {
  const auto base = report({metric("kept", 100.0, 0.02), metric("gone", 50.0, 0.02)});
  const auto cur = report({metric("kept", 100.0, 0.02)});
  const DiffResult d = diff_reports(base, cur);
  ASSERT_EQ(d.rows.size(), 2u);
  EXPECT_EQ(d.rows[1].name, "gone");
  EXPECT_EQ(d.rows[1].status, Status::kMissing);
  EXPECT_EQ(d.exit_code(), 1);
}

TEST(BenchDiff, NewMetricIsUncoveredByDefault) {
  // A metric the harness emits but the baseline does not gate means the
  // committed trajectory is stale: fail by default.
  const auto base = report({metric("m", 100.0, 0.02)});
  const auto cur = report({metric("m", 100.0, 0.02), metric("brand_new", 1.0, 0.02)});
  const DiffResult d = diff_reports(base, cur);
  EXPECT_EQ(d.exit_code(), 1);
  EXPECT_TRUE(d.notes.empty());
  ASSERT_EQ(d.rows.size(), 2u);
  EXPECT_EQ(d.rows[1].name, "brand_new");
  EXPECT_EQ(d.rows[1].status, Status::kUncovered);
  EXPECT_EQ(d.rows[1].cur_median, 1.0);
}

TEST(BenchDiff, AllowNewDowngradesUncoveredToNote) {
  const auto base = report({metric("m", 100.0, 0.02)});
  const auto cur = report({metric("m", 100.0, 0.02), metric("brand_new", 1.0, 0.02)});
  const DiffResult d = diff_reports(base, cur, Tolerance{}, /*allow_new=*/true);
  EXPECT_EQ(d.exit_code(), 0);
  ASSERT_EQ(d.rows.size(), 1u);
  ASSERT_EQ(d.notes.size(), 1u);
  EXPECT_NE(d.notes[0].find("brand_new"), std::string::npos);
}

// --- structural incompatibilities (exit 2) ---

TEST(BenchDiff, BenchNameMismatchIsStructural) {
  auto base = report({metric("m", 100.0, 0.02)});
  auto cur = base;
  cur.bench = "other";
  const DiffResult d = diff_reports(base, cur);
  EXPECT_TRUE(d.structural());
  EXPECT_EQ(d.exit_code(), 2);
}

TEST(BenchDiff, KnobMismatchIsStructural) {
  const auto base = report({metric("m", 100.0, 0.02)});
  auto changed = report({metric("m", 100.0, 0.02)});
  changed.knobs = {{"reps", 5.0}};  // different value
  EXPECT_EQ(diff_reports(base, changed).exit_code(), 2);

  auto missing = report({metric("m", 100.0, 0.02)});
  missing.knobs.clear();
  EXPECT_EQ(diff_reports(base, missing).exit_code(), 2);

  auto extra = report({metric("m", 100.0, 0.02)});
  extra.knobs.emplace_back("surprise", 1.0);
  EXPECT_EQ(diff_reports(base, extra).exit_code(), 2);
}

TEST(BenchDiff, UnitMismatchIsStructural) {
  const auto base = report({metric("m", 100.0, 0.02, true, "ops/s")});
  const auto cur = report({metric("m", 100.0, 0.02, true, "ms")});
  EXPECT_EQ(diff_reports(base, cur).exit_code(), 2);
}

TEST(BenchDiff, EnvironmentDifferencesAreIgnored) {
  // environment is informational: a different machine/compiler/rev must
  // not block the comparison (that is the whole point of trajectories).
  const auto base = report({metric("m", 100.0, 0.02)});
  auto cur = report({metric("m", 100.0, 0.02)});
  cur.environment = {{"hardware_threads", "64"}, {"compiler", "other"}};
  cur.git_rev = "fffffff";
  EXPECT_EQ(diff_reports(base, cur).exit_code(), 0);
}

// --- CLI contract ---

class BenchDiffCli : public ::testing::Test {
 protected:
  std::string path(const std::string& name) const {
    return ::testing::TempDir() + "/benchdiff_" + name;
  }
  void write(const std::string& p, const BenchReport& r) {
    std::string error;
    ASSERT_TRUE(r.write_file(p, &error)) << error;
  }
  void write_text(const std::string& p, const std::string& text) {
    std::ofstream out(p, std::ios::binary | std::ios::trunc);
    out << text;
  }
  int run(const std::vector<std::string>& args) {
    out_.str("");
    err_.str("");
    return opm::benchdiff::run(args, out_, err_);
  }
  std::ostringstream out_, err_;
};

TEST_F(BenchDiffCli, ExitCodesMatchDiffResult) {
  const auto base_path = path("base.json");
  const auto good_path = path("good.json");
  const auto bad_path = path("bad.json");
  write(base_path, report({metric("m", 100.0, 0.05)}));
  write(good_path, report({metric("m", 97.0, 0.05)}));
  write(bad_path, report({metric("m", 70.0, 0.05)}));

  EXPECT_EQ(run({base_path, good_path}), 0);
  EXPECT_NE(out_.str().find("ok"), std::string::npos);

  EXPECT_EQ(run({base_path, bad_path}), 1);
  EXPECT_NE(out_.str().find("REGRESSION"), std::string::npos);
}

/// The printed line for metric `name` in the last run's output.
std::string printed_line(const std::string& out, const std::string& name) {
  std::istringstream in(out);
  for (std::string line; std::getline(in, line);)
    if (line.find(" " + name + " ") != std::string::npos) return line;
  return "";
}

TEST_F(BenchDiffCli, ThroughputGainPrintsPositive) {
  // A higher-is-better metric that gains 2.36x prints +136.0%, not the
  // harmful-direction -136.0% that drives the verdict.
  const auto base_path = path("gain_base.json");
  const auto cur_path = path("gain_cur.json");
  write(base_path, report({metric("throughput", 100.0, 0.02)}));
  write(cur_path, report({metric("throughput", 236.0, 0.02)}));
  EXPECT_EQ(run({base_path, cur_path}), 0);
  const std::string line = printed_line(out_.str(), "throughput");
  EXPECT_NE(line.find("improved"), std::string::npos) << line;
  EXPECT_NE(line.find("+136.0%"), std::string::npos) << line;
}

TEST_F(BenchDiffCli, TimeDropPrintsNegative) {
  const auto base_path = path("drop_base.json");
  const auto cur_path = path("drop_cur.json");
  write(base_path, report({metric("serial_ms", 50.0, 0.02, /*higher_is_better=*/false, "ms")}));
  write(cur_path, report({metric("serial_ms", 20.0, 0.02, /*higher_is_better=*/false, "ms")}));
  EXPECT_EQ(run({base_path, cur_path}), 0);
  const std::string line = printed_line(out_.str(), "serial_ms");
  EXPECT_NE(line.find("improved"), std::string::npos) << line;
  EXPECT_NE(line.find("-60.0%"), std::string::npos) << line;
}

TEST_F(BenchDiffCli, ToleranceFlagsAreHonored) {
  const auto base_path = path("flags_base.json");
  const auto cur_path = path("flags_cur.json");
  write(base_path, report({metric("m", 100.0, 0.05)}));
  write(cur_path, report({metric("m", 90.0, 0.05)}));
  // Default: 10% < 15% band -> pass. k=1 narrows the band to 5% -> fail.
  EXPECT_EQ(run({base_path, cur_path}), 0);
  EXPECT_EQ(run({"--k=1.0", base_path, cur_path}), 1);
  // A generous rel_floor forgives it again.
  EXPECT_EQ(run({"--k=1.0", "--rel-floor=0.2", base_path, cur_path}), 0);
}

TEST_F(BenchDiffCli, SchemaVersionMismatchIsExit2) {
  const auto base_path = path("ver_base.json");
  const auto cur_path = path("ver_cur.json");
  write(base_path, report({metric("m", 100.0, 0.05)}));
  std::string text = report({metric("m", 100.0, 0.05)}).serialize();
  text.replace(text.find("\"version\":1"), 11, "\"version\":9");
  write_text(cur_path, text + "\n");

  EXPECT_EQ(run({base_path, cur_path}), 2);
  EXPECT_NE(err_.str().find("schema-version-mismatch"), std::string::npos) << err_.str();
}

TEST_F(BenchDiffCli, MissingAndMalformedFilesAreExit2) {
  const auto base_path = path("io_base.json");
  write(base_path, report({metric("m", 100.0, 0.05)}));
  EXPECT_EQ(run({base_path, path("does_not_exist.json")}), 2);
  const auto junk_path = path("junk.json");
  write_text(junk_path, "{not json");
  EXPECT_EQ(run({base_path, junk_path}), 2);
}

TEST_F(BenchDiffCli, UsageErrorsAreExit2) {
  EXPECT_EQ(run({}), 2);
  EXPECT_EQ(run({"one.json"}), 2);
  EXPECT_EQ(run({"--bogus-flag", "a.json", "b.json"}), 2);
  EXPECT_EQ(run({"--k=notanumber", "a.json", "b.json"}), 2);
  EXPECT_EQ(run({"--validate"}), 2);
  EXPECT_EQ(run({"--validate", "--update-baseline", "a.json", "b.json"}), 2);
}

TEST_F(BenchDiffCli, UpdateBaselineRewritesCanonically) {
  const auto base_path = path("upd_base.json");
  const auto cur_path = path("upd_cur.json");
  write(base_path, report({metric("m", 100.0, 0.05)}));
  write(cur_path, report({metric("m", 55.0, 0.05)}));  // would be a regression

  // The regression is real before the update...
  EXPECT_EQ(run({base_path, cur_path}), 1);
  // ...--update-baseline accepts the new trajectory...
  EXPECT_EQ(run({"--update-baseline", base_path, cur_path}), 0);
  EXPECT_NE(out_.str().find("updated"), std::string::npos);
  // ...and the rewritten baseline is canonical and now diffs clean.
  EXPECT_EQ(run({base_path, cur_path}), 0);
  std::ifstream in(base_path, std::ios::binary);
  std::ostringstream bytes;
  bytes << in.rdbuf();
  EXPECT_EQ(bytes.str(), report({metric("m", 55.0, 0.05)}).serialize() + "\n");
}

TEST_F(BenchDiffCli, ValidateModeChecksSchemas) {
  const auto good_path = path("val_good.json");
  const auto junk_path = path("val_junk.json");
  write(good_path, report({metric("m", 100.0, 0.05)}));
  write_text(junk_path, "{}");

  EXPECT_EQ(run({"--validate", good_path}), 0);
  EXPECT_NE(out_.str().find("valid"), std::string::npos);
  EXPECT_EQ(run({"--validate", good_path, junk_path}), 2);
}

}  // namespace
