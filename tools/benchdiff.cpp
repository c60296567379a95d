#include "benchdiff.hpp"

#include <algorithm>
#include <cmath>
#include <ostream>
#include <string_view>

#include "util/format.hpp"

namespace opm::benchdiff {

namespace {

const char* status_label(Status s) {
  switch (s) {
    case Status::kOk: return "ok";
    case Status::kImproved: return "improved";
    case Status::kRegression: return "REGRESSION";
    case Status::kMissing: return "MISSING";
    case Status::kUncovered: return "UNCOVERED";
  }
  return "?";
}

std::string pct(double v) { return util::format_fixed(v * 100.0, 1) + "%"; }

/// Signed percent with explicit sign.
std::string signed_pct(double v) {
  if (v == 0.0) v = 0.0;  // collapse -0.0 so it prints "+0.0%"
  std::string out = v >= 0.0 ? "+" : "";
  out += pct(v);
  return out;
}

/// The change as printed: (cur - base)/|base| in the metric's own
/// direction, so a throughput gain and a longer time both read positive.
/// MetricDiff::rel_delta keeps the harmful-positive sign for the verdict.
std::string change_pct(const MetricDiff& row) {
  if (row.base_median == 0.0) return row.cur_median == 0.0 ? "+0.0%" : "n/a";
  return signed_pct((row.cur_median - row.base_median) / std::abs(row.base_median));
}

}  // namespace

bool DiffResult::regressed() const {
  return std::any_of(rows.begin(), rows.end(), [](const MetricDiff& r) {
    return r.status == Status::kRegression || r.status == Status::kMissing ||
           r.status == Status::kUncovered;
  });
}

int DiffResult::exit_code() const {
  if (structural()) return 2;
  return regressed() ? 1 : 0;
}

DiffResult diff_reports(const util::BenchReport& base, const util::BenchReport& cur,
                        const Tolerance& tol, bool allow_new) {
  DiffResult result;

  if (base.bench != cur.bench) {
    result.errors.push_back("bench-name mismatch: baseline is '" + base.bench +
                            "', current is '" + cur.bench + "'");
    return result;
  }

  // Knobs shape the measurement; a report from a different run shape is
  // not comparable. Order-insensitive, but set and values must agree.
  for (const auto& [name, value] : base.knobs) {
    const auto it = std::find_if(cur.knobs.begin(), cur.knobs.end(),
                                 [&](const auto& kv) { return kv.first == name; });
    if (it == cur.knobs.end()) {
      result.errors.push_back("knob '" + name + "' missing from current report");
    } else if (it->second != value) {
      result.errors.push_back("knob '" + name + "' mismatch: baseline " +
                              util::format_fixed(value, 6) + ", current " +
                              util::format_fixed(it->second, 6));
    }
  }
  for (const auto& [name, value] : cur.knobs) {
    if (std::find_if(base.knobs.begin(), base.knobs.end(), [&](const auto& kv) {
          return kv.first == name;
        }) == base.knobs.end()) {
      result.errors.push_back("knob '" + name + "' missing from baseline report");
    }
  }
  if (result.structural()) return result;

  for (const auto& bm : base.metrics) {
    MetricDiff row;
    row.name = bm.name;
    row.base_median = bm.summary.median;

    const util::BenchMetric* cm = cur.find_metric(bm.name);
    if (cm == nullptr) {
      row.status = Status::kMissing;
      result.rows.push_back(std::move(row));
      continue;
    }
    if (cm->unit != bm.unit) {
      result.errors.push_back("metric '" + bm.name + "' unit mismatch: baseline '" +
                              bm.unit + "', current '" + cm->unit + "'");
      continue;
    }
    if (cm->higher_is_better != bm.higher_is_better) {
      result.errors.push_back("metric '" + bm.name + "' direction mismatch");
      continue;
    }

    row.cur_median = cm->summary.median;
    const double cv = std::max({bm.summary.cv, cm->summary.cv, tol.cv_floor});
    row.tolerance = std::max(tol.rel_floor, tol.k * cv);

    if (bm.summary.median != 0.0) {
      const double raw = (cm->summary.median - bm.summary.median) /
                         std::abs(bm.summary.median);
      row.rel_delta = bm.higher_is_better ? -raw : raw;
    } else {
      // A zero baseline median carries no scale; any nonzero current value
      // in the harmful direction counts as an unbounded regression.
      const bool harmful = bm.higher_is_better ? cm->summary.median < 0.0
                                               : cm->summary.median > 0.0;
      row.rel_delta = cm->summary.median == 0.0 ? 0.0
                      : harmful                 ? row.tolerance + 1.0
                                                : -(row.tolerance + 1.0);
    }

    if (row.rel_delta > row.tolerance) {
      row.status = Status::kRegression;
    } else if (row.rel_delta < -row.tolerance) {
      row.status = Status::kImproved;
    }
    result.rows.push_back(std::move(row));
  }

  // Uncovered current metrics: the harness measures something the
  // committed baseline does not gate. That is a stale baseline — a
  // failure by default, so new metrics cannot silently ride along
  // ungated; --allow-new waives it for an intentional transition.
  for (const auto& cm : cur.metrics) {
    if (base.find_metric(cm.name) != nullptr) continue;
    if (allow_new) {
      result.notes.push_back("new metric '" + cm.name +
                             "' (not in baseline; commit an updated baseline to gate it)");
    } else {
      MetricDiff row;
      row.name = cm.name;
      row.cur_median = cm.summary.median;
      row.status = Status::kUncovered;
      result.rows.push_back(std::move(row));
    }
  }
  return result;
}

namespace {

void print_result(const DiffResult& result, const std::string& bench, std::ostream& out) {
  for (const auto& row : result.rows) {
    out << "  " << util::pad(status_label(row.status), 12) << util::pad(row.name, 34);
    if (row.status == Status::kMissing) {
      out << "baseline median " << util::format_fixed(row.base_median, 3)
          << ", absent from current report";
    } else if (row.status == Status::kUncovered) {
      out << "current median " << util::format_fixed(row.cur_median, 3)
          << ", absent from baseline (--update-baseline to gate it, "
             "--allow-new to waive)";
    } else {
      out << util::pad(change_pct(row), 9) << "(tol " << pct(row.tolerance)
          << ", median " << util::format_fixed(row.base_median, 3) << " -> "
          << util::format_fixed(row.cur_median, 3) << ")";
    }
    out << "\n";
  }
  for (const auto& note : result.notes) out << "  note        " << note << "\n";
  const auto count = [&](Status s) {
    return std::count_if(result.rows.begin(), result.rows.end(),
                         [&](const MetricDiff& r) { return r.status == s; });
  };
  out << "opm_benchdiff [" << bench << "]: " << result.rows.size() << " metric(s), "
      << count(Status::kRegression) << " regression(s), " << count(Status::kMissing)
      << " missing, " << count(Status::kUncovered) << " uncovered, "
      << count(Status::kImproved) << " improved\n";
}

bool parse_double_flag(std::string_view arg, std::string_view prefix, double* value) {
  if (arg.substr(0, prefix.size()) != prefix) return false;
  try {
    *value = std::stod(std::string(arg.substr(prefix.size())));
  } catch (...) {
    return false;
  }
  return true;
}

int usage(std::ostream& err) {
  err << "usage: opm_benchdiff [--k=X] [--rel-floor=X] [--cv-floor=X] [--allow-new]\n"
         "                     BASELINE CURRENT\n"
         "       opm_benchdiff --update-baseline BASELINE CURRENT\n"
         "       opm_benchdiff --validate FILE...\n";
  return 2;
}

}  // namespace

int run(const std::vector<std::string>& args, std::ostream& out, std::ostream& err) {
  Tolerance tol;
  bool update_baseline = false;
  bool validate = false;
  bool allow_new = false;
  std::vector<std::string> paths;

  for (const auto& arg : args) {
    if (arg == "--update-baseline") {
      update_baseline = true;
    } else if (arg == "--validate") {
      validate = true;
    } else if (arg == "--allow-new") {
      allow_new = true;
    } else if (arg.rfind("--k=", 0) == 0 || arg.rfind("--rel-floor=", 0) == 0 ||
               arg.rfind("--cv-floor=", 0) == 0) {
      const bool ok = parse_double_flag(arg, "--k=", &tol.k) ||
                      parse_double_flag(arg, "--rel-floor=", &tol.rel_floor) ||
                      parse_double_flag(arg, "--cv-floor=", &tol.cv_floor);
      if (!ok) {
        err << "opm_benchdiff: bad numeric flag '" << arg << "'\n";
        return 2;
      }
    } else if (arg.rfind("--", 0) == 0) {
      err << "opm_benchdiff: unknown flag '" << arg << "'\n";
      return usage(err);
    } else {
      paths.push_back(arg);
    }
  }

  if (validate) {
    if (update_baseline || paths.empty()) return usage(err);
    bool all_ok = true;
    for (const auto& path : paths) {
      std::string error;
      const auto report = util::BenchReport::load_file(path, &error);
      if (!report) {
        err << "opm_benchdiff: " << path << ": " << error << "\n";
        all_ok = false;
        continue;
      }
      out << "  valid       " << path << " (bench '" << report->bench << "', "
          << report->metrics.size() << " metric(s), schema " << util::kBenchSchemaName
          << " v" << util::kBenchSchemaVersion << ")\n";
    }
    return all_ok ? 0 : 2;
  }

  if (paths.size() != 2) return usage(err);
  const std::string& baseline_path = paths[0];
  const std::string& current_path = paths[1];

  std::string error;
  const auto current = util::BenchReport::load_file(current_path, &error);
  if (!current) {
    err << "opm_benchdiff: " << current_path << ": " << error << "\n";
    return 2;
  }

  if (update_baseline) {
    if (!current->write_file(baseline_path, &error)) {
      err << "opm_benchdiff: " << baseline_path << ": " << error << "\n";
      return 2;
    }
    out << "opm_benchdiff: baseline " << baseline_path << " updated from "
        << current_path << " (bench '" << current->bench << "', "
        << current->metrics.size() << " metric(s))\n";
    return 0;
  }

  const auto baseline = util::BenchReport::load_file(baseline_path, &error);
  if (!baseline) {
    err << "opm_benchdiff: " << baseline_path << ": " << error << "\n";
    return 2;
  }

  const DiffResult result = diff_reports(*baseline, *current, tol, allow_new);
  for (const auto& e : result.errors) err << "opm_benchdiff: " << e << "\n";
  print_result(result, baseline->bench, out);
  return result.exit_code();
}

}  // namespace opm::benchdiff
