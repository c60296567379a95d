#pragma once

#include <chrono>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

/// Shared plumbing of the opmbench driver: clocks, the statistics the
/// benchmark reports (median, fixed percentiles, the tail rule), the span
/// log of traced runs, and the one-line JSON result.
namespace opmbench {

using Clock = std::chrono::steady_clock;

/// Monotonic nanoseconds. CLOCK_MONOTONIC is system-wide on Linux, so a
/// child process's reading is comparable with its parent's.
inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now().time_since_epoch())
      .count();
}

inline double seconds_since(std::int64_t start_ns) {
  return static_cast<double>(now_ns() - start_ns) * 1e-9;
}

// ------------------------------------------------------------ statistics --

/// p-th percentile (0..100), linear interpolation; 0 for no samples.
double percentile(std::span<const double> samples, double p);
double median(std::span<const double> samples);

/// The run-level estimate of a per-window (per-round, per-pass) figure:
/// the quartile on the good side — lower for times, upper for rates.
/// A shared VM loses CPU to steal in episodes of seconds; this quartile
/// follows the program in the run's quieter windows, while a change that
/// slows every window still moves it in full.
double quiet_quartile(std::span<const double> per_window, bool higher_is_better = false);

/// Samples strictly greater than `value`.
std::size_t count_beyond(std::span<const double> samples, double value);

/// The tail rule: a timing is reported as its median and the highest
/// percentile that still has at least `min_beyond` samples beyond it.
struct Tail {
  double percentile = 50.0;
  double value = 0.0;
  std::size_t beyond = 0;
};
Tail tail_rule(std::span<const double> samples, std::size_t min_beyond = 10);

// ----------------------------------------------------------------- spans --

/// One traced interval: a layer boundary crossed by one request (or one
/// regenerated dataset). `parent` indexes the enclosing span, -1 for roots.
struct Span {
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int parent = -1;
  std::string request;
};

/// In-memory span log of one traced run, written out once at the end.
class SpanLog {
 public:
  int begin(std::string name, int parent, std::string request);
  void end(int id);
  const std::vector<Span>& spans() const { return spans_; }
  /// One JSON object per line: name, start/end ns, parent, request, self_ns.
  bool write_jsonl(const std::string& path) const;

 private:
  std::vector<Span> spans_;
};

/// RAII span: begins on construction, ends on destruction.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog& log, std::string name, int parent, std::string request)
      : log_(log), id_(log.begin(std::move(name), parent, std::move(request))) {}
  ~ScopedSpan() { log_.end(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  int id() const { return id_; }

 private:
  SpanLog& log_;
  int id_;
};

/// Self time of every span: its duration minus the part of its interval
/// covered by the union of its children's intervals.
std::vector<std::int64_t> self_times(const std::vector<Span>& spans);

/// Self times (in `scale` units per ns, e.g. 1e-3 for µs) of every span
/// named `name`.
std::vector<double> self_times_of(const std::vector<Span>& spans,
                                  const std::vector<std::int64_t>& self, const std::string& name,
                                  double scale);

// ---------------------------------------------------------------- output --

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// The result line: {"correct":..,"attempted":..,"failed":..,"metrics":{..}}.
/// Values keep every digit (shortest round-trip form).
std::string result_json(bool correct, std::uint64_t attempted, std::uint64_t failed,
                        const std::vector<Metric>& metrics);

/// Human-readable "name value unit" line for the report above the result.
std::string metric_line(const Metric& m);

/// nproc, build type and compiler of this binary, plus the source revision.
std::string environment_line(const std::string& git_rev);

}  // namespace opmbench
