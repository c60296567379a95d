#include "bench.hpp"

#include <algorithm>
#include <charconv>
#include <fstream>
#include <thread>

#include "util/json.hpp"

namespace opmbench {

double percentile(std::span<const double> samples, double p) {
  if (samples.empty()) return 0.0;
  std::vector<double> v(samples.begin(), samples.end());
  std::sort(v.begin(), v.end());
  const double pos = std::clamp(p, 0.0, 100.0) / 100.0 * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

double median(std::span<const double> samples) { return percentile(samples, 50.0); }

double quiet_quartile(std::span<const double> per_window, bool higher_is_better) {
  return percentile(per_window, higher_is_better ? 75.0 : 25.0);
}

std::size_t count_beyond(std::span<const double> samples, double value) {
  return static_cast<std::size_t>(
      std::count_if(samples.begin(), samples.end(), [&](double x) { return x > value; }));
}

Tail tail_rule(std::span<const double> samples, std::size_t min_beyond) {
  static constexpr double kCandidates[] = {99.99, 99.9, 99.5, 99.0, 98.0, 95.0, 90.0, 75.0};
  for (const double p : kCandidates) {
    const double v = percentile(samples, p);
    const std::size_t beyond = count_beyond(samples, v);
    if (beyond >= min_beyond) return {p, v, beyond};
  }
  const double v = percentile(samples, 50.0);
  return {50.0, v, count_beyond(samples, v)};
}

int SpanLog::begin(std::string name, int parent, std::string request) {
  spans_.push_back(Span{std::move(name), now_ns(), 0, parent, std::move(request)});
  return static_cast<int>(spans_.size() - 1);
}

void SpanLog::end(int id) { spans_[static_cast<std::size_t>(id)].end_ns = now_ns(); }

std::vector<std::int64_t> self_times(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> children(spans.size());
  for (const Span& s : spans)
    if (s.parent >= 0 && static_cast<std::size_t>(s.parent) < spans.size())
      children[static_cast<std::size_t>(s.parent)].emplace_back(s.start_ns, s.end_ns);
  std::vector<std::int64_t> out(spans.size(), 0);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    std::int64_t covered = 0;
    std::int64_t cursor = s.start_ns;  // everything before cursor is accounted for
    for (auto [a, b] : kids) {
      a = std::max(a, cursor);
      b = std::min(b, s.end_ns);
      if (b > a) {
        covered += b - a;
        cursor = b;
      }
    }
    out[i] = std::max<std::int64_t>(0, (s.end_ns - s.start_ns) - covered);
  }
  return out;
}

std::vector<double> self_times_of(const std::vector<Span>& spans,
                                  const std::vector<std::int64_t>& self, const std::string& name,
                                  double scale) {
  std::vector<double> out;
  for (std::size_t i = 0; i < spans.size(); ++i)
    if (spans[i].name == name) out.push_back(static_cast<double>(self[i]) * scale);
  return out;
}

bool SpanLog::write_jsonl(const std::string& path) const {
  std::ofstream os(path);
  if (!os) return false;
  const std::vector<std::int64_t> self = self_times(spans_);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    os << "{\"id\":" << i << ",\"name\":\"" << opm::util::json_escape(s.name)
       << "\",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns
       << ",\"parent\":" << s.parent << ",\"request\":\""
       << opm::util::json_escape(s.request) << "\",\"self_ns\":" << self[i] << "}\n";
  }
  return static_cast<bool>(os);
}

namespace {

#ifdef OPMBENCH_BUILD_TYPE
constexpr const char* kBuildType = OPMBENCH_BUILD_TYPE;
#else
constexpr const char* kBuildType = "unknown";
#endif
#ifdef __clang__
constexpr const char* kCompiler = "clang " __VERSION__;
#else
constexpr const char* kCompiler = "gcc " __VERSION__;
#endif

std::string shortest(double v) {
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, res.ptr);
}

}  // namespace

std::string result_json(bool correct, std::uint64_t attempted, std::uint64_t failed,
                        const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\":";
  out += correct ? "true" : "false";
  out += ",\"attempted\":" + std::to_string(attempted);
  out += ",\"failed\":" + std::to_string(failed);
  out += ",\"metrics\":{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i) out += ',';
    out += '"';
    out += opm::util::json_escape(metrics[i].name);
    out += "\":{\"value\":";
    out += shortest(metrics[i].value);
    out += ",\"unit\":\"";
    out += opm::util::json_escape(metrics[i].unit);
    out += "\"}";
  }
  out += "}}";
  return out;
}

std::string metric_line(const Metric& m) {
  return "  " + m.name + std::string(m.name.size() < 34 ? 34 - m.name.size() : 1, ' ') +
         shortest(m.value) + " " + m.unit;
}

std::string environment_line(const std::string& git_rev) {
  return "env: nproc=" + std::to_string(std::thread::hardware_concurrency()) +
         " build_type=" + kBuildType + " compiler=\"" + kCompiler + "\" git_rev=" +
         (git_rev.empty() ? "unknown" : git_rev);
}

}  // namespace opmbench
