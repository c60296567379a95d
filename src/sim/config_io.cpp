#include "sim/config_io.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <fstream>
#include <initializer_list>
#include <limits>
#include <map>
#include <sstream>
#include <stdexcept>

#include "sim/timing.hpp"

namespace opm::sim {

namespace {

const char* kind_name(TierKind kind) {
  switch (kind) {
    case TierKind::kStandard: return "standard";
    case TierKind::kVictim: return "victim";
    case TierKind::kMemorySide: return "memory-side";
  }
  return "?";
}

[[noreturn]] void fail(int line_no, const std::string& what) {
  throw std::runtime_error("platform config line " + std::to_string(line_no) + ": " + what);
}

TierKind kind_from(const std::string& s, int line_no) {
  if (s == "standard") return TierKind::kStandard;
  if (s == "victim") return TierKind::kVictim;
  if (s == "memory-side") return TierKind::kMemorySide;
  fail(line_no, "unknown tier kind '" + s + "'");
}

/// Parses all of `text` as a finite, non-negative number.
double to_double(const std::string& key, const std::string& text, int line_no) {
  double v = 0.0;
  const char* last = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), last, v);
  if (ec != std::errc() || ptr != last)
    fail(line_no, "'" + key + "' expects a number, got '" + text + "'");
  if (!std::isfinite(v)) fail(line_no, "'" + key + "' must be finite, got '" + text + "'");
  if (v < 0.0) fail(line_no, "'" + key + "' must not be negative, got '" + text + "'");
  return v;
}

/// Parses all of `text` as an integer in [lo, hi].
template <typename Int>
Int to_int(const std::string& key, const std::string& text, int line_no, Int lo,
           Int hi = std::numeric_limits<Int>::max()) {
  Int v = 0;
  const char* last = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), last, v);
  if (ec != std::errc() || ptr != last || v < lo || v > hi)
    fail(line_no, "'" + key + "' expects an integer in [" + std::to_string(lo) + ", " +
                      std::to_string(hi) + "], got '" + text + "'");
  return v;
}

using Fields = std::map<std::string, std::string>;

/// Parses "k1:v1 k2:v2 ..." into a map; every key must be in `known`.
Fields parse_fields(const std::string& body, std::initializer_list<const char*> known,
                    int line_no) {
  Fields out;
  std::istringstream in(body);
  std::string token;
  while (in >> token) {
    const auto colon = token.find(':');
    if (colon == std::string::npos) fail(line_no, "expected key:value, got '" + token + "'");
    std::string key = token.substr(0, colon);
    if (std::find_if(known.begin(), known.end(), [&](const char* k) { return key == k; }) ==
        known.end())
      fail(line_no, "unknown field '" + key + "'");
    out[std::move(key)] = token.substr(colon + 1);
  }
  return out;
}

const std::string& field(const Fields& f, const std::string& key, int line_no) {
  const auto it = f.find(key);
  if (it == f.end()) fail(line_no, "missing field '" + key + "'");
  return it->second;
}

double field_double(const Fields& f, const std::string& key, int line_no) {
  return to_double(key, field(f, key, line_no), line_no);
}

/// A required field that must be a positive integer of type Int.
template <typename Int>
Int field_positive(const Fields& f, const std::string& key, int line_no) {
  return to_int<Int>(key, field(f, key, line_no), line_no, 1);
}

}  // namespace

std::string to_config(const Platform& p) {
  std::ostringstream os;
  os.precision(17);
  os << "# opm platform config\n";
  os << "name = " << p.name << "\n";
  os << "mode_label = " << p.mode_label << "\n";
  os << "cores = " << p.cores << "\n";
  os << "threads = " << p.threads << "\n";
  os << "frequency = " << p.frequency << "\n";
  os << "sp_peak_flops = " << p.sp_peak_flops << "\n";
  os << "dp_peak_flops = " << p.dp_peak_flops << "\n";
  for (const auto& t : p.tiers) {
    os << "tier = name:" << t.geometry.name << " kind:" << kind_name(t.kind)
       << " capacity:" << t.geometry.capacity << " line:" << t.geometry.line_size
       << " ways:" << t.geometry.associativity << " bandwidth:" << t.bandwidth
       << " latency:" << t.latency << " tag_overhead:" << t.tag_overhead << "\n";
  }
  for (const auto& d : p.devices) {
    os << "device = name:" << d.name << " capacity:" << d.capacity
       << " bandwidth:" << d.bandwidth << " latency:" << d.latency
       << " on_package:" << (d.on_package ? 1 : 0) << "\n";
  }
  os << "flat_opm_bytes = " << p.flat_opm_bytes << "\n";
  os << "split_penalty = " << p.split_penalty << "\n";
  os << "package_idle_watts = " << p.package_idle_watts << "\n";
  os << "package_max_watts = " << p.package_max_watts << "\n";
  os << "dram_watts_per_gbps = " << p.dram_watts_per_gbps << "\n";
  os << "opm_watts_static = " << p.opm_watts_static << "\n";
  os << "opm_watts_per_gbps = " << p.opm_watts_per_gbps << "\n";
  return os.str();
}

Platform parse_platform(std::istream& in) {
  Platform p;
  std::string line;
  int line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    const auto hash = line.find('#');
    if (hash != std::string::npos) line = line.substr(0, hash);
    const auto eq = line.find('=');
    if (eq == std::string::npos) continue;  // blank / comment-only line

    std::string key = line.substr(0, eq);
    std::string value = line.substr(eq + 1);
    auto trim = [](std::string& s) {
      const auto b = s.find_first_not_of(" \t");
      const auto e = s.find_last_not_of(" \t");
      s = b == std::string::npos ? "" : s.substr(b, e - b + 1);
    };
    trim(key);
    trim(value);

    const auto real = [&] { return to_double(key, value, line_no); };
    if (key == "name") p.name = value;
    else if (key == "mode_label") p.mode_label = value;
    else if (key == "cores") p.cores = to_int<int>(key, value, line_no, 1);
    else if (key == "threads") p.threads = to_int<int>(key, value, line_no, 1);
    else if (key == "frequency") p.frequency = real();
    else if (key == "sp_peak_flops") p.sp_peak_flops = real();
    else if (key == "dp_peak_flops") p.dp_peak_flops = real();
    else if (key == "flat_opm_bytes")
      p.flat_opm_bytes = to_int<std::uint64_t>(key, value, line_no, 0);
    else if (key == "split_penalty") p.split_penalty = real();
    else if (key == "package_idle_watts") p.package_idle_watts = real();
    else if (key == "package_max_watts") p.package_max_watts = real();
    else if (key == "dram_watts_per_gbps") p.dram_watts_per_gbps = real();
    else if (key == "opm_watts_static") p.opm_watts_static = real();
    else if (key == "opm_watts_per_gbps") p.opm_watts_per_gbps = real();
    else if (key == "tier" || key == "device") {
      // Every tier and device becomes one channel of the timing model.
      if (p.tiers.size() + p.devices.size() == kMaxChannels)
        fail(line_no, "more than " + std::to_string(kMaxChannels) +
                          " tiers + devices (the timing model's channel cap)");
      if (key == "tier") {
        const Fields f = parse_fields(value, {"name", "kind", "capacity", "line", "ways",
                                              "bandwidth", "latency", "tag_overhead"},
                                      line_no);
        CacheTierSpec tier;
        tier.geometry.name = f.count("name") ? f.at("name") : "tier";
        tier.kind = kind_from(f.count("kind") ? f.at("kind") : "standard", line_no);
        tier.geometry.capacity = field_positive<std::uint64_t>(f, "capacity", line_no);
        tier.geometry.line_size = field_positive<std::uint32_t>(f, "line", line_no);
        tier.geometry.associativity = field_positive<std::uint32_t>(f, "ways", line_no);
        tier.bandwidth = field_double(f, "bandwidth", line_no);
        tier.latency = field_double(f, "latency", line_no);
        if (f.count("tag_overhead")) tier.tag_overhead = field_double(f, "tag_overhead", line_no);
        p.tiers.push_back(tier);
      } else {
        const Fields f = parse_fields(
            value, {"name", "capacity", "bandwidth", "latency", "on_package"}, line_no);
        MemoryDeviceSpec dev;
        dev.name = f.count("name") ? f.at("name") : "device";
        dev.capacity = field_positive<std::uint64_t>(f, "capacity", line_no);
        dev.bandwidth = field_double(f, "bandwidth", line_no);
        dev.latency = field_double(f, "latency", line_no);
        dev.on_package =
            f.count("on_package") && to_int<int>("on_package", f.at("on_package"), line_no, 0, 1);
        p.devices.push_back(dev);
      }
    } else {
      fail(line_no, "unknown key '" + key + "'");
    }
  }
  if (p.devices.empty())
    throw std::runtime_error("platform config: at least one device is required");
  return p;
}

Platform parse_platform_string(const std::string& text) {
  std::istringstream in(text);
  return parse_platform(in);
}

Platform load_platform_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("platform config: cannot open " + path);
  return parse_platform(in);
}

}  // namespace opm::sim
