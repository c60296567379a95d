#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

/// Tiny command-line option parser for examples and bench harnesses.
///
/// Accepts `--name=value`, `--name value`, and bare `--flag` forms. All
/// harnesses must run with zero arguments (defaults reproduce the paper's
/// configuration); options only narrow or widen sweeps.
namespace opm::util {

class Cli {
 public:
  Cli(int argc, const char* const* argv);

  /// True if `--name` was present (with or without a value).
  bool has(const std::string& name) const;
  /// String value of `--name`, or `fallback` when absent.
  std::string get(const std::string& name, const std::string& fallback) const;
  /// Integer value of `--name`, or `fallback` when absent/unparsable.
  std::int64_t get_int(const std::string& name, std::int64_t fallback) const;
  /// Double value of `--name`, or `fallback` when absent/unparsable.
  double get_double(const std::string& name, double fallback) const;
  /// Positional (non-option) arguments in order.
  const std::vector<std::string>& positional() const { return positional_; }
  /// Names of the `--name` options present, sorted.
  std::vector<std::string> names() const;

 private:
  std::map<std::string, std::string> options_;
  std::vector<std::string> positional_;
};

}  // namespace opm::util
