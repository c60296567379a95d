#include "core/sweep_config.hpp"

#include <atomic>
#include <cstdlib>
#include <string>
#include <thread>

#include "core/sweep.hpp"
#include "util/cli.hpp"

namespace opm::core {

namespace {

std::atomic<bool> g_telemetry{true};

/// getenv as a string, empty when unset.
std::string env_str(const char* name) {
  const char* v = std::getenv(name);
  return v ? std::string(v) : std::string();
}

/// True for "1"/"true"/"yes"/"on" (the common shell spellings).
bool truthy(const std::string& v) {
  return v == "1" || v == "true" || v == "yes" || v == "on";
}

/// The bench-harness defaults resolve_sweep_config starts from.
SweepConfig default_sweep_config() {
  SweepConfig cfg;
  const unsigned hw = std::thread::hardware_concurrency();
  cfg.workers = hw == 0 ? 1 : hw;
  cfg.telemetry = true;
  cfg.cache.enabled = true;
  cfg.cache.disk = true;
  return cfg;
}

/// Overlays the environment column of the table in the header onto
/// `base`. Unset or unparsable variables leave the base value untouched.
SweepConfig apply_env(SweepConfig base) {
  if (const std::string v = env_str("OPM_SWEEP_WORKERS"); !v.empty()) {
    char* end = nullptr;
    const long n = std::strtol(v.c_str(), &end, 10);
    if (end && *end == '\0' && n >= 0) base.workers = static_cast<std::size_t>(n);
  }
  if (const std::string v = env_str("OPM_CACHE_DIR"); !v.empty()) {
    base.cache.dir = v;
    base.cache.enabled = true;
  }
  if (const std::string v = env_str("OPM_CACHE_MAX_BYTES"); !v.empty()) {
    char* end = nullptr;
    const long long n = std::strtoll(v.c_str(), &end, 10);
    if (end && *end == '\0' && n >= 0) base.cache.max_disk_bytes = static_cast<std::size_t>(n);
  }
  if (truthy(env_str("OPM_NO_CACHE"))) base.cache.enabled = false;
  if (const std::string v = env_str("OPM_SWEEP_STATS"); !v.empty())
    base.telemetry = truthy(v);
  if (const std::string v = env_str("OPM_SAMPLE"); !v.empty())
    sim::parse_sampling_mode(v, &base.sampling);
  return base;
}

}  // namespace

SweepConfig resolve_sweep_config(int argc, const char* const* argv) {
  SweepConfig cfg = apply_env(default_sweep_config());
  const util::Cli cli(argc, argv);
  if (cli.has("sweep-workers")) {
    const std::int64_t n = cli.get_int("sweep-workers", -1);
    if (n >= 0) cfg.workers = static_cast<std::size_t>(n);
  }
  if (cli.has("cache-dir")) {
    const std::string dir = cli.get("cache-dir", cfg.cache.dir);
    if (!dir.empty()) {
      cfg.cache.dir = dir;
      cfg.cache.enabled = true;
    }
  }
  if (cli.has("cache-max-bytes")) {
    const std::int64_t n = cli.get_int("cache-max-bytes", -1);
    if (n >= 0) cfg.cache.max_disk_bytes = static_cast<std::size_t>(n);
  }
  if (cli.has("no-cache")) cfg.cache.enabled = false;
  if (cli.has("no-sweep-stats")) cfg.telemetry = false;
  if (cli.has("sample")) sim::parse_sampling_mode(cli.get("sample", ""), &cfg.sampling);
  return cfg;
}

void apply_sweep_config(const SweepConfig& config) {
  set_sweep_workers(config.workers);
  configure_result_cache(config.cache);
  set_sweep_telemetry(config.telemetry);
  sim::set_sampling_mode(config.sampling);
}

void set_sweep_telemetry(bool enabled) {
  g_telemetry.store(enabled, std::memory_order_relaxed);
}

bool sweep_telemetry() { return g_telemetry.load(std::memory_order_relaxed); }

}  // namespace opm::core
