#include "core/sweep.hpp"

#include <deque>
#include <memory>
#include <sstream>

#include "core/result_cache.hpp"
#include "util/csv.hpp"
#include "util/metrics.hpp"
#include "util/mutex.hpp"

namespace opm::core {

namespace {

/// The sweep log. The pool itself is util's shared pool (one pool, one
/// knob, shared with the set-sliced simulator).
struct Engine {
  util::Mutex log_mutex;
  std::deque<SweepStats> log OPM_GUARDED_BY(log_mutex);
};

Engine& engine() {
  static Engine e;
  return e;
}

constexpr std::size_t kLogCapacity = 256;

void record(SweepStats s) {
  // Process totals go to the metrics registry (one reporting path for
  // bench harnesses and the sweep service); the bounded log below keeps
  // the per-sweep records the CSV/JSON telemetry blocks are built from.
  auto& reg = util::MetricsRegistry::instance();
  reg.counter("sweep.records").add(1);
  reg.counter("sweep.items").add(s.items);
  reg.counter("sweep.tasks").add(s.tasks);
  reg.counter("sweep.steals").add(s.steals);
  reg.double_counter("sweep.wall_seconds").add(s.wall_seconds);
  reg.double_counter("sweep.busy_seconds").add(s.busy_seconds);
  reg.counter("sweep.sim_lines").add(s.sim_lines);

  Engine& e = engine();
  util::MutexLock lock(e.log_mutex);
  if (e.log.size() >= kLogCapacity) e.log.pop_front();
  e.log.push_back(std::move(s));
}

}  // namespace

void set_sweep_workers(std::size_t n) { util::set_shared_pool_workers(n); }

std::size_t sweep_workers() { return util::shared_pool_workers(); }

std::vector<SweepStats> drain_sweep_stats() {
  Engine& e = engine();
  util::MutexLock lock(e.log_mutex);
  std::vector<SweepStats> out(e.log.begin(), e.log.end());
  e.log.clear();
  return out;
}

void write_sweep_stats_csv(std::ostream& os, const std::vector<SweepStats>& stats) {
  util::CsvWriter csv(os);
  csv.header({"sweep", "workers", "items", "tasks", "steals", "wall_s", "busy_s",
              "speedup_est", "cache_hits", "cache_misses", "cache_loaded_b",
              "cache_stored_b", "cache_s", "cache_src", "sim_lines", "sim_lines_per_s",
              "sampled", "max_rel_err"});
  for (const auto& s : stats)
    csv.row(s.name, s.workers, s.items, s.tasks, s.steals, s.wall_seconds, s.busy_seconds,
            s.speedup_estimate(), s.cache_hits, s.cache_misses, s.cache_bytes_loaded,
            s.cache_bytes_stored, s.cache_seconds, s.cache_source, s.sim_lines,
            s.sim_lines_per_sec(), s.sampled ? 1 : 0, s.max_rel_error);
}

std::string sweep_stats_json(const SweepStats& s) {
  std::ostringstream os;
  os << "{\"sweep\":\"" << s.name << "\",\"workers\":" << s.workers
     << ",\"items\":" << s.items << ",\"tasks\":" << s.tasks << ",\"steals\":" << s.steals
     << ",\"wall_s\":" << s.wall_seconds << ",\"busy_s\":" << s.busy_seconds
     << ",\"speedup_est\":" << s.speedup_estimate() << ",\"cache\":{\"hits\":"
     << s.cache_hits << ",\"misses\":" << s.cache_misses << ",\"loaded_b\":"
     << s.cache_bytes_loaded << ",\"stored_b\":" << s.cache_bytes_stored
     << ",\"seconds\":" << s.cache_seconds << ",\"source\":\"" << s.cache_source
     << "\"},\"sim_lines\":" << s.sim_lines
     << ",\"sim_lines_per_s\":" << s.sim_lines_per_sec()
     << ",\"sampled\":" << (s.sampled ? "true" : "false")
     << ",\"max_rel_error\":" << s.max_rel_error << ",\"worker_busy_s\":[";
  for (std::size_t i = 0; i < s.worker_busy_seconds.size(); ++i)
    os << (i ? "," : "") << s.worker_busy_seconds[i];
  os << "]}";
  return os.str();
}

namespace detail {

namespace {
/// Sweep-nesting depth of the calling thread; only depth-1 sweeps record
/// (a nested sweep's work belongs to its enclosing record).
thread_local int t_sweep_depth = 0;
}  // namespace

SweepTimer::SweepTimer(const char* name, std::size_t items, util::ThreadPool* pool)
    : name_(name), items_(items), pool_(pool) {
  ++t_sweep_depth;
  // A sweep launched from inside a pool task, or from inside another
  // sweep on this thread, is nested: its chunks are already accounted to
  // the enclosing top-level sweep.
  if (t_sweep_depth > 1 || (pool_ && pool_->on_worker_thread())) return;
  active_ = true;
  if (pool_) before_ = pool_->worker_counters();
  auto& reg = util::MetricsRegistry::instance();
  sim_lines_before_ = reg.counter("sim.lines_simulated").value();
  sampled_windows_before_ = reg.counter("sim.sampled_windows").value();
  rel_error_before_ = reg.double_counter("sim.sampling_rel_error").value();
  t0_ = std::chrono::steady_clock::now();
}

void SweepTimer::stop() {
  if (stopped_) return;
  stopped_ = true;
  --t_sweep_depth;
  if (!active_) return;
  active_ = false;
  SweepStats s;
  s.name = name_;
  s.items = items_;
  s.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0_).count();
  // Simulated-line delta over the sweep. MemorySystems publish their line
  // counts at report()/reset()/destruction (watermark scheme), all of
  // which happen inside the per-item task for trace-driven sweeps.
  auto& reg = util::MetricsRegistry::instance();
  s.sim_lines = reg.counter("sim.lines_simulated").value() - sim_lines_before_;
  s.sampled = reg.counter("sim.sampled_windows").value() > sampled_windows_before_;
  if (s.sampled)
    s.max_rel_error =
        reg.double_counter("sim.sampling_rel_error").value() - rel_error_before_;
  if (pool_ == nullptr) {
    s.workers = 0;
    s.tasks = 1;
    s.busy_seconds = s.wall_seconds;
  } else {
    s.workers = pool_->workers();
    const auto after = pool_->worker_counters();
    s.worker_busy_seconds.resize(after.size(), 0.0);
    for (std::size_t i = 0; i < after.size(); ++i) {
      const auto& b = before_[i];
      s.tasks += after[i].tasks - b.tasks;
      s.steals += after[i].steals - b.steals;
      s.worker_busy_seconds[i] = after[i].busy_seconds - b.busy_seconds;
      s.busy_seconds += s.worker_busy_seconds[i];
    }
  }
  record(std::move(s));
}

namespace {

/// Matches SweepTimer's "is this a top-level sweep?" rule without
/// constructing the pool: a cache hit needs no workers, so a nil pool
/// means the caller cannot be on a worker thread.
bool top_level_sweep() { return t_sweep_depth == 0 && !util::on_shared_pool_worker(); }

}  // namespace

void record_cache_hit(const char* name, std::size_t items, const CacheProbe& probe) {
  if (!top_level_sweep()) return;
  SweepStats s;
  s.name = name;
  s.items = items;
  s.workers = 0;
  s.tasks = 0;
  s.wall_seconds = probe.lookup_seconds;
  s.busy_seconds = probe.lookup_seconds;
  s.cache_hits = 1;
  s.cache_bytes_loaded = probe.bytes_loaded;
  s.cache_seconds = probe.lookup_seconds;
  s.cache_source = probe.source;
  record(std::move(s));
}

void annotate_cache_miss(const char* name, const CacheProbe& probe) {
  Engine& e = engine();
  util::MutexLock lock(e.log_mutex);
  for (auto it = e.log.rbegin(); it != e.log.rend(); ++it) {
    if (it->name != name) continue;
    it->cache_misses += 1;
    it->cache_bytes_stored += probe.bytes_stored;
    it->cache_seconds += probe.lookup_seconds + probe.store_seconds;
    it->cache_source = probe.source;
    return;
  }
}

}  // namespace detail

}  // namespace opm::core
