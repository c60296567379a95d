#pragma once

#include <sys/types.h>

#include <string>
#include <string_view>
#include <vector>

/// Child processes and sockets: the benchmark measures the serve tier from
/// outside, as separate opm_serve / opm_router processes, over the same
/// newline-framed Unix sockets a client uses.
namespace opmbench {

/// A spawned child. The destructor kills and reaps a child still running,
/// so no process outlives the benchmark on an error path.
class Child {
 public:
  Child() = default;
  ~Child();
  Child(const Child&) = delete;
  Child& operator=(const Child&) = delete;

  /// fork + exec `argv` with stdout and stderr appended to `log_path`
  /// (or to a pipe readable through read_all() when `log_path` is empty).
  bool spawn(const std::vector<std::string>& argv, const std::string& log_path,
             std::string* error);

  /// Reads the child's stdout to EOF (pipe mode only).
  std::string read_all();

  /// SIGTERM (when `terminate`), then waits up to `timeout_s` before
  /// SIGKILL. Returns the exit status; *peak_rss_mb gets the child's peak
  /// resident set (ru_maxrss).
  int stop(bool terminate, double timeout_s, double* peak_rss_mb);

  bool running() const { return pid_ > 0; }
  /// Running and not yet exited (does not reap a zombie).
  bool alive() const;

 private:
  pid_t pid_ = -1;
  int out_fd_ = -1;
};

/// Blocking newline-framed client over unix:PATH (or HOST:PORT).
class LineClient {
 public:
  LineClient() = default;
  ~LineClient();
  LineClient(const LineClient&) = delete;
  LineClient& operator=(const LineClient&) = delete;

  /// Connects; a recv() that waits longer than `recv_timeout_s` fails.
  bool connect(const std::string& address, double recv_timeout_s = 60.0);
  bool send(std::string_view line);  ///< appends the '\n'
  /// Next line without its '\n'; false on EOF or error. Scans only bytes
  /// not yet searched, so large responses cost linear time.
  bool recv(std::string* line);

 private:
  int fd_ = -1;
  std::string buf_;
  std::size_t head_ = 0;     ///< start of the unconsumed bytes
  std::size_t scanned_ = 0;  ///< bytes from head_ already searched for '\n'
};

/// One request/response round trip on a fresh connection.
bool round_trip(const std::string& address, const std::string& line, std::string* response);

/// The served tier: opm_router in front of two opm_serve shards, each
/// with one dispatcher worker, serial sweeps and its result cache on
/// (memory + disk under `cache_dir`). Socket and log paths are relative
/// to the working directory.
class Topology {
 public:
  static constexpr int kShards = 2;

  Topology(std::string bin_dir, std::string tag, std::string cache_dir);
  ~Topology();
  Topology(const Topology&) = delete;
  Topology& operator=(const Topology&) = delete;

  /// Spawns the shards, then the router; returns once each answers ping.
  bool start(std::string* error);
  /// Drains the router, then the shards. Returns the summed peak RSS of
  /// the three processes in MiB (0 when nothing ran).
  double stop();

  const std::string& router() const { return router_addr_; }
  const std::string& shard(int i) const { return shard_addrs_[static_cast<std::size_t>(i)]; }

 private:
  std::string bin_dir_, tag_, cache_dir_;
  std::string router_addr_;
  std::vector<std::string> shard_addrs_;
  Child shards_[kShards];
  Child router_;
};

/// Fetches the over-the-wire "stats" object of a server (its "stats"
/// member, serialized) and returns the named counter from `group`, 0 when
/// absent.
double stats_counter(const std::string& stats_json, const char* group, const char* name);
bool fetch_stats(const std::string& address, std::string* stats_json);

}  // namespace opmbench
