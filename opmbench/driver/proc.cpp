#include "proc.hpp"

#include <fcntl.h>
#include <signal.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <thread>

#include "bench.hpp"
#include "serve/protocol.hpp"
#include "util/json.hpp"
#include "util/socket.hpp"

namespace opmbench {

// ------------------------------------------------------------------ Child --

Child::~Child() {
  if (pid_ > 0) stop(/*terminate=*/true, 5.0, nullptr);
  if (out_fd_ >= 0) ::close(out_fd_);
}

bool Child::spawn(const std::vector<std::string>& argv, const std::string& log_path,
                  std::string* error) {
  int pipe_fds[2] = {-1, -1};
  int log_fd = -1;
  if (log_path.empty()) {
    if (::pipe(pipe_fds) != 0) {
      *error = std::string("pipe: ") + std::strerror(errno);
      return false;
    }
  } else {
    log_fd = ::open(log_path.c_str(), O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC, 0644);
    if (log_fd < 0) {
      *error = "open " + log_path + ": " + std::strerror(errno);
      return false;
    }
  }
  std::vector<char*> args;
  for (const std::string& a : argv) args.push_back(const_cast<char*>(a.c_str()));
  args.push_back(nullptr);

  const pid_t pid = ::fork();
  if (pid < 0) {
    *error = std::string("fork: ") + std::strerror(errno);
    return false;
  }
  if (pid == 0) {
    // Child: only async-signal-safe calls until exec.
    const int out = log_path.empty() ? pipe_fds[1] : log_fd;
    ::dup2(out, 1);
    if (!log_path.empty()) ::dup2(out, 2);
    ::execv(args[0], args.data());
    ::_exit(127);
  }
  pid_ = pid;
  if (log_path.empty()) {
    ::close(pipe_fds[1]);
    out_fd_ = pipe_fds[0];
  } else {
    ::close(log_fd);
  }
  return true;
}

std::string Child::read_all() {
  std::string out;
  if (out_fd_ < 0) return out;
  char chunk[65536];
  for (;;) {
    const ssize_t n = ::read(out_fd_, chunk, sizeof chunk);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    out.append(chunk, static_cast<std::size_t>(n));
  }
  ::close(out_fd_);
  out_fd_ = -1;
  return out;
}

int Child::stop(bool terminate, double timeout_s, double* peak_rss_mb) {
  if (pid_ <= 0) return -1;
  if (terminate) ::kill(pid_, SIGTERM);
  const std::int64_t t0 = now_ns();
  int status = 0;
  rusage usage{};
  bool killed = false;
  for (;;) {
    const pid_t r = ::wait4(pid_, &status, WNOHANG, &usage);
    if (r == pid_) break;
    if (r < 0 && errno != EINTR) {
      status = -1;
      break;
    }
    if (!killed && seconds_since(t0) > timeout_s) {
      ::kill(pid_, SIGKILL);
      killed = true;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  pid_ = -1;
  if (peak_rss_mb) *peak_rss_mb = static_cast<double>(usage.ru_maxrss) / 1024.0;
  if (killed) return -1;
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

bool Child::alive() const {
  if (pid_ <= 0) return false;
  siginfo_t info{};
  if (::waitid(P_PID, static_cast<id_t>(pid_), &info, WEXITED | WNOHANG | WNOWAIT) != 0)
    return false;
  return info.si_pid == 0;
}

// ------------------------------------------------------------- LineClient --

LineClient::~LineClient() {
  if (fd_ >= 0) ::close(fd_);
}

bool LineClient::connect(const std::string& address, double recv_timeout_s) {
  opm::util::SocketAddress addr;
  std::string error;
  if (!opm::util::parse_address(address, &addr, &error)) return false;
  fd_ = opm::util::connect_to(addr, &error);
  if (fd_ < 0) return false;
  timeval tv{};
  tv.tv_sec = static_cast<time_t>(recv_timeout_s);
  tv.tv_usec = static_cast<suseconds_t>((recv_timeout_s - static_cast<double>(tv.tv_sec)) * 1e6);
  ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
  return true;
}

bool LineClient::send(std::string_view line) {
  std::string framed;
  framed.reserve(line.size() + 1);
  framed.append(line);
  framed.push_back('\n');
  return fd_ >= 0 && opm::util::send_all(fd_, framed);
}

bool LineClient::recv(std::string* line) {
  for (;;) {
    const std::size_t pos = buf_.find('\n', head_ + scanned_);
    if (pos != std::string::npos) {
      line->assign(buf_, head_, pos - head_);
      head_ = pos + 1;
      scanned_ = 0;
      if (head_ > (1u << 20) && head_ * 2 > buf_.size()) {
        buf_.erase(0, head_);
        head_ = 0;
      }
      return true;
    }
    scanned_ = buf_.size() - head_;
    char chunk[1 << 16];
    const ssize_t n = ::read(fd_, chunk, sizeof chunk);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    buf_.append(chunk, static_cast<std::size_t>(n));
  }
}

bool round_trip(const std::string& address, const std::string& line, std::string* response) {
  LineClient c;
  return c.connect(address) && c.send(line) && c.recv(response);
}

// --------------------------------------------------------------- Topology --

namespace {

constexpr const char* kMaxLineBytes = "--max-line-bytes=8388608";

/// Polls until `address` answers a ping or the deadline passes.
bool wait_ready(const std::string& address, const Child& child, double timeout_s) {
  const std::int64_t t0 = now_ns();
  while (seconds_since(t0) < timeout_s) {
    std::string response;
    if (round_trip(address, R"({"v":2,"req_id":"ready","type":"ping"})", &response) &&
        response.find("\"pong\"") != std::string::npos)
      return true;
    if (!child.alive()) return false;
    std::this_thread::sleep_for(std::chrono::microseconds(500));
  }
  return false;
}

}  // namespace

Topology::Topology(std::string bin_dir, std::string tag, std::string cache_dir)
    : bin_dir_(std::move(bin_dir)), tag_(std::move(tag)), cache_dir_(std::move(cache_dir)) {
  router_addr_ = "unix:" + tag_ + "-router.sock";
  for (int i = 0; i < kShards; ++i)
    shard_addrs_.push_back("unix:" + tag_ + "-shard" + std::to_string(i) + ".sock");
}

Topology::~Topology() { stop(); }

bool Topology::start(std::string* error) {
  std::string shard_list;
  for (int i = 0; i < kShards; ++i) {
    const std::string& addr = shard_addrs_[static_cast<std::size_t>(i)];
    const std::vector<std::string> argv = {
        bin_dir_ + "/opm_serve",    "--listen=" + addr,
        "--shard-id=" + std::to_string(i), "--shard-count=" + std::to_string(kShards),
        "--serve-workers=1",        "--sweep-workers=0",
        "--queue-depth=4096",       kMaxLineBytes,
        "--cache-dir=" + cache_dir_};
    if (!shards_[i].spawn(argv, tag_ + "-shard" + std::to_string(i) + ".log", error)) return false;
    if (!shard_list.empty()) shard_list += ',';
    shard_list += addr;
  }
  for (int i = 0; i < kShards; ++i) {
    if (!wait_ready(shard_addrs_[static_cast<std::size_t>(i)], shards_[i], 30.0)) {
      *error = "shard " + std::to_string(i) + " did not become ready";
      return false;
    }
  }
  const std::vector<std::string> argv = {bin_dir_ + "/opm_router", "--listen=" + router_addr_,
                                         "--shards=" + shard_list, kMaxLineBytes};
  if (!router_.spawn(argv, tag_ + "-router.log", error)) return false;
  if (!wait_ready(router_addr_, router_, 30.0)) {
    *error = "router did not become ready";
    return false;
  }
  return true;
}

double Topology::stop() {
  double total = 0.0;
  double rss = 0.0;
  if (router_.running()) {
    router_.stop(true, 20.0, &rss);
    total += rss;
  }
  for (Child& s : shards_) {
    if (!s.running()) continue;
    s.stop(true, 20.0, &rss);
    total += rss;
  }
  return total;
}

// ------------------------------------------------------------------ stats --

bool fetch_stats(const std::string& address, std::string* stats_json) {
  std::string response;
  if (!round_trip(address, R"({"v":2,"req_id":"stats","type":"stats"})", &response))
    return false;
  opm::serve::protocol::ResponseView view;
  if (!opm::serve::protocol::parse_response(response, &view) || !view.ok) return false;
  *stats_json = view.stats;
  return true;
}

double stats_counter(const std::string& stats_json, const char* group, const char* name) {
  const auto doc = opm::util::parse_json(stats_json);
  if (!doc) return 0.0;
  const opm::util::JsonValue* g = doc->find(group);
  const opm::util::JsonValue* v = g ? g->find(name) : nullptr;
  return v && v->is_number() ? v->number : 0.0;
}

}  // namespace opmbench
