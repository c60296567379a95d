#include "core/result_cache.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <deque>
#include <exception>
#include <filesystem>
#include <fstream>
#include <list>
#include <sstream>
#include <system_error>
#include <thread>
#include <unordered_map>
#include <utility>

#include "util/metrics.hpp"
#include "util/mutex.hpp"

namespace opm::core {

namespace {

namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// ---------------------------------------------------------- record format --
//
// One record per key, named <hex32>.opmrec. Fixed 48-byte header followed
// by the raw payload bytes. Host-endian: records are a per-machine cache,
// not an interchange format. Every field is validated on read; any
// mismatch degrades to a miss.

constexpr char kMagic[4] = {'O', 'P', 'M', 'R'};
constexpr std::size_t kHeaderBytes = 48;

// Records are written as .tmp-* files in this subdirectory of the cache
// dir, then renamed into place. Creating a file locks its directory, and
// a cold lookup's probe for an absent record waits on that lock; with the
// scratch files elsewhere it waits only on the rename (measured on ext4:
// a probe took 110 us at the median beside a writer creating files in the
// same directory, 7 us with them in a subdirectory).
constexpr char kScratchDir[] = ".tmp";

void put_u32(unsigned char* p, std::uint32_t v) { std::memcpy(p, &v, 4); }
void put_u64(unsigned char* p, std::uint64_t v) { std::memcpy(p, &v, 8); }
std::uint32_t get_u32(const unsigned char* p) {
  std::uint32_t v;
  std::memcpy(&v, p, 4);
  return v;
}
std::uint64_t get_u64(const unsigned char* p) {
  std::uint64_t v;
  std::memcpy(&v, p, 8);
  return v;
}

std::uint64_t payload_checksum(const std::vector<std::byte>& payload) {
  util::Hasher128 h;
  h.add_bytes(payload.data(), payload.size());
  return h.digest().lo;
}

enum class ReadOutcome { kOk, kAbsent, kCorrupt, kVersionSkew, kTypeMismatch, kIoError };

struct DigestHash {
  std::size_t operator()(const util::Digest128& d) const {
    return static_cast<std::size_t>(d.lo ^ (d.hi * 0x9e3779b97f4a7c15ull));
  }
};

}  // namespace

struct ResultCache::Impl {
  struct Entry {
    util::Digest128 key;
    std::size_t elem_size = 0;
    Payload payload;
  };

  /// One record waiting for the writer thread, under the configuration
  /// it was stored with.
  struct Job {
    CacheConfig cfg;
    util::Digest128 key;
    std::size_t elem_size = 0;
    Payload payload;
  };

  struct Shard {
    util::Mutex mutex;
    std::list<Entry> lru OPM_GUARDED_BY(mutex);  // front = most recently used
    std::unordered_map<util::Digest128, std::list<Entry>::iterator, DigestHash> index
        OPM_GUARDED_BY(mutex);
  };

  static constexpr std::size_t kShards = 16;

  mutable util::Mutex config_mutex;
  CacheConfig config OPM_GUARDED_BY(config_mutex);
  std::atomic<bool> enabled{false};
  std::atomic<std::size_t> per_shard_cap{4096 / kShards};
  Shard shards[kShards];

  // Stats live in the process-wide metrics registry ("cache.*" names) so
  // every reporting surface — bench stats blocks, the opm_serve stats
  // request — reads the same counters. The references resolve once here
  // and are lock-free to bump (lookups run concurrently on sweep workers).
  util::MetricsRegistry& registry = util::MetricsRegistry::instance();
  util::Counter& memory_hits = registry.counter("cache.memory_hits");
  util::Counter& disk_hits = registry.counter("cache.disk_hits");
  util::Counter& misses = registry.counter("cache.misses");
  util::Counter& stores = registry.counter("cache.stores");
  util::Counter& bytes_loaded = registry.counter("cache.bytes_loaded");
  util::Counter& bytes_stored = registry.counter("cache.bytes_stored");
  util::Counter& corrupt_records = registry.counter("cache.corrupt_records");
  util::Counter& version_skew = registry.counter("cache.version_skew");
  util::Counter& type_mismatch = registry.counter("cache.type_mismatch");
  util::Counter& io_errors = registry.counter("cache.io_errors");
  util::Counter& evicted_memory = registry.counter("cache.evicted_memory");
  util::Counter& evicted_budget = registry.counter("cache.evicted_budget");
  util::Counter& evicted_orphan = registry.counter("cache.evicted_orphan");
  util::Counter& evicted_bytes = registry.counter("cache.evicted_bytes");
  util::Counter& write_behind_queued = registry.counter("cache.write_behind_queued");
  util::Counter& write_behind_sync = registry.counter("cache.write_behind_sync");
  util::DoubleCounter& lookup_seconds = registry.double_counter("cache.lookup_seconds");
  util::DoubleCounter& store_seconds = registry.double_counter("cache.store_seconds");
  util::DoubleCounter& write_behind_seconds =
      registry.double_counter("cache.write_behind_seconds");
  std::atomic<std::uint64_t> tmp_counter{0};
  util::Mutex prune_mutex;  // one pruner at a time within this process

  // The write-behind queue. Jobs are numbered in queue order, and the
  // writer publishes them in that order, so "every job up to N is done"
  // is one comparison (flush).
  util::Mutex queue_mutex;
  util::CondVar queue_cv;  // writer: a job arrived, or stopping
  util::CondVar done_cv;   // flush: the writer finished a batch
  std::deque<Job> queue OPM_GUARDED_BY(queue_mutex);
  std::size_t queued_bytes OPM_GUARDED_BY(queue_mutex) = 0;  // charged: queued + being written
  std::uint64_t jobs_queued OPM_GUARDED_BY(queue_mutex) = 0;
  std::uint64_t jobs_done OPM_GUARDED_BY(queue_mutex) = 0;
  bool stopping OPM_GUARDED_BY(queue_mutex) = false;
  // Started under queue_mutex by the first queued job; joined by the
  // destructor, when no store can start it any more.
  std::thread writer;  // opm-lint: allow(thread-ownership) — disk I/O, not sweep work

  ~Impl() {
    {
      util::MutexLock lock(queue_mutex);
      stopping = true;
    }
    queue_cv.notify_all();
    if (writer.joinable()) writer.join();  // the writer empties the queue before it exits
  }

  Shard& shard(const util::Digest128& key) { return shards[key.lo % kShards]; }

  CacheConfig snapshot() const OPM_EXCLUDES(config_mutex) {
    util::MutexLock lock(config_mutex);
    return config;
  }

  fs::path record_path(const CacheConfig& cfg, const util::Digest128& key) const {
    return fs::path(cfg.dir) / (key.hex() + ".opmrec");
  }

  static fs::path scratch_dir(const CacheConfig& cfg) { return fs::path(cfg.dir) / kScratchDir; }

  // ------------------------------------------------------------ memory tier --

  Payload memory_find(const util::Digest128& key, std::size_t elem_size) {
    Shard& s = shard(key);
    util::MutexLock lock(s.mutex);
    auto it = s.index.find(key);
    if (it == s.index.end()) return nullptr;
    if (it->second->elem_size != elem_size) {
      // Same key, different element size: practically impossible without a
      // hash collision or a caller bug; treat as absent rather than serve
      // wrongly-typed bytes.
      return nullptr;
    }
    s.lru.splice(s.lru.begin(), s.lru, it->second);  // touch
    return it->second->payload;
  }

  void memory_store(const util::Digest128& key, std::size_t elem_size, Payload payload) {
    const std::size_t cap = per_shard_cap.load(std::memory_order_relaxed);
    Shard& s = shard(key);
    util::MutexLock lock(s.mutex);
    auto it = s.index.find(key);
    if (it != s.index.end()) {
      it->second->elem_size = elem_size;
      it->second->payload = std::move(payload);
      s.lru.splice(s.lru.begin(), s.lru, it->second);
      return;
    }
    s.lru.push_front(Entry{key, elem_size, std::move(payload)});
    s.index.emplace(key, s.lru.begin());
    while (s.lru.size() > cap) {
      s.index.erase(s.lru.back().key);
      s.lru.pop_back();
      evicted_memory.add(1);
    }
  }

  // -------------------------------------------------------------- disk tier --

  ReadOutcome disk_read(const CacheConfig& cfg, const util::Digest128& key,
                        std::size_t elem_size, Payload& out) {
    const fs::path path = record_path(cfg, key);
    std::ifstream in(path, std::ios::binary);
    if (!in) {
      std::error_code ec;
      return fs::exists(path, ec) ? ReadOutcome::kIoError : ReadOutcome::kAbsent;
    }
    unsigned char header[kHeaderBytes];
    if (!in.read(reinterpret_cast<char*>(header), kHeaderBytes))
      return ReadOutcome::kCorrupt;  // shorter than a header: truncated
    if (std::memcmp(header, kMagic, 4) != 0) return ReadOutcome::kCorrupt;
    if (get_u32(header + 4) != kResultCacheVersion) return ReadOutcome::kVersionSkew;
    if (get_u64(header + 8) != key.hi || get_u64(header + 16) != key.lo)
      return ReadOutcome::kCorrupt;
    if (get_u64(header + 24) != elem_size) return ReadOutcome::kTypeMismatch;
    const std::uint64_t payload_len = get_u64(header + 32);
    const std::uint64_t checksum = get_u64(header + 40);
    if (elem_size == 0 || payload_len % elem_size != 0) return ReadOutcome::kCorrupt;
    // Bound the read by the actual file size so a header lying about its
    // length cannot make us allocate absurd buffers.
    std::error_code ec;
    const auto file_size = fs::file_size(path, ec);
    if (ec || file_size != kHeaderBytes + payload_len) return ReadOutcome::kCorrupt;
    auto payload = std::make_shared<std::vector<std::byte>>(payload_len);
    if (payload_len > 0 &&
        !in.read(reinterpret_cast<char*>(payload->data()),
                 static_cast<std::streamsize>(payload_len)))
      return ReadOutcome::kCorrupt;
    if (payload_checksum(*payload) != checksum) return ReadOutcome::kCorrupt;
    // LRU-by-mtime: a disk hit refreshes its record so budget pruning
    // deletes cold records first. Best effort — a read-only cache dir
    // still serves hits.
    fs::last_write_time(path, fs::file_time_type::clock::now(), ec);
    out = std::move(payload);
    return ReadOutcome::kOk;
  }

  bool disk_write(const CacheConfig& cfg, const util::Digest128& key, std::size_t elem_size,
                  const std::vector<std::byte>& payload) {
    std::error_code ec;
    fs::create_directories(scratch_dir(cfg), ec);
    if (ec) return false;
    const fs::path final_path = record_path(cfg, key);
    // Integer-only formatting of a scratch name, never a serialized
    // result value, so the canonical-%a rule does not apply here.
    const std::string tmp_seq =
        std::to_string(tmp_counter.fetch_add(1, std::memory_order_relaxed));  // opm-lint: allow(float-print)
    const fs::path tmp_path = scratch_dir(cfg) / (".tmp-" + key.hex() + "-" + tmp_seq);
    {
      std::ofstream outf(tmp_path, std::ios::binary | std::ios::trunc);
      if (!outf) return false;
      unsigned char header[kHeaderBytes];
      std::memcpy(header, kMagic, 4);
      put_u32(header + 4, kResultCacheVersion);
      put_u64(header + 8, key.hi);
      put_u64(header + 16, key.lo);
      put_u64(header + 24, elem_size);
      put_u64(header + 32, payload.size());
      put_u64(header + 40, payload_checksum(payload));
      outf.write(reinterpret_cast<const char*>(header), kHeaderBytes);
      if (!payload.empty())
        outf.write(reinterpret_cast<const char*>(payload.data()),
                   static_cast<std::streamsize>(payload.size()));
      outf.flush();
      if (!outf) {
        outf.close();
        fs::remove(tmp_path, ec);
        return false;
      }
    }
    // Atomic publish: readers see either no record or a complete one.
    fs::rename(tmp_path, final_path, ec);
    if (ec) {
      fs::remove(tmp_path, ec);
      return false;
    }
    return true;
  }

  /// disk_write plus its counters; true when the record landed.
  bool publish(const CacheConfig& cfg, const util::Digest128& key, std::size_t elem_size,
               const std::vector<std::byte>& payload) {
    if (!disk_write(cfg, key, elem_size, payload)) {
      io_errors.add(1);
      return false;
    }
    bytes_stored.add(payload.size());
    return true;
  }

  // ------------------------------------------------------ write-behind queue --

  static std::size_t charge(const Payload& payload) {
    return std::max(payload->size(), kWriteBehindMinCharge);
  }

  /// Hands one record to the writer thread. False when it does not fit
  /// under kWriteBehindQueueBytes (or no writer can run): the caller then
  /// writes it itself.
  bool enqueue(const CacheConfig& cfg, const util::Digest128& key, std::size_t elem_size,
               const Payload& payload) OPM_EXCLUDES(queue_mutex) {
    const std::size_t bytes = charge(payload);
    {
      util::MutexLock lock(queue_mutex);
      if (stopping || queued_bytes + bytes > kWriteBehindQueueBytes) return false;
      if (!writer.joinable()) {
        try {
          writer = std::thread([this] { writer_loop(); });  // opm-lint: allow(thread-ownership)
        } catch (const std::system_error&) {
          return false;
        }
      }
      queue.push_back(Job{cfg, key, elem_size, payload});
      queued_bytes += bytes;
      ++jobs_queued;
    }
    queue_cv.notify_one();
    write_behind_queued.add(1);
    return true;
  }

  /// Publishes a batch in queue order, and prunes each budgeted
  /// directory once, after the batch's last record in it.
  void publish_batch(const std::deque<Job>& batch) {
    const CacheConfig* prune = nullptr;  // a budgeted dir written to since its last prune
    for (const Job& job : batch) {
      if (prune && prune->dir != job.cfg.dir) {
        prune_disk(*prune);
        prune = nullptr;
      }
      if (publish(job.cfg, job.key, job.elem_size, *job.payload) && job.cfg.max_disk_bytes > 0)
        prune = &job.cfg;
    }
    if (prune) prune_disk(*prune);
  }

  /// Takes the whole queue as one batch, publishes it, then reports the
  /// batch done. Exits once stopping and the queue is empty.
  void writer_loop() OPM_EXCLUDES(queue_mutex) {
    for (;;) {
      std::deque<Job> batch;
      {
        util::MutexLock lock(queue_mutex);
        while (queue.empty() && !stopping) queue_cv.wait(queue_mutex);
        if (queue.empty()) return;
        batch.swap(queue);
      }
      const auto t0 = Clock::now();
      try {
        publish_batch(batch);
      } catch (const std::exception&) {
        io_errors.add(1);  // out of memory mid-batch: its unwritten records stay misses
      }
      write_behind_seconds.add(seconds_since(t0));
      std::size_t charged = 0;
      for (const Job& job : batch) charged += charge(job.payload);
      {
        util::MutexLock lock(queue_mutex);
        queued_bytes -= charged;
        jobs_done += batch.size();
      }
      done_cv.notify_all();
    }
  }

  void flush() OPM_EXCLUDES(queue_mutex) {
    util::MutexLock lock(queue_mutex);
    const std::uint64_t target = jobs_queued;
    while (jobs_done < target) done_cv.wait(queue_mutex);
  }

  /// Walks the cache dir and deletes (a) .tmp- scratch files older than
  /// five minutes — leftovers from crashed writers, never a live write —
  /// in the scratch dir and at the top level, where writers left them
  /// before the scratch dir existed, and (b) the oldest-mtime records
  /// until the directory fits
  /// max_disk_bytes. Runs once per writer batch (and after each store the
  /// caller writes itself); store frequency is bounded by recompute cost,
  /// so the O(records) scan stays cheap relative to the work that
  /// triggered it.
  void prune_disk(const CacheConfig& cfg) OPM_EXCLUDES(prune_mutex) {
    util::MutexLock lock(prune_mutex);
    struct File {
      fs::path path;
      fs::file_time_type mtime;
      std::uintmax_t size = 0;
    };
    std::vector<File> records;
    std::uintmax_t total = 0;
    const auto now = fs::file_time_type::clock::now();
    // True when `path` is a scratch file; deletes it once it is stale.
    auto reap_if_stale = [&](const fs::path& path) {
      if (path.filename().string().rfind(".tmp-", 0) != 0) return false;
      std::error_code fec;
      const auto mtime = fs::last_write_time(path, fec);
      if (fec || now - mtime <= std::chrono::minutes(5)) return true;
      const auto size = fs::file_size(path, fec);
      const std::uint64_t bytes = fec ? 0 : static_cast<std::uint64_t>(size);
      if (fs::remove(path, fec) && !fec) {
        evicted_orphan.add(1);
        evicted_bytes.add(bytes);
      }
      return true;
    };
    std::error_code sec;
    for (fs::directory_iterator it(scratch_dir(cfg), sec), end; !sec && it != end;
         it.increment(sec))
      reap_if_stale(it->path());
    std::error_code ec;
    for (fs::directory_iterator it(cfg.dir, ec), end; !ec && it != end; it.increment(ec)) {
      const fs::path path = it->path();
      if (reap_if_stale(path)) continue;
      const std::string name = path.filename().string();
      std::error_code fec;
      if (name.size() < 8 || name.compare(name.size() - 7, 7, ".opmrec") != 0) continue;
      File f;
      f.path = path;
      f.size = it->file_size(fec);
      if (fec) continue;
      f.mtime = fs::last_write_time(path, fec);
      if (fec) continue;
      total += f.size;
      records.push_back(std::move(f));
    }
    if (total <= cfg.max_disk_bytes) return;
    std::sort(records.begin(), records.end(),
              [](const File& a, const File& b) { return a.mtime < b.mtime; });
    for (const File& f : records) {
      if (total <= cfg.max_disk_bytes) break;
      std::error_code fec;
      if (!fs::remove(f.path, fec) || fec) continue;  // racing pruner got it first
      total -= f.size;
      evicted_budget.add(1);
      evicted_bytes.add(f.size);
    }
  }
};

ResultCache::ResultCache() : impl_(new Impl) {}
ResultCache::~ResultCache() { delete impl_; }  // ~Impl publishes what is still queued

ResultCache& ResultCache::instance() {
  // Magic-static: the shard table is constructed exactly once, with every
  // concurrent first caller blocked until it is ready.
  static ResultCache cache;
  return cache;
}

void ResultCache::configure(const CacheConfig& config) {
  {
    util::MutexLock lock(impl_->config_mutex);
    impl_->config = config;
  }
  impl_->enabled.store(config.enabled, std::memory_order_release);
  impl_->per_shard_cap.store(
      std::max<std::size_t>(1, config.max_entries / Impl::kShards),
      std::memory_order_relaxed);
  clear_memory();
}

CacheConfig ResultCache::config() const { return impl_->snapshot(); }

bool ResultCache::enabled() const {
  return impl_->enabled.load(std::memory_order_acquire);
}

CacheStats ResultCache::stats() const {
  CacheStats s;
  s.memory_hits = impl_->memory_hits.value();
  s.disk_hits = impl_->disk_hits.value();
  s.misses = impl_->misses.value();
  s.stores = impl_->stores.value();
  s.bytes_loaded = impl_->bytes_loaded.value();
  s.bytes_stored = impl_->bytes_stored.value();
  s.corrupt_records = impl_->corrupt_records.value();
  s.version_skew = impl_->version_skew.value();
  s.type_mismatch = impl_->type_mismatch.value();
  s.io_errors = impl_->io_errors.value();
  s.evicted_memory = impl_->evicted_memory.value();
  s.evicted_budget = impl_->evicted_budget.value();
  s.evicted_orphan = impl_->evicted_orphan.value();
  s.evicted_bytes = impl_->evicted_bytes.value();
  s.write_behind_queued = impl_->write_behind_queued.value();
  s.write_behind_sync = impl_->write_behind_sync.value();
  s.write_behind_seconds = impl_->write_behind_seconds.value();
  s.lookup_seconds = impl_->lookup_seconds.value();
  s.store_seconds = impl_->store_seconds.value();
  return s;
}

void ResultCache::reset_stats() {
  impl_->registry.reset("cache.");
}

void ResultCache::flush() { impl_->flush(); }

void ResultCache::clear_memory() {
  flush();
  for (auto& s : impl_->shards) {
    util::MutexLock lock(s.mutex);
    s.lru.clear();
    s.index.clear();
  }
}

ResultCache::Payload ResultCache::find_bytes(const util::Digest128& key, std::size_t elem_size,
                                             CacheProbe* probe) {
  if (!enabled()) {
    if (probe) probe->source = "off";
    return nullptr;
  }
  const auto t0 = Clock::now();
  CacheProbe local;
  CacheProbe& p = probe ? *probe : local;

  Payload result = impl_->memory_find(key, elem_size);
  if (result) {
    impl_->memory_hits.add(1);
    p.hit = true;
    p.source = "memory";
    p.bytes_loaded = result->size();
  } else {
    const CacheConfig cfg = impl_->snapshot();
    ReadOutcome outcome = ReadOutcome::kAbsent;
    Payload payload;
    if (cfg.disk) outcome = impl_->disk_read(cfg, key, elem_size, payload);
    switch (outcome) {
      case ReadOutcome::kOk:
        impl_->disk_hits.add(1);
        p.hit = true;
        p.source = "disk";
        p.bytes_loaded = payload->size();
        impl_->memory_store(key, elem_size, payload);  // promote
        result = std::move(payload);
        break;
      case ReadOutcome::kAbsent:
        p.source = "cold";
        break;
      case ReadOutcome::kCorrupt:
        impl_->corrupt_records.add(1);
        p.source = "corrupt";
        break;
      case ReadOutcome::kVersionSkew:
        impl_->version_skew.add(1);
        p.source = "version-skew";
        break;
      case ReadOutcome::kTypeMismatch:
        impl_->type_mismatch.add(1);
        p.source = "type-mismatch";
        break;
      case ReadOutcome::kIoError:
        impl_->io_errors.add(1);
        p.source = "io-error";
        break;
    }
    if (!p.hit) impl_->misses.add(1);
  }

  p.lookup_seconds = seconds_since(t0);
  impl_->lookup_seconds.add(p.lookup_seconds);
  if (p.hit)
    impl_->bytes_loaded.add(p.bytes_loaded);
  return result;
}

bool ResultCache::store_bytes(const util::Digest128& key, std::size_t elem_size,
                              Payload payload, CacheProbe* probe) {
  if (!enabled()) return false;
  const auto t0 = Clock::now();
  const CacheConfig cfg = impl_->snapshot();
  const std::size_t payload_bytes = payload->size();
  // Memory first, so an identical request right after this one hits.
  impl_->memory_store(key, elem_size, payload);
  bool disk_ok = true;
  if (cfg.disk && !impl_->enqueue(cfg, key, elem_size, payload)) {
    impl_->write_behind_sync.add(1);
    disk_ok = impl_->publish(cfg, key, elem_size, *payload);
    if (disk_ok && cfg.max_disk_bytes > 0) impl_->prune_disk(cfg);
  }
  impl_->stores.add(1);
  const double dt = seconds_since(t0);
  impl_->store_seconds.add(dt);
  if (probe) {
    probe->store_seconds = dt;
    probe->bytes_stored = disk_ok && cfg.disk ? payload_bytes : 0;
  }
  return true;
}

void configure_result_cache(const CacheConfig& config) {
  ResultCache::instance().configure(config);
}

CacheConfig result_cache_config() { return ResultCache::instance().config(); }

CacheStats result_cache_stats() { return ResultCache::instance().stats(); }

void reset_result_cache_stats() { ResultCache::instance().reset_stats(); }

std::string cache_totals_json() {
  const CacheStats c = result_cache_stats();
  std::ostringstream os;
  os << "{\"cache_totals\":{\"memory_hits\":" << c.memory_hits
     << ",\"disk_hits\":" << c.disk_hits << ",\"misses\":" << c.misses
     << ",\"stores\":" << c.stores << ",\"bytes_loaded\":" << c.bytes_loaded
     << ",\"bytes_stored\":" << c.bytes_stored << ",\"faults\":" << c.faults()
     << ",\"lookup_s\":" << c.lookup_seconds << ",\"store_s\":" << c.store_seconds
     << "}}";
  return os.str();
}

}  // namespace opm::core
