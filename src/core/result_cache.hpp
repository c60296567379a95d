#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <type_traits>
#include <vector>

#include "util/fingerprint.hpp"

/// Content-addressed memoization of sweep results.
///
/// Every sweep in core/experiment.hpp is a pure function of (platform
/// spec, kernel id, canonical request struct, suite descriptors, model
/// version). ResultCache exploits that: results are stored under a 128-bit
/// fingerprint of exactly those inputs, in two tiers —
///
///   * a thread-safe, sharded, in-memory LRU (fast tier), and
///   * an optional on-disk tier of versioned binary records under the
///     configured cache directory (default ".opm-cache/", overridable via
///     OPM_CACHE_DIR / --cache-dir), which makes warm starts survive
///     process restarts. It is write-behind: store() fills the memory
///     tier and queues the record for one writer thread, so the caller
///     does not wait for the file create (see docs/MODEL.md §7).
///
/// This mirrors how the OPM literature treats a fast memory tier as a
/// transparent cache over slow recomputation: identical query, served from
/// the near tier, bit-identical result. Determinism is the contract — a
/// hit returns exactly the bytes a cold compute would produce.
///
/// Robustness is equally part of the contract: a missing, truncated,
/// corrupted, version-skewed, or permission-denied cache file must never
/// change results or crash. Every such fault degrades to a miss (the
/// caller recomputes) and is counted, by reason, in CacheStats.
///
/// The cache ships disabled; bench::init() / core::apply_sweep_config()
/// enable it for the bench harnesses. Tier-1 tests run with it off so they
/// keep exercising the compute path (and the sanitizer CI pins that down).
namespace opm::core {

/// Bumping this invalidates every existing record (it is folded into both
/// the key derivation and the on-disk header). Bump whenever the meaning
/// of cached payloads changes: model recalibrations that are NOT visible
/// in the hashed inputs, layout changes of the result structs, etc.
inline constexpr std::uint32_t kResultCacheVersion = 1;

/// Bound on the bytes queued for the disk tier's writer thread. Each
/// queued record is charged its payload size, but at least
/// kWriteBehindMinCharge, so at most 64 records wait and a flush takes
/// about 64 file creates. A store that would pass the bound writes its
/// record on the caller's thread instead; no record is ever dropped.
inline constexpr std::size_t kWriteBehindQueueBytes = std::size_t{4} << 20;
inline constexpr std::size_t kWriteBehindMinCharge = std::size_t{64} << 10;

struct CacheConfig {
  bool enabled = false;        ///< master switch; disabled = every call no-ops
  bool disk = true;            ///< persist records under `dir` (when enabled)
  std::string dir = ".opm-cache";
  std::size_t max_entries = 4096;  ///< in-memory LRU capacity (entries, all shards)
  /// Byte budget for the disk tier (payload + header bytes of .opmrec
  /// records; 0 = unlimited). When a store pushes the directory over
  /// budget, the oldest records by mtime are deleted until it fits —
  /// LRU-by-mtime, because disk hits touch their record's mtime. Several
  /// processes sharing one cache dir (the sharded serve tier's L2) each
  /// prune safely: deleting a record another process is reading degrades
  /// to a miss there, never to corruption.
  std::size_t max_disk_bytes = 0;
};

/// Process-wide counters, aggregated across every lookup/store.
struct CacheStats {
  std::size_t memory_hits = 0;
  std::size_t disk_hits = 0;       ///< served from disk (and promoted to memory)
  std::size_t misses = 0;          ///< absent in both tiers
  std::size_t stores = 0;          ///< store() calls that cached a new payload
  std::size_t bytes_loaded = 0;    ///< payload bytes served (both tiers)
  std::size_t bytes_stored = 0;    ///< payload bytes written to the disk tier (once on disk)
  std::size_t corrupt_records = 0; ///< bad magic/length/key/checksum → recompute
  std::size_t version_skew = 0;    ///< record from another cache version → recompute
  std::size_t type_mismatch = 0;   ///< element size differs from the request → recompute
  std::size_t io_errors = 0;       ///< unreadable/unwritable files or dirs → recompute
  // Evictions, by reason (also in the metrics registry as cache.evicted_*):
  std::size_t evicted_memory = 0;  ///< memory LRU entries popped at capacity
  std::size_t evicted_budget = 0;  ///< disk records deleted by max_disk_bytes pruning
  std::size_t evicted_orphan = 0;  ///< stale .tmp- files from crashed writers
  std::size_t evicted_bytes = 0;   ///< disk bytes reclaimed by pruning (both reasons)
  // The write-behind disk tier:
  std::size_t write_behind_queued = 0;  ///< records handed to the writer thread
  std::size_t write_behind_sync = 0;    ///< records written by the caller: queue full
  double write_behind_seconds = 0.0;    ///< writer thread time spent publishing and pruning
  double lookup_seconds = 0.0;
  double store_seconds = 0.0;           ///< the callers' part of store() only

  std::size_t hits() const { return memory_hits + disk_hits; }
  std::size_t faults() const {
    return corrupt_records + version_skew + type_mismatch + io_errors;
  }
};

/// Outcome of one consultation (lookup and, on miss, the follow-up store).
/// The sweep layer folds this into SweepStats telemetry.
struct CacheProbe {
  bool hit = false;
  /// "memory", "disk", or the miss/fault reason ("cold", "corrupt",
  /// "version-skew", "type-mismatch", "io-error").
  const char* source = "cold";
  std::size_t bytes_loaded = 0;
  /// Payload bytes bound for the disk tier: queued for the writer, or
  /// written by the caller. 0 when the disk tier is off or the write failed.
  std::size_t bytes_stored = 0;
  double lookup_seconds = 0.0;
  double store_seconds = 0.0;  ///< the caller's part: memory insert + queueing
};

class ResultCache {
 public:
  /// The process-wide instance (thread-safe lazy construction; the shard
  /// table is built exactly once, before any lookup can race on it).
  static ResultCache& instance();

  /// Replaces the configuration, flushes the disk tier and drops the
  /// in-memory tier (disk records are left alone: they are re-validated on
  /// next read). Not a hot-path call; safe to invoke concurrently with
  /// lookups.
  void configure(const CacheConfig& config);
  CacheConfig config() const;
  bool enabled() const;

  CacheStats stats() const;
  void reset_stats();

  /// Flushes the disk tier, then drops every in-memory entry. Used by the
  /// cold/warm benches to measure the disk tier in isolation.
  void clear_memory();

  /// Returns once every record stored before the call is on disk (or its
  /// write failed and was counted). configure(), clear_memory(), the
  /// destructor and the serve drain call it.
  void flush();

  /// Looks `key` up in memory, then disk. Returns the payload on a hit
  /// (bit-identical to what was stored) or nullopt on any miss or fault.
  template <typename T>
  std::optional<std::vector<T>> find(const util::Digest128& key, CacheProbe* probe = nullptr) {
    static_assert(std::is_trivially_copyable_v<T>,
                  "cache payloads are raw element bytes");
    const Payload bytes = find_bytes(key, sizeof(T), probe);
    if (!bytes) return std::nullopt;
    std::vector<T> out(bytes->size() / sizeof(T));
    if (!out.empty()) std::memcpy(out.data(), bytes->data(), bytes->size());
    return out;
  }

  /// Stores `value` in memory at once and queues it for the disk tier.
  /// Disk failures (unwritable directory, full disk, ...) are absorbed:
  /// the in-memory entry still lands and the fault is counted. Returns
  /// false only when the cache is disabled.
  template <typename T>
  bool store(const util::Digest128& key, const std::vector<T>& value,
             CacheProbe* probe = nullptr) {
    static_assert(std::is_trivially_copyable_v<T>,
                  "cache payloads are raw element bytes");
    if (!enabled()) return false;
    const auto* first = reinterpret_cast<const std::byte*>(value.data());
    return store_bytes(key, sizeof(T),
                       std::make_shared<const std::vector<std::byte>>(
                           first, first + value.size() * sizeof(T)),
                       probe);
  }

  ResultCache(const ResultCache&) = delete;
  ResultCache& operator=(const ResultCache&) = delete;

 private:
  /// One payload buffer, shared by the memory tier and the writer queue.
  using Payload = std::shared_ptr<const std::vector<std::byte>>;

  ResultCache();
  ~ResultCache();

  Payload find_bytes(const util::Digest128& key, std::size_t elem_size, CacheProbe* probe);
  bool store_bytes(const util::Digest128& key, std::size_t elem_size, Payload payload,
                   CacheProbe* probe);

  struct Impl;
  Impl* impl_;
};

/// Convenience accessors mirroring ResultCache::instance() for call sites
/// that only flip configuration (bench::init, tests).
void configure_result_cache(const CacheConfig& config);
CacheConfig result_cache_config();
CacheStats result_cache_stats();
void reset_result_cache_stats();

/// The process-wide cache totals as one JSON line payload:
/// {"cache_totals":{"memory_hits":N,...}}. The counters live in the
/// util::MetricsRegistry (names "cache.*"), so the bench harness stats
/// block and the opm_serve "stats" request render the same numbers through
/// this one code path.
std::string cache_totals_json();

}  // namespace opm::core
