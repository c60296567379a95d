#pragma once

#include <concepts>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "sim/address_map.hpp"
#include "sim/cache.hpp"
#include "sim/flat_cache.hpp"
#include "sim/platform.hpp"
#include "sim/prefetcher.hpp"
#include "util/thread_pool.hpp"

/// Trace-driven simulation of a full platform memory hierarchy.
///
/// A memory system is built from a Platform and consumes the raw memory
/// access stream of an instrumented kernel. It walks each access through
/// the tier stack — standard caches, the eDRAM victim L4, the MCDRAM
/// memory-side cache — and accounts bytes served by every tier and device.
/// This exact simulation validates the analytical TrafficModel used for
/// large sweeps (see tests/test_model_validation.cpp).
///
/// The walk is a class template over the per-tier cache type:
///
///   MemorySystem          = MemorySystemT<FlatCache>            (hot path)
///   ReferenceMemorySystem = MemorySystemT<SetAssociativeCache>  (reference)
///
/// Both instantiations are behavior-identical — the differential suite in
/// tests/test_sim_differential.cpp drives them with the same traces and
/// requires equal stats and reports. The flat instantiation additionally
/// takes fast paths the reference never compiles (`if constexpr` on
/// FastPathCache): an inline L1 probe in access_range() that skips the
/// full tier walk on an L1 hit, a miss continuation that enters the walk
/// without re-scanning the L1 set, and prefetch fills that skip the hit
/// scan of a line already proved absent. Sanitizer CI exercises the
/// reference instantiation so TSan/ASan keep seeing the map-based model.
///
/// Set-sliced replay (flat instantiation only; docs/MODEL.md §11). Every
/// tier picks its set from the low bits of the line index, so when K
/// divides every tier's set count, the lines with index ≡ s (mod K) only
/// ever meet each other: same sets, same victims, same fills. The system
/// then runs as a sequential *front* plus K independent *slices*:
///
///   - the front owns the only state that crosses sets — the stride
///     prefetcher's stream table (it trains on the demand line sequence
///     alone, never on hits or misses) and the non-temporal
///     write-combining line — and turns each demand line into ops: the
///     prefetch fills it triggers, then the demand probe itself;
///   - each op goes to the slice of its line, renumbered l -> l >> log2 K
///     against a hierarchy of capacity/K (the slice's sets map 1:1 onto
///     the original sets of its residue, with the same tags);
///   - slices replay their bounded op buffers on util's shared pool,
///     double-buffered per slice: while one of a slice's buffers replays,
///     the front fills the other (the slice still sees its ops in trace
///     order: a buffer is handed out only once the slice's previous one
///     has finished);
///   - report() sums the slices' counters in slice order.
///
/// The slices' counters sum to exactly the sequential walk's, at any
/// worker count. K comes from the platform alone (set_slices()); with no
/// pool workers, or K = 1, the system is one full-geometry hierarchy
/// walked directly on the caller's thread.
namespace opm::sim {

/// Byte accounting for one tier or device after a simulation run.
struct TierTraffic {
  std::string name;
  std::uint64_t hits = 0;        ///< line requests satisfied here
  std::uint64_t bytes_served = 0;  ///< hits * line_size
  std::uint64_t writebacks = 0;  ///< dirty lines pushed down from here
  std::uint64_t prefetches = 0;  ///< prefetch fills served by this device

  bool operator==(const TierTraffic&) const = default;
};

/// Full traffic picture of a simulated execution.
struct TrafficReport {
  std::vector<TierTraffic> tiers;    ///< one per cache tier, L1 first
  std::vector<TierTraffic> devices;  ///< one per backing device
  std::uint64_t total_accesses = 0;  ///< line-granular demand accesses
  std::uint64_t total_bytes = 0;     ///< demand bytes requested by the core

  /// Bytes that had to come from any backing device (the "DRAM traffic").
  std::uint64_t device_bytes() const;
  /// True when a tier or device with this exact name exists.
  bool has(const std::string& name) const;
  /// Bytes served by the named tier or device. Throws std::out_of_range
  /// for unknown names — a typo in figure code must not silently zero a
  /// series; probe with has() when absence is expected.
  std::uint64_t bytes_from(const std::string& name) const;

  bool operator==(const TrafficReport&) const = default;
};

/// Cache types eligible for the batched fast paths: a try_hit() probe
/// that counts/refreshes on a hit but leaves the cache untouched on a
/// miss, the matching miss_after_probe() continuation that takes the miss
/// without re-scanning the set try_hit just proved empty, and an
/// install_absent() that fills a line a contains() sweep proved absent.
template <class C>
concept FastPathCache = requires(C c, std::uint64_t addr, bool is_write) {
  { c.try_hit(addr, is_write) } -> std::same_as<bool>;
  { c.miss_after_probe(addr, is_write) } -> std::same_as<CacheResult>;
  { c.install_absent(addr, is_write) } -> std::same_as<CacheResult>;
};

/// Set slices an exact replay of `platform` splits into: the largest
/// power of two <= 16 that divides every tier's set count. 1
/// when a tier uses random replacement (its victim RNG advances across
/// sets), when a geometry is one the cache constructors reject, or when
/// the line size is below 8 bytes (a one-set slice must still meet
/// FlatCache's line_size * sets >= 8).
std::uint32_t set_slices(const Platform& platform);

/// One hierarchy walk: the cache stack of one set slice with its own
/// counters — or, with one slice, the whole hierarchy. Line addresses in
/// and out are slice-local (line index >> log2 slices); they are mapped
/// back to their original addresses only where an address is routed to a
/// device, so flat and hybrid KNL routing stays exact.
template <class CacheT>
class HierarchyT {
 public:
  /// `slices` must divide every tier's set count (set_slices()); this is
  /// the slice of lines whose index ≡ `residue` (mod slices).
  HierarchyT(const Platform& platform, std::uint32_t slices, std::uint32_t residue);

  /// One demand line: the tier walk, with a FastPathCache's inline L1
  /// probe and probe-free miss continuation.
  void demand(std::uint64_t line_addr, bool is_write) {
    if constexpr (FastPathCache<CacheT>) {
      if (fast_path_ok_) {
        if (caches_[0].try_hit(line_addr, is_write))
          ++tier_hits_[0];
        else
          miss_walk(line_addr, is_write);
        return;
      }
    }
    walk_from(0, line_addr, is_write);
  }
  /// Installs a prefetched line into the standard tiers if absent.
  void prefetch_line(std::uint64_t line_addr);
  /// A non-temporal line write that left the write-combining buffer:
  /// drops every cached copy and writes the line to its device.
  void store_nt_line(std::uint64_t line_addr);

  /// Op encoding of the sliced replay's buffers: the slice-local line
  /// index shifted left by 2, kind in the low bits.
  enum Op : std::uint64_t { kLoadOp = 0, kStoreOp = 1, kPrefetchOp = 2, kNtOp = 3 };
  /// Replays `n` encoded ops in order.
  void replay(const std::uint64_t* ops, std::size_t n);

  void reset();

 private:
  template <class>
  friend class MemorySystemT;  // sums the slices' counters


  /// Walks tiers [start, n) for one line; from tier 1 when the fast path
  /// has already settled tier 0.
  void walk_from(std::size_t start, std::uint64_t line_addr, bool is_write);
  /// Fast-path miss continuation: takes the tier-0 miss via
  /// miss_after_probe() (try_hit just proved the line absent — no second
  /// set scan) and walks the remaining tiers.
  void miss_walk(std::uint64_t line_addr, bool is_write)
    requires FastPathCache<CacheT>;
  /// Handles a line evicted from tier `from`: fills the victim tier below
  /// (clean or dirty), pushes dirty lines into the next lower tier, and
  /// ultimately accounts device writebacks.
  void evict_from(std::size_t from, std::uint64_t line_addr, bool dirty);
  /// Device backing the slice-local line address `line_addr`.
  std::size_t device_of(std::uint64_t line_addr) const {
    const std::uint64_t line = ((line_addr >> line_shift_) << slice_shift_) | residue_;
    return address_map_.device_for(line << line_shift_);
  }

  std::vector<CacheT> caches_;
  std::vector<std::uint64_t> tier_hits_;
  std::vector<std::uint64_t> tier_writebacks_;
  std::vector<std::uint64_t> device_lines_;
  std::vector<std::uint64_t> device_writeback_lines_;
  std::vector<std::uint64_t> device_prefetch_lines_;
  std::uint64_t prefetch_fills_ = 0;
  std::vector<TierKind> kinds_;
  AddressMap address_map_;
  std::uint32_t line_shift_ = 6;
  std::uint32_t slice_shift_ = 0;
  std::uint64_t residue_ = 0;
  /// Tier 0 is a standard cache (a victim front tier would need its
  /// probe-invalidate-promote dance before the inline L1 probe).
  bool fast_path_ok_ = false;
};

template <class CacheT>
class MemorySystemT {
 public:
  explicit MemorySystemT(const Platform& platform);
  ~MemorySystemT();  // flushes this system's line count to the metrics registry

  MemorySystemT(const MemorySystemT&) = delete;
  MemorySystemT& operator=(const MemorySystemT&) = delete;

  /// Simulates one demand access of `size` bytes starting at `addr`
  /// (split into line-granular requests). `is_write` marks stores.
  void access(std::uint64_t addr, std::uint32_t size, bool is_write) {
    access_range(addr, size, is_write);
  }

  /// Batched demand access: the hot entry. Set index, tag, and line split
  /// are computed once per line; with a FastPathCache an L1 hit is counted
  /// inline without entering the tier walk, and an L1 miss continues with
  /// miss_after_probe() instead of re-scanning the set. A prefetcher, when
  /// attached, observes each line before its L1 probe — the same ordering
  /// as the generic walk (prefetch fills can evict lines). Behavior is
  /// identical to calling access() — access() IS this. A sliced system
  /// buffers the line's ops instead (see the header comment).
  void access_range(std::uint64_t addr, std::uint64_t size, bool is_write) {
    if (size == 0) return;
    bytes_ += size;
    const std::uint64_t line_mask = static_cast<std::uint64_t>(line_size_ - 1);
    const std::uint64_t first = addr & ~line_mask;
    const std::uint64_t last = (addr + size - 1) & ~line_mask;
    if (slice_count_ > 1) {
      for (std::uint64_t line = first; line <= last; line += line_size_) {
        ++accesses_;
        if (prefetcher_ != nullptr) observe_and_enqueue(line);
        enqueue(line, is_write ? Hierarchy::kStoreOp : Hierarchy::kLoadOp);
      }
      return;
    }
    Hierarchy& h = slices_.front();
    if (first == last) {
      // Single-line access: the dominant shape — kernels issue
      // element-sized touches, lines are 64 bytes.
      ++accesses_;
      if (prefetcher_ != nullptr) observe_and_prefetch(h, first);
      h.demand(first, is_write);
      return;
    }
    for (std::uint64_t line = first; line <= last; line += line_size_) {
      ++accesses_;
      if (prefetcher_ != nullptr) observe_and_prefetch(h, line);
      h.demand(line, is_write);
    }
  }

  /// Convenience wrappers matching the kernel Recorder interface.
  void load(std::uint64_t addr, std::uint32_t size) { access_range(addr, size, false); }
  void store(std::uint64_t addr, std::uint32_t size) { access_range(addr, size, true); }

  /// Non-temporal (streaming) store: bypasses the cache stack and writes
  /// straight to the backing device, invalidating any cached copy for
  /// coherence. This is what `movnt` does — it removes the read-for-
  /// ownership from STREAM's write stream (32 -> 24 bytes per element).
  void store_nt(std::uint64_t addr, std::uint32_t size);

  /// Enables the hardware stride prefetcher (disabled by default so the
  /// exact-count unit tests stay deterministic line-for-line). Prefetched
  /// lines are installed into every standard cache tier and accounted as
  /// device prefetch traffic, not demand traffic.
  void enable_prefetcher(std::size_t streams = 16, std::size_t depth = 4);
  /// Prefetcher statistics (zeros when disabled).
  std::uint64_t prefetch_fills() const;

  /// Snapshot of traffic accounted so far.
  TrafficReport report() const;

  /// Clears all cache contents and counters.
  void reset();

  const Platform& platform() const { return platform_; }
  /// Raw per-tier cache counters (differential tests compare tier-by-tier).
  const CacheStats& tier_stats(std::size_t i) const;
  /// Line-granular demand accesses simulated so far.
  std::uint64_t lines_simulated() const { return accesses_; }
  /// Set slices this system replays (1 = direct walk on the caller's
  /// thread). Fixed at construction: set_slices() of the platform when
  /// the shared pool had workers, else 1.
  std::uint32_t slices() const { return slice_count_; }

 private:
  using Hierarchy = HierarchyT<CacheT>;
  /// Ops a slice buffers before handing them to the pool. With two
  /// buffers per slice, a system holds at most 2 * K * kSliceOps ops.
  static constexpr std::size_t kSliceOps = 4096;

  /// Direct path: trains the prefetcher on the demand line and installs
  /// the suggested targets, in the generic walk's exact order — prefetch
  /// fills (and their evictions) land before the L1 probe.
  void observe_and_prefetch(Hierarchy& h, std::uint64_t line_addr);
  /// Sliced path: the same training, issuing each target as a prefetch
  /// op to its own slice ahead of the demand op.
  void observe_and_enqueue(std::uint64_t line_addr);
  /// Appends one op to the buffer of its line's slice; hands a full
  /// buffer to the pool.
  void enqueue(std::uint64_t line_addr, std::uint64_t kind) {
    const std::uint64_t line = line_addr >> line_shift_;
    const auto s = static_cast<std::size_t>(line & (slice_count_ - 1));
    SliceBuffer& b = buffers_[s];
    b.filling[b.count] = ((line >> slice_shift_) << 2) | kind;
    if (++b.count == kSliceOps) hand_off(s);
  }
  /// Waits for slice `s`'s previous replay, then starts replaying its
  /// filling buffer on the pool and gives the front the other one.
  void hand_off(std::size_t s) const;
  /// Replays every accepted op and waits for it: the slices are then
  /// exactly the sequential walk's state.
  void flush() const;
  /// Publishes accesses_ deltas to the "sim.lines_simulated" counter.
  /// Watermark scheme: the hot path only bumps the local accesses_; the
  /// process-wide atomic is touched at report()/reset()/destruction.
  void publish_lines() const;

  Platform platform_;
  std::unique_ptr<StridePrefetcher> prefetcher_;
  /// Reused target buffer for StridePrefetcher::observe_into (depth slots).
  std::unique_ptr<std::uint64_t[]> prefetch_targets_;
  /// One-entry write-combining buffer for non-temporal stores.
  std::uint64_t nt_wc_line_ = ~0ull;
  std::uint64_t accesses_ = 0;
  std::uint64_t bytes_ = 0;
  mutable std::uint64_t published_lines_ = 0;
  std::uint32_t line_size_ = 64;
  std::uint32_t line_shift_ = 6;
  std::uint32_t slice_count_ = 1;
  std::uint32_t slice_shift_ = 0;
  /// The hierarchies: one per set slice. A flush (from the const
  /// report()/tier_stats() too) only catches the slices up with ops the
  /// front already accepted, so they are mutable.
  mutable std::vector<Hierarchy> slices_;
  /// Pool the slices replay on; held for this system's lifetime.
  std::shared_ptr<util::ThreadPool> pool_;
  /// A slice's two op buffers: the front appends to `filling` while the
  /// pool replays `replaying`. Each slice hands off on its own, so a slice
  /// waits only for its own previous replay — never for the others.
  struct SliceBuffer {
    std::uint64_t* filling = nullptr;
    std::uint64_t* replaying = nullptr;
    std::size_t count = 0;  ///< ops in `filling`
    /// The replay of `replaying` while it runs. Destroying it waits.
    std::unique_ptr<util::ThreadPool::Fork> replay;
  };
  mutable std::vector<CacheStats> summed_stats_;  ///< tier_stats() of a sliced system
  std::unique_ptr<std::uint64_t[]> ops_;  ///< storage of every slice's two buffers
  /// Declared last: destroying it waits for running replays before the
  /// op storage and the slices go away.
  mutable std::vector<SliceBuffer> buffers_;
};

// The two supported instantiations live in memory_system.cpp; the extern
// declarations keep every including TU from re-instantiating the walk
// (the inline access_range above still inlines at call sites).
extern template class HierarchyT<FlatCache>;
extern template class HierarchyT<SetAssociativeCache>;
extern template class MemorySystemT<FlatCache>;
extern template class MemorySystemT<SetAssociativeCache>;

/// The production simulator: flat SoA cache core, batched fast paths.
using MemorySystem = MemorySystemT<FlatCache>;
/// The retained reference model: map-based SetAssociativeCache, original
/// per-line walk. Differential tests and sanitizer CI run this one.
using ReferenceMemorySystem = MemorySystemT<SetAssociativeCache>;

}  // namespace opm::sim
