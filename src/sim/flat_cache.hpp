#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "sim/cache.hpp"
#include "sim/simd_probe.hpp"

/// Flat, preallocated, structure-of-arrays cache core — the simulation
/// hot path.
///
/// Functionally identical to SetAssociativeCache (the retained reference
/// model in sim/cache.hpp) but engineered for lines/sec: every figure,
/// sweep, cache fill, and opm_serve response bottoms out in millions of
/// calls to access(), and the reference pays an unordered_map hash probe
/// plus a lazily grown vector<Way> on each of them. Here the per-set way
/// state lives in contiguous arrays indexed arithmetically:
///
///   - {tag, allocated, dirty, valid} packed into ONE 64-bit word per way,
///     so a lookup is a load + compare (the dirty bit is masked off);
///   - a per-set MRU way hint probed before the way scan — repeated
///     touches to the same line (the dominant pattern: kernels issue 8-byte
///     accesses, lines are 64 bytes) hit in a handful of instructions;
///   - replacement stamps (LRU recency / FIFO insertion order) in a
///     parallel array, allocated only for policies and associativities
///     that need them;
///   - a two-level sparse set-page table: sets are grouped into pages of
///     4096 and pages materialize on first touch, so the 16 GB MCDRAM
///     direct-mapped tier (256 M sets) only costs memory for the pages a
///     workload actually maps to. Small caches preallocate every page in
///     the constructor and never branch to the allocator again.
///
/// Equivalence contract (enforced by tests/test_sim_differential.cpp):
/// for any op sequence, hits/misses/evictions/dirty_evictions, every
/// CacheResult, contains(), resident_lines(), and the random-policy victim
/// sequence are bit-identical to SetAssociativeCache. Internal LRU/FIFO
/// stamps may hold different absolute clock values than the reference, but
/// their *ordering* — the only thing victim selection reads — is the same.
///
/// The way scans themselves are vectorized: with one packed word per way
/// and a set's words contiguous, the tag compare across 8–16 ways is a
/// single SIMD compare (sim/simd_probe.hpp — AVX2/SSE2/scalar tiers; the
/// scalar path is the bit-identity oracle and simd::self_check() verifies
/// the selected backend against it at runtime in CI).
///
/// Layout constraint: the packed word keeps the tag in bits [3, 64), so
/// line_size * sets must be >= 8 bytes (true for any realistic geometry;
/// the constructor rejects the rest).
namespace opm::sim {

class FlatCache {
 public:
  /// `slices` > 1 marks this cache as one of that many equal set slices
  /// of a larger cache (sim/memory_system.hpp's sliced replay): the
  /// choice between preallocating every page and paging on first touch
  /// then follows the whole cache's footprint, so K slices never commit
  /// memory that one lazily paged cache would not have touched.
  explicit FlatCache(CacheGeometry geometry, std::uint32_t slices = 1);

  // The lookup entries below (access/try_hit/contains/install/invalidate)
  // are defined inline at the bottom of this header: the tier walk in
  // memory_system.cpp is explicitly instantiated against FlatCache, and
  // the lines/sec of the whole simulator hinges on these scans inlining
  // into it. Only the miss/fill machinery lives out of line.

  /// Accesses one line. `line_addr` must be line-aligned (use align()).
  /// On a miss the line is installed; on a write the line is marked dirty.
  CacheResult access(std::uint64_t line_addr, bool is_write);

  /// Hot-path probe: behaves exactly like the hit half of access() —
  /// counts the hit, refreshes recency and the MRU hint, marks dirty on
  /// writes — but on a miss changes NOTHING (no miss count, no fill).
  /// Callers follow up a false return with access() to take the miss.
  bool try_hit(std::uint64_t line_addr, bool is_write);

  /// Looks a line up without installing or touching replacement state.
  bool contains(std::uint64_t line_addr) const;

  /// Installs a line without counting it as a demand access (victim-cache
  /// fills and prefetches). Returns eviction info exactly like access().
  CacheResult install(std::uint64_t line_addr, bool dirty);

  /// Removes a line if present; `was_dirty` reports its state.
  bool invalidate(std::uint64_t line_addr, bool& was_dirty);

  /// Demand miss taken AFTER a failed try_hit(): counts the miss and fills
  /// without re-scanning the set. Valid only while the line is known
  /// absent, i.e. nothing touched this cache since the probe; equivalent
  /// to access() under that precondition.
  CacheResult miss_after_probe(std::uint64_t line_addr, bool is_write) {
    ++clock_;
    return demand_miss(set_index(line_addr), tag_of(line_addr), is_write);
  }

  /// install() for a line known ABSENT (e.g. a contains() sweep across the
  /// hierarchy just said so): skips the hit scan and fills directly.
  /// Equivalent to install() under that precondition.
  CacheResult install_absent(std::uint64_t line_addr, bool dirty) {
    ++clock_;
    return install_fill(set_index(line_addr), tag_of(line_addr), dirty);
  }

  /// Rounds an address down to its line boundary.
  std::uint64_t align(std::uint64_t addr) const { return addr & ~line_mask_; }

  const CacheGeometry& geometry() const { return geometry_; }
  const CacheStats& stats() const { return stats_; }
  /// Clears contents and counters (keeps pages allocated: a reset cache
  /// re-zeroes its touched pages instead of round-tripping the allocator).
  void reset();
  /// Number of lines currently resident.
  std::size_t resident_lines() const;

 private:
  // Packed way word: tag << 3 | allocated << 2 | dirty << 1 | valid.
  // "allocated" mirrors the reference's lazily grown ways vector: a way
  // that has ever held a line stays allocated after invalidate(), and
  // allocated ways always form a prefix of the set.
  static constexpr std::uint64_t kValid = 1ull;
  static constexpr std::uint64_t kDirty = 2ull;
  static constexpr std::uint64_t kAllocated = 4ull;
  static constexpr std::uint32_t kTagShift = 3;
  static_assert(simd::kProbeDirtyBit == kDirty && simd::kProbeAllocatedBit == kAllocated,
                "simd_probe.hpp mirrors the packed way-word layout");

  static constexpr std::uint32_t kPageShift = 12;  ///< 4096 sets per page
  static constexpr std::uint64_t kPageMask = (1ull << kPageShift) - 1;

  struct Page {
    std::unique_ptr<std::uint64_t[]> meta;   ///< sets_in_page * assoc packed words
    std::unique_ptr<std::uint64_t[]> stamp;  ///< LRU recency / FIFO insertion order
    std::unique_ptr<std::uint8_t[]> mru;     ///< last way hit/filled per set
  };

  std::uint64_t set_index(std::uint64_t line_addr) const {
    const std::uint64_t line = line_addr >> line_shift_;
    return sets_pow2_ ? (line & sets_mask_) : (line % num_sets_);
  }
  std::uint64_t tag_of(std::uint64_t line_addr) const {
    const std::uint64_t line = line_addr >> line_shift_;
    return sets_pow2_ ? (line >> sets_shift_) : (line / num_sets_);
  }
  std::uint64_t sets_in_page(std::uint64_t page) const;
  Page& ensure_page(std::uint64_t page) {
    Page& pg = pages_[page];
    if (pg.meta == nullptr) allocate_page(page);
    return pg;
  }
  void allocate_page(std::uint64_t page);

  /// Miss path of access(): counts the miss, honors write-around, fills.
  /// The caller has already bumped clock_. Inline below — on streaming
  /// workloads misses are the common case, not the cold one.
  CacheResult demand_miss(std::uint64_t set, std::uint64_t tag, bool is_write);
  /// Miss path of install(): fills without stats.
  CacheResult install_fill(std::uint64_t set, std::uint64_t tag, bool dirty);
  /// Fills a line into its set (miss path of access/install): appends into
  /// the first unallocated way or displaces the policy's victim.
  CacheResult fill(Page& page, std::uint64_t local_set, std::uint64_t set,
                   std::uint64_t tag, bool dirty);
  /// Victim way index of a full set (all `assoc_` ways allocated). `stamp`
  /// points at the set's stamps, or nullptr when the policy ignores them.
  std::uint32_t choose_victim(const std::uint64_t* stamp);

  CacheGeometry geometry_;
  std::uint64_t line_mask_ = 0;
  std::uint32_t line_shift_ = 0;
  std::uint64_t num_sets_ = 0;
  bool sets_pow2_ = false;
  std::uint32_t sets_shift_ = 0;
  std::uint64_t sets_mask_ = 0;
  std::uint32_t assoc_ = 1;
  bool stamp_on_hit_ = false;  ///< LRU refreshes recency on hits
  bool use_stamp_ = false;     ///< LRU/FIFO with > 1 way track stamps
  bool use_mru_ = false;       ///< MRU hint pays off only with > 1 way
  std::uint64_t clock_ = 0;
  std::uint64_t rng_state_ = 0x243f6a8885a308d3ull;  ///< random-policy state
  std::vector<Page> pages_;
  CacheStats stats_;
};

// try_hit is THE hot instruction sequence of the simulator — every L1
// probe of every demand line lands here first — so it is defined inline
// for cross-module inlining into MemorySystem's batched walk.
inline bool FlatCache::try_hit(std::uint64_t line_addr, bool is_write) {
  const std::uint64_t set = set_index(line_addr);
  Page& page = pages_[set >> kPageShift];
  if (page.meta == nullptr) return false;  // untouched page: cold miss
  const std::uint64_t local_set = set & kPageMask;
  std::uint64_t* meta = page.meta.get() + local_set * assoc_;
  const std::uint64_t want = (tag_of(line_addr) << kTagShift) | kAllocated | kValid;

  std::uint32_t way = 0;
  if (use_mru_) {
    way = page.mru[local_set];
    if ((meta[way] & ~kDirty) != want) {
      way = simd::find_way(meta, assoc_, want);  // whole-set SIMD compare
      if (way == assoc_) return false;
      page.mru[local_set] = static_cast<std::uint8_t>(way);
    }
  } else if ((meta[0] & ~kDirty) != want) {
    if (assoc_ == 1) return false;
    way = simd::find_way(meta, assoc_, want);
    if (way == assoc_) return false;
  }

  ++clock_;
  if (is_write) meta[way] |= kDirty;
  if (stamp_on_hit_) page.stamp[local_set * assoc_ + way] = clock_;
  ++stats_.hits;
  return true;
}

// access/install/contains/invalidate keep their hit-path scans inline for
// the same reason as try_hit: the tier walk calls them once per tier per
// missing line, and a cross-module call per probe costs more than the
// probe. Their miss paths (fill, victim choice, page allocation) are cold
// by comparison and stay in flat_cache.cpp.
inline CacheResult FlatCache::access(std::uint64_t line_addr, bool is_write) {
  ++clock_;
  const std::uint64_t set = set_index(line_addr);
  const std::uint64_t tag = tag_of(line_addr);
  Page& page = pages_[set >> kPageShift];
  if (page.meta != nullptr) {
    const std::uint64_t local_set = set & kPageMask;
    std::uint64_t* meta = page.meta.get() + local_set * assoc_;
    const std::uint64_t want = (tag << kTagShift) | kAllocated | kValid;
    const std::uint32_t way = simd::find_way(meta, assoc_, want);
    if (way != assoc_) {
      if (is_write) meta[way] |= kDirty;
      if (stamp_on_hit_) page.stamp[local_set * assoc_ + way] = clock_;
      if (use_mru_) page.mru[local_set] = static_cast<std::uint8_t>(way);
      ++stats_.hits;
      return {.hit = true};
    }
  }
  return demand_miss(set, tag, is_write);
}

inline CacheResult FlatCache::install(std::uint64_t line_addr, bool dirty) {
  ++clock_;
  const std::uint64_t set = set_index(line_addr);
  const std::uint64_t tag = tag_of(line_addr);
  Page& page = pages_[set >> kPageShift];
  if (page.meta != nullptr) {
    const std::uint64_t local_set = set & kPageMask;
    std::uint64_t* meta = page.meta.get() + local_set * assoc_;
    const std::uint64_t want = (tag << kTagShift) | kAllocated | kValid;
    const std::uint32_t way = simd::find_way(meta, assoc_, want);
    if (way != assoc_) {
      if (dirty) meta[way] |= kDirty;
      if (stamp_on_hit_) page.stamp[local_set * assoc_ + way] = clock_;
      if (use_mru_) page.mru[local_set] = static_cast<std::uint8_t>(way);
      return {.hit = true};
    }
  }
  return install_fill(set, tag, dirty);
}

inline bool FlatCache::contains(std::uint64_t line_addr) const {
  const std::uint64_t set = set_index(line_addr);
  const Page& page = pages_[set >> kPageShift];
  if (page.meta == nullptr) return false;
  const std::uint64_t* meta = page.meta.get() + (set & kPageMask) * assoc_;
  const std::uint64_t want = (tag_of(line_addr) << kTagShift) | kAllocated | kValid;
  // The prefetcher re-probes its recent targets every demand line; the
  // MRU hint (the way last filled/hit in this set) answers those in one
  // load without disturbing replacement state.
  if (use_mru_ && (meta[page.mru[set & kPageMask]] & ~kDirty) == want) return true;
  return simd::find_way(meta, assoc_, want) != assoc_;
}

inline bool FlatCache::invalidate(std::uint64_t line_addr, bool& was_dirty) {
  const std::uint64_t set = set_index(line_addr);
  Page& page = pages_[set >> kPageShift];
  if (page.meta == nullptr) return false;
  std::uint64_t* meta = page.meta.get() + (set & kPageMask) * assoc_;
  const std::uint64_t want = (tag_of(line_addr) << kTagShift) | kAllocated | kValid;
  const std::uint32_t way = simd::find_way(meta, assoc_, want);
  if (way == assoc_) return false;
  const std::uint64_t m = meta[way];
  was_dirty = (m & kDirty) != 0;
  // The way stays allocated with its stale tag — exactly the reference's
  // invalidate, which keeps the Way slot in the vector; a later full-set
  // eviction can still pick (and count) it.
  meta[way] = m & ~(kValid | kDirty);
  return true;
}

inline CacheResult FlatCache::demand_miss(std::uint64_t set, std::uint64_t tag,
                                          bool is_write) {
  ++stats_.misses;
  if (is_write && !geometry_.write_allocate) return {};  // write-around: no fill
  Page& page = ensure_page(set >> kPageShift);
  return fill(page, set & kPageMask, set, tag, is_write);
}

inline CacheResult FlatCache::install_fill(std::uint64_t set, std::uint64_t tag,
                                           bool dirty) {
  Page& page = ensure_page(set >> kPageShift);
  return fill(page, set & kPageMask, set, tag, dirty);
}

inline CacheResult FlatCache::fill(Page& page, std::uint64_t local_set,
                                   std::uint64_t set, std::uint64_t tag, bool dirty) {
  std::uint64_t* meta = page.meta.get() + local_set * assoc_;
  std::uint64_t* stamp = use_stamp_ ? page.stamp.get() + local_set * assoc_ : nullptr;

  // Allocated ways form a prefix of the set, so one load of the LAST way
  // distinguishes the steady state (set full, go straight to the victim
  // scan) from the fill-up phase (scan for the first free way).
  std::uint32_t way = assoc_;
  if ((meta[assoc_ - 1] & kAllocated) == 0) {
    for (std::uint32_t w = 0; w < assoc_; ++w) {
      if ((meta[w] & kAllocated) == 0) {
        way = w;
        break;
      }
    }
  }

  CacheResult result;
  if (way == assoc_) {  // set full: displace the policy's victim
    way = choose_victim(stamp);
    const std::uint64_t m = meta[way];
    result.evicted = true;
    result.evicted_dirty = (m & kDirty) != 0;
    const std::uint64_t victim_tag = m >> kTagShift;
    result.evicted_addr = sets_pow2_
        ? ((victim_tag << sets_shift_) | set) << line_shift_
        : (victim_tag * num_sets_ + set) * geometry_.line_size;
    ++stats_.evictions;
    if (result.evicted_dirty) ++stats_.dirty_evictions;
  }
  meta[way] = (tag << kTagShift) | kAllocated | kValid | (dirty ? kDirty : 0);
  if (stamp != nullptr) stamp[way] = clock_;
  if (use_mru_) page.mru[local_set] = static_cast<std::uint8_t>(way);
  return result;
}

inline std::uint32_t FlatCache::choose_victim(const std::uint64_t* stamp) {
  switch (geometry_.policy) {
    case ReplacementPolicy::kLru:
    case ReplacementPolicy::kFifo: {
      // LRU stamps are refreshed on hits, FIFO stamps only at fill, so one
      // first-minimum scan serves both (first minimum = the reference's
      // strict-< scan over ways in insertion order).
      if (stamp == nullptr) return 0;  // assoc == 1: the only way
      std::uint32_t victim = 0;
      for (std::uint32_t w = 1; w < assoc_; ++w)
        if (stamp[w] < stamp[victim]) victim = w;
      return victim;
    }
    case ReplacementPolicy::kRandom: {
      // xorshift64*: identical state evolution to the reference model —
      // advanced exactly once per full-set victim choice.
      rng_state_ ^= rng_state_ >> 12;
      rng_state_ ^= rng_state_ << 25;
      rng_state_ ^= rng_state_ >> 27;
      const std::uint64_t r = rng_state_ * 0x2545f4914f6cdd1dull;
      return static_cast<std::uint32_t>(r % assoc_);
    }
  }
  return 0;
}

}  // namespace opm::sim
