// Differential suite: FlatCache (the SoA hot path) vs SetAssociativeCache
// (the retained reference model), and the two MemorySystemT instantiations
// built on them. Seeded random traces — sequential, strided, pointer-
// chase, mixed R/W, NT stores — must produce IDENTICAL observable state on
// both cores: every CacheResult, CacheStats, contains(), resident_lines(),
// TrafficReport, and per-tier counter. This is the behavior-identity
// contract that lets the flat core replace the reference everywhere
// without moving a single golden CSV byte.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "sim/cache.hpp"
#include "sim/flat_cache.hpp"
#include "sim/memory_system.hpp"
#include "sim/platform.hpp"
#include "util/thread_pool.hpp"
#include "util/units.hpp"

namespace opm::sim {
namespace {

using util::GiB;
using util::KiB;
using util::MiB;

/// Deterministic xorshift64* stream for trace generation (seeded: the
/// project bans ambient randomness).
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed ? seed : 1) {}
  std::uint64_t next() {
    state_ ^= state_ >> 12;
    state_ ^= state_ << 25;
    state_ ^= state_ >> 27;
    return state_ * 0x2545f4914f6cdd1dull;
  }
  std::uint64_t below(std::uint64_t n) { return next() % n; }

 private:
  std::uint64_t state_;
};

// ---------------------------------------------------------------------------
// Cache level: op-for-op equivalence.

CacheGeometry geom(std::uint64_t capacity, std::uint32_t assoc, ReplacementPolicy policy,
                   bool write_allocate = true) {
  CacheGeometry g;
  g.name = "diff";
  g.capacity = capacity;
  g.line_size = 64;
  g.associativity = assoc;
  g.write_allocate = write_allocate;
  g.policy = policy;
  return g;
}

/// Drives both cores with an identical op mix over a small address range
/// (forcing heavy set conflict) and checks every observable after every
/// op. Ops: demand read/write, install, invalidate, contains, plus a
/// mid-sequence reset.
void drive_pair(const CacheGeometry& g, std::uint64_t seed, int ops = 20000) {
  SetAssociativeCache ref(g);
  FlatCache flat(g);
  Rng rng(seed);
  // 4x overcommit of the capacity so full sets and evictions dominate.
  const std::uint64_t lines = g.sets() * g.associativity * 4 + 3;
  for (int i = 0; i < ops; ++i) {
    const std::uint64_t addr = rng.below(lines) * g.line_size;
    switch (rng.below(16)) {
      case 0: {
        bool ref_dirty = false, flat_dirty = false;
        const bool ref_found = ref.invalidate(addr, ref_dirty);
        const bool flat_found = flat.invalidate(addr, flat_dirty);
        ASSERT_EQ(ref_found, flat_found) << "invalidate @" << addr << " op " << i;
        ASSERT_EQ(ref_dirty, flat_dirty) << "invalidate dirty @" << addr << " op " << i;
        break;
      }
      case 1:
      case 2: {
        const bool dirty = rng.below(2) == 0;
        ASSERT_EQ(ref.install(addr, dirty), flat.install(addr, dirty))
            << "install @" << addr << " op " << i;
        break;
      }
      case 3:
        ASSERT_EQ(ref.contains(addr), flat.contains(addr)) << "contains @" << addr;
        break;
      case 4:
        if (i == ops / 2) {  // one mid-sequence reset (keeps rng divergence visible)
          ref.reset();
          flat.reset();
          break;
        }
        [[fallthrough]];
      default: {
        const bool is_write = rng.below(3) == 0;
        ASSERT_EQ(ref.access(addr, is_write), flat.access(addr, is_write))
            << "access @" << addr << " write=" << is_write << " op " << i;
        break;
      }
    }
    ASSERT_EQ(ref.stats(), flat.stats()) << "stats diverged at op " << i;
  }
  EXPECT_EQ(ref.resident_lines(), flat.resident_lines());
  for (std::uint64_t l = 0; l < lines; ++l)
    ASSERT_EQ(ref.contains(l * 64), flat.contains(l * 64)) << "final contents, line " << l;
}

TEST(FlatCacheDifferential, LruMatchesReference) {
  drive_pair(geom(8 * KiB, 8, ReplacementPolicy::kLru), 0x1234);
  drive_pair(geom(4 * KiB, 1, ReplacementPolicy::kLru), 0x5678);  // direct-mapped
}

TEST(FlatCacheDifferential, FifoMatchesReference) {
  drive_pair(geom(8 * KiB, 8, ReplacementPolicy::kFifo), 0x2345);
  drive_pair(geom(2 * KiB, 4, ReplacementPolicy::kFifo), 0x6789);
}

TEST(FlatCacheDifferential, RandomMatchesReference) {
  // The rng advances once per full-set victim choice; any divergence in
  // *when* victims are chosen desynchronizes the two streams instantly.
  drive_pair(geom(8 * KiB, 8, ReplacementPolicy::kRandom), 0x3456);
  drive_pair(geom(4 * KiB, 1, ReplacementPolicy::kRandom), 0x789a);  // rng on 1-way sets too
}

TEST(FlatCacheDifferential, WriteAroundMatchesReference) {
  drive_pair(geom(8 * KiB, 8, ReplacementPolicy::kLru, /*write_allocate=*/false), 0x4567);
}

TEST(FlatCacheDifferential, NonPowerOfTwoSetsMatchReference) {
  // 3 sets: exercises the modulo (non-mask) index path of the flat core.
  drive_pair(geom(3 * 2 * 64, 2, ReplacementPolicy::kLru), 0xabc);
  drive_pair(geom(5 * 64, 1, ReplacementPolicy::kRandom), 0xdef);
}

TEST(FlatCacheDifferential, TryHitThenAccessEqualsPlainAccess) {
  // The memory-system fast path runs try_hit first and falls back to a
  // full access() on a miss. That composite must be indistinguishable
  // from the reference's plain access stream.
  const CacheGeometry g = geom(4 * KiB, 4, ReplacementPolicy::kLru);
  SetAssociativeCache ref(g);
  FlatCache flat(g);
  Rng rng(0x77);
  const std::uint64_t lines = g.sets() * g.associativity * 3;
  for (int i = 0; i < 20000; ++i) {
    const std::uint64_t addr = rng.below(lines) * g.line_size;
    const bool is_write = rng.below(4) == 0;
    const CacheResult ref_r = ref.access(addr, is_write);
    if (flat.try_hit(addr, is_write)) {
      ASSERT_TRUE(ref_r.hit) << "op " << i;
    } else {
      ASSERT_EQ(ref_r, flat.access(addr, is_write)) << "op " << i;
    }
    ASSERT_EQ(ref.stats(), flat.stats()) << "op " << i;
  }
}

TEST(FlatCacheDifferential, MissAfterProbeEqualsPlainAccess) {
  // The fast path continues a failed try_hit with miss_after_probe()
  // instead of a full access() — same composite, minus the redundant set
  // scan. It must produce the reference's exact results and stats.
  for (const auto policy : {ReplacementPolicy::kLru, ReplacementPolicy::kFifo,
                            ReplacementPolicy::kRandom}) {
    const CacheGeometry g = geom(4 * KiB, 4, policy);
    SetAssociativeCache ref(g);
    FlatCache flat(g);
    Rng rng(0x1234);
    const std::uint64_t lines = g.sets() * g.associativity * 3;
    for (int i = 0; i < 20000; ++i) {
      const std::uint64_t addr = rng.below(lines) * g.line_size;
      const bool is_write = rng.below(4) == 0;
      const CacheResult ref_r = ref.access(addr, is_write);
      if (flat.try_hit(addr, is_write)) {
        ASSERT_TRUE(ref_r.hit) << "op " << i;
      } else {
        ASSERT_EQ(ref_r, flat.miss_after_probe(addr, is_write)) << "op " << i;
      }
      ASSERT_EQ(ref.stats(), flat.stats()) << "op " << i;
    }
    ASSERT_EQ(ref.resident_lines(), flat.resident_lines());
  }
}

TEST(FlatCacheDifferential, InstallAbsentEqualsInstall) {
  // prefetch_line() proves absence with a contains() sweep and then uses
  // install_absent() on the flat core. Under that precondition it must be
  // indistinguishable from the reference's plain install().
  for (const auto policy : {ReplacementPolicy::kLru, ReplacementPolicy::kFifo,
                            ReplacementPolicy::kRandom}) {
    const CacheGeometry g = geom(4 * KiB, 4, policy);
    SetAssociativeCache ref(g);
    FlatCache flat(g);
    Rng rng(0xabcd);
    const std::uint64_t lines = g.sets() * g.associativity * 3;
    for (int i = 0; i < 20000; ++i) {
      const std::uint64_t addr = rng.below(lines) * g.line_size;
      if (rng.below(3) == 0) {
        const bool dirty = rng.below(2) == 0;
        ASSERT_EQ(ref.contains(addr), flat.contains(addr)) << "op " << i;
        if (!flat.contains(addr)) {
          ASSERT_EQ(ref.install(addr, dirty), flat.install_absent(addr, dirty))
              << "op " << i;
        } else {
          ASSERT_EQ(ref.install(addr, dirty), flat.install(addr, dirty)) << "op " << i;
        }
      } else {
        const bool is_write = rng.below(4) == 0;
        ASSERT_EQ(ref.access(addr, is_write), flat.access(addr, is_write)) << "op " << i;
      }
      ASSERT_EQ(ref.stats(), flat.stats()) << "op " << i;
    }
    ASSERT_EQ(ref.resident_lines(), flat.resident_lines());
  }
}

TEST(FlatCacheDifferential, EvictedInvalidWayMatchesReference) {
  // Invalidate a line, then overflow the set: the reference still counts
  // the invalidated way's eviction (stale tag, clean). Pin the flat core
  // to the same quirk.
  const CacheGeometry g = geom(2 * 64, 2, ReplacementPolicy::kLru);  // 1 set, 2 ways
  SetAssociativeCache ref(g);
  FlatCache flat(g);
  for (std::uint64_t l = 0; l < 2; ++l) {
    ASSERT_EQ(ref.access(l * 64, true), flat.access(l * 64, true));
  }
  bool d1 = false, d2 = false;
  ASSERT_TRUE(ref.invalidate(0, d1));
  ASSERT_TRUE(flat.invalidate(0, d2));
  ASSERT_EQ(d1, d2);
  // Set is "full" of allocated ways; victim scan sees the invalid way.
  ASSERT_EQ(ref.access(5 * 64, false), flat.access(5 * 64, false));
  ASSERT_EQ(ref.stats(), flat.stats());
  ASSERT_EQ(ref.resident_lines(), flat.resident_lines());
}

TEST(FlatCacheDifferential, HugeSparseGeometryMatchesReference) {
  // MCDRAM-cache-scale tier: 16 GiB direct-mapped. Only touched set-pages
  // may materialize; behavior must still match the map-based reference.
  CacheGeometry g = geom(16 * GiB, 1, ReplacementPolicy::kLru);
  SetAssociativeCache ref(g);
  FlatCache flat(g);
  Rng rng(0x88);
  for (int i = 0; i < 5000; ++i) {
    // Scatter over 64 GiB so lines conflict in sets 4-to-1.
    const std::uint64_t addr = (rng.below(64ull * GiB) / 64) * 64;
    const bool is_write = rng.below(2) == 0;
    ASSERT_EQ(ref.access(addr, is_write), flat.access(addr, is_write)) << "op " << i;
  }
  EXPECT_EQ(ref.stats(), flat.stats());
  EXPECT_EQ(ref.resident_lines(), flat.resident_lines());
}

// ---------------------------------------------------------------------------
// System level: full-hierarchy traces through both instantiations.

struct Event {
  enum Kind { kLoad, kStore, kStoreNt } kind;
  std::uint64_t addr;
  std::uint32_t size;
};

std::vector<Event> sequential_trace(std::uint64_t bytes) {
  std::vector<Event> t;
  for (std::uint64_t off = 0; off < bytes; off += 8)
    t.push_back({Event::kLoad, off, 8});
  return t;
}

std::vector<Event> strided_trace(std::uint64_t bytes, std::uint64_t stride) {
  std::vector<Event> t;
  for (int pass = 0; pass < 3; ++pass)
    for (std::uint64_t off = 0; off < bytes; off += stride)
      t.push_back({Event::kLoad, off, 8});
  return t;
}

std::vector<Event> pointer_chase_trace(std::uint64_t bytes, int n, std::uint64_t seed) {
  std::vector<Event> t;
  Rng rng(seed);
  for (int i = 0; i < n; ++i) t.push_back({Event::kLoad, rng.below(bytes), 8});
  return t;
}

std::vector<Event> mixed_rw_trace(std::uint64_t bytes, int n, std::uint64_t seed) {
  std::vector<Event> t;
  Rng rng(seed);
  for (int i = 0; i < n; ++i) {
    const auto kind = rng.below(4) == 0 ? Event::kStore : Event::kLoad;
    const std::uint32_t size = rng.below(8) == 0 ? 256 : 8;  // some multi-line ranges
    t.push_back({kind, rng.below(bytes), size});
  }
  return t;
}

std::vector<Event> nt_store_trace(std::uint64_t bytes, int n, std::uint64_t seed) {
  std::vector<Event> t;
  Rng rng(seed);
  for (int i = 0; i < n; ++i) {
    switch (rng.below(3)) {
      case 0: t.push_back({Event::kStoreNt, (rng.below(bytes) / 8) * 8, 8}); break;
      case 1: t.push_back({Event::kStore, rng.below(bytes), 8}); break;
      default: t.push_back({Event::kLoad, rng.below(bytes), 8}); break;
    }
  }
  return t;
}

template <class System>
void replay(System& sys, const std::vector<Event>& trace) {
  for (const Event& e : trace) {
    switch (e.kind) {
      case Event::kLoad: sys.load(e.addr, e.size); break;
      case Event::kStore: sys.store(e.addr, e.size); break;
      case Event::kStoreNt: sys.store_nt(e.addr, e.size); break;
    }
  }
}

void expect_identical(const Platform& p, const std::vector<Event>& trace, bool prefetcher,
                      const std::string& label) {
  MemorySystem flat(p);
  ReferenceMemorySystem ref(p);
  if (prefetcher) {
    flat.enable_prefetcher(16, 8);
    ref.enable_prefetcher(16, 8);
  }
  replay(flat, trace);
  replay(ref, trace);
  EXPECT_EQ(flat.report(), ref.report()) << label;
  EXPECT_EQ(flat.prefetch_fills(), ref.prefetch_fills()) << label;
  for (std::size_t i = 0; i < p.tiers.size(); ++i)
    EXPECT_EQ(flat.tier_stats(i), ref.tier_stats(i)) << label << " tier " << i;
  // Reports must also survive a reset + replay round (reset parity).
  flat.reset();
  ref.reset();
  replay(flat, trace);
  replay(ref, trace);
  EXPECT_EQ(flat.report(), ref.report()) << label << " after reset";
}

/// Three-tier toy hierarchy with a configurable middle tier and policy —
/// small enough that every trace overflows every tier.
Platform toy_platform(TierKind middle_kind, ReplacementPolicy policy) {
  Platform p;
  p.name = "toy";
  p.cores = 1;
  p.dp_peak_flops = 1e9;
  p.tiers.push_back({.geometry = {.name = "L1", .capacity = 1 * KiB, .line_size = 64,
                                  .associativity = 2, .policy = policy},
                     .kind = TierKind::kStandard});
  p.tiers.push_back({.geometry = {.name = "MID", .capacity = 4 * KiB, .line_size = 64,
                                  .associativity = 4, .policy = policy},
                     .kind = middle_kind});
  p.tiers.push_back({.geometry = {.name = "LL", .capacity = 16 * KiB, .line_size = 64,
                                  .associativity = 8, .policy = policy},
                     .kind = TierKind::kStandard});
  p.devices.push_back({.name = "DDR", .capacity = 1 * GiB, .bandwidth = 1e8});
  return p;
}

TEST(SystemDifferential, ToyHierarchiesAllPoliciesAllTierKinds) {
  const std::uint64_t ws = 64 * KiB;
  for (const ReplacementPolicy policy :
       {ReplacementPolicy::kLru, ReplacementPolicy::kFifo, ReplacementPolicy::kRandom}) {
    for (const TierKind kind :
         {TierKind::kStandard, TierKind::kVictim, TierKind::kMemorySide}) {
      const Platform p = toy_platform(kind, policy);
      const std::string label = std::string(to_string(policy)) + "/" +
                                std::to_string(static_cast<int>(kind));
      expect_identical(p, sequential_trace(ws), false, label + " seq");
      expect_identical(p, strided_trace(ws, 256), false, label + " strided");
      expect_identical(p, pointer_chase_trace(ws, 8000, 0x11), false, label + " chase");
      expect_identical(p, mixed_rw_trace(ws, 8000, 0x22), false, label + " mixed");
      expect_identical(p, nt_store_trace(ws, 8000, 0x33), false, label + " nt");
    }
  }
}

TEST(SystemDifferential, PrefetcherOnMatchesReference) {
  const std::uint64_t ws = 64 * KiB;
  const Platform p = toy_platform(TierKind::kVictim, ReplacementPolicy::kLru);
  expect_identical(p, sequential_trace(ws), true, "pf seq");
  expect_identical(p, strided_trace(ws, 256), true, "pf strided");
  expect_identical(p, mixed_rw_trace(ws, 8000, 0x44), true, "pf mixed");
}

TEST(SystemDifferential, BroadwellPlatforms) {
  const std::uint64_t ws = 2 * MiB;
  for (const EdramMode mode : {EdramMode::kOff, EdramMode::kOn}) {
    const Platform p = broadwell(mode);
    const std::string label = std::string("bdw ") + to_string(mode);
    expect_identical(p, mixed_rw_trace(ws, 20000, 0x55), false, label);
    expect_identical(p, mixed_rw_trace(ws, 20000, 0x55), true, label + " pf");
  }
}

TEST(SystemDifferential, KnlPlatforms) {
  const std::uint64_t ws = 2 * MiB;
  for (const McdramMode mode :
       {McdramMode::kOff, McdramMode::kCache, McdramMode::kFlat, McdramMode::kHybrid}) {
    const Platform p = knl(mode);
    const std::string label = std::string("knl ") + to_string(mode);
    expect_identical(p, mixed_rw_trace(ws, 20000, 0x66), false, label);
    expect_identical(p, nt_store_trace(ws, 20000, 0x77), false, label + " nt");
  }
}

// ---------------------------------------------------------------------------
// Set-sliced replay: with pool workers, the flat system splits a trace into
// set slices replayed on the shared pool. Its every observable must equal
// the sequential reference walk at any worker count.

/// Sets the shared pool's worker count for one scope.
class PoolWorkers {
 public:
  explicit PoolWorkers(std::size_t n) : saved_(util::shared_pool_workers()) {
    util::set_shared_pool_workers(n);
  }
  ~PoolWorkers() { util::set_shared_pool_workers(saved_); }
  PoolWorkers(const PoolWorkers&) = delete;
  PoolWorkers& operator=(const PoolWorkers&) = delete;

 private:
  std::size_t saved_;
};

constexpr std::size_t kWorkerCounts[] = {0, 1, 3, 4};

void expect_same_state(const MemorySystem& flat, const ReferenceMemorySystem& ref,
                       const std::string& label) {
  EXPECT_EQ(flat.report(), ref.report()) << label;
  EXPECT_EQ(flat.prefetch_fills(), ref.prefetch_fills()) << label;
  for (std::size_t i = 0; i < ref.platform().tiers.size(); ++i)
    EXPECT_EQ(flat.tier_stats(i), ref.tier_stats(i)) << label << " tier " << i;
}

/// The sliced flat system against the reference at every worker count:
/// whole trace; report() at mid-trace and again at the end; reset() at
/// mid-trace followed by the whole trace. `depth` 0 = no prefetcher.
void expect_sliced_identical(const Platform& p, const std::vector<Event>& trace,
                             std::size_t depth, const std::string& label) {
  const std::size_t half = trace.size() / 2;
  const std::vector<Event> head(trace.begin(), trace.begin() + static_cast<std::ptrdiff_t>(half));
  const std::vector<Event> tail(trace.begin() + static_cast<std::ptrdiff_t>(half), trace.end());
  for (const std::size_t workers : kWorkerCounts) {
    PoolWorkers pool(workers);
    const std::string at = label + " workers=" + std::to_string(workers);
    MemorySystem flat(p);
    ReferenceMemorySystem ref(p);
    EXPECT_EQ(flat.slices(), workers == 0 ? 1u : set_slices(p)) << at;
    EXPECT_EQ(ref.slices(), 1u) << at;
    if (depth > 0) {
      flat.enable_prefetcher(16, depth);
      ref.enable_prefetcher(16, depth);
    }
    replay(flat, head);
    replay(ref, head);
    expect_same_state(flat, ref, at + " mid-trace");
    replay(flat, tail);
    replay(ref, tail);
    expect_same_state(flat, ref, at + " end");
    replay(flat, head);  // ops still buffered at the reset are dropped
    replay(ref, head);   // (random victims: the RNG survives a reset)
    flat.reset();
    ref.reset();
    replay(flat, trace);
    replay(ref, trace);
    expect_same_state(flat, ref, at + " after mid-trace reset");
  }
}

TEST(SlicedReplay, SliceCountComesFromThePlatform) {
  // 16 on every built-in platform; 8 on the toy hierarchy (8 L1 sets).
  for (const EdramMode mode : {EdramMode::kOff, EdramMode::kOn})
    EXPECT_EQ(set_slices(broadwell(mode)), 16u);
  for (const McdramMode mode :
       {McdramMode::kOff, McdramMode::kCache, McdramMode::kFlat, McdramMode::kHybrid})
    EXPECT_EQ(set_slices(knl(mode)), 16u);
  EXPECT_EQ(set_slices(toy_platform(TierKind::kVictim, ReplacementPolicy::kLru)), 8u);
  EXPECT_EQ(set_slices(toy_platform(TierKind::kStandard, ReplacementPolicy::kFifo)), 8u);
  // A random-replacement tier advances one RNG across sets: sequential.
  EXPECT_EQ(set_slices(toy_platform(TierKind::kStandard, ReplacementPolicy::kRandom)), 1u);
  Platform mixed = toy_platform(TierKind::kStandard, ReplacementPolicy::kLru);
  mixed.tiers[2].geometry.policy = ReplacementPolicy::kRandom;
  EXPECT_EQ(set_slices(mixed), 1u);
  // Set counts 3 and 8 share no power of two; 12 and 8 share 4.
  Platform odd = toy_platform(TierKind::kStandard, ReplacementPolicy::kLru);
  odd.tiers[0].geometry.capacity = 3 * 2 * 64;  // 3 sets
  EXPECT_EQ(set_slices(odd), 1u);
  odd.tiers[0].geometry.capacity = 12 * 2 * 64;  // 12 sets
  EXPECT_EQ(set_slices(odd), 4u);
  EXPECT_EQ(set_slices(Platform{}), 1u);
  // The worker count never changes K, only whether the system slices.
  PoolWorkers pool(3);
  EXPECT_EQ(MemorySystem(broadwell(EdramMode::kOn)).slices(), 16u);
  EXPECT_EQ(MemorySystem(mixed).slices(), 1u);
  EXPECT_EQ(MemorySystem(odd).slices(), 4u);
}

TEST(SlicedReplay, ToyHierarchiesAtEveryWorkerCount) {
  const std::uint64_t ws = 64 * KiB;
  for (const ReplacementPolicy policy :
       {ReplacementPolicy::kLru, ReplacementPolicy::kFifo, ReplacementPolicy::kRandom}) {
    for (const TierKind kind :
         {TierKind::kStandard, TierKind::kVictim, TierKind::kMemorySide}) {
      const Platform p = toy_platform(kind, policy);
      const std::string label = std::string(to_string(policy)) + "/" +
                                std::to_string(static_cast<int>(kind));
      expect_sliced_identical(p, mixed_rw_trace(ws, 6000, 0x122), 0, label + " mixed");
      expect_sliced_identical(p, nt_store_trace(ws, 6000, 0x133), 0, label + " nt");
    }
  }
  const Platform p = toy_platform(TierKind::kVictim, ReplacementPolicy::kLru);
  expect_sliced_identical(p, strided_trace(ws, 256), 4, "pf4 strided");
  expect_sliced_identical(p, mixed_rw_trace(ws, 6000, 0x144), 8, "pf8 mixed");
}

TEST(SlicedReplay, SetCountsWithACommonFactorBelowTheCap) {
  Platform p = toy_platform(TierKind::kVictim, ReplacementPolicy::kLru);
  p.tiers[0].geometry.capacity = 12 * 2 * 64;  // 12 L1 sets: K = 4
  expect_sliced_identical(p, mixed_rw_trace(64 * KiB, 6000, 0x155), 8, "k4");
}

TEST(SlicedReplay, BroadwellLongerThanOneChunk) {
  // 16 slices x 4096 buffered ops: these traces run through many buffer
  // hand-offs, with and without the prefetcher at both depths.
  for (const EdramMode mode : {EdramMode::kOff, EdramMode::kOn}) {
    const Platform p = broadwell(mode);
    const std::string label = std::string("bdw ") + to_string(mode);
    std::vector<Event> trace = sequential_trace(768 * KiB);  // 98304 line accesses
    const std::vector<Event> chase = pointer_chase_trace(16 * MiB, 30000, 0x166);
    trace.insert(trace.end(), chase.begin(), chase.end());
    expect_sliced_identical(p, trace, 0, label);
    expect_sliced_identical(p, trace, 4, label + " pf4");
    expect_sliced_identical(p, mixed_rw_trace(8 * MiB, 20000, 0x177), 8, label + " pf8");
  }
}

TEST(SlicedReplay, KnlModesIncludingTheFlatBoundary) {
  for (const McdramMode mode :
       {McdramMode::kOff, McdramMode::kCache, McdramMode::kFlat, McdramMode::kHybrid}) {
    const Platform p = knl(mode);
    const std::string label = std::string("knl ") + to_string(mode);
    expect_sliced_identical(p, mixed_rw_trace(2 * MiB, 12000, 0x188), 0, label);
    expect_sliced_identical(p, nt_store_trace(2 * MiB, 12000, 0x199), 0, label + " nt");
  }
  // Lines straddling the flat partition: 16 GiB of MCDRAM in flat mode,
  // 8 GiB in hybrid, and a partition that ends 3 lines past a multiple of
  // 16 lines, so lines of one slice sit on both sides of it. Evicted,
  // prefetched and NT lines must route to the device of their ORIGINAL
  // address.
  Platform off_grid = knl(McdramMode::kFlat);
  off_grid.flat_opm_bytes = 8 * GiB + 3 * 64;
  for (const Platform& p : {knl(McdramMode::kFlat), knl(McdramMode::kHybrid), off_grid}) {
    const std::uint64_t boundary = p.flat_opm_bytes;
    std::vector<Event> trace;
    Rng rng(0x1aa);
    for (int i = 0; i < 20000; ++i) {
      const std::uint64_t addr = boundary - 1 * MiB + rng.below(2 * MiB);
      const std::uint64_t kind = rng.below(6);
      trace.push_back({kind == 0 ? Event::kStoreNt : kind == 1 ? Event::kStore : Event::kLoad,
                       kind == 0 ? addr & ~7ull : addr, 8});
    }
    for (std::uint64_t off = 0; off < 2 * MiB; off += 128)  // a stream across it
      trace.push_back({Event::kLoad, boundary - 1 * MiB + off, 8});
    const std::string label = "knl straddle at " + std::to_string(boundary);
    expect_sliced_identical(p, trace, 0, label);
    expect_sliced_identical(p, trace, 8, label + " pf8");
  }
}

}  // namespace
}  // namespace opm::sim
