#pragma once

#include <cstdint>

#if defined(__x86_64__) || defined(_M_X64)
#define OPM_SIMD_X86 1
#include <immintrin.h>
#else
#define OPM_SIMD_X86 0
#endif

/// SIMD set probe over FlatCache's packed way words.
///
/// FlatCache stores each way as one 64-bit word `tag << 3 | allocated << 2 |
/// dirty << 1 | valid`, with a set's words contiguous in memory and
/// allocated ways forming a prefix (sim/flat_cache.hpp). A lookup builds
/// `want = (tag << 3) | allocated | valid` and scans for a word equal to
/// `want` once the dirty bit is masked off. That scan is THE hot
/// instruction sequence of the simulator, and the layout makes it a natural
/// vector compare: load 2 (SSE2) or 4 (AVX2) way words, mask the dirty bit,
/// compare-eq against a broadcast `want`, movemask, ctz.
///
/// Equivalence argument (why a whole-set compare == the scalar
/// prefix-early-exit scan):
///   - unallocated words are zero (pages are value-initialized and reset()
///     re-zeroes them), and `want` always carries allocated|valid, so a
///     word past the allocated prefix can never compare equal;
///   - an invalidated way keeps its stale tag but has valid cleared, so it
///     differs from `want` in the valid bit;
///   - valid tags are unique within a set, so AT MOST ONE lane matches —
///     the matched way index (which hit bookkeeping, MRU hints, and LRU
///     stamps all consume) is identical whichever order ways are examined.
/// The scalar path below is therefore the bit-identity oracle; the vector
/// paths must agree with it on every reachable set state, and
/// self_check() verifies that agreement at runtime (wired into CI).
///
/// Dispatch is selected at build time (preprocessor tiers: x86-64 gets the
/// vector paths, anything else the scalar oracle) and refined at runtime
/// with one predictable `__builtin_cpu_supports("avx2")` test — a load and
/// branch against libgcc's pre-main cpuid cache, not an indirect call,
/// because an indirect call would cost more than the probe it guards.
///
/// The same header holds the stride prefetcher's stream match
/// (match_stream*, below): one whole-table compare per demand line instead
/// of a scan with data-dependent branches, under the same contract — a
/// scalar oracle, an AVX2 path behind a target attribute, one runtime
/// test, and a battery in self_check().
namespace opm::sim::simd {

/// Dirty bit of the packed way word; must match FlatCache::kDirty.
inline constexpr std::uint64_t kProbeDirtyBit = 2ull;
/// Allocated bit of the packed way word; must match FlatCache::kAllocated.
inline constexpr std::uint64_t kProbeAllocatedBit = 4ull;

/// Scalar oracle: first way whose word matches `want` with the dirty bit
/// masked off, early-exiting at the end of the allocated prefix. Returns
/// `assoc` on a miss. This is the reference the vector paths are pinned to.
inline std::uint32_t find_way_scalar(const std::uint64_t* meta, std::uint32_t assoc,
                                     std::uint64_t want) {
  for (std::uint32_t way = 0; way < assoc; ++way) {
    const std::uint64_t m = meta[way];
    if ((m & kProbeAllocatedBit) == 0) return assoc;  // allocated ways are a prefix
    if ((m & ~kProbeDirtyBit) == want) return way;
  }
  return assoc;
}

#if OPM_SIMD_X86

/// SSE2 probe (x86-64 baseline): two way words per compare. SSE2 has no
/// 64-bit compare-eq, so one is built from pcmpeqd + a lane swap — both
/// 32-bit halves of a word must match.
inline std::uint32_t find_way_sse2(const std::uint64_t* meta, std::uint32_t assoc,
                                   std::uint64_t want) {
  const __m128i wanted = _mm_set1_epi64x(static_cast<long long>(want));
  const __m128i mask = _mm_set1_epi64x(static_cast<long long>(~kProbeDirtyBit));
  std::uint32_t way = 0;
  for (; way + 2 <= assoc; way += 2) {
    const __m128i v = _mm_and_si128(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(meta + way)), mask);
    const __m128i eq32 = _mm_cmpeq_epi32(v, wanted);
    const __m128i eq64 =
        _mm_and_si128(eq32, _mm_shuffle_epi32(eq32, _MM_SHUFFLE(2, 3, 0, 1)));
    const int hits = _mm_movemask_pd(_mm_castsi128_pd(eq64));
    if (hits != 0) return way + ((hits & 1) != 0 ? 0u : 1u);
  }
  if (way < assoc && (meta[way] & ~kProbeDirtyBit) == want) return way;
  return assoc;
}

/// AVX2 probe: four way words per compare, so an 8-way set is two compares
/// and a 16-way set four. Compiled with a per-function target attribute so
/// the rest of the binary keeps the build's baseline ISA.
__attribute__((target("avx2"))) inline std::uint32_t find_way_avx2(
    const std::uint64_t* meta, std::uint32_t assoc, std::uint64_t want) {
  const __m256i wanted = _mm256_set1_epi64x(static_cast<long long>(want));
  const __m256i mask = _mm256_set1_epi64x(static_cast<long long>(~kProbeDirtyBit));
  std::uint32_t way = 0;
  for (; way + 4 <= assoc; way += 4) {
    const __m256i v = _mm256_and_si256(
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(meta + way)), mask);
    const int hits =
        _mm256_movemask_pd(_mm256_castsi256_pd(_mm256_cmpeq_epi64(v, wanted)));
    if (hits != 0)
      return way + static_cast<std::uint32_t>(__builtin_ctz(static_cast<unsigned>(hits)));
  }
  for (; way < assoc; ++way)
    if ((meta[way] & ~kProbeDirtyBit) == want) return way;
  return assoc;
}

#endif  // OPM_SIMD_X86

/// Hot-path probe used by FlatCache's inline scans: picks the widest
/// available compare for the set's associativity. Loads never cross the
/// set's `assoc` words (the tail is scalar), so neighboring sets — whose
/// words CAN coincidentally equal `want` — are never examined.
inline std::uint32_t find_way(const std::uint64_t* meta, std::uint32_t assoc,
                              std::uint64_t want) {
#if OPM_SIMD_X86
#if defined(__AVX2__)
  if (assoc >= 4) return find_way_avx2(meta, assoc, want);
#else
  if (assoc >= 8 && __builtin_cpu_supports("avx2")) return find_way_avx2(meta, assoc, want);
#endif
  if (assoc >= 2) return find_way_sse2(meta, assoc, want);
#endif
  return find_way_scalar(meta, assoc, want);
}

// ------------------------------------------------------- stream match --

/// Stride of an untracked (free) stream slot. No delta between two line
/// indices below 2^62 equals it, so a free slot never matches.
inline constexpr std::int64_t kFreeStride = INT64_MIN;

/// The stride prefetcher's stream table in structure-of-arrays form
/// (sim/prefetcher.hpp owns the storage). The arrays hold `lanes` entries
/// — `streams` rounded up to a multiple of 4 — and the lanes past
/// `streams` are padding that stays free. A stride of 0 marks a nascent
/// stream (one access seen, stride not yet locked in). `tracked` counts
/// the streams in use and `oldest` names the least recently used one (the
/// smallest last_use) whenever all of them are.
struct StreamTableView {
  const std::int64_t* last_line;
  const std::int64_t* stride;
  const std::uint64_t* last_use;
  std::uint32_t streams;
  std::uint32_t lanes;
  std::uint32_t tracked;
  std::uint32_t oldest;
};

/// Outcome of one lookup. matched: `slot` is the first stream, in table
/// order, that `line` continues — an established stream whose stride
/// equals the delta, or a nascent one within ±2 lines (delta != 0).
/// Otherwise `slot` is where to allocate: the LAST free stream if any,
/// else the stream with the smallest last_use (unique: the prefetcher's
/// clock is strictly increasing).
struct StreamMatch {
  std::uint32_t slot = 0;
  bool matched = false;
  bool operator==(const StreamMatch&) const = default;
};

/// Scalar oracle: the prefetcher's original table scan, over the SoA view.
inline StreamMatch match_stream_scalar(const StreamTableView& t, std::int64_t line) {
  constexpr std::uint32_t kNone = ~0u;
  std::uint32_t free_slot = kNone;
  std::uint32_t oldest = kNone;
  for (std::uint32_t s = 0; s < t.streams; ++s) {
    if (t.stride[s] == kFreeStride) {
      free_slot = s;
      continue;
    }
    const std::int64_t delta = line - t.last_line[s];
    if (t.stride[s] != 0 && delta == t.stride[s]) return {s, true};
    if (t.stride[s] == 0 && delta != 0 && delta >= -2 && delta <= 2) return {s, true};
    if (oldest == kNone || t.last_use[s] < t.last_use[oldest]) oldest = s;
  }
  return {free_slot != kNone ? free_slot : oldest, false};
}

#if OPM_SIMD_X86

/// AVX2 stream match: four streams per compare, branch-free within a
/// group; the first set bit of the hit mask is the first match in table
/// order. With e = (delta == stride) and n = (stride == 0), a lane
/// matches iff (n & |delta| <= 2) ^ e: a nascent lane then needs
/// 0 < |delta| <= 2, an established lane delta == stride, and a free lane
/// (kFreeStride) neither. Free slots are only searched while the table is
/// not full; a full table evicts the view's least recently used stream.
__attribute__((target("avx2"))) inline StreamMatch match_stream_avx2(const StreamTableView& t,
                                                                     std::int64_t line) {
  const __m256i l = _mm256_set1_epi64x(line);
  const __m256i zero = _mm256_setzero_si256();
  const __m256i minus3 = _mm256_set1_epi64x(-3);
  const __m256i plus3 = _mm256_set1_epi64x(3);
  for (std::uint32_t g = 0; g < t.lanes; g += 4) {
    const __m256i last = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(t.last_line + g));
    const __m256i stride = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(t.stride + g));
    const __m256i delta = _mm256_sub_epi64(l, last);
    const __m256i near = _mm256_and_si256(_mm256_cmpgt_epi64(delta, minus3),
                                          _mm256_cmpgt_epi64(plus3, delta));
    const __m256i hit = _mm256_xor_si256(
        _mm256_and_si256(_mm256_cmpeq_epi64(stride, zero), near), _mm256_cmpeq_epi64(delta, stride));
    const int hits = _mm256_movemask_pd(_mm256_castsi256_pd(hit));
    if (hits != 0)
      return {g + static_cast<std::uint32_t>(__builtin_ctz(static_cast<unsigned>(hits))), true};
  }
  if (t.tracked == t.streams) return {t.oldest, false};
  const __m256i free_stride = _mm256_set1_epi64x(kFreeStride);
  std::uint32_t free_slot = 0;
  for (std::uint32_t g = 0; g < t.lanes; g += 4) {
    const __m256i stride = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(t.stride + g));
    const unsigned in_table = t.streams - g >= 4 ? 0xfu : (1u << (t.streams - g)) - 1u;
    const unsigned free_lanes = static_cast<unsigned>(_mm256_movemask_pd(
                                    _mm256_castsi256_pd(_mm256_cmpeq_epi64(stride, free_stride)))) &
                                in_table;
    if (free_lanes != 0)
      free_slot = g + 31u - static_cast<std::uint32_t>(__builtin_clz(free_lanes));
  }
  return {free_slot, false};
}

#endif  // OPM_SIMD_X86

/// Hot-path stream match used by StridePrefetcher::observe_into.
inline StreamMatch match_stream(const StreamTableView& t, std::int64_t line) {
#if OPM_SIMD_X86
#if defined(__AVX2__)
  return match_stream_avx2(t, line);
#else
  if (__builtin_cpu_supports("avx2")) return match_stream_avx2(t, line);
#endif
#endif
  return match_stream_scalar(t, line);
}

/// Battery for the stream match: seeded line streams — ±1 and ±2 line
/// strides in both directions, repeat touches, random jumps — replayed
/// into tables of 1–17 streams under the prefetcher's update rule, with
/// streams dropped now and then so free slots open mid-table (ties the
/// LAST free slot must win). At every step each compiled backend and the
/// dispatching match_stream() must agree with the scalar oracle.
inline bool stream_match_self_check() {
  constexpr std::uint32_t kTables[] = {1, 2, 3, 4, 5, 7, 8, 16, 17};
  constexpr std::uint32_t kMaxLanes = 20;
  for (const std::uint32_t streams : kTables) {
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
      std::int64_t last_line[kMaxLanes] = {};
      std::int64_t stride[kMaxLanes];
      std::uint64_t last_use[kMaxLanes] = {};
      for (std::int64_t& s : stride) s = kFreeStride;
      std::uint64_t rng = seed * 0x9e3779b97f4a7c15ull;
      const auto next = [&rng] {
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        return rng;
      };
      std::int64_t heads[6] = {1000, 5000, 90000, 200, 70000, 3000};
      constexpr std::int64_t kSteps[6] = {1, -1, 2, -2, 1, 2};
      for (std::uint64_t clock = 1; clock <= 3000; ++clock) {
        std::int64_t line;
        const std::uint64_t pick = next() % 10;
        if (pick < 6) {
          heads[pick] += kSteps[pick];  // interleaved strided streams
          line = heads[pick];
        } else if (pick < 8) {
          line = static_cast<std::int64_t>(next() % 100000);  // random gather
        } else if (pick < 9) {
          line = heads[next() % 6];  // repeat touch: delta 0
        } else {
          stride[next() % streams] = kFreeStride;  // drop a stream: a free slot mid-table
          continue;
        }
        // tracked / oldest as the prefetcher keeps them.
        StreamTableView t{last_line, stride, last_use, streams, (streams + 3) & ~3u, 0, 0};
        for (std::uint32_t s = 0; s < streams; ++s) {
          if (stride[s] == kFreeStride) continue;
          if (t.tracked++ == 0 || last_use[s] < last_use[t.oldest]) t.oldest = s;
        }
        const StreamMatch oracle = match_stream_scalar(t, line);
        if (match_stream(t, line) != oracle) return false;
#if OPM_SIMD_X86
        if (__builtin_cpu_supports("avx2") && match_stream_avx2(t, line) != oracle) return false;
#endif
        // The prefetcher's update rule (sim/prefetcher.cpp).
        const std::uint32_t s = oracle.slot;
        if (oracle.matched && stride[s] == 0) stride[s] = line - last_line[s];
        if (!oracle.matched) stride[s] = 0;
        last_line[s] = line;
        last_use[s] = clock;
      }
    }
  }
  return true;
}

/// Name of the widest backend find_way() can reach on this build + host.
inline const char* backend_name() {
#if OPM_SIMD_X86
  if (__builtin_cpu_supports("avx2")) return "avx2";
  return "sse2";
#else
  return "scalar";
#endif
}

/// Runtime verification battery: replays every reachable set-state shape
/// (empty, partial prefix, full, match at each way, dirty variants, stale
/// invalidated tags, zeroed suffix) through every compiled backend and the
/// dispatching find_way(), then runs stream_match_self_check(), and fails
/// if any backend disagrees with its scalar oracle. Run from tests and the CI perf job on the machine that will run
/// the simulations — this is the "runtime-verified" half of the dispatch
/// contract.
inline bool self_check() {
  constexpr std::uint32_t kAssocs[] = {1, 2, 3, 4, 5, 7, 8, 12, 16, 24, 32};
  constexpr std::uint32_t kMaxAssoc = 32;
  std::uint64_t meta[kMaxAssoc + 4];
  // A word beyond the set must never be examined: poison the slack with a
  // word that WOULD match the probe tag if a backend overread.
  const auto word = [](std::uint64_t tag, bool dirty, bool valid) {
    return (tag << 3) | kProbeAllocatedBit | (dirty ? kProbeDirtyBit : 0) |
           (valid ? 1ull : 0ull);
  };
  for (const std::uint32_t assoc : kAssocs) {
    for (std::uint32_t prefix = 0; prefix <= assoc; ++prefix) {
      for (std::uint32_t variant = 0; variant < 4; ++variant) {
        const bool dirty = (variant & 1) != 0;
        const bool stale = (variant & 2) != 0;  // probe tag present but invalidated
        for (std::uint32_t at = 0; at <= prefix; ++at) {  // at == prefix: absent
          const std::uint64_t probe_tag = 0x5a5a5a5a5aull;
          for (std::uint32_t w = 0; w < kMaxAssoc + 4; ++w) meta[w] = 0;
          for (std::uint32_t w = 0; w < prefix; ++w)
            meta[w] = word(0x1000 + w, (w & 1) != 0, true);  // distinct filler tags
          if (at < prefix) meta[at] = word(probe_tag, dirty, !stale);
          for (std::uint32_t w = assoc; w < kMaxAssoc + 4; ++w)
            meta[w] = word(probe_tag, false, true);  // overread poison
          const std::uint64_t want = (probe_tag << 3) | kProbeAllocatedBit | 1ull;
          const std::uint32_t oracle = find_way_scalar(meta, assoc, want);
          if (find_way(meta, assoc, want) != oracle) return false;
#if OPM_SIMD_X86
          if (find_way_sse2(meta, assoc, want) != oracle) return false;
          if (__builtin_cpu_supports("avx2") &&
              find_way_avx2(meta, assoc, want) != oracle) return false;
#endif
        }
      }
    }
  }
  return stream_match_self_check();
}

}  // namespace opm::sim::simd
