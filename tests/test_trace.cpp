#include <gtest/gtest.h>
#include <malloc.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <map>
#include <new>
#include <unordered_map>
#include <vector>

#include "dense/matrix.hpp"
#include "kernels/gemm.hpp"
#include "kernels/spmv.hpp"
#include "kernels/stencil.hpp"
#include "kernels/stream.hpp"
#include "sim/cache.hpp"
#include "sparse/generators.hpp"
#include "trace/recorder.hpp"
#include "trace/reuse.hpp"
#include "util/rng.hpp"

// --------------------------------------------------- live-byte counting --
//
// This binary replaces global operator new/delete with malloc/free plus a
// count of the bytes live on the heap, so a test can bound the peak heap
// growth of a region (ReuseBounded below).

namespace {

std::atomic<std::int64_t> g_live_bytes{0};
std::atomic<std::int64_t> g_peak_bytes{0};

void* counted_alloc(std::size_t size) {
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) throw std::bad_alloc();
  const std::int64_t live =
      g_live_bytes.fetch_add(static_cast<std::int64_t>(malloc_usable_size(p))) +
      static_cast<std::int64_t>(malloc_usable_size(p));
  std::int64_t peak = g_peak_bytes.load();
  while (live > peak && !g_peak_bytes.compare_exchange_weak(peak, live)) {
  }
  return p;
}

void counted_free(void* p) {
  if (p == nullptr) return;
  g_live_bytes.fetch_sub(static_cast<std::int64_t>(malloc_usable_size(p)));
  std::free(p);
}

}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return counted_alloc(size);
  } catch (...) {
    return nullptr;
  }
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return counted_alloc(size);
  } catch (...) {
    return nullptr;
  }
}
void operator delete(void* p) noexcept { counted_free(p); }
void operator delete[](void* p) noexcept { counted_free(p); }
void operator delete(void* p, std::size_t) noexcept { counted_free(p); }
void operator delete[](void* p, std::size_t) noexcept { counted_free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { counted_free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { counted_free(p); }

namespace opm::trace {
namespace {

TEST(Reuse, ColdMissesCounted) {
  ReuseDistanceAnalyzer a;
  a.touch(0, 8);
  a.touch(64, 8);
  a.touch(128, 8);
  EXPECT_EQ(a.cold_misses(), 3u);
  EXPECT_EQ(a.accesses(), 3u);
  EXPECT_EQ(a.distinct_lines(), 3u);
}

TEST(Reuse, ImmediateReuseHasDistanceZero) {
  ReuseDistanceAnalyzer a;
  a.touch(0, 8);
  a.touch(8, 8);  // same line
  ASSERT_EQ(a.histogram().size(), 1u);
  EXPECT_EQ(a.histogram().begin()->first, 0u);
}

TEST(Reuse, DistanceCountsDistinctInterveningLines) {
  ReuseDistanceAnalyzer a;
  // A B C B A: A's reuse sees {B, C} -> distance 2; B's sees {C} -> 1.
  a.touch(0, 8);
  a.touch(64, 8);
  a.touch(128, 8);
  a.touch(64, 8);
  a.touch(0, 8);
  const auto& h = a.histogram();
  EXPECT_EQ(h.at(1), 1u);
  EXPECT_EQ(h.at(2), 1u);
}

TEST(Reuse, RepeatedLinesDontInflateDistance) {
  ReuseDistanceAnalyzer a;
  // A B B B A: only one distinct line between the A's.
  a.touch(0, 8);
  for (int i = 0; i < 3; ++i) a.touch(64, 8);
  a.touch(0, 8);
  EXPECT_EQ(a.histogram().at(1), 1u);
}

TEST(Reuse, MissLinesAtCapacity) {
  ReuseDistanceAnalyzer a;
  // Cyclic sweep over 4 lines, 3 rounds.
  for (int r = 0; r < 3; ++r)
    for (std::uint64_t i = 0; i < 4; ++i) a.touch(i * 64, 8);
  // Fully associative with >= 4 lines: only 4 cold misses.
  EXPECT_EQ(a.miss_lines(4), 4u);
  // With 3 lines: LRU thrashes, everything misses.
  EXPECT_EQ(a.miss_lines(3), 12u);
}

TEST(Reuse, MissBytesConsistentWithLines) {
  ReuseDistanceAnalyzer a;
  for (std::uint64_t i = 0; i < 10; ++i) a.touch(i * 64, 8);
  EXPECT_EQ(a.miss_bytes(64 * 100), 10u * 64);
  EXPECT_NEAR(a.hit_rate(64 * 100), 0.0, 1e-12);  // all cold
}

TEST(Reuse, MultiLineTouchExpands) {
  ReuseDistanceAnalyzer a;
  a.touch(0, 256);  // 4 lines
  EXPECT_EQ(a.accesses(), 4u);
  EXPECT_EQ(a.cold_misses(), 4u);
}

TEST(Reuse, RejectsBadLineSize) {
  EXPECT_THROW(ReuseDistanceAnalyzer(48), std::invalid_argument);
  EXPECT_THROW(ReuseDistanceAnalyzer(0), std::invalid_argument);
}

/// Property: for any random trace, the reuse-distance miss count at
/// capacity C must exactly equal a fully associative LRU cache of C lines.
class ReuseVsCacheProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ReuseVsCacheProperty, MatchesFullyAssociativeLru) {
  util::Xoshiro256 rng(GetParam());
  ReuseDistanceAnalyzer analyzer;
  std::vector<std::uint64_t> trace;
  for (int i = 0; i < 3000; ++i) {
    // Mix of sequential runs and random jumps for realistic structure.
    if (rng.uniform() < 0.3) {
      const std::uint64_t base = rng.bounded(128) * 64;
      for (int k = 0; k < 4; ++k) trace.push_back(base + 64 * k);
    } else {
      trace.push_back(rng.bounded(200) * 64);
    }
  }
  for (auto addr : trace) analyzer.touch(addr, 8);

  for (std::uint32_t lines : {4u, 16u, 64u, 128u}) {
    sim::SetAssociativeCache cache(
        {.name = "fa", .capacity = static_cast<std::uint64_t>(lines) * 64, .line_size = 64,
         .associativity = lines});
    for (auto addr : trace) cache.access(addr, false);
    EXPECT_EQ(analyzer.miss_lines(lines), cache.stats().misses) << "capacity " << lines;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ReuseVsCacheProperty, ::testing::Values(11, 22, 33, 44, 55));

TEST(Reuse, MissCurveMonotoneNonIncreasing) {
  util::Xoshiro256 rng(99);
  ReuseDistanceAnalyzer a;
  for (int i = 0; i < 5000; ++i) a.touch(rng.bounded(300) * 64, 8);
  std::uint64_t prev = a.miss_lines(1);
  for (std::uint64_t c = 2; c <= 512; c *= 2) {
    const std::uint64_t misses = a.miss_lines(c);
    EXPECT_LE(misses, prev);
    prev = misses;
  }
  EXPECT_EQ(a.miss_lines(1u << 20), a.cold_misses());
}

// -------------------------------------------- differential vs Fenwick --

/// Verbatim copy of the earlier analyzer (Fenwick tree over every access
/// timestamp, unordered_map last use, std::map histogram) — the oracle the
/// marker-bitmap analyzer must match distance for distance.
class FenwickReuse {
 public:
  void touch(std::uint64_t addr, std::uint32_t size) {
    if (size == 0) return;
    const std::uint64_t first = addr >> 6;
    const std::uint64_t last = (addr + size - 1) >> 6;
    for (std::uint64_t line = first; line <= last; ++line) {
      const std::size_t now = static_cast<std::size_t>(accesses_);
      ++accesses_;
      const auto it = last_use_.find(line);
      if (it == last_use_.end()) {
        ++cold_;
        append(1);
        last_use_.emplace(line, now);
      } else {
        const std::size_t prev = it->second;
        const std::uint64_t total_markers = last_use_.size();
        const std::uint64_t at_or_before_prev = static_cast<std::uint64_t>(prefix(prev + 1));
        ++histogram_[total_markers - at_or_before_prev];
        add(prev, -1);
        append(1);
        it->second = now;
      }
    }
  }
  void load(std::uint64_t addr, std::uint32_t size) { touch(addr, size); }
  void store(std::uint64_t addr, std::uint32_t size) { touch(addr, size); }
  std::uint64_t cold() const { return cold_; }
  std::uint64_t accesses() const { return accesses_; }
  const std::map<std::uint64_t, std::uint64_t>& histogram() const { return histogram_; }

 private:
  static std::size_t lowbit(std::size_t i) { return i & (~i + 1); }
  void append(std::int64_t value) {
    const std::size_t i = fenwick_.size();
    fenwick_.push_back(prefix(i - 1) - prefix(i - lowbit(i)) + value);
  }
  void add(std::size_t pos, std::int64_t delta) {
    for (std::size_t i = pos + 1; i < fenwick_.size(); i += lowbit(i)) fenwick_[i] += delta;
  }
  std::int64_t prefix(std::size_t k) const {
    std::int64_t sum = 0;
    for (std::size_t i = k; i > 0; i -= lowbit(i)) sum += fenwick_[i];
    return sum;
  }

  std::uint64_t accesses_ = 0;
  std::uint64_t cold_ = 0;
  std::vector<std::int64_t> fenwick_{0};
  std::unordered_map<std::uint64_t, std::size_t> last_use_;
  std::map<std::uint64_t, std::uint64_t> histogram_;
};

void expect_same_profile(const ReuseDistanceAnalyzer& a, const FenwickReuse& ref,
                         const char* label) {
  EXPECT_EQ(a.accesses(), ref.accesses()) << label;
  EXPECT_EQ(a.cold_misses(), ref.cold()) << label;
  EXPECT_EQ(a.histogram(), ref.histogram()) << label;
  std::uint64_t cold_plus_tail = ref.cold();
  for (const auto& [d, n] : ref.histogram()) cold_plus_tail += n;
  EXPECT_EQ(a.miss_lines(0), cold_plus_tail) << label;
}

TEST(ReuseDifferential, SeededTracesMatchFenwickOracle) {
  // Footprints from a few lines to beyond the first table and timestamp
  // sizes, long enough that the timestamp space is compacted many times.
  for (const std::uint64_t footprint : {3ull, 100ull, 2000ull, 9000ull}) {
    for (const std::uint64_t seed : {1ull, 2ull}) {
      util::Xoshiro256 rng(seed * 1000 + footprint);
      ReuseDistanceAnalyzer a;
      FenwickReuse ref;
      for (int i = 0; i < 60000; ++i) {
        std::uint64_t addr;
        if (rng.uniform() < 0.4) {
          addr = rng.bounded(footprint) * 64 + rng.bounded(64);  // random reuse
        } else {
          addr = (static_cast<std::uint64_t>(i) % footprint) * 64;  // cyclic sweep
        }
        const std::uint32_t size = rng.uniform() < 0.1 ? 200 : 8;  // some multi-line
        a.touch(addr, size);
        ref.touch(addr, size);
      }
      expect_same_profile(a, ref, ("footprint " + std::to_string(footprint)).c_str());
    }
  }
}

TEST(ReuseDifferential, ValidationKernelTracesMatchFenwickOracle) {
  {
    ReuseDistanceAnalyzer a;
    FenwickReuse ref;
    TeeRecorder tee(a, ref);
    const std::size_t n = (1 << 20) / 24;
    std::vector<double> x(n), y(n), z(n);
    for (int pass = 0; pass < 2; ++pass) kernels::stream_triad_instrumented(x, y, z, 1.0, tee);
    expect_same_profile(a, ref, "stream");
  }
  {
    ReuseDistanceAnalyzer a;
    FenwickReuse ref;
    TeeRecorder tee(a, ref);
    dense::Matrix ma(64, 64), mb(64, 64), mc(64, 64);
    ma.fill_random(1);
    mb.fill_random(2);
    kernels::gemm_instrumented(ma, mb, mc, 32, tee);
    expect_same_profile(a, ref, "gemm");
  }
  for (const bool banded : {false, true}) {
    ReuseDistanceAnalyzer a;
    FenwickReuse ref;
    TeeRecorder tee(a, ref);
    const sparse::Csr m = banded ? sparse::make_banded(8192, 8, 8.0, 5)
                                 : sparse::make_random_uniform(8192, 8.0, 5);
    std::vector<double> x(8192, 1.0), y(8192);
    kernels::spmv_csr_instrumented(m, x, y, tee);
    expect_same_profile(a, ref, banded ? "spmv banded" : "spmv random");
  }
  {
    ReuseDistanceAnalyzer a;
    FenwickReuse ref;
    TeeRecorder tee(a, ref);
    kernels::StencilGrid g(24, 24, 24);
    g.seed(7);
    kernels::stencil_step_instrumented(g, 0, 0, tee);
    expect_same_profile(a, ref, "stencil");
  }
}

TEST(ReuseBounded, LongTraceOverSmallFootprintKeepsHeapFlat) {
  // 4M accesses over 512 distinct lines. The analyzer's memory must follow
  // the footprint: the Fenwick oracle above would hold one 8-byte slot per
  // access (32 MB here).
  ReuseDistanceAnalyzer a;
  util::Xoshiro256 rng(7);
  for (int i = 0; i < 20000; ++i) a.touch(rng.bounded(512) * 64, 8);  // warm: footprint seen
  const std::int64_t live0 = g_live_bytes.load();
  g_peak_bytes.store(live0);
  for (int i = 0; i < 4000000; ++i) a.touch(rng.bounded(512) * 64, 8);
  EXPECT_LT(g_peak_bytes.load() - live0, 64 * 1024);
  EXPECT_EQ(a.distinct_lines(), 512u);
  EXPECT_EQ(a.accesses(), 4020000u);
}

TEST(Recorders, VectorRecorderStoresEvents) {
  VectorRecorder rec;
  rec.load(64, 8);
  rec.store(128, 4);
  ASSERT_EQ(rec.events.size(), 2u);
  EXPECT_FALSE(rec.events[0].is_write);
  EXPECT_TRUE(rec.events[1].is_write);
  EXPECT_EQ(rec.events[1].addr, 128u);
}

TEST(Recorders, TeeForwardsToBoth) {
  VectorRecorder a, b;
  TeeRecorder tee(a, b);
  tee.load(0, 8);
  tee.store(64, 8);
  EXPECT_EQ(a.events.size(), 2u);
  EXPECT_EQ(b.events.size(), 2u);
}

TEST(Recorders, ReuseAnalyzerSatisfiesRecorder) {
  static_assert(Recorder<ReuseDistanceAnalyzer>);
  SUCCEED();
}

}  // namespace
}  // namespace opm::trace
