#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <sstream>
#include <string>
#include <thread>

#include "util/ascii_plot.hpp"
#include "util/cli.hpp"
#include "util/csv.hpp"
#include "util/format.hpp"
#include "util/histogram.hpp"
#include "util/mutex.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/thread_pool.hpp"
#include "util/thread_safety.hpp"
#include "util/units.hpp"

namespace opm::util {
namespace {

TEST(Rng, SplitMixIsDeterministic) {
  SplitMix64 a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, XoshiroIsDeterministic) {
  Xoshiro256 a(7), b(7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge) {
  Xoshiro256 a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i)
    if (a.next() == b.next()) ++same;
  EXPECT_LT(same, 2);
}

TEST(Rng, UniformInRange) {
  Xoshiro256 rng(3);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, BoundedStaysInBound) {
  Xoshiro256 rng(4);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(rng.bounded(17), 17u);
}

TEST(Rng, BoundedCoversRange) {
  Xoshiro256 rng(5);
  bool seen[8] = {};
  for (int i = 0; i < 1000; ++i) seen[rng.bounded(8)] = true;
  for (bool s : seen) EXPECT_TRUE(s);
}

TEST(Rng, NormalHasRoughlyUnitVariance) {
  Xoshiro256 rng(6);
  RunningStats rs;
  for (int i = 0; i < 20000; ++i) rs.add(rng.normal());
  EXPECT_NEAR(rs.mean(), 0.0, 0.05);
  EXPECT_NEAR(rs.variance(), 1.0, 0.08);
}

TEST(RunningStats, BasicMoments) {
  RunningStats rs;
  for (double v : {1.0, 2.0, 3.0, 4.0}) rs.add(v);
  EXPECT_EQ(rs.count(), 4u);
  EXPECT_DOUBLE_EQ(rs.mean(), 2.5);
  EXPECT_NEAR(rs.variance(), 5.0 / 3.0, 1e-12);
  EXPECT_DOUBLE_EQ(rs.min(), 1.0);
  EXPECT_DOUBLE_EQ(rs.max(), 4.0);
  EXPECT_DOUBLE_EQ(rs.sum(), 10.0);
}

TEST(RunningStats, EmptyIsZero) {
  RunningStats rs;
  EXPECT_EQ(rs.count(), 0u);
  EXPECT_EQ(rs.mean(), 0.0);
  EXPECT_EQ(rs.variance(), 0.0);
}

TEST(RunningStats, MergeMatchesSequential) {
  Xoshiro256 rng(9);
  RunningStats whole, left, right;
  for (int i = 0; i < 500; ++i) {
    const double v = rng.uniform(-3.0, 5.0);
    whole.add(v);
    (i % 2 ? left : right).add(v);
  }
  left.merge(right);
  EXPECT_EQ(left.count(), whole.count());
  EXPECT_NEAR(left.mean(), whole.mean(), 1e-12);
  EXPECT_NEAR(left.variance(), whole.variance(), 1e-10);
  EXPECT_DOUBLE_EQ(left.min(), whole.min());
  EXPECT_DOUBLE_EQ(left.max(), whole.max());
}

TEST(Stats, GeometricMean) {
  const double vals[] = {1.0, 4.0, 16.0};
  EXPECT_NEAR(geometric_mean(vals), 4.0, 1e-12);
  EXPECT_EQ(geometric_mean({}), 0.0);
}

TEST(Stats, Percentile) {
  const double vals[] = {5.0, 1.0, 3.0, 2.0, 4.0};
  EXPECT_DOUBLE_EQ(percentile(vals, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(vals, 100.0), 5.0);
  EXPECT_DOUBLE_EQ(median(vals), 3.0);
}

TEST(Stats, KernelDensityIntegratesToOne) {
  Xoshiro256 rng(11);
  std::vector<double> samples;
  for (int i = 0; i < 300; ++i) samples.push_back(rng.normal());
  const DensityEstimate kde = kernel_density(samples, 256);
  ASSERT_EQ(kde.x.size(), 256u);
  double integral = 0.0;
  for (std::size_t i = 1; i < kde.x.size(); ++i)
    integral += 0.5 * (kde.density[i] + kde.density[i - 1]) * (kde.x[i] - kde.x[i - 1]);
  EXPECT_NEAR(integral, 1.0, 0.02);
}

TEST(Stats, KernelDensityPeaksNearMean) {
  Xoshiro256 rng(12);
  std::vector<double> samples;
  for (int i = 0; i < 500; ++i) samples.push_back(10.0 + rng.normal());
  const DensityEstimate kde = kernel_density(samples, 128);
  std::size_t best = 0;
  for (std::size_t i = 0; i < kde.density.size(); ++i)
    if (kde.density[i] > kde.density[best]) best = i;
  EXPECT_NEAR(kde.x[best], 10.0, 0.5);
}

TEST(Histogram, ClampsAndCounts) {
  Histogram h(0.0, 10.0, 10);
  h.add(-5.0);   // clamped to first bin
  h.add(0.5);
  h.add(9.9);
  h.add(50.0);   // clamped to last bin
  EXPECT_DOUBLE_EQ(h.count(0), 2.0);
  EXPECT_DOUBLE_EQ(h.count(9), 2.0);
  EXPECT_DOUBLE_EQ(h.total(), 4.0);
}

TEST(Histogram, ModeBin) {
  Histogram h(0.0, 3.0, 3);
  h.add(1.5);
  h.add(1.6);
  h.add(0.1);
  EXPECT_EQ(h.mode_bin(), 1u);
}

TEST(Histogram, RejectsBadRange) {
  EXPECT_THROW(Histogram(1.0, 1.0, 4), std::invalid_argument);
  EXPECT_THROW(Histogram(0.0, 1.0, 0), std::invalid_argument);
}

TEST(Grid2D, MeanPerCell) {
  Grid2D g(0.0, 2.0, 2, 0.0, 2.0, 2);
  g.add(0.5, 0.5, 10.0);
  g.add(0.6, 0.4, 20.0);
  g.add(1.5, 1.5, 5.0);
  EXPECT_DOUBLE_EQ(g.mean(0, 0), 15.0);
  EXPECT_EQ(g.samples(0, 0), 2u);
  EXPECT_DOUBLE_EQ(g.mean(1, 1), 5.0);
  EXPECT_DOUBLE_EQ(g.mean(1, 0), 0.0);
  EXPECT_DOUBLE_EQ(g.max_mean(), 15.0);
}

TEST(Grid2D, Centers) {
  Grid2D g(0.0, 4.0, 4, 0.0, 2.0, 2);
  EXPECT_DOUBLE_EQ(g.x_center(0), 0.5);
  EXPECT_DOUBLE_EQ(g.y_center(1), 1.5);
}

TEST(Csv, EscapesSpecials) {
  std::ostringstream os;
  CsvWriter w(os);
  w.row("plain", "with,comma", "with\"quote");
  EXPECT_EQ(os.str(), "plain,\"with,comma\",\"with\"\"quote\"\n");
}

TEST(Csv, FormatsNumbers) {
  std::ostringstream os;
  CsvWriter w(os);
  w.header({"a", "b"});
  w.row(1, 2.5);
  EXPECT_EQ(os.str(), "a,b\n1,2.5\n");
}

TEST(Cli, ParsesForms) {
  const char* argv[] = {"prog", "pos1", "--alpha=3", "--beta", "7", "--flag"};
  Cli cli(6, argv);
  EXPECT_EQ(cli.get_int("alpha", 0), 3);
  EXPECT_EQ(cli.get_int("beta", 0), 7);
  EXPECT_TRUE(cli.has("flag"));
  EXPECT_FALSE(cli.has("missing"));
  ASSERT_EQ(cli.positional().size(), 1u);
  EXPECT_EQ(cli.positional()[0], "pos1");
}

TEST(Cli, FallbacksOnBadValues) {
  const char* argv[] = {"prog", "--x=abc"};
  Cli cli(2, argv);
  EXPECT_EQ(cli.get_int("x", 5), 5);
  EXPECT_EQ(cli.get_double("x", 2.5), 2.5);
  EXPECT_EQ(cli.get("x", ""), "abc");
}

TEST(Format, Bytes) {
  EXPECT_EQ(format_bytes(128 * MiB), "128 MB");
  EXPECT_EQ(format_bytes(16 * GiB), "16 GB");
  EXPECT_EQ(format_bytes(512), "512 B");
}

TEST(Format, Speedup) { EXPECT_EQ(format_speedup(1.2345), "1.234x"); }

TEST(Format, Pad) {
  EXPECT_EQ(pad("ab", 4), "ab  ");
  EXPECT_EQ(pad("abcdef", 3), "abc");
}

// The canonical hex-float formatter against glibc's printf("%a"), the
// spelling every cache key, golden and served payload was written in.
TEST(Hexf, MatchesGlibcPercentAByteForByte) {
  std::size_t checked = 0, mismatches = 0;
  std::string first_mismatch;
  auto check = [&](double v) {
    char want[64];
    std::snprintf(want, sizeof want, "%a", v);
    std::string got;
    append_hexf(got, v);
    ++checked;
    if (got != want || got.size() > kHexfMaxBytes) {
      if (mismatches++ == 0) first_mismatch = got + " vs " + want;
    }
  };
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (const double edge :
       {0.0, std::numeric_limits<double>::denorm_min(), std::numeric_limits<double>::min(),
        std::numeric_limits<double>::max(), inf, nan, 1.0, 0.1, 4096.0, 1.0 / 3.0}) {
    check(edge);
    check(-edge);
    check(std::copysign(edge, -1.0));  // -nan: negating a NaN need not set its sign
  }
  Xoshiro256 rng(20261016);
  for (int i = 0; i < 400000; ++i) {
    const std::uint64_t bits = rng.next();
    double v = 0.0;
    std::memcpy(&v, &bits, sizeof v);
    check(v);
  }
  // Every normal exponent, with every count of trailing zero nibbles in
  // the mantissa (13 = a zero mantissa), under both signs: each length the
  // digit pairs are trimmed to and each exponent width.
  for (int exponent = -1022; exponent <= 1023; ++exponent) {
    for (int zeros = 0; zeros <= 13; ++zeros) {
      std::uint64_t mantissa = 0;
      if (zeros < 13) {
        const std::uint64_t digits = rng.next() & ((std::uint64_t{1} << (4 * (13 - zeros))) - 1);
        mantissa = (digits | 1) << (4 * zeros);  // the lowest kept nibble is nonzero
      }
      for (const std::uint64_t sign : {std::uint64_t{0}, std::uint64_t{1}}) {
        const std::uint64_t bits =
            sign << 63 | static_cast<std::uint64_t>(exponent + 1023) << 52 | mantissa;
        double v = 0.0;
        std::memcpy(&v, &bits, sizeof v);
        check(v);
      }
    }
  }
  EXPECT_EQ(checked, 400030u + 2046u * 14u * 2u);
  EXPECT_EQ(mismatches, 0u) << "first: " << first_mismatch;

  // The widest spelling fills the bound exactly.
  std::string widest;
  append_hexf(widest, -std::numeric_limits<double>::max());
  EXPECT_EQ(widest.size(), kHexfMaxBytes);
}

TEST(AsciiPlot, RendersSeries) {
  Series s{.name = "test", .x = {1.0, 2.0, 4.0, 8.0}, .y = {1.0, 2.0, 3.0, 4.0}};
  const std::string plot = render_line_plot({&s, 1}, 40, 10, true, "x", "y");
  EXPECT_NE(plot.find("test"), std::string::npos);
  EXPECT_NE(plot.find('*'), std::string::npos);
}

TEST(AsciiPlot, RendersHeatmap) {
  Grid2D g(0.0, 4.0, 4, 0.0, 4.0, 4);
  g.add(0.5, 0.5, 1.0);
  g.add(3.5, 3.5, 10.0);
  const std::string map = render_heatmap(g, "x", "y");
  EXPECT_NE(map.find('@'), std::string::npos);
}

// ----------------------------------------- annotated primitives, at runtime --
//
// The annotated headers included at the top of this file double as the
// compile-time invariant: under clang, -Wthread-safety -Werror=thread-safety
// (enabled in the root CMakeLists when supported) proves every acquisition
// in them; under the TSan CI job this test exercises the same wrappers
// dynamically.

struct GuardedBox {
  opm::util::Mutex mu;
  opm::util::CondVar cv;
  int value OPM_GUARDED_BY(mu) = 0;
  bool ready OPM_GUARDED_BY(mu) = false;
};

TEST(ThreadSafetyPrimitives, MutexLockAndCondVarRoundTrip) {
  GuardedBox box;
  std::thread producer([&] {  // opm-lint: allow(thread-ownership) — exercising the raw primitives
    for (int i = 0; i < 10000; ++i) {
      opm::util::MutexLock lock(box.mu);
      ++box.value;
    }
    {
      opm::util::MutexLock lock(box.mu);
      box.ready = true;
    }
    box.cv.notify_all();
  });
  {
    opm::util::MutexLock lock(box.mu);
    while (!box.ready) box.cv.wait(box.mu);
    EXPECT_EQ(box.value, 10000);
  }
  producer.join();
}

TEST(ThreadSafetyPrimitives, TryLockReflectsContention) {
  opm::util::Mutex mu;
  bool acquired = false;
  if (mu.try_lock()) {
    acquired = true;
    mu.unlock();
  }
  EXPECT_TRUE(acquired);
}

TEST(ThreadSafetyPrimitives, WaitForTimesOutWithoutNotify) {
  GuardedBox box;
  opm::util::MutexLock lock(box.mu);
  // No producer: wait_for must return on its own (spurious wakeup or
  // timeout) rather than deadlock.
  box.cv.wait_for(box.mu, std::chrono::milliseconds(1));
  EXPECT_FALSE(box.ready);
}

TEST(ThreadSafetyPrimitives, PoolStillRunsThroughAnnotatedLocks) {
  opm::util::ThreadPool pool(2);
  std::atomic<int> hits{0};
  pool.parallel_for(0, 100, 1, [&](std::size_t) { hits.fetch_add(1); });
  EXPECT_EQ(hits.load(), 100);
}

}  // namespace
}  // namespace opm::util
