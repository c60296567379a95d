// Unit tests of the benchmark's own machinery: the tail rule, span self
// times, per-seed determinism of the three workload generators, and the
// open-loop arrival schedule.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>

#include "bench.hpp"
#include "serve/protocol.hpp"
#include "workloads.hpp"

namespace {

using namespace opmbench;
namespace protocol = opm::serve::protocol;

std::vector<double> one_to(int n) {
  std::vector<double> v;
  for (int i = 1; i <= n; ++i) v.push_back(i);
  return v;
}

TEST(TailRule, PicksHighestPercentileWithTenSamplesBeyond) {
  const auto big = one_to(1000);
  const Tail t = tail_rule(big);
  EXPECT_DOUBLE_EQ(t.percentile, 99.0);
  EXPECT_EQ(t.beyond, 10u);
  EXPECT_EQ(count_beyond(big, t.value), 10u);

  const Tail t100 = tail_rule(one_to(100));
  EXPECT_DOUBLE_EQ(t100.percentile, 90.0);
  EXPECT_EQ(t100.beyond, 10u);

  const Tail t20k = tail_rule(one_to(20000));
  EXPECT_DOUBLE_EQ(t20k.percentile, 99.9);
  EXPECT_GE(t20k.beyond, 10u);
}

TEST(TailRule, FallsBackToTheMedianOnTinySamples) {
  const Tail t = tail_rule(one_to(5));
  EXPECT_DOUBLE_EQ(t.percentile, 50.0);
  EXPECT_DOUBLE_EQ(t.value, 3.0);
}

TEST(Percentile, InterpolatesLinearly) {
  const auto v = one_to(5);
  EXPECT_DOUBLE_EQ(median(v), 3.0);
  EXPECT_DOUBLE_EQ(percentile(v, 25.0), 2.0);
  EXPECT_DOUBLE_EQ(percentile(v, 90.0), 4.6);
  EXPECT_DOUBLE_EQ(percentile(std::vector<double>{}, 50.0), 0.0);
  EXPECT_DOUBLE_EQ(quiet_quartile(v), 2.0);
  EXPECT_DOUBLE_EQ(quiet_quartile(v, /*higher_is_better=*/true), 4.0);
}

TEST(SelfTime, SubtractsTheUnionOfChildIntervals) {
  std::vector<Span> spans = {
      {"root", 0, 100, -1, "r"},
      {"a", 10, 30, 0, "r"},
      {"b", 20, 50, 0, "r"},   // overlaps a: the union [10, 50) counts once
      {"c", 90, 120, 0, "r"},  // overhangs the parent: clipped to [90, 100)
      {"a.inner", 12, 18, 1, "r"},
      {"other", 0, 40, -1, "s"},
  };
  const auto self = self_times(spans);
  EXPECT_EQ(self[0], 100 - 40 - 10);
  EXPECT_EQ(self[1], 20 - 6);
  EXPECT_EQ(self[2], 30);
  EXPECT_EQ(self[3], 30);
  EXPECT_EQ(self[4], 6);
  EXPECT_EQ(self[5], 40);
  const auto a = self_times_of(spans, self, "a", 1.0);
  ASSERT_EQ(a.size(), 1u);
  EXPECT_DOUBLE_EQ(a[0], 14.0);
}

TEST(SelfTime, RecordedSpansNest) {
  SpanLog log;
  {
    ScopedSpan root(log, "request", -1, "x");
    ScopedSpan child(log, "stage", root.id(), "x");
  }
  ASSERT_EQ(log.spans().size(), 2u);
  EXPECT_EQ(log.spans()[1].parent, 0);
  EXPECT_LE(log.spans()[0].start_ns, log.spans()[1].start_ns);
  EXPECT_GE(log.spans()[0].end_ns, log.spans()[1].end_ns);
  const auto self = self_times(log.spans());
  EXPECT_EQ(self[0] + self[1], log.spans()[0].end_ns - log.spans()[0].start_ns);
}

std::size_t grid_points(const protocol::Request& r) {
  const double nx = std::floor((r.dense.n_hi - r.dense.n_lo) / r.dense.n_step) + 1.0;
  const double ny = std::floor((r.dense.nb_hi - r.dense.nb_lo) / r.dense.nb_step) + 1.0;
  return static_cast<std::size_t>(nx * ny);
}

TEST(Generators, ColdRoundsAreSeededDistinctAndLarge) {
  const auto a = large_cold_round(7, 0);
  EXPECT_EQ(a, large_cold_round(7, 0));
  EXPECT_NE(a, large_cold_round(8, 0));
  EXPECT_NE(a, large_cold_round(7, 1));
  ASSERT_EQ(a.size(), kColdRoundRequests);
  std::set<opm::util::Digest128, bool (*)(const opm::util::Digest128&,
                                          const opm::util::Digest128&)>
      keys([](const opm::util::Digest128& x, const opm::util::Digest128& y) {
        return x.hi != y.hi ? x.hi < y.hi : x.lo < y.lo;
      });
  std::size_t dense = 0;
  for (const std::string& line : a) {
    protocol::Request req;
    protocol::Error err;
    ASSERT_TRUE(protocol::parse_request(line, &req, &err)) << line << ": " << err.message;
    EXPECT_EQ(req.version, 2);
    EXPECT_TRUE(keys.insert(protocol::request_key(req)).second) << "duplicate key: " << line;
    if (req.type == protocol::RequestType::kDense) {
      ++dense;
      EXPECT_GE(grid_points(req), 2000u);
      EXPECT_LE(grid_points(req), 4096u);
    } else if (req.type == protocol::RequestType::kFootprint) {
      EXPECT_GE(req.footprint.points, 2000u);
    }
  }
  EXPECT_GT(dense, a.size() / 2);
}

TEST(Generators, HotUniverseIsSeededDistinctAndSmall) {
  const auto u = small_hot_universe(3);
  EXPECT_EQ(u, small_hot_universe(3));
  EXPECT_NE(u, small_hot_universe(4));
  ASSERT_EQ(u.size(), kHotUniverse);
  EXPECT_EQ(std::set<std::string>(u.begin(), u.end()).size(), u.size());
  std::size_t advise = 0;
  for (const std::string& line : u) {
    protocol::Request req;
    protocol::Error err;
    ASSERT_TRUE(protocol::parse_request(with_req_id(line, "t"), &req, &err))
        << line << ": " << err.message;
    if (req.type == protocol::RequestType::kAdvise) ++advise;
    if (req.type == protocol::RequestType::kDense) {
      EXPECT_LE(grid_points(req), 256u);
    }
    if (req.type == protocol::RequestType::kFootprint) {
      EXPECT_LE(req.footprint.points, 64u);
    }
  }
  EXPECT_EQ(advise, kHotUniverse / 10);
}

TEST(Generators, RegenPlansAreSeededPermutations) {
  const RegenPlan p = regen_plan(11, 82, 16, 3);
  const RegenPlan q = regen_plan(11, 82, 16, 3);
  EXPECT_EQ(p.order, q.order);
  EXPECT_EQ(p.advise_variant, q.advise_variant);
  EXPECT_NE(p.order, regen_plan(12, 82, 16, 3).order);
  std::vector<std::size_t> sorted = p.order;
  std::sort(sorted.begin(), sorted.end());
  for (std::size_t i = 0; i < sorted.size(); ++i) EXPECT_EQ(sorted[i], i);
  for (std::size_t v : p.advise_variant) EXPECT_LT(v, 3u);
}

TEST(OpenLoop, ScheduleOffersExactlyTheRateInOrder) {
  const auto s = open_loop_schedule(5, 400.0, 10.0, 240);
  EXPECT_EQ(s.size(), 4000u);
  EXPECT_TRUE(std::is_sorted(s.begin(), s.end(),
                             [](const Arrival& a, const Arrival& b) { return a.due_ns < b.due_ns; }));
  EXPECT_GE(s.front().due_ns, 0);
  EXPECT_LT(s.back().due_ns, 10'000'000'000LL);
  // Uniform scatter: each second of the schedule holds ~400 arrivals.
  for (int sec = 0; sec < 10; ++sec) {
    const auto n = std::count_if(s.begin(), s.end(), [&](const Arrival& a) {
      return a.due_ns / 1'000'000'000LL == sec;
    });
    EXPECT_NEAR(static_cast<double>(n), 400.0, 80.0) << "second " << sec;
  }
  const auto again = open_loop_schedule(5, 400.0, 10.0, 240);
  for (std::size_t i = 0; i < s.size(); ++i) {
    EXPECT_EQ(s[i].due_ns, again[i].due_ns);
    EXPECT_EQ(s[i].unique, again[i].unique);
  }
  EXPECT_NE(open_loop_schedule(6, 400.0, 10.0, 240)[0].due_ns, s[0].due_ns);
}

TEST(OpenLoop, ZipfDrawsFavourLowRanks) {
  const auto d = zipf_draws(240, 20000, 9);
  std::vector<std::size_t> count(240, 0);
  for (std::size_t r : d) {
    ASSERT_LT(r, 240u);
    ++count[r];
  }
  // P(rank 0) = 1 / H(240) ~ 0.166; P(rank 1) is half of it.
  EXPECT_NEAR(static_cast<double>(count[0]) / 20000.0, 0.166, 0.015);
  EXPECT_NEAR(static_cast<double>(count[1]) / static_cast<double>(count[0]), 0.5, 0.08);
}

}  // namespace
