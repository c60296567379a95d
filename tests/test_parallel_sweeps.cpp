#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <vector>

#include "core/experiment.hpp"
#include "core/result_cache.hpp"
#include "core/sweep.hpp"
#include "sim/memory_system.hpp"
#include "sim/platform.hpp"
#include "sparse/collection.hpp"
#include "util/thread_pool.hpp"

/// The parallel sweep engine's contract, tested from both ends:
///
/// * determinism — every sweep in core/experiment.hpp must produce
///   bit-identical output for workers == 0 (serial inline) and any pool
///   size, because results are written by index and no floating-point
///   reduction order depends on the schedule;
/// * scheduler robustness — the work-stealing pool survives empty ranges,
///   oversized grains, nesting, many concurrent submitters, and throwing
///   bodies (first exception propagates; the process no longer
///   terminates).
///
/// scripts/ci.sh runs this file (with the rest of tier 1) under TSan and
/// ASan/UBSan, which is what actually pins down the deque handoffs.
namespace opm {
namespace {

/// Restores the process-wide worker knob on scope exit so these tests
/// cannot leak a setting into other suites.
class WorkerGuard {
 public:
  WorkerGuard() : saved_(core::sweep_workers()) {}
  ~WorkerGuard() { core::set_sweep_workers(saved_); }

 private:
  std::size_t saved_;
};

const sparse::SyntheticCollection& small_suite() {
  static const auto suite = sparse::SyntheticCollection::test_suite(160, 2'000'000);
  return suite;
}

// ------------------------------------------------ determinism differential --

TEST(SweepDeterminism, DenseSerialVsParallelBitIdentical) {
  WorkerGuard guard;
  const sim::Platform p = sim::broadwell(sim::EdramMode::kOn);
  const core::DenseSweepRequest req{.kernel = core::KernelId::kGemm,
                                    .n_lo = 256.0,
                                    .n_hi = 8192.0,
                                    .n_step = 512.0,
                                    .nb_lo = 128.0,
                                    .nb_hi = 4096.0,
                                    .nb_step = 256.0};
  core::set_sweep_workers(0);
  const auto serial = core::sweep_dense(p, req);
  core::set_sweep_workers(8);
  const auto parallel = core::sweep_dense(p, req);
  ASSERT_EQ(serial.size(), parallel.size());
  EXPECT_TRUE(serial == parallel);  // bit-identical, not approximately equal
}

TEST(SweepDeterminism, SparseSerialVsParallelBitIdentical) {
  WorkerGuard guard;
  const sim::Platform p = sim::knl(sim::McdramMode::kFlat);
  for (auto kernel :
       {core::KernelId::kSpmv, core::KernelId::kSptrans, core::KernelId::kSptrsv}) {
    core::set_sweep_workers(0);
    const auto serial = core::sweep_sparse(p, {.kernel = kernel}, small_suite());
    core::set_sweep_workers(8);
    const auto parallel = core::sweep_sparse(p, {.kernel = kernel}, small_suite());
    ASSERT_EQ(serial.size(), small_suite().size());
    EXPECT_TRUE(serial == parallel) << "kernel " << core::to_string(kernel);
  }
}

TEST(SweepDeterminism, FootprintSerialVsParallelBitIdentical) {
  WorkerGuard guard;
  const sim::Platform p = sim::knl(sim::McdramMode::kCache);
  const core::FootprintSweepRequest req{
      .kernel = core::KernelId::kStream, .fp_lo = 16.0 * 1024, .fp_hi = 1e9, .points = 64};
  core::set_sweep_workers(0);
  const auto serial = core::sweep_footprint_kernel(p, req);
  core::set_sweep_workers(8);
  const auto parallel = core::sweep_footprint_kernel(p, req);
  EXPECT_TRUE(serial == parallel);
}

TEST(SweepDeterminism, Table5AndSummariesBitIdentical) {
  WorkerGuard guard;
  core::set_sweep_workers(0);
  const auto serial = core::table5_mcdram(small_suite());
  core::set_sweep_workers(8);
  const auto parallel = core::table5_mcdram(small_suite());
  ASSERT_EQ(serial.size(), 8u);
  EXPECT_TRUE(serial == parallel);  // every SpeedupSummary field, bitwise
}

TEST(SweepDeterminism, PowerRowsBitIdentical) {
  WorkerGuard guard;
  const sim::Platform p = sim::broadwell(sim::EdramMode::kOn);
  core::set_sweep_workers(0);
  const auto serial = core::power_rows(p, small_suite());
  core::set_sweep_workers(8);
  const auto parallel = core::power_rows(p, small_suite());
  EXPECT_TRUE(serial == parallel);
}

// ----------------------------------------------------------- observability --

TEST(SweepStats, RecordsTopLevelSweep) {
  WorkerGuard guard;
  core::set_sweep_workers(2);
  core::drain_sweep_stats();
  const sim::Platform p = sim::knl(sim::McdramMode::kFlat);
  core::sweep_sparse(p, {.kernel = core::KernelId::kSpmv}, small_suite());
  const auto stats = core::drain_sweep_stats();
  ASSERT_EQ(stats.size(), 1u);
  const auto& s = stats[0];
  EXPECT_EQ(s.name, "sweep_sparse:SpMV");
  EXPECT_EQ(s.workers, 2u);
  EXPECT_EQ(s.items, small_suite().size());
  EXPECT_GT(s.tasks, 0u);
  EXPECT_GT(s.wall_seconds, 0.0);
  // Per-worker busy times sum to the total (2 workers + 1 helper slot).
  ASSERT_EQ(s.worker_busy_seconds.size(), 3u);
  double sum = 0.0;
  for (double b : s.worker_busy_seconds) sum += b;
  EXPECT_DOUBLE_EQ(sum, s.busy_seconds);
  // busy_ns is *exclusive* (nested task time is subtracted), so the total
  // can never exceed the wall window times the threads that could run
  // (2 workers + the helping caller); slack for clock-read jitter.
  EXPECT_LE(s.busy_seconds, s.wall_seconds * 3.0 * 1.25);
}

TEST(SweepStats, SerialSweepRecordsWorkersZero) {
  WorkerGuard guard;
  core::set_sweep_workers(0);
  core::drain_sweep_stats();
  const sim::Platform p = sim::broadwell(sim::EdramMode::kOff);
  core::sweep_footprint_kernel(
      p, {.kernel = core::KernelId::kStream, .fp_lo = 1e6, .fp_hi = 1e8, .points = 16});
  const auto stats = core::drain_sweep_stats();
  ASSERT_EQ(stats.size(), 1u);
  EXPECT_EQ(stats[0].workers, 0u);
  EXPECT_EQ(stats[0].items, 16u);
  EXPECT_DOUBLE_EQ(stats[0].busy_seconds, stats[0].wall_seconds);
}

TEST(SweepStats, NestedSweepsFoldIntoTopLevel) {
  WorkerGuard guard;
  for (std::size_t workers : {std::size_t{0}, std::size_t{4}}) {
    core::set_sweep_workers(workers);
    core::drain_sweep_stats();
    core::table4_edram(small_suite());  // runs 8 kernels x 2 platforms of nested sweeps
    const auto stats = core::drain_sweep_stats();
    ASSERT_EQ(stats.size(), 1u) << "workers " << workers;
    EXPECT_EQ(stats[0].name, "table4_edram");
    EXPECT_EQ(stats[0].items, 8u);
  }
}

TEST(SweepStats, CsvAndJsonEmission) {
  core::SweepStats s;
  s.name = "sweep_sparse:SpMV";
  s.workers = 4;
  s.items = 968;
  s.tasks = 121;
  s.steals = 17;
  s.wall_seconds = 0.5;
  s.busy_seconds = 1.5;
  s.worker_busy_seconds = {0.5, 0.25, 0.5, 0.25, 0.0};

  s.cache_hits = 1;
  s.cache_bytes_loaded = 2048;
  s.cache_source = "disk";

  std::ostringstream csv;
  core::write_sweep_stats_csv(csv, {s});
  EXPECT_NE(csv.str().find("sweep,workers,items,tasks,steals,wall_s,busy_s,speedup_est,"
                           "cache_hits,cache_misses,cache_loaded_b,cache_stored_b,cache_s,"
                           "cache_src"),
            std::string::npos);
  EXPECT_NE(csv.str().find("sweep_sparse:SpMV,4,968,121,17,0.5,1.5,3,1,0,2048,0,0,disk"),
            std::string::npos);

  const std::string json = core::sweep_stats_json(s);
  EXPECT_NE(json.find("\"sweep\":\"sweep_sparse:SpMV\""), std::string::npos);
  EXPECT_NE(json.find("\"steals\":17"), std::string::npos);
  EXPECT_NE(json.find("\"cache\":{\"hits\":1,\"misses\":0,\"loaded_b\":2048,\"stored_b\":0,"
                      "\"seconds\":0,\"source\":\"disk\"}"),
            std::string::npos);
  EXPECT_NE(json.find("\"worker_busy_s\":[0.5,0.25,0.5,0.25,0]"), std::string::npos);
  EXPECT_EQ(s.speedup_estimate(), 3.0);
}

TEST(SweepStats, WorkerKnobRoundTrips) {
  WorkerGuard guard;
  core::set_sweep_workers(5);
  EXPECT_EQ(core::sweep_workers(), 5u);
  core::set_sweep_workers(0);
  EXPECT_EQ(core::sweep_workers(), 0u);
}

// ------------------------------------------------------- cache concurrency --

/// Restores the result-cache configuration (and clears the memory tier)
/// on scope exit so cache tests cannot leak state into other suites.
class CacheGuard {
 public:
  CacheGuard() : saved_(core::result_cache_config()) {}
  ~CacheGuard() { core::configure_result_cache(saved_); }

 private:
  core::CacheConfig saved_;
};

TEST(SweepCache, ConcurrentMixedHitMissLookupsFromWorkers) {
  WorkerGuard guard;
  CacheGuard cache_guard;
  const sim::Platform off = sim::broadwell(sim::EdramMode::kOff);

  core::configure_result_cache({.enabled = false});
  core::set_sweep_workers(4);
  const auto reference = core::table4_edram(small_suite());

  // Memory tier only: this test is about shard-table thread safety, not
  // the disk format (tests/test_result_cache.cpp covers that).
  core::configure_result_cache({.enabled = true, .disk = false});
  core::reset_result_cache_stats();
  // Pre-warm a minority of the per-kernel input keys, so the table-4 fan
  // out below issues concurrent worker-side lookups that MIX hits (the
  // warmed keys) and misses-then-stores (everything else).
  for (auto k : {core::KernelId::kGemm, core::KernelId::kSpmv, core::KernelId::kStream})
    core::table_inputs_gflops(off, k, small_suite());
  const auto warmup = core::result_cache_stats();
  EXPECT_GT(warmup.stores, 0u);

  const auto cached = core::table4_edram(small_suite());
  const auto stats = core::result_cache_stats();
  EXPECT_GE(stats.memory_hits, 3u);        // the pre-warmed keys hit from workers
  EXPECT_GT(stats.misses, warmup.misses);  // the cold keys missed concurrently
  EXPECT_EQ(stats.faults(), 0u);
  EXPECT_TRUE(reference == cached);  // hits are bit-identical to recompute
}

TEST(SweepCache, HitsAcrossWorkerCountsStayBitIdentical) {
  WorkerGuard guard;
  CacheGuard cache_guard;
  core::configure_result_cache({.enabled = true, .disk = false});
  const sim::Platform p = sim::knl(sim::McdramMode::kFlat);

  core::set_sweep_workers(0);
  const auto cold = core::sweep_sparse(p, {.kernel = core::KernelId::kSpmv}, small_suite());
  // The key ignores the worker count — a warm lookup under any pool size
  // returns the serial run's exact bytes.
  for (std::size_t workers : {std::size_t{1}, std::size_t{4}, std::size_t{8}}) {
    core::set_sweep_workers(workers);
    const auto warm = core::sweep_sparse(p, {.kernel = core::KernelId::kSpmv}, small_suite());
    EXPECT_TRUE(cold == warm) << "workers " << workers;
  }
}

// ----------------------------------------------- pool edge cases & stress --

TEST(ThreadPoolEdge, EmptyRangeRunsNothing) {
  util::ThreadPool pool(4);
  std::atomic<int> count{0};
  pool.parallel_for(10, 10, 1, [&](std::size_t) { ++count; });
  pool.parallel_for(10, 3, 1, [&](std::size_t) { ++count; });  // end < begin
  EXPECT_EQ(count.load(), 0);
  EXPECT_TRUE(pool.parallel_transform(5, 5, 1, [](std::size_t i) { return i; }).empty());
}

TEST(ThreadPoolEdge, GrainLargerThanRangeRunsInline) {
  util::ThreadPool pool(4);
  std::vector<int> hits(20, 0);  // not atomic: a single inline chunk may touch it
  pool.parallel_for(0, hits.size(), 1000, [&](std::size_t i) { hits[i]++; });
  for (int h : hits) EXPECT_EQ(h, 1);
}

TEST(ThreadPoolEdge, NestedParallelForCompletes) {
  util::ThreadPool pool(3);
  std::atomic<int> count{0};
  pool.parallel_for(0, 8, 1, [&](std::size_t) {
    pool.parallel_for(0, 200, 16, [&](std::size_t) { ++count; });
  });
  EXPECT_EQ(count.load(), 8 * 200);
}

TEST(ThreadPoolEdge, TenThousandTaskChurnFromManySubmitters) {
  util::ThreadPool pool(4);
  std::atomic<long long> sum{0};
  constexpr int kSubmitters = 5;
  constexpr int kRounds = 20;
  constexpr std::size_t kTasks = 100;  // grain 1 -> one pool task per index
  std::vector<std::thread> submitters;  // opm-lint: allow(thread-ownership) — contention fixture
  for (int t = 0; t < kSubmitters; ++t) {
    submitters.emplace_back([&] {
      for (int round = 0; round < kRounds; ++round)
        pool.parallel_for(0, kTasks, 1,
                          [&](std::size_t i) { sum += static_cast<long long>(i) + 1; });
    });
  }
  for (auto& t : submitters) t.join();
  // 5 threads x 20 rounds x sum(1..100)
  EXPECT_EQ(sum.load(), 5LL * 20LL * 5050LL);
  EXPECT_GE(pool.totals().tasks, 10000u);
}

TEST(ThreadPoolEdge, ThrowingBodyPropagatesInsteadOfTerminating) {
  util::ThreadPool pool(4);
  EXPECT_THROW(
      pool.parallel_for(0, 1000, 10,
                        [](std::size_t i) {
                          if (i == 337) throw std::runtime_error("boom");
                        }),
      std::runtime_error);
  // The pool survives and keeps scheduling.
  std::atomic<int> count{0};
  pool.parallel_for(0, 100, 5, [&](std::size_t) { ++count; });
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPoolEdge, ThrowingBodyPropagatesFromInlinePath) {
  util::ThreadPool pool(0);  // serial inline execution
  EXPECT_THROW(pool.parallel_for(0, 10, 1,
                                 [](std::size_t i) {
                                   if (i == 3) throw std::invalid_argument("inline");
                                 }),
               std::invalid_argument);
}

TEST(ThreadPoolEdge, ThrowPreservesExceptionMessage) {
  util::ThreadPool pool(2);
  try {
    pool.parallel_for(0, 64, 1, [](std::size_t) { throw std::runtime_error("first"); });
    FAIL() << "expected throw";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "first");
  }
}

TEST(ThreadPoolEdge, ParallelTransformOrderedForAnyWorkerCount) {
  for (std::size_t workers : {std::size_t{0}, std::size_t{1}, std::size_t{4}}) {
    util::ThreadPool pool(workers);
    const auto out =
        pool.parallel_transform(3, 103, 7, [](std::size_t i) { return i * i; });
    ASSERT_EQ(out.size(), 100u);
    for (std::size_t i = 0; i < out.size(); ++i) EXPECT_EQ(out[i], (i + 3) * (i + 3));
  }
}

TEST(ThreadPoolEdge, ParallelTransformPropagatesException) {
  util::ThreadPool pool(4);
  EXPECT_THROW(pool.parallel_transform(0, 500, 8,
                                       [](std::size_t i) -> double {
                                         if (i == 250) throw std::domain_error("bad");
                                         return static_cast<double>(i);
                                       }),
               std::domain_error);
}

// ------------------------------------------------------- asynchronous fork --

TEST(ThreadPoolFork, ForkRunsEveryIndexWhileTheCallerGoesOn) {
  util::ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(500);
  auto fork = pool.fork(0, hits.size(), 7, [&](std::size_t i) { hits[i].fetch_add(1); });
  double busy = 0.0;  // the caller's own work while the fork runs
  for (int i = 0; i < 1000; ++i) busy += static_cast<double>(i);
  fork->join();
  fork->join();  // idempotent
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
  EXPECT_GT(busy, 0.0);
}

TEST(ThreadPoolFork, JoinRethrowsTheFirstException) {
  util::ThreadPool pool(2);
  auto fork = pool.fork(0, 100, 1, [](std::size_t i) {
    if (i == 40) throw std::runtime_error("fork failed");
  });
  EXPECT_THROW(fork->join(), std::runtime_error);
}

TEST(ThreadPoolFork, DestructorJoinsAndDropsTheException) {
  util::ThreadPool pool(2);
  std::atomic<int> started{0};
  std::atomic<int> finished{0};
  {
    auto fork = pool.fork(0, 64, 1, [&](std::size_t i) {
      started.fetch_add(1);
      std::this_thread::sleep_for(std::chrono::microseconds(100));
      finished.fetch_add(1);
      if (i == 3) throw std::runtime_error("nobody joins");
    });
  }
  // Once the handle is gone no task is still running (the chunks after
  // the exception are skipped, as in parallel_for).
  EXPECT_GT(started.load(), 0);
  EXPECT_EQ(started.load(), finished.load());
}

TEST(ThreadPoolFork, WithoutWorkersRunsInlineBeforeReturning) {
  util::ThreadPool pool(0);
  int sum = 0;
  auto fork = pool.fork(0, 10, 1, [&](std::size_t i) { sum += static_cast<int>(i); });
  EXPECT_EQ(sum, 45);
  fork->join();
}

TEST(ThreadPoolFork, ForkFromInsideATaskCompletes) {
  util::ThreadPool pool(2);
  std::atomic<int> inner{0};
  pool.parallel_for(0, 4, 1, [&](std::size_t) {
    auto fork = pool.fork(0, 16, 1, [&](std::size_t) { inner.fetch_add(1); });
    fork->join();
  });
  EXPECT_EQ(inner.load(), 64);
}

// ------------------------------------------------------ shared pool owners --

TEST(SharedPool, ResizingWhileASweepAndASlicedReplayRunIsSafe) {
  // Holders keep the pool they got: a sweep holds it for its fork-join, a
  // sliced MemorySystem for its whole life. Resizing the knob underneath
  // both must neither tear a pool down under them nor change a result.
  WorkerGuard guard;
  const sim::Platform p = sim::broadwell(sim::EdramMode::kOn);
  const auto drive = [&p](sim::MemorySystem& ms) {
    ms.enable_prefetcher(16, 4);
    std::uint64_t x = 0x9e3779b97f4a7c15ull;
    for (int i = 0; i < 300000; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      ms.access_range(i % 3 == 0 ? (x % (64ull << 20)) : static_cast<std::uint64_t>(i) * 8, 8,
                      i % 5 == 0);
    }
    return ms.report();
  };
  core::set_sweep_workers(0);
  sim::MemorySystem serial(p);
  const sim::TrafficReport want_traffic = drive(serial);
  const auto square = [](std::size_t i) {
    double v = static_cast<double>(i);
    for (int k = 0; k < 200; ++k) v = v * 1.0000001 + 1.0;
    return v;
  };
  const std::vector<double> want_sweep = core::sweep_transform("resize_probe", 20000, 16, square);

  core::set_sweep_workers(4);
  std::atomic<bool> stop{false};
  std::thread resizer([&stop] {  // opm-lint: allow(thread-ownership) — the resizing caller
    const std::size_t sizes[] = {2, 0, 3, 1, 4};
    for (std::size_t k = 0; !stop.load(); ++k) {
      core::set_sweep_workers(sizes[k % 5]);
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  });
  std::vector<double> got_sweep;
  sim::TrafficReport got_traffic;
  std::thread sweeper([&] {  // opm-lint: allow(thread-ownership) — a sweep's own caller
    for (int rep = 0; rep < 4; ++rep)
      got_sweep = core::sweep_transform("resize_probe", 20000, 16, square);
  });
  std::thread simulator([&] {  // opm-lint: allow(thread-ownership) — a replay's own caller
    for (int rep = 0; rep < 2; ++rep) {
      sim::MemorySystem ms(p);
      got_traffic = drive(ms);
    }
  });
  sweeper.join();
  simulator.join();
  stop = true;
  resizer.join();
  EXPECT_EQ(got_sweep, want_sweep);
  EXPECT_EQ(got_traffic, want_traffic);
}

TEST(ThreadPoolEdge, CountersAccumulateAcrossCalls) {
  util::ThreadPool pool(2);
  const auto before = pool.totals();
  pool.parallel_for(0, 1000, 10, [](std::size_t) {});
  const auto after = pool.totals();
  EXPECT_GE(after.tasks - before.tasks, 100u);  // 1000/10 chunks
  EXPECT_GE(after.busy_seconds, before.busy_seconds);
  // worker_counters exposes workers + the external-helper slot.
  EXPECT_EQ(pool.worker_counters().size(), 3u);
}

TEST(ThreadPoolEdge, TaskCountIsCompleteWhenParallelForReturns) {
  // A chunk is counted before its body runs: the body's last act counts it
  // off the batch, which is what lets parallel_for return.
  util::ThreadPool pool(2);
  for (std::size_t call = 0; call < 400; ++call) {
    const std::size_t grain = 1 + call % 4;
    const std::size_t n = 8 + call % 57;  // always more than one chunk
    const std::size_t chunks = (n + grain - 1) / grain;
    const std::uint64_t before = pool.totals().tasks;
    pool.parallel_for(0, n, grain, [](std::size_t) {});
    ASSERT_EQ(pool.totals().tasks - before, chunks) << "call " << call;
  }
}

}  // namespace
}  // namespace opm
