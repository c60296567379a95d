#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <thread>
#include <type_traits>
#include <vector>

#include "util/mutex.hpp"
#include "util/thread_safety.hpp"

/// Work-stealing worker pool.
///
/// The paper's kernels run with 4-256 threads (Table 2); the parallel
/// kernel variants in opm::kernels and the core sweep engine
/// (core/sweep.hpp) use this pool for their fork-join loops. With
/// `workers == 0` everything degenerates to inline serial execution (the
/// mode used by the deterministic tests and by single-core CI
/// environments).
///
/// Scheduling: every worker owns a deque; it pops its own work LIFO
/// (cache-hot, nested loops run depth-first) and steals FIFO from a
/// victim when its deque runs dry. Threads that call `parallel_for` /
/// `parallel_transform` — workers and external submitters alike — help
/// execute outstanding tasks while they wait, so nested parallel loops
/// cannot deadlock the pool.
///
/// Exceptions thrown by a loop body are captured; the first one (in
/// completion order) is rethrown from the forking call once the batch has
/// drained, and the remaining chunks of that batch are skipped. Results
/// of `parallel_transform` are written by index, so output ordering is
/// bit-identical for any worker count.
namespace opm::util {

class ThreadPool {
 public:
  /// Cumulative per-worker scheduler counters (monotonic over the pool's
  /// lifetime; sample before/after a region to attribute work to it).
  /// `tasks` and `steals` are counted before a task's body runs, so once
  /// parallel_for returns they include every chunk of that call.
  /// `busy_seconds` is added after the body: read right after a call
  /// returns, it may still miss that call's last chunk.
  struct WorkerCounters {
    std::uint64_t tasks = 0;    ///< chunk tasks executed by this worker
    std::uint64_t steals = 0;   ///< tasks taken from another worker's deque
    double busy_seconds = 0.0;  ///< wall time spent inside task bodies
  };

  /// Spawns `workers` threads; 0 means run every task inline.
  explicit ThreadPool(std::size_t workers);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t workers() const { return threads_.size(); }

  /// Fork-join parallel for over [begin, end): splits the range into
  /// chunks of at least `grain` iterations, runs `body(i)` for every i,
  /// and returns when all iterations completed (or the batch was cut
  /// short by a throwing body, in which case the first captured exception
  /// is rethrown here).
  void parallel_for(std::size_t begin, std::size_t end, std::size_t grain,
                    const std::function<void(std::size_t)>& body);

 private:
  struct Batch;

 public:
  /// An asynchronous fork started by fork(): its chunks run on the workers
  /// while the caller goes on. join() helps run them, returns once all
  /// finished, and rethrows the first exception; the destructor joins too
  /// (dropping an exception nobody asked for).
  class Fork {
   public:
    ~Fork();
    Fork(const Fork&) = delete;
    Fork& operator=(const Fork&) = delete;
    void join();

   private:
    friend class ThreadPool;
    Fork(ThreadPool& pool, std::function<void(std::size_t)> body);
    ThreadPool& pool_;
    std::function<void(std::size_t)> body_;
    std::unique_ptr<Batch> batch_;  ///< nullptr once joined (or when run inline)
  };

  /// Starts body(i) for every i in [begin, end), chunked like
  /// parallel_for, but returns as soon as the chunks are queued — a
  /// single chunk too. With no workers the loop runs inline before fork()
  /// returns.
  std::unique_ptr<Fork> fork(std::size_t begin, std::size_t end, std::size_t grain,
                             std::function<void(std::size_t)> body);

  /// Fork-join map over [begin, end): returns {fn(begin), ..., fn(end-1)}.
  /// Each result is written to its own slot, so the output is bit-identical
  /// to the serial loop for any worker count (fn must not touch shared
  /// mutable state). The result type must be default-constructible.
  template <typename Fn>
  auto parallel_transform(std::size_t begin, std::size_t end, std::size_t grain, Fn&& fn)
      -> std::vector<std::decay_t<decltype(fn(std::size_t{0}))>> {
    using T = std::decay_t<decltype(fn(std::size_t{0}))>;
    std::vector<T> out(end > begin ? end - begin : 0);
    parallel_for(begin, end, grain, [&](std::size_t i) { out[i - begin] = fn(i); });
    return out;
  }

  /// Snapshot of every worker's counters (index = worker id). The last
  /// entry aggregates work executed by helping non-worker threads.
  std::vector<WorkerCounters> worker_counters() const;

  /// Sum of worker_counters().
  WorkerCounters totals() const;

  /// True when the calling thread is one of this pool's workers (used to
  /// detect nested parallel regions).
  bool on_worker_thread() const;

 private:
  struct Task {
    std::function<void()> fn;
  };

  /// One worker's deque plus its counters, padded to a cache line so the
  /// hot-path counter updates never false-share.
  struct alignas(64) Worker {
    mutable Mutex mutex;
    std::deque<Task> deque OPM_GUARDED_BY(mutex);
    std::atomic<std::uint64_t> tasks{0};
    std::atomic<std::uint64_t> steals{0};
    std::atomic<std::uint64_t> busy_ns{0};
  };

  void worker_loop(std::size_t index) OPM_EXCLUDES(sleep_mutex_);
  /// Queues a task on `slot`'s deque; wake() then announces the batch.
  void push_task(std::size_t slot, Task task);
  /// Publishes `tasks` newly queued tasks and wakes as many sleepers.
  void wake(std::size_t tasks) OPM_EXCLUDES(sleep_mutex_);
  /// Pops or steals one task and runs it; `self` is the calling worker's
  /// index, or workers() for helping external threads. Returns false when
  /// no task was available anywhere.
  bool run_one_task(std::size_t self);
  void help_until_done(Batch& batch);
  /// Queues [begin, end) of `body` as chunk tasks of `batch`.
  void submit(Batch& batch, const std::function<void(std::size_t)>& body, std::size_t begin,
              std::size_t end, std::size_t chunk);
  /// Helps until `batch` drained, then rethrows its first exception.
  void join(Batch& batch);

  /// Touched only by the constructor and destructor, which cannot race by
  /// the object-lifetime rules — no capability needed.
  std::vector<std::thread> threads_;
  /// workers() + 1 slots: one per worker plus a shared slot that both
  /// receives external submissions and accumulates external helpers'
  /// counters. The vector itself is immutable after construction; each
  /// Worker guards its own deque.
  std::vector<std::unique_ptr<Worker>> slots_;
  std::atomic<std::size_t> next_slot_{0};  ///< round-robin external placement

  Mutex sleep_mutex_;
  CondVar sleep_cv_;
  std::atomic<std::size_t> pending_{0};  ///< tasks sitting in deques
  bool stopping_ OPM_GUARDED_BY(sleep_mutex_) = false;
};

/// The process-wide shared pool: one pool behind one knob. The sweep
/// engine (core/sweep.hpp, whose set_sweep_workers() is the knob's public
/// face) and the set-sliced simulator (sim/memory_system.hpp) both run on
/// it. Ownership is shared: a resize builds a new pool for later callers,
/// while every holder — a running sweep, a MemorySystem between flushes —
/// keeps the pool it got alive until it lets go.
///
/// Sets the shared pool's worker count (default: hardware concurrency).
/// 0 makes shared_pool() return nullptr, i.e. callers run inline.
void set_shared_pool_workers(std::size_t n);

/// Currently configured shared-pool worker count.
std::size_t shared_pool_workers();

/// The shared pool, built on first use with shared_pool_workers()
/// workers; nullptr when that count is 0.
std::shared_ptr<ThreadPool> shared_pool();

/// True when the calling thread is a worker of the current shared pool.
/// Never builds the pool.
bool on_shared_pool_worker();

}  // namespace opm::util
