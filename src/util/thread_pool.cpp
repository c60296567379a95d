#include "util/thread_pool.hpp"

#include <algorithm>
#include <chrono>
#include <thread>

namespace opm::util {

namespace {

/// Identity of the worker thread currently executing, if any. A worker
/// belongs to exactly one pool for its whole lifetime, so a plain pair of
/// thread-locals is enough to recognize nested parallel regions.
thread_local const ThreadPool* tls_pool = nullptr;
thread_local std::size_t tls_index = 0;

/// Time this thread has spent inside tasks nested under the task it is
/// currently running (helping joins re-enter run_one_task). Subtracted
/// from the enclosing task's elapsed time so busy_ns is *exclusive* —
/// summing it across workers never double-counts nested parallelism.
thread_local std::uint64_t tls_nested_ns = 0;

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace

/// Join state of one fork-join call. `remaining` counts unfinished chunk
/// tasks; the first exception (in completion order) is kept and the rest
/// of the batch is skipped via `failed`.
struct ThreadPool::Batch {
  explicit Batch(std::size_t chunks) : remaining(chunks) {}

  std::atomic<std::size_t> remaining;
  std::atomic<bool> failed{false};
  Mutex mutex;
  std::exception_ptr first_exception OPM_GUARDED_BY(mutex);
  CondVar cv;  // signalled when remaining reaches 0
};

ThreadPool::ThreadPool(std::size_t workers) {
  slots_.reserve(workers + 1);
  for (std::size_t i = 0; i < workers + 1; ++i) slots_.push_back(std::make_unique<Worker>());
  threads_.reserve(workers);
  for (std::size_t i = 0; i < workers; ++i)
    threads_.emplace_back([this, i] { worker_loop(i); });
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(sleep_mutex_);
    stopping_ = true;
  }
  sleep_cv_.notify_all();
  for (auto& t : threads_) t.join();
}

bool ThreadPool::on_worker_thread() const { return tls_pool == this; }

void ThreadPool::worker_loop(std::size_t index) {
  tls_pool = this;
  tls_index = index;
  for (;;) {
    if (run_one_task(index)) continue;
    MutexLock lock(sleep_mutex_);
    while (!stopping_ && pending_.load(std::memory_order_acquire) == 0)
      sleep_cv_.wait(sleep_mutex_);
    if (stopping_ && pending_.load(std::memory_order_acquire) == 0) return;
  }
}

void ThreadPool::push_task(std::size_t slot, Task task) {
  Worker& w = *slots_[slot];
  MutexLock lock(w.mutex);
  w.deque.push_back(std::move(task));
}

void ThreadPool::wake(std::size_t tasks) {
  pending_.fetch_add(tasks, std::memory_order_release);
  // Lock/unlock pairs the notify with any waiter between its predicate
  // check and its wait, so the wakeup cannot be lost.
  { MutexLock lock(sleep_mutex_); }
  if (tasks >= threads_.size()) {
    sleep_cv_.notify_all();
  } else {
    for (std::size_t i = 0; i < tasks; ++i) sleep_cv_.notify_one();
  }
}

bool ThreadPool::run_one_task(std::size_t self) {
  Task task;
  bool have = false;
  bool stolen = false;

  // Own deque first, LIFO: the newest chunk is cache-hot and, for nested
  // parallel loops, depth-first.
  {
    Worker& me = *slots_[self];
    MutexLock lock(me.mutex);
    if (!me.deque.empty()) {
      task = std::move(me.deque.back());
      me.deque.pop_back();
      have = true;
    }
  }
  // Steal FIFO from the other slots: the oldest chunk is the one its
  // owner would get to last.
  if (!have) {
    for (std::size_t k = 1; k < slots_.size() && !have; ++k) {
      Worker& victim = *slots_[(self + k) % slots_.size()];
      MutexLock lock(victim.mutex);
      if (!victim.deque.empty()) {
        task = std::move(victim.deque.front());
        victim.deque.pop_front();
        have = true;
        stolen = true;
      }
    }
  }
  if (!have) return false;

  pending_.fetch_sub(1, std::memory_order_release);
  // Counted before the body runs: the body's last act counts the chunk off
  // its batch, and the joiner may read totals() as soon as it sees that.
  Worker& me = *slots_[self];
  me.tasks.fetch_add(1, std::memory_order_relaxed);
  if (stolen) me.steals.fetch_add(1, std::memory_order_relaxed);
  const std::uint64_t saved_nested = tls_nested_ns;
  tls_nested_ns = 0;
  const std::uint64_t t0 = now_ns();
  task.fn();
  const std::uint64_t elapsed = now_ns() - t0;
  const std::uint64_t inner = tls_nested_ns;
  tls_nested_ns = saved_nested + elapsed;
  me.busy_ns.fetch_add(elapsed > inner ? elapsed - inner : 0, std::memory_order_relaxed);
  return true;
}

void ThreadPool::help_until_done(Batch& batch) {
  using namespace std::chrono_literals;
  const std::size_t self = on_worker_thread() ? tls_index : slots_.size() - 1;
  while (batch.remaining.load(std::memory_order_acquire) != 0) {
    if (run_one_task(self)) continue;
    // Nothing runnable anywhere: the batch's last tasks are in flight on
    // other threads. Sleep until the batch signals (or briefly, in case
    // new stealable work appears via nesting). The outer while re-checks
    // the join condition, so a timeout or spurious wakeup is harmless.
    MutexLock lock(batch.mutex);
    if (batch.remaining.load(std::memory_order_acquire) != 0)
      batch.cv.wait_for(batch.mutex, 100us);
  }
}

void ThreadPool::parallel_for(std::size_t begin, std::size_t end, std::size_t grain,
                              const std::function<void(std::size_t)>& body) {
  if (end <= begin) return;
  const std::size_t n = end - begin;
  const std::size_t chunk = std::max<std::size_t>(grain, 1);
  if (threads_.empty() || n <= chunk) {
    for (std::size_t i = begin; i < end; ++i) body(i);
    return;
  }
  Batch batch((n + chunk - 1) / chunk);
  submit(batch, body, begin, end, chunk);
  join(batch);
}

std::unique_ptr<ThreadPool::Fork> ThreadPool::fork(std::size_t begin, std::size_t end,
                                                   std::size_t grain,
                                                   std::function<void(std::size_t)> body) {
  std::unique_ptr<Fork> f(new Fork(*this, std::move(body)));
  if (end <= begin) return f;
  if (threads_.empty()) {
    for (std::size_t i = begin; i < end; ++i) f->body_(i);
    return f;
  }
  const std::size_t n = end - begin;
  const std::size_t chunk = std::max<std::size_t>(grain, 1);
  f->batch_ = std::make_unique<Batch>((n + chunk - 1) / chunk);
  submit(*f->batch_, f->body_, begin, end, chunk);
  return f;
}

ThreadPool::Fork::Fork(ThreadPool& pool, std::function<void(std::size_t)> body)
    : pool_(pool), body_(std::move(body)) {}

ThreadPool::Fork::~Fork() {
  if (batch_ == nullptr) return;
  try {
    join();
  } catch (...) {
    // Destroyed without a join: nobody is left to take the exception.
  }
}

void ThreadPool::Fork::join() {
  if (batch_ == nullptr) return;
  const std::unique_ptr<Batch> batch = std::move(batch_);
  pool_.join(*batch);
}

void ThreadPool::submit(Batch& batch, const std::function<void(std::size_t)>& body,
                        std::size_t begin, std::size_t end, std::size_t chunk) {
  const std::size_t chunks = (end - begin + chunk - 1) / chunk;
  const bool from_worker = on_worker_thread();
  for (std::size_t c = 0; c < chunks; ++c) {
    const std::size_t lo = begin + c * chunk;
    const std::size_t hi = std::min(end, lo + chunk);
    Task task{[&batch, &body, lo, hi] {
      if (!batch.failed.load(std::memory_order_relaxed)) {
        try {
          for (std::size_t i = lo; i < hi; ++i) body(i);
        } catch (...) {
          MutexLock lock(batch.mutex);
          if (!batch.first_exception) batch.first_exception = std::current_exception();
          batch.failed.store(true, std::memory_order_relaxed);
        }
      }
      // Decrement under the batch mutex: the joiner's final lock in
      // join() then cannot be acquired until this thread is fully done
      // touching the batch, so the Batch (mutex + cv) is never destroyed
      // while a finisher is still inside notify_all.
      {
        MutexLock lock(batch.mutex);
        if (batch.remaining.fetch_sub(1, std::memory_order_acq_rel) == 1)
          batch.cv.notify_all();
      }
    }};
    // A worker forks onto its own deque (it pops the work back LIFO while
    // idle workers steal the far end); external threads scatter chunks
    // round-robin across the workers.
    const std::size_t slot =
        from_worker ? tls_index
                    : next_slot_.fetch_add(1, std::memory_order_relaxed) % threads_.size();
    push_task(slot, std::move(task));
  }
  wake(chunks);
}

void ThreadPool::join(Batch& batch) {
  help_until_done(batch);
  std::exception_ptr err;
  {
    // Pairs with the locked final decrement in the task epilogue: once
    // this lock is held, no task can still be inside the batch's
    // mutex/cv, so it is safe to read the exception and destroy Batch.
    MutexLock lock(batch.mutex);
    err = batch.first_exception;
  }
  if (err) std::rethrow_exception(err);
}

std::vector<ThreadPool::WorkerCounters> ThreadPool::worker_counters() const {
  std::vector<WorkerCounters> out;
  out.reserve(slots_.size());
  for (const auto& w : slots_) {
    WorkerCounters c;
    c.tasks = w->tasks.load(std::memory_order_relaxed);
    c.steals = w->steals.load(std::memory_order_relaxed);
    c.busy_seconds = static_cast<double>(w->busy_ns.load(std::memory_order_relaxed)) * 1e-9;
    out.push_back(c);
  }
  return out;
}

namespace {

std::size_t default_workers() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<std::size_t>(hw);
}

struct SharedPoolRegistry {
  Mutex mutex;  // guards pool (re)construction
  /// nullptr until the first shared_pool() call builds it.
  std::shared_ptr<ThreadPool> pool OPM_GUARDED_BY(mutex);
  std::atomic<std::size_t> workers{default_workers()};
};

SharedPoolRegistry& shared_registry() {
  static SharedPoolRegistry r;
  return r;
}

}  // namespace

void set_shared_pool_workers(std::size_t n) {
  SharedPoolRegistry& r = shared_registry();
  std::shared_ptr<ThreadPool> old;
  {
    MutexLock lock(r.mutex);
    r.workers.store(n, std::memory_order_relaxed);
    if (r.pool && r.pool->workers() != n) old = std::move(r.pool);
  }
  // Dropped outside the lock: if this was the last reference, the
  // destructor joins the workers, and a worker may itself be waiting on
  // the registry (on_shared_pool_worker).
}

std::size_t shared_pool_workers() {
  return shared_registry().workers.load(std::memory_order_relaxed);
}

std::shared_ptr<ThreadPool> shared_pool() {
  SharedPoolRegistry& r = shared_registry();
  if (r.workers.load(std::memory_order_relaxed) == 0) return nullptr;
  std::shared_ptr<ThreadPool> stale;  // released after the lock, as above
  MutexLock lock(r.mutex);
  const std::size_t n = r.workers.load(std::memory_order_relaxed);
  if (n == 0) return nullptr;
  if (!r.pool || r.pool->workers() != n) {
    stale = std::move(r.pool);
    r.pool = std::make_shared<ThreadPool>(n);
  }
  return r.pool;
}

bool on_shared_pool_worker() {
  SharedPoolRegistry& r = shared_registry();
  MutexLock lock(r.mutex);
  return r.pool && r.pool->on_worker_thread();
}

ThreadPool::WorkerCounters ThreadPool::totals() const {
  WorkerCounters sum;
  for (const auto& c : worker_counters()) {
    sum.tasks += c.tasks;
    sum.steals += c.steals;
    sum.busy_seconds += c.busy_seconds;
  }
  return sum;
}

}  // namespace opm::util
