// Fixed-size worker thread pool with a bounded task queue.
//
// The pool is the execution substrate of the experiment runner
// (runner/experiment.hpp): benches submit independent replicate closures and
// collect std::futures. Design points:
//
//  * submit() returns a std::future of the callable's result; exceptions
//    thrown inside a task are captured and rethrown from future::get(), so
//    a failing replicate surfaces in the caller, not in a worker.
//  * The queue is bounded: submit() blocks once `max_queue` tasks are
//    pending, providing backpressure when a producer outruns the workers
//    (a grid sweep can enqueue tens of thousands of closures).
//  * Shutdown drains: the destructor (or shutdown()) lets workers finish
//    every task already submitted, then joins. Submitting after shutdown
//    throws.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <type_traits>
#include <vector>

namespace flowsched {

class ThreadPool {
 public:
  /// Spawns `threads` workers (>= 1). `max_queue` bounds the number of
  /// pending (not yet started) tasks before submit() blocks.
  explicit ThreadPool(int threads, std::size_t max_queue = 4096);

  /// Drains the queue and joins all workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues `fn` and returns a future of its result. Blocks while the
  /// queue is full; throws std::runtime_error after shutdown().
  template <typename F>
  auto submit(F&& fn) -> std::future<std::invoke_result_t<std::decay_t<F>>> {
    using R = std::invoke_result_t<std::decay_t<F>>;
    // packaged_task is move-only and std::function requires copyable
    // callables, so the task rides in a shared_ptr.
    auto task = std::make_shared<std::packaged_task<R()>>(std::forward<F>(fn));
    std::future<R> result = task->get_future();
    {
      std::unique_lock<std::mutex> lock(mutex_);
      not_full_.wait(lock,
                     [this] { return queue_.size() < max_queue_ || stop_; });
      if (stop_) throw std::runtime_error("ThreadPool::submit after shutdown");
      queue_.emplace_back([task] { (*task)(); });
    }
    not_empty_.notify_one();
    return result;
  }

  /// Stops accepting new tasks, finishes everything already queued, joins.
  /// Idempotent; called by the destructor.
  void shutdown();

 private:
  void worker_loop();

  mutable std::mutex mutex_;
  std::condition_variable not_empty_;
  std::condition_variable not_full_;
  std::deque<std::function<void()>> queue_;
  std::vector<std::thread> workers_;
  std::size_t max_queue_;
  bool stop_ = false;
};

/// \brief Process-wide core ledger coordinating NESTED parallelism: sweep
/// workers (ExperimentRunner's pool) and per-simulation shard workers
/// (sched/sharded) draw threads from the same physical machine, and without
/// a shared ledger a 16-thread sweep of 8-shard simulations would spawn 128
/// runnable threads on 16 cores.
///
/// Two claim flavours:
///  * reserve(n): an OUTER claim, never capped — the sweep pool states what
///    it owns (its workers exist regardless), so inner layers can see it.
///  * try_acquire(n): an INNER claim, granted only from the uncommitted
///    remainder (possibly 0) — shard engines auto-sizing their worker count
///    use this and fall back to fewer (or zero extra) workers when the
///    sweep already owns the machine. Callers pinning an explicit
///    --shard-workers count bypass this and reserve() instead.
///
/// Determinism note: the grant only sizes the thread team executing an
/// epoch; the sharded engine's OUTPUT is invariant to its worker count by
/// construction, so budget pressure changes wall-clock, never results.
class CoreBudget {
 public:
  /// The process-wide instance (function-local static, thread-safe init).
  static CoreBudget& instance();

  /// Records an outer claim of `n` cores (n >= 0; never capped).
  void reserve(int n);
  /// Grants min(n, uncommitted remainder) cores and records the grant.
  int try_acquire(int n);
  /// Returns `n` previously reserved/granted cores to the ledger.
  void release(int n);

 private:
  CoreBudget();
  mutable std::mutex mutex_;
  int total_ = 0;
  int claimed_ = 0;
};

}  // namespace flowsched
