// A fixed-size thread pool for the experiment runner (run/sweep.hpp).
//
// Deliberately minimal — no work stealing, no priorities: sweep tasks are
// coarse (whole simulations, milliseconds to seconds each), so a single
// mutex-protected FIFO queue is nowhere near contention. Tasks are
// submitted as callables; submit() returns a std::future carrying the
// task's result or its exception, so worker threads never die on a throw.
//
// Lifecycle: workers start in the constructor and run until shutdown()
// (or the destructor, which calls it). Shutdown is *graceful*: work queued
// before the call is drained before the workers exit; only submission of
// new work is refused.
#pragma once

#include <atomic>
#include <condition_variable>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

#include "util/error.hpp"

namespace esched::run {

/// Fixed pool of worker threads draining a FIFO task queue.
class ThreadPool {
 public:
  /// Starts `threads` workers (must be >= 1).
  explicit ThreadPool(std::size_t threads);

  /// Graceful shutdown (drains queued work), then joins.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t thread_count() const { return workers_.size(); }

  /// Number of tasks executed to completion (or to an exception) so far.
  std::size_t tasks_run() const;

  /// Sentinel for "the calling thread is not a pool worker".
  static constexpr std::size_t npos = static_cast<std::size_t>(-1);

  /// 0-based index of the calling thread within the pool that spawned it,
  /// or `npos` on any other thread. Lets per-worker accounting (sweep
  /// busy fractions, trace track ids) attribute work without plumbing an
  /// index through every task signature.
  static std::size_t current_index();

  /// Queue `fn` for execution; the future resolves with its return value
  /// or rethrows whatever it threw. Throws esched::Error after shutdown().
  template <typename F>
  std::future<std::invoke_result_t<std::decay_t<F>>> submit(F&& fn) {
    using R = std::invoke_result_t<std::decay_t<F>>;
    // shared_ptr because std::function requires copyable callables and
    // std::packaged_task is move-only. The run counter is bumped inside
    // the packaged call — on return or unwind, before packaged_task makes
    // the future ready — so a caller woken by get() already sees it.
    auto task = std::make_shared<std::packaged_task<R()>>(
        [this, f = std::decay_t<F>(std::forward<F>(fn))]() mutable -> R {
          const CountRun counted{tasks_run_};
          return f();
        });
    std::future<R> result = task->get_future();
    enqueue([task] { (*task)(); });
    return result;
  }

  /// Stop accepting work, finish everything already queued, join all
  /// workers. Idempotent.
  void shutdown();

 private:
  /// Counts one finished task when it goes out of scope.
  struct CountRun {
    std::atomic<std::size_t>& runs;
    ~CountRun() { runs.fetch_add(1); }
  };

  void enqueue(std::function<void()> task);
  void worker_loop();

  mutable std::mutex mutex_;
  std::condition_variable work_available_;
  std::deque<std::function<void()>> queue_;
  std::vector<std::thread> workers_;
  std::atomic<std::size_t> tasks_run_{0};
  bool accepting_ = true;
};

}  // namespace esched::run
