// Fixed-size worker pool for embarrassingly parallel simulation sweeps.
//
// The simulator itself stays single-threaded (determinism is a core
// requirement); parallelism lives one level up, where fully independent
// replicas — one sim::Simulator per job — shard across hardware threads.
// The pool therefore needs no work stealing or futures: jobs are opaque
// closures, callers key results by job index and reduce in that order, so
// aggregate output is bit-identical to a serial run (see metrics/sweep.h).
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace vs::util {

/// Resolves the default worker count: the VS_JOBS environment variable,
/// else std::thread::hardware_concurrency(). Values are clamped to
/// [1, 1024]; 0 or garbage falls through to the hardware count.
[[nodiscard]] int resolve_jobs();

class ThreadPool {
 public:
  /// Spawns `workers` threads (clamped to >= 1).
  explicit ThreadPool(int workers);
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] int workers() const noexcept {
    return static_cast<int>(threads_.size());
  }

  /// Enqueues a job. Jobs run in submission order but complete in any
  /// order; use wait() for a barrier. An exception escaping a job is
  /// captured (first one wins) and rethrown by the next wait() — the pool
  /// itself keeps draining, so one failed replica never wedges a sweep.
  void submit(std::function<void()> job);

  /// Blocks until every submitted job has finished, then rethrows the
  /// first captured job exception, if any. The pool stays usable after.
  void wait();

 private:
  void worker_loop();

  std::vector<std::thread> threads_;
  std::deque<std::function<void()>> queue_;
  std::mutex mutex_;
  std::condition_variable work_ready_;
  std::condition_variable all_done_;
  std::size_t in_flight_ = 0;  ///< queued + currently executing jobs
  std::exception_ptr first_error_;
  bool stop_ = false;
};

/// Runs fn(0) .. fn(n-1) across `workers` threads and returns when all are
/// done. Results belong to the caller (write into a pre-sized vector slot
/// per index); the first exception thrown by any fn is rethrown here after
/// the remaining jobs drain. With workers <= 1 the loop runs inline, so a
/// single-job sweep is exactly the serial code path.
void parallel_for(int workers, std::size_t n,
                  const std::function<void(std::size_t)>& fn);

}  // namespace vs::util
