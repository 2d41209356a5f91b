#include "util/thread_pool.h"

#include <algorithm>
#include <cstdlib>

namespace vs::util {

int resolve_jobs() {
  const char* env = std::getenv("VS_JOBS");
  long n = env != nullptr ? std::strtol(env, nullptr, 10) : 0;
  if (n < 1) n = static_cast<long>(std::thread::hardware_concurrency());
  return static_cast<int>(std::clamp(n, 1L, 1024L));
}

ThreadPool::ThreadPool(int workers) {
  int n = workers < 1 ? 1 : workers;
  threads_.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    threads_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard lock(mutex_);
    stop_ = true;
  }
  work_ready_.notify_all();
  for (std::thread& t : threads_) t.join();
}

void ThreadPool::submit(std::function<void()> job) {
  {
    std::lock_guard lock(mutex_);
    queue_.push_back(std::move(job));
    ++in_flight_;
  }
  work_ready_.notify_one();
}

void ThreadPool::wait() {
  std::unique_lock lock(mutex_);
  all_done_.wait(lock, [this] { return in_flight_ == 0; });
  if (first_error_) {
    std::exception_ptr e = first_error_;
    first_error_ = nullptr;
    lock.unlock();
    std::rethrow_exception(e);
  }
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> job;
    {
      std::unique_lock lock(mutex_);
      work_ready_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stop_ set and nothing left to run
      job = std::move(queue_.front());
      queue_.pop_front();
    }
    try {
      job();
    } catch (...) {
      std::lock_guard lock(mutex_);
      if (!first_error_) first_error_ = std::current_exception();
    }
    {
      std::lock_guard lock(mutex_);
      if (--in_flight_ == 0) all_done_.notify_all();
    }
  }
}

void parallel_for(int workers, std::size_t n,
                  const std::function<void(std::size_t)>& fn) {
  if (n == 0) return;
  if (workers <= 1 || n == 1) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  ThreadPool pool(static_cast<int>(
      static_cast<std::size_t>(workers) < n ? static_cast<std::size_t>(workers)
                                            : n));
  for (std::size_t i = 0; i < n; ++i) {
    pool.submit([&fn, i] { fn(i); });
  }
  pool.wait();
}

}  // namespace vs::util
