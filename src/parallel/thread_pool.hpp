// Fixed-size work-queue thread pool.
//
// This is the execution substrate for the scalable analysis pipeline:
// trace files are parsed and per-case DFGs are constructed on pool
// threads and merged afterwards (the map-reduce process-discovery
// construction of Evermann [25] referenced by the paper).
//
// Design notes (Core Guidelines CP.*):
//  - tasks are type-erased std::move_only_function-style callables
//    (std::function here; tasks must be copyable or wrapped),
//  - the pool joins in its destructor (RAII; no detached threads),
//  - exceptions thrown by a task are captured into the std::future
//    returned by submit(), never lost.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

namespace st {

class ThreadPool {
 public:
  /// Creates `threads` workers; 0 means std::thread::hardware_concurrency().
  explicit ThreadPool(std::size_t threads = 0);

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Joins all workers. Tasks already running finish; tasks still
  /// queued are DISCARDED (their futures report broken_promise) — a
  /// queued continuation must never run while its submitter's state is
  /// being torn down. Callers that need completion await their futures
  /// first, as every algorithm in this repo does.
  ~ThreadPool();

  [[nodiscard]] std::size_t size() const { return workers_.size(); }

  /// Schedules `fn(args...)` behind every task already queued: tasks
  /// start in submission order (FIFO). The returned future carries the
  /// result or the thrown exception.
  template <class F, class... Args>
  auto submit(F&& fn, Args&&... args) -> std::future<std::invoke_result_t<F, Args...>> {
    using R = std::invoke_result_t<F, Args...>;
    auto task = std::make_shared<std::packaged_task<R()>>(
        [fn = std::forward<F>(fn), ... captured = std::forward<Args>(args)]() mutable {
          return std::invoke(std::move(fn), std::move(captured)...);
        });
    std::future<R> result = task->get_future();
    {
      std::lock_guard lock(mutex_);
      if (stopping_) throw std::runtime_error("ThreadPool::submit after shutdown");
      queue_.emplace_back([task]() { (*task)(); });
    }
    cv_.notify_one();
    return result;
  }

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::deque<std::function<void()>> queue_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stopping_ = false;
};

}  // namespace st
