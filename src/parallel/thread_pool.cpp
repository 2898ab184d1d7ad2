#include "parallel/thread_pool.hpp"

namespace st {

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) {
    threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  // Discard tasks that never started instead of draining them: running
  // a queued continuation during teardown would let it touch state its
  // submitter already destroyed (the pipeline's per-file arenas, an
  // unwinding caller's stack). Their futures report broken_promise.
  // Tasks already running are joined as before.
  std::deque<std::function<void()>> orphaned;
  {
    std::lock_guard lock(mutex_);
    stopping_ = true;
    orphaned.swap(queue_);
  }
  cv_.notify_all();
  for (auto& w : workers_) {
    if (w.joinable()) w.join();
  }
  // `orphaned` is destroyed here, outside the lock and after the
  // workers are gone, so task destructors cannot deadlock or race.
}

void ThreadPool::worker_loop() {
  while (true) {
    std::function<void()> task;
    {
      std::unique_lock lock(mutex_);
      cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) {
        if (stopping_) return;
        continue;
      }
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();  // exceptions are captured by the packaged_task wrapper
  }
}

}  // namespace st
