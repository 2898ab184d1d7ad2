#include "parallel/algorithms.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <numeric>
#include <stdexcept>
#include <thread>

#include "parallel/thread_pool.hpp"

namespace st {
namespace {

TEST(ThreadPool, RunsSubmittedTask) {
  ThreadPool pool(2);
  auto f = pool.submit([] { return 41 + 1; });
  EXPECT_EQ(f.get(), 42);
}

TEST(ThreadPool, SubmitWithArguments) {
  ThreadPool pool(2);
  auto f = pool.submit([](int a, int b) { return a * b; }, 6, 7);
  EXPECT_EQ(f.get(), 42);
}

TEST(ThreadPool, PropagatesExceptions) {
  ThreadPool pool(2);
  auto f = pool.submit([]() -> int { throw std::runtime_error("boom"); });
  EXPECT_THROW(f.get(), std::runtime_error);
}

TEST(ThreadPool, ManyTasksAllComplete) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 500; ++i) {
    futures.push_back(pool.submit([&counter] { counter.fetch_add(1); }));
  }
  for (auto& f : futures) f.get();
  EXPECT_EQ(counter.load(), 500);
}

TEST(ThreadPool, SizeReflectsWorkers) {
  ThreadPool pool(5);
  EXPECT_EQ(pool.size(), 5u);
}

TEST(ThreadPool, ZeroMeansHardwareConcurrency) {
  ThreadPool pool(0);
  EXPECT_GE(pool.size(), 1u);
}

TEST(ThreadPool, PendingTasksAreDiscardedAtDestruction) {
  // Shutdown-ordering regression (streaming pipeline): destroying the
  // pool must NOT run continuations that never started — they may
  // reference state (arenas, an unwinding caller's stack) that their
  // submitter already destroyed. The single worker is parked on a gate
  // while the destructor discards the whole queue, so none of the
  // pending tasks may ever run; their futures report broken_promise.
  std::promise<void> gate;
  auto gate_future = gate.get_future().share();
  std::promise<void> started;
  std::atomic<int> ran{0};
  std::vector<std::future<void>> pending;
  {
    ThreadPool pool(1);
    (void)pool.submit([gate_future, &started] {
      started.set_value();
      gate_future.wait();
    });
    started.get_future().wait();  // the worker is now parked on the gate
    for (int i = 0; i < 64; ++i) {
      pending.push_back(pool.submit([&ran] { ran.fetch_add(1); }));
    }
    // Opens the gate well after ~ThreadPool has cleared the queue (the
    // destructor's first action, taken while the worker still blocks).
    std::thread release([&gate] {
      std::this_thread::sleep_for(std::chrono::milliseconds(250));
      gate.set_value();
    });
    release.detach();
  }  // ~ThreadPool: discard 64 pending tasks, join the parked worker
  EXPECT_EQ(ran.load(), 0);
  for (auto& f : pending) EXPECT_THROW(f.get(), std::future_error);
}

TEST(ParallelFor, CoversEveryIndexOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  parallel_for(pool, 0, hits.size(), [&](std::size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelFor, EmptyRangeIsNoop) {
  ThreadPool pool(2);
  bool touched = false;
  parallel_for(pool, 5, 5, [&](std::size_t) { touched = true; });
  EXPECT_FALSE(touched);
}

TEST(ParallelFor, PropagatesBodyException) {
  ThreadPool pool(2);
  EXPECT_THROW(
      parallel_for(pool, 0, 100,
                   [](std::size_t i) {
                     if (i == 50) throw std::runtime_error("body failed");
                   }),
      std::runtime_error);
}

TEST(ParallelFor, ExceptionIsEarliestFailingIndexDeterministically) {
  // Many indices fail; the one that propagates must always be the
  // lowest, no matter how the pool schedules the chunks.
  ThreadPool pool(4);
  for (int round = 0; round < 20; ++round) {
    std::string what;
    try {
      parallel_for(pool, 0, 400, [](std::size_t i) {
        if (i % 7 == 3) throw std::runtime_error("failed at " + std::to_string(i));
      });
      FAIL() << "expected an exception";
    } catch (const std::runtime_error& e) {
      what = e.what();
    }
    EXPECT_EQ(what, "failed at 3") << "round " << round;
  }
}

TEST(ParallelFor, AllTasksFinishBeforeThrow) {
  // An early failure must not leave tasks running against the caller's
  // (about to be destroyed) stack state: every index outside the
  // failing chunk is still visited exactly once.
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(512);
  try {
    parallel_for(pool, 0, hits.size(), [&](std::size_t i) {
      if (i == 0) throw std::runtime_error("first chunk fails");
      hits[i].fetch_add(1);
    });
    FAIL() << "expected an exception";
  } catch (const std::runtime_error&) {
  }
  for (std::size_t i = 1; i < hits.size(); ++i) {
    // Indices in the failing chunk after the throw are skipped; all
    // other chunks ran to completion.
    EXPECT_LE(hits[i].load(), 1);
  }
  int total = 0;
  for (const auto& h : hits) total += h.load();
  EXPECT_GE(total, static_cast<int>(hits.size()) - static_cast<int>(hits.size() / pool.size()));
}

TEST(ParallelMap, ExceptionIsFirstInputInOrder) {
  ThreadPool pool(3);
  std::vector<int> in(300);
  std::iota(in.begin(), in.end(), 0);
  for (int round = 0; round < 10; ++round) {
    std::string what;
    try {
      (void)parallel_map(pool, in, [](int v) -> int {
        if (v >= 100) throw std::runtime_error("bad input " + std::to_string(v));
        return v;
      });
    } catch (const std::runtime_error& e) {
      what = e.what();
    }
    EXPECT_EQ(what, "bad input 100") << "round " << round;
  }
}

TEST(ParallelMap, PreservesOrder) {
  ThreadPool pool(4);
  std::vector<int> in(257);
  std::iota(in.begin(), in.end(), 0);
  const auto out = parallel_map(pool, in, [](int v) { return v * 2; });
  ASSERT_EQ(out.size(), in.size());
  for (std::size_t i = 0; i < in.size(); ++i) EXPECT_EQ(out[i], static_cast<int>(i) * 2);
}

}  // namespace
}  // namespace st
