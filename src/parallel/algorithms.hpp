// Parallel bulk algorithms on top of ThreadPool.
//
//  - parallel_for: static chunking of an index range,
//  - parallel_map: element-wise transform preserving input order.
//
// The per-chunk fold + ordered merge of the DFG construction (per-case
// graphs merged with an abelian fold, refs [24][25] of the paper) is
// pipeline::fold_cases, over the analytics sinks.
//
// Exception contract: every task is always awaited before an exception
// propagates, and the exception rethrown on the calling thread is the
// one from the LOWEST failing chunk (and, within a chunk, its lowest
// failing index) — deterministic "first in input order wins"
// regardless of how the pool schedules the tasks. Awaiting everything
// first is also what makes early failure memory-safe: tasks capture
// the caller's callables by reference, so no task may still be running
// when the algorithm returns or throws.
#pragma once

#include <cstddef>
#include <exception>
#include <future>
#include <vector>

#include "parallel/thread_pool.hpp"

namespace st {

/// Chooses a chunk count of roughly 4 chunks per worker, capped by `n`.
[[nodiscard]] inline std::size_t default_chunks(const ThreadPool& pool, std::size_t n) {
  const std::size_t target = pool.size() * 4;
  return n < target ? (n == 0 ? 1 : n) : target;
}

namespace detail {

/// Waits for every future, then rethrows the exception of the earliest
/// chunk that failed (futures are in chunk order).
inline void await_all(std::vector<std::future<void>>& futures) {
  std::exception_ptr first_error;
  for (auto& f : futures) {
    try {
      f.get();
    } catch (...) {
      if (!first_error) first_error = std::current_exception();
    }
  }
  if (first_error) std::rethrow_exception(first_error);
}

}  // namespace detail

/// Applies body(i) for i in [begin, end) using the pool. Blocking.
template <class Body>
void parallel_for(ThreadPool& pool, std::size_t begin, std::size_t end, Body body) {
  if (begin >= end) return;
  const std::size_t n = end - begin;
  const std::size_t chunks = default_chunks(pool, n);
  const std::size_t chunk_size = (n + chunks - 1) / chunks;
  std::vector<std::future<void>> futures;
  futures.reserve(chunks);
  for (std::size_t c = 0; c < chunks; ++c) {
    const std::size_t lo = begin + c * chunk_size;
    if (lo >= end) break;
    const std::size_t hi = std::min(end, lo + chunk_size);
    futures.push_back(pool.submit([lo, hi, &body] {
      for (std::size_t i = lo; i < hi; ++i) body(i);
    }));
  }
  detail::await_all(futures);
}

/// Order-preserving parallel transform: out[i] = fn(in[i]). On failure
/// the exception of the lowest failing input index propagates.
template <class T, class Fn>
auto parallel_map(ThreadPool& pool, const std::vector<T>& in, Fn fn)
    -> std::vector<decltype(fn(in.front()))> {
  using R = decltype(fn(in.front()));
  std::vector<R> out(in.size());
  parallel_for(pool, 0, in.size(), [&](std::size_t i) { out[i] = fn(in[i]); });
  return out;
}

}  // namespace st
