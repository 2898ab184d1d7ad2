// CPLX-MC — max-concurrency (Eq. 16) over the k events of one
// activity: two radix-sorted columns (starts, ends) and a two-pointer
// sweep, linear in k for the passes over the span's significant bits.
#include <benchmark/benchmark.h>

#include "dfg/concurrency.hpp"
#include "support/rng.hpp"

namespace {

using namespace st;

std::vector<dfg::Interval> random_intervals(std::size_t k, std::uint64_t seed) {
  Xoshiro256 rng(seed);
  std::vector<dfg::Interval> out;
  out.reserve(k);
  for (std::size_t i = 0; i < k; ++i) {
    const Micros start = static_cast<Micros>(rng.below(1'000'000));
    out.push_back({start, start + static_cast<Micros>(rng.below(10'000))});
  }
  return out;
}

void BM_MaxConcurrency(benchmark::State& state) {
  const auto intervals = random_intervals(static_cast<std::size_t>(state.range(0)), 42);
  for (auto _ : state) {
    auto copy = intervals;  // the sweep consumes its input
    benchmark::DoNotOptimize(dfg::get_max_concurrency(std::move(copy)));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_MaxConcurrency)->Range(1 << 8, 1 << 20)->Complexity(benchmark::oN);

void BM_MaxConcurrency_AllOverlapping(benchmark::State& state) {
  // Every interval stays open and the span is zero: the radix sort
  // has no digit to sort, so the sweep is a copy and one pass.
  std::vector<dfg::Interval> intervals(static_cast<std::size_t>(state.range(0)),
                                       dfg::Interval{0, 1'000'000});
  for (auto _ : state) {
    auto copy = intervals;
    benchmark::DoNotOptimize(dfg::get_max_concurrency(std::move(copy)));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_MaxConcurrency_AllOverlapping)->Range(1 << 8, 1 << 16);

}  // namespace

BENCHMARK_MAIN();
