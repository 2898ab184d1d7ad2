// CPLX-STAT — the statistics computation is O(mn) (Sec. V step 4),
// where n is the event count and m the number of distinct activities.
//
// Two sweeps: n at fixed m, and m at fixed n. (The max-concurrency
// sweep adds a term linear in each activity's k events, a radix pass
// per 11 significant bits of its time span; with n events split over
// m activities that totals O(n), dominated by O(mn).)
#include <benchmark/benchmark.h>

#include "dfg/stats.hpp"
#include "testdata.hpp"

namespace {

using namespace st;

void BM_Stats_EventSweep(benchmark::State& state) {
  const auto log = bench::synthetic_log(3, 64, static_cast<std::size_t>(state.range(0)) / 64,
                                        /*distinct_paths=*/16);
  const auto f = model::Mapping::call_top_dirs(2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(dfg::IoStatistics::compute(log, f));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(log.total_events()));
  state.SetComplexityN(static_cast<std::int64_t>(log.total_events()));
}
BENCHMARK(BM_Stats_EventSweep)->Range(1 << 10, 1 << 17)->Complexity(benchmark::oN);

void BM_Stats_ActivitySweep(benchmark::State& state) {
  // m ~ distinct paths (call_last_components keeps paths distinct).
  const auto log =
      bench::synthetic_log(4, 64, 512, static_cast<std::size_t>(state.range(0)));
  const auto f = model::Mapping::call_last_components(2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(dfg::IoStatistics::compute(log, f));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_Stats_ActivitySweep)->Range(4, 1 << 10);

void BM_Timeline(benchmark::State& state) {
  const auto log = bench::synthetic_log(5, 64, static_cast<std::size_t>(state.range(0)) / 64, 4);
  const auto f = model::Mapping::call_top_dirs(2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(dfg::IoStatistics::timeline(log, f, "read\n/data/dir0"));
  }
}
BENCHMARK(BM_Timeline)->Range(1 << 10, 1 << 15);

}  // namespace

BENCHMARK_MAIN();
