// CPLX-MAP — the mapping application is O(n) and row-independent
// (Sec. V step 2), plus Fig. 6's in-memory steps on one thread:
// filter -> map -> DFG -> statistics. The trace -> DFG pass over real
// files is timed end to end by perfbench's campaign_ingest workload.
#include <benchmark/benchmark.h>

#include <cstddef>
#include <cstdint>

#include "dfg/builder.hpp"
#include "dfg/stats.hpp"
#include "model/activity_log.hpp"
#include "testdata.hpp"

namespace {

using namespace st;

void BM_MappingApplication(benchmark::State& state) {
  const auto log = bench::synthetic_log(8, 64, static_cast<std::size_t>(state.range(0)) / 64, 16);
  const auto f = model::Mapping::call_top_dirs(2);
  for (auto _ : state) {
    std::size_t mapped = 0;
    for (const auto& c : log.cases()) {
      for (const auto& e : c.events()) {
        if (f(e)) ++mapped;
      }
    }
    benchmark::DoNotOptimize(mapped);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(log.total_events()));
  state.SetComplexityN(static_cast<std::int64_t>(log.total_events()));
}
BENCHMARK(BM_MappingApplication)->Range(1 << 10, 1 << 17)->Complexity(benchmark::oN);

void BM_FpFilter(benchmark::State& state) {
  const auto log = bench::synthetic_log(9, 64, static_cast<std::size_t>(state.range(0)) / 64, 16);
  for (auto _ : state) {
    benchmark::DoNotOptimize(log.filter_fp("/data/dir3"));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(log.total_events()));
}
BENCHMARK(BM_FpFilter)->Range(1 << 10, 1 << 15);

void BM_ActivityLogBuild(benchmark::State& state) {
  const auto log = bench::synthetic_log(10, 64, static_cast<std::size_t>(state.range(0)) / 64, 16);
  const auto f = model::Mapping::call_top_dirs(2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(model::ActivityLog::build(log, f));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(log.total_events()));
}
BENCHMARK(BM_ActivityLogBuild)->Range(1 << 10, 1 << 15);

/// The whole Fig. 6 pipeline on one thread.
void BM_FullPipeline(benchmark::State& state) {
  const auto log = bench::synthetic_log(11, 64, static_cast<std::size_t>(state.range(0)) / 64, 16);
  const auto f = model::Mapping::call_top_dirs(2);
  for (auto _ : state) {
    const auto filtered = log.filter_fp("/data");
    const auto g = dfg::build_serial(filtered, f);
    const auto stats = dfg::IoStatistics::compute(filtered, f);
    benchmark::DoNotOptimize(g);
    benchmark::DoNotOptimize(stats);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(log.total_events()));
}
BENCHMARK(BM_FullPipeline)->Range(1 << 10, 1 << 15);

}  // namespace

BENCHMARK_MAIN();
