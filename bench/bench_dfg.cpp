// CPLX-DFG — DFG construction is O(n) and scalable (Sec. V step 3;
// refs [24][25]).
//
// Sweeps the event count for the serial single-pass builder, and the
// cost of the Dfg merge the sink-folded construction (pipeline::DfgSink)
// pays per partial.
#include <benchmark/benchmark.h>

#include "dfg/builder.hpp"
#include "support/rng.hpp"
#include "testdata.hpp"

namespace {

using namespace st;

/// O(n) serial construction.
void BM_BuildSerial(benchmark::State& state) {
  const auto log = bench::synthetic_log(/*seed=*/1, /*cases=*/64,
                                        static_cast<std::size_t>(state.range(0)) / 64, 16);
  const auto f = model::Mapping::call_top_dirs(2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(dfg::build_serial(log, f));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(log.total_events()));
  state.SetComplexityN(static_cast<std::int64_t>(log.total_events()));
}
BENCHMARK(BM_BuildSerial)->Range(1 << 10, 1 << 17)->Complexity(benchmark::oN);

/// Merge cost grows with graph size, not event count.
void BM_DfgMerge(benchmark::State& state) {
  const auto log = bench::synthetic_log(2, 32, 256, static_cast<std::size_t>(state.range(0)));
  const auto f = model::Mapping::call_top_dirs(2);
  const auto g = dfg::build_serial(log, f);
  for (auto _ : state) {
    dfg::Dfg acc;
    acc.merge(g);
    acc.merge(g);
    benchmark::DoNotOptimize(acc);
  }
}
BENCHMARK(BM_DfgMerge)->Arg(8)->Arg(64)->Arg(256);

}  // namespace

BENCHMARK_MAIN();
