// CPLX-REND — rendering is O(m^2) in the worst case (Sec. V step 5):
// a dense DFG has an edge between every pair of its m nodes.
#include <benchmark/benchmark.h>

#include "dfg/builder.hpp"
#include "dfg/render.hpp"
#include "dfg/render_svg.hpp"
#include "testdata.hpp"

namespace {

using namespace st;

/// Fully dense DFG over m activities (every pair directly follows).
dfg::Dfg dense_dfg(std::size_t m) {
  dfg::Dfg g;
  std::vector<model::Activity> names;
  names.reserve(m);
  for (std::size_t i = 0; i < m; ++i) names.push_back("act" + std::to_string(i));
  // One trace visiting every ordered pair produces the dense graph.
  model::ActivityTrace trace;
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < m; ++j) {
      trace.push_back(names[i]);
      trace.push_back(names[j]);
    }
  }
  g.add_trace(trace);
  return g;
}

void BM_RenderDot_Dense(benchmark::State& state) {
  const auto g = dense_dfg(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(dfg::render_dot(g, nullptr, nullptr));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_RenderDot_Dense)->Range(4, 128)->Complexity(benchmark::oNSquared);

void BM_RenderAscii_Dense(benchmark::State& state) {
  const auto g = dense_dfg(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(dfg::render_ascii(g, nullptr, nullptr));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_RenderAscii_Dense)->Range(4, 128)->Complexity(benchmark::oNSquared);

/// Sparse (chain) graphs render linearly — the practical regime the
/// paper's "keep m small" guidance targets.
void BM_RenderDot_Chain(benchmark::State& state) {
  dfg::Dfg g;
  model::ActivityTrace trace;
  for (std::int64_t i = 0; i < state.range(0); ++i) {
    trace.push_back("act" + std::to_string(i));
  }
  g.add_trace(trace);
  for (auto _ : state) {
    benchmark::DoNotOptimize(dfg::render_dot(g, nullptr, nullptr));
  }
}
BENCHMARK(BM_RenderDot_Chain)->Range(4, 1024);

void BM_RenderSvg_Dense(benchmark::State& state) {
  const auto g = dense_dfg(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(dfg::render_svg(g, nullptr, nullptr));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_RenderSvg_Dense)->Range(4, 64)->Complexity(benchmark::oNSquared);

void BM_LayoutOnly(benchmark::State& state) {
  const auto g = dense_dfg(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(dfg::layout_dfg(g, nullptr));
  }
}
BENCHMARK(BM_LayoutOnly)->Range(4, 64);

/// The wide case a real report lays out: 512 cases x 64 events under
/// last1, i.e. 258 activities and 25.9k edges.
void BM_LayoutWide(benchmark::State& state) {
  const auto g = dfg::build_serial(bench::synthetic_log(42, 512, 64, 64),
                                   model::Mapping::call_last_components(1));
  for (auto _ : state) {
    benchmark::DoNotOptimize(dfg::layout_dfg(g, nullptr));
  }
  state.counters["activities"] = static_cast<double>(g.nodes().size());
  state.counters["edges"] = static_cast<double>(g.edges().size());
}
BENCHMARK(BM_LayoutWide)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
