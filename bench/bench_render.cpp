// CPLX-REND — rendering is O(m^2) in the worst case (Sec. V step 5):
// a dense DFG has an edge between every pair of its m nodes.
#include <benchmark/benchmark.h>

#include "dfg/builder.hpp"
#include "dfg/render.hpp"
#include "dfg/render_svg.hpp"
#include "report/report.hpp"
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

/// A report-sized graph: 955 activities and 3,148 edges under
/// last1, about the 1,082 nodes and 1,767 edges of an imported 96-rank
/// corpus (perfbench's wide_report), colored by its statistics.
struct WideReport {
  model::Mapping f = model::Mapping::call_last_components(1);
  report::ReportData data = report::report_data(bench::synthetic_log(42, 96, 32, 250), f);
  dfg::StatisticsColoring styler{data.stats};
};

void wide_counters(benchmark::State& state, const WideReport& w, std::size_t bytes) {
  state.counters["activities"] = static_cast<double>(w.data.graph.nodes().size());
  state.counters["edges"] = static_cast<double>(w.data.graph.edges().size());
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations() * bytes));
}

/// Layout plus the SVG text.
void BM_RenderSvgWide(benchmark::State& state) {
  const WideReport w;
  std::size_t bytes = 0;
  for (auto _ : state) {
    const std::string svg = dfg::render_svg(w.data.graph, &w.data.stats, &w.styler);
    bytes = svg.size();
    benchmark::DoNotOptimize(svg.data());
    benchmark::ClobberMemory();
  }
  wide_counters(state, w, bytes);
}
BENCHMARK(BM_RenderSvgWide)->Unit(benchmark::kMillisecond);

/// The whole page: the SVG plus the statistics, cases and edges tables.
void BM_RenderReportWide(benchmark::State& state) {
  const WideReport w;
  std::size_t bytes = 0;
  for (auto _ : state) {
    const std::string html = report::render_report(w.data, w.f, &w.styler);
    bytes = html.size();
    benchmark::DoNotOptimize(html.data());
    benchmark::ClobberMemory();
  }
  wide_counters(state, w, bytes);
}
BENCHMARK(BM_RenderReportWide)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
