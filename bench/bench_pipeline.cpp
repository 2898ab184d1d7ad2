// CPLX-MAP — the mapping application is O(n) and row-independent
// (Sec. V step 2), plus an end-to-end pipeline benchmark covering
// Fig. 6's steps: filter -> map -> DFG -> statistics, and the streamed
// trace -> DFG pass (pipeline::ingest with one DfgSink, and
// with DFG + case stats + variants sinks) at 1/2/4 workers, feeding
// BENCH_pipeline.json's pipeline_scaling and multi_sink_scaling.
#include <benchmark/benchmark.h>

#include <array>
#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "dfg/builder.hpp"
#include "dfg/stats.hpp"
#include "model/activity_log.hpp"
#include "parallel/thread_pool.hpp"
#include "pipeline/sink.hpp"
#include "support/timeparse.hpp"
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

// ---- streamed trace -> EventLog -> DFG ---------------------------------

/// On-disk strace corpus: one big file plus a swarm of small ones (the
/// mixed-parallelism workload), written once and removed at exit.
class TraceCorpus {
 public:
  static const std::vector<std::string>& paths() {
    static TraceCorpus corpus;
    return corpus.paths_;
  }

 private:
  TraceCorpus() {
    namespace fs = std::filesystem;
    // Unique per process: concurrent runs (CI + local) must not share
    // — or remove_all — each other's live corpus.
    std::random_device rd;
    dir_ = fs::temp_directory_path() /
           ("st_bench_pipeline_" + std::to_string(rd()) + "_" +
            std::to_string(reinterpret_cast<std::uintptr_t>(this)));
    fs::create_directories(dir_);
    paths_.push_back(write("big_nodeA_9001.st", make_trace(20000, 7)));
    for (int i = 0; i < 8; ++i) {
      paths_.push_back(write("s" + std::to_string(i) + "_nodeB_" + std::to_string(9100 + i) +
                                 ".st",
                             make_trace(1500, static_cast<std::uint64_t>(100 + i))));
    }
  }
  ~TraceCorpus() {
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }

  static std::string make_trace(std::size_t lines, std::uint64_t pid) {
    std::string text;
    Micros t = 36000000000;  // 10:00:00
    const std::string p = std::to_string(pid);
    for (std::size_t i = 0; i < lines; ++i) {
      t += 100;
      switch (i % 4) {
        case 0:
          text += p + "  " + format_time_of_day(t) +
                  " read(3</p/data/f" + std::to_string(i % 16) +
                  ">, \"\"..., 65536) = 65536 <0.000040>\n";
          break;
        case 1:
          text += p + "  " + format_time_of_day(t) +
                  " openat(AT_FDCWD, \"/p/scratch/ssf/t" + std::to_string(i % 8) +
                  "\", O_RDWR|O_CREAT, 0644) = 5 <0.000150>\n";
          break;
        case 2:
          text += p + "  " + format_time_of_day(t) +
                  " pwrite64(5</p/scratch/ssf/t" + std::to_string(i % 8) +
                  ">, \"\"..., 1048576, 33554432) = 1048576 <0.000294>\n";
          break;
        default:
          text += p + "  " + format_time_of_day(t) +
                  " lseek(5</p/scratch/ssf/t" + std::to_string(i % 8) +
                  ">, 0, SEEK_SET) = 0 <0.000002>\n";
          break;
      }
    }
    return text;
  }

  std::string write(const std::string& name, const std::string& text) {
    const auto p = dir_ / name;
    std::ofstream out(p, std::ios::binary | std::ios::trunc);
    out << text;
    return p.string();
  }

  std::filesystem::path dir_;
  std::vector<std::string> paths_;
};

void BM_PipelineStreamed(benchmark::State& state) {
  const auto& paths = TraceCorpus::paths();
  const auto f = model::Mapping::call_top_dirs(2);
  ThreadPool pool(static_cast<std::size_t>(state.range(0)));
  std::uint64_t traces = 0;
  for (auto _ : state) {
    pipeline::DfgSink sink(f);
    const std::array<pipeline::CaseSink*, 1> sinks{&sink};
    const auto summary = pipeline::ingest(paths, pool, sinks);
    traces += sink.graph().trace_count();
    benchmark::DoNotOptimize(summary);
    benchmark::DoNotOptimize(sink);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(traces));
}
BENCHMARK(BM_PipelineStreamed)->Arg(1)->Arg(2)->Arg(4)->UseRealTime()
    ->Unit(benchmark::kMillisecond);

// ---- multi-sink single pass -------------------------------------------

/// One pipeline::ingest pass: three analytics fold on the pool while the
/// files parse — no barrier, no re-walks.
void BM_MultiSinkSinglePass(benchmark::State& state) {
  const auto& paths = TraceCorpus::paths();
  const auto f = model::Mapping::call_top_dirs(2);
  ThreadPool pool(static_cast<std::size_t>(state.range(0)));
  std::uint64_t traces = 0;
  for (auto _ : state) {
    pipeline::DfgSink graph_sink(f);
    pipeline::CaseStatsSink stats_sink;
    pipeline::VariantsSink variants_sink(f);
    const std::array<pipeline::CaseSink*, 3> sinks{&graph_sink, &stats_sink, &variants_sink};
    const auto summary = pipeline::ingest(paths, pool, sinks);
    traces += graph_sink.graph().trace_count();
    benchmark::DoNotOptimize(summary);
    benchmark::DoNotOptimize(graph_sink);
    benchmark::DoNotOptimize(stats_sink);
    benchmark::DoNotOptimize(variants_sink);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(traces));
}
BENCHMARK(BM_MultiSinkSinglePass)->Arg(1)->Arg(2)->Arg(4)->UseRealTime()
    ->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
