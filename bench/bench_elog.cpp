// OVH-PARSE (storage leg) — elog container write/read throughput plus
// the headline of the v2 format: "import once, analyze many times".
//
// The paper stores processed traces in one HDF5 file; elog is our
// stand-in. The BM_OpenFirstQuery* pair measures the interactive
// workflow cost — open a stored corpus and answer one query — two
// ways over the SAME trace data:
//
//   V2       mmap the columnar container, footer/table/directory only,
//            materialize just the queried case (zero-parse open);
//   Reparse  no container at all: re-ingest the raw strace text.
//
// run_bench.sh turns these into BENCH_elog.json's
// open_speedup_v2_vs_reparse.
#include <benchmark/benchmark.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "elog/v2_store.hpp"
#include "model/from_strace.hpp"
#include "support/crc32.hpp"
#include "support/rng.hpp"
#include "support/timeparse.hpp"
#include "testdata.hpp"

namespace {

using namespace st;
namespace fs = std::filesystem;

std::string make_clean_trace(std::size_t lines, std::uint64_t pid) {
  std::string text;
  Micros t = 36000000000;  // 10:00:00
  const std::string p = std::to_string(pid);
  for (std::size_t i = 0; i < lines; ++i) {
    t += 100;
    switch (i % 4) {
      case 0:
        text += p + "  " + format_time_of_day(t) +
                " read(3</p/data/f>, \"\"..., 512) = 512 <0.000040>\n";
        break;
      case 1:
        text += p + "  " + format_time_of_day(t) +
                " openat(AT_FDCWD, \"/p/scratch/ssf/test\", O_RDWR|O_CREAT, 0644) = 5 "
                "<0.000150>\n";
        break;
      case 2:
        text += p + "  " + format_time_of_day(t) +
                " pwrite64(5</p/scratch/ssf/test>, \"\"..., 1048576, 33554432) = 1048576 "
                "<0.000294>\n";
        break;
      default:
        text += p + "  " + format_time_of_day(t) +
                " close(5</p/scratch/ssf/test>) = 0 <0.000010>\n";
        break;
    }
  }
  return text;
}

/// One imported corpus, generated once per benchmark process: raw
/// strace text files plus the same events stored as elog v2.
struct ElogCorpus {
  std::vector<std::string> trace_paths;
  std::string v2_path;
};

const ElogCorpus& corpus() {
  static const ElogCorpus c = [] {
    ElogCorpus out;
    const fs::path dir = fs::temp_directory_path() / "st_bench_elog_corpus";
    fs::remove_all(dir);
    fs::create_directories(dir);
    for (int i = 0; i < 12; ++i) {
      const fs::path p =
          dir / ("job" + std::to_string(i) + "_node" + std::to_string(i % 3) + "_" +
                 std::to_string(9000 + i) + ".st");
      std::ofstream f(p, std::ios::binary | std::ios::trunc);
      f << make_clean_trace(1500 + static_cast<std::size_t>(i) * 100,
                            static_cast<std::uint64_t>(40 + i));
      out.trace_paths.push_back(p.string());
    }
    const auto log = model::event_log_from_files(out.trace_paths);
    out.v2_path = (dir / "corpus_v2.elog").string();
    elog::write_event_log_v2_file(out.v2_path, log);
    return out;
  }();
  return c;
}

std::int64_t first_case_query(const model::Case& c) {
  std::int64_t io_time = 0;
  for (const auto& e : c.events()) io_time += e.dur;
  return io_time;
}

// ---- open and first query: the "analyze many times" loop --------------

void BM_OpenFirstQueryV2(benchmark::State& state) {
  const auto& cor = corpus();
  for (auto _ : state) {
    const auto mapped = elog::open_v2(cor.v2_path);
    benchmark::DoNotOptimize(first_case_query(mapped->case_at(0)));
    benchmark::DoNotOptimize(mapped->total_events());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_OpenFirstQueryV2)->Unit(benchmark::kMicrosecond);

void BM_OpenFirstQueryReparse(benchmark::State& state) {
  const auto& cor = corpus();
  for (auto _ : state) {
    const auto log = model::event_log_from_files(cor.trace_paths);
    benchmark::DoNotOptimize(first_case_query(log.cases()[0]));
    benchmark::DoNotOptimize(log.total_events());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_OpenFirstQueryReparse)->Unit(benchmark::kMicrosecond);

// ---- full (de)serialization throughput ---------------------------------

void BM_ElogWriteV2(benchmark::State& state) {
  const auto log = bench::synthetic_log(6, 32, static_cast<std::size_t>(state.range(0)) / 32, 16);
  for (auto _ : state) {
    std::ostringstream out;
    elog::write_event_log_v2(out, log);
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(log.total_events()));
}
BENCHMARK(BM_ElogWriteV2)->Range(1 << 10, 1 << 16);

void BM_ElogReadV2(benchmark::State& state) {
  // Full materialization of every case (the worst case for v2; the
  // open-and-first-query pair above shows the lazy win).
  const auto log = bench::synthetic_log(7, 32, static_cast<std::size_t>(state.range(0)) / 32, 16);
  std::ostringstream out;
  elog::write_event_log_v2(out, log);
  const std::string data = out.str();
  for (auto _ : state) {
    auto buffer = std::make_shared<strace::TraceBuffer>(data);
    benchmark::DoNotOptimize(elog::read_event_log_v2(elog::MappedElog::from_buffer(buffer)));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(log.total_events()));
  state.SetBytesProcessed(state.iterations() * static_cast<std::int64_t>(data.size()));
}
BENCHMARK(BM_ElogReadV2)->Range(1 << 10, 1 << 16);

// ---- the checksum every v2 section and partial blob pays --------------

void BM_Crc32(benchmark::State& state) {
  std::string data(static_cast<std::size_t>(state.range(0)), '\0');
  Xoshiro256 rng(8);
  for (char& c : data) c = static_cast<char>(rng.next() >> 56);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Crc32::of(data.data(), data.size()));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Crc32)->Arg(1 << 20)->Arg(16 << 20);

}  // namespace

BENCHMARK_MAIN();
