// OVH-QUERY — Query::apply over the resident EventLog vs select_v2
// over the same corpus's mmap'd container, per selectivity tier.
//
// The corpus is built so call-restricted queries hit four selectivity
// tiers exactly:
//
//   sel0     calls{statx}   no case contains it
//   sel1     calls{openat}  1 case in 128 (~0.8%)
//   sel50    calls{write}   every second case
//   sel100   calls{read}    every case
//
// BM_QueryScan   Query::apply over the fully materialized EventLog
//                (string compares per event, a copy per kept event);
// BM_QuerySelect select_v2 over the container: compile the query
//                against the file dictionary once, walk each case's
//                raw columns with dictionary-id compares, materialize
//                the kept rows only.
//
// run_bench.sh turns these into BENCH_query.json's
// select_speedup_by_selectivity.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "elog/v2_select.hpp"
#include "elog/v2_store.hpp"
#include "model/event_log.hpp"
#include "model/query.hpp"
#include "support/rng.hpp"

namespace {

using namespace st;
namespace fs = std::filesystem;

constexpr std::size_t kCases = 2048;
constexpr std::size_t kEventsPerCase = 32;

/// 2048 cases x 32 events with a controlled call mix: every case has
/// read/close/lseek, every second case has write, one case in 128 has
/// a single openat, and no case has statx.
model::EventLog selectivity_log() {
  Xoshiro256 rng(17);
  model::EventLog log;
  const std::string_view read = log.arena().intern("read");
  const std::string_view write = log.arena().intern("write");
  const std::string_view close = log.arena().intern("close");
  const std::string_view lseek = log.arena().intern("lseek");
  const std::string_view openat = log.arena().intern("openat");
  std::vector<std::string_view> paths;
  for (int i = 0; i < 16; ++i) {
    paths.push_back(log.arena().intern("/p/scratch/ssf/f" + std::to_string(i)));
  }
  const std::string_view cid = log.arena().intern("bench");
  const std::string_view host = log.arena().intern("node1");
  for (std::size_t c = 0; c < kCases; ++c) {
    std::vector<model::Event> events;
    events.reserve(kEventsPerCase);
    Micros t = static_cast<Micros>(c) * 1000000;
    for (std::size_t i = 0; i < kEventsPerCase; ++i) {
      model::Event e;
      e.cid = cid;
      e.host = host;
      e.rid = c + 1;
      e.pid = c + 100;
      if (i == 0 && c % 128 == 0) {
        e.call = openat;  // the ~1% tier
      } else if (c % 2 == 0 && i % 4 == 1) {
        e.call = write;  // the ~50% tier
      } else {
        e.call = (i % 3 == 0) ? read : (i % 3 == 1 ? close : lseek);
      }
      e.fp = paths[rng.below(paths.size())];
      e.start = t;
      e.dur = static_cast<Micros>(1 + rng.below(200));
      e.size = e.call == read || e.call == write
                   ? static_cast<std::int64_t>(rng.below(1 << 20))
                   : -1;
      t += static_cast<Micros>(1 + rng.below(50));
      events.push_back(std::move(e));
    }
    log.add_case(model::Case(model::CaseId{"bench", "node1", c + 1}, std::move(events)));
  }
  return log;
}

/// One corpus, two views: the materialized log (scan baseline) and the
/// container.
struct QueryCorpus {
  model::EventLog base;
  std::shared_ptr<elog::MappedElog> mapped;
};

const QueryCorpus& corpus() {
  static const QueryCorpus c = [] {
    QueryCorpus out;
    const fs::path dir = fs::temp_directory_path() / "st_bench_query_corpus";
    fs::remove_all(dir);
    fs::create_directories(dir);
    const std::string path = (dir / "corpus.elog").string();
    elog::write_event_log_v2_file(path, selectivity_log());
    out.mapped = elog::open_v2(path);
    // The scan baseline materializes from the same container.
    out.base = elog::read_event_log_v2(out.mapped);
    return out;
  }();
  return c;
}

std::int64_t survivors(const model::EventLog& log) {
  std::int64_t n = 0;
  for (const auto& c : log.cases()) n += static_cast<std::int64_t>(c.events().size());
  return n;
}

void BM_QueryScan(benchmark::State& state, const char* text) {
  const auto& cor = corpus();
  const auto q = model::Query::parse(text);
  for (auto _ : state) {
    benchmark::DoNotOptimize(survivors(q.apply(cor.base)));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations() * kCases * kEventsPerCase));
}

void BM_QuerySelect(benchmark::State& state, const char* text) {
  const auto& cor = corpus();
  const auto q = model::Query::parse(text);
  for (auto _ : state) {
    benchmark::DoNotOptimize(survivors(elog::select_v2(cor.mapped, q)));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations() * kCases * kEventsPerCase));
}

BENCHMARK_CAPTURE(BM_QueryScan, sel0, "calls{statx}")->Unit(benchmark::kMicrosecond);
BENCHMARK_CAPTURE(BM_QueryScan, sel1, "calls{openat}")->Unit(benchmark::kMicrosecond);
BENCHMARK_CAPTURE(BM_QueryScan, sel50, "calls{write}")->Unit(benchmark::kMicrosecond);
BENCHMARK_CAPTURE(BM_QueryScan, sel100, "calls{read}")->Unit(benchmark::kMicrosecond);

BENCHMARK_CAPTURE(BM_QuerySelect, sel0, "calls{statx}")->Unit(benchmark::kMicrosecond);
BENCHMARK_CAPTURE(BM_QuerySelect, sel1, "calls{openat}")->Unit(benchmark::kMicrosecond);
BENCHMARK_CAPTURE(BM_QuerySelect, sel50, "calls{write}")->Unit(benchmark::kMicrosecond);
BENCHMARK_CAPTURE(BM_QuerySelect, sel100, "calls{read}")->Unit(benchmark::kMicrosecond);

// Combined restrictions at the ~1% tier: a call, fp and window
// predicate — the interactive "narrow it down" query shape.
BENCHMARK_CAPTURE(BM_QueryScan, sel1_combined,
                  "calls{openat} fp~/p/scratch t[0,2000000000000)")
    ->Unit(benchmark::kMicrosecond);
BENCHMARK_CAPTURE(BM_QuerySelect, sel1_combined,
                  "calls{openat} fp~/p/scratch t[0,2000000000000)")
    ->Unit(benchmark::kMicrosecond);

}  // namespace

BENCHMARK_MAIN();
