// OVH-PARSE — strace parsing overhead (Sec. V "overheads").
//
// Measures line-level parse throughput, whole-trace reading with
// unfinished/resumed merging, the streamed chunked reader, and the
// trace-writer round trip. The read path should scale linearly in the
// line count.
//
// BM_ReadTraceMixed at range 1<<17 (131072 lines, ~10 MB) is the
// acceptance metric of the zero-copy ingestion PR: bytes_per_second
// must stay >= 2x the pre-change sequential baseline recorded in
// bench/baseline_seed.json (see bench/run_bench.sh).
#include <benchmark/benchmark.h>

#include <cstdint>
#include <filesystem>
#include <fstream>

#include "model/from_strace.hpp"
#include "model/query.hpp"
#include "parallel/algorithms.hpp"
#include "parallel/thread_pool.hpp"
#include "strace/parser.hpp"
#include "strace/reader.hpp"
#include "strace/scan.hpp"
#include "strace/scan_kernels.hpp"
#include "strace/writer.hpp"

namespace {

using namespace st;

const std::string kReadLine =
    "9054  08:55:54.153994 read(3</usr/lib/x86_64-linux-gnu/libselinux.so.1>, ..., 832) = "
    "832 <0.000203>";
const std::string kOpenatLine =
    "42  10:00:00.000000 openat(AT_FDCWD, \"/p/scratch/ssf/test\", O_RDWR|O_CREAT, 0644) = 5 "
    "<0.000150>";

void BM_ParseLine_Read(benchmark::State& state) {
  strace::StringArena arena;
  for (auto _ : state) {
    benchmark::DoNotOptimize(strace::parse_line(kReadLine, arena));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ParseLine_Read);

void BM_ParseLine_Openat(benchmark::State& state) {
  strace::StringArena arena;
  for (auto _ : state) {
    benchmark::DoNotOptimize(strace::parse_line(kOpenatLine, arena));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ParseLine_Openat);

std::string make_trace_text(std::size_t lines, bool with_resume_pairs) {
  std::string text;
  text.reserve(lines * 100);
  for (std::size_t i = 0; i < lines; ++i) {
    const Micros t = static_cast<Micros>(i * 100);
    if (with_resume_pairs && i % 2 == 0) {
      text += "7  " + format_time_of_day(t) + " read(3</p/f>, <unfinished ...>\n";
    } else if (with_resume_pairs) {
      text += "7  " + format_time_of_day(t) + " <... read resumed> ..., 512) = 512 <0.000040>\n";
    } else {
      text += "7  " + format_time_of_day(t) + " read(3</p/f>, ..., 512) = 512 <0.000040>\n";
    }
  }
  return text;
}

/// Production-shaped mix: reads, openat with a quoted path, pwrite64
/// with an offset, and cross-line unfinished/resumed pairs. The same
/// shape as the recorded pre-change baseline (bench/baseline_seed.json).
std::string make_mixed_trace(std::size_t lines) {
  std::string text;
  text.reserve(lines * 100);
  for (std::size_t i = 0; i < lines; ++i) {
    const Micros t = static_cast<Micros>(i * 100);
    switch (i % 5) {
      case 0:
        text += "7  " + format_time_of_day(t) + " read(3</p/data/f>, \"\"..., 512) = 512 <0.000040>\n";
        break;
      case 1:
        text += "8  " + format_time_of_day(t) +
                " openat(AT_FDCWD, \"/p/scratch/ssf/test\", O_RDWR|O_CREAT, 0644) = 5 <0.000150>\n";
        break;
      case 2:
        text += "7  " + format_time_of_day(t) +
                " pwrite64(5</p/scratch/ssf/test>, \"\"..., 1048576, 33554432) = 1048576 <0.000294>\n";
        break;
      case 3:
        text += "9  " + format_time_of_day(t) + " read(3</p/data/f>, <unfinished ...>\n";
        break;
      default:
        text += "9  " + format_time_of_day(t) + " <... read resumed> \"\"..., 405) = 404 <0.000223>\n";
        break;
    }
  }
  return text;
}

/// Adversarial shape for the resume merge: about 36 % of the lines are
/// unfinished/resumed halves over 16 interleaved pids, so many resumed
/// halves find no pending half (or one of another call), some
/// unfinished halves never resume, and 1 line in 40 is garbage — every
/// one a warning. 120k lines are ~8.9 MB with ~43k halves and ~20k
/// warnings.
std::string make_adversarial_trace(std::size_t lines) {
  static const char* const kCalls[] = {"read", "write", "pread64"};
  std::string text;
  text.reserve(lines * 76);
  std::uint64_t state = 0x9E3779B97F4A7C15ull;
  for (std::size_t i = 0; i < lines; ++i) {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    const std::uint64_t r = state >> 33;
    const std::string pid = std::to_string(100 + r % 16);
    const char* call = kCalls[(r >> 8) % 3];
    const std::string ts = format_time_of_day(static_cast<Micros>(i * 100));
    const std::uint64_t kind = (r >> 16) % 100;
    if (kind < 18) {
      text += pid + "  " + ts + " " + call + "(3</p/scratch/adv/f>, <unfinished ...>\n";
    } else if (kind < 36) {
      text += pid + "  " + ts + " <... " + call + " resumed> \"\"..., 4096) = 4096 <0.000031>\n";
    } else if (kind < 38) {
      text += pid + "  " + ts + " garbage(\n";
    } else {
      text += pid + "  " + ts + " " + call +
              "(3</p/scratch/adv/f>, \"\"..., 4096) = 4096 <0.000012>\n";
    }
  }
  return text;
}

/// O(n) whole-trace read; the n sweep verifies linear scaling.
void BM_ReadTraceText(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const std::string text = make_trace_text(n, false);
  for (auto _ : state) {
    benchmark::DoNotOptimize(strace::read_trace_text(text));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n));
  state.SetBytesProcessed(state.iterations() * static_cast<std::int64_t>(text.size()));
  state.SetComplexityN(static_cast<std::int64_t>(n));
}
BENCHMARK(BM_ReadTraceText)->Range(1 << 8, 1 << 17)->Complexity(benchmark::oN);

void BM_ReadTraceText_WithResumeMerging(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const std::string text = make_trace_text(n, true);
  for (auto _ : state) {
    benchmark::DoNotOptimize(strace::read_trace_text(text));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n));
  state.SetBytesProcessed(state.iterations() * static_cast<std::int64_t>(text.size()));
}
BENCHMARK(BM_ReadTraceText_WithResumeMerging)->Range(1 << 8, 1 << 14);

/// Acceptance metric: whole-trace sequential read on the mixed corpus
/// (>= 100k lines at the top of the range), zero-copy from a
/// pre-loaded TraceBuffer exactly like read_trace_file.
void BM_ReadTraceMixed(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const std::string text = make_mixed_trace(n);
  for (auto _ : state) {
    // A fresh buffer per iteration, built outside the timed region:
    // parsing interns into the buffer's arena, so reusing one buffer
    // would grow its arena monotonically across iterations.
    state.PauseTiming();
    auto buffer = std::make_shared<strace::TraceBuffer>(text);
    state.ResumeTiming();
    benchmark::DoNotOptimize(strace::read_trace_buffer(std::move(buffer)));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n));
  state.SetBytesProcessed(state.iterations() * static_cast<std::int64_t>(text.size()));
}
BENCHMARK(BM_ReadTraceMixed)->Range(1 << 14, 1 << 17);

/// Runs the streamed reader over `buffers` and waits for every file:
/// the results in input order.
std::vector<strace::ReadResult> read_streamed(
    std::vector<std::shared_ptr<strace::TraceBuffer>> buffers,
    const strace::ParallelReadOptions& opts) {
  std::vector<strace::ReadResult> results(buffers.size());
  strace::read_trace_buffers_streamed(
      std::move(buffers), opts,
      [&results](std::size_t i, strace::ReadResult&& r) { results[i] = std::move(r); })
      .wait();
  return results;
}

/// The streamed chunked reader on the same corpus (identical output).
void BM_ReadTraceParallelMixed(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const std::string text = make_mixed_trace(n);
  ThreadPool pool(0);  // hardware concurrency, reused across iterations
  strace::ParallelReadOptions opts;
  opts.pool = &pool;
  opts.min_chunk_bytes = 1 << 18;
  for (auto _ : state) {
    state.PauseTiming();
    auto buffer = std::make_shared<strace::TraceBuffer>(text);
    state.ResumeTiming();
    benchmark::DoNotOptimize(read_streamed({std::move(buffer)}, opts));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n));
  state.SetBytesProcessed(state.iterations() * static_cast<std::int64_t>(text.size()));
}
BENCHMARK(BM_ReadTraceParallelMixed)->Range(1 << 14, 1 << 17);

/// The adversarial trace through the sequential reader and through the
/// streamed reader at 1 and 4 workers (1 MiB chunks: 9 of them). The
/// lenient resume merge reports each unmatched or mismatched resumed
/// half as a warning without a throw.
void BM_ReadTraceAdversarial(benchmark::State& state) {
  const std::string text = make_adversarial_trace(120000);
  const auto workers = static_cast<std::size_t>(state.range(0));
  ThreadPool pool(workers == 0 ? 1 : workers);
  strace::ParallelReadOptions opts;
  opts.pool = &pool;
  for (auto _ : state) {
    state.PauseTiming();
    auto buffer = std::make_shared<strace::TraceBuffer>(text);
    state.ResumeTiming();
    if (workers == 0) {
      benchmark::DoNotOptimize(strace::read_trace_buffer(std::move(buffer)));
    } else {
      benchmark::DoNotOptimize(read_streamed({std::move(buffer)}, opts));
    }
  }
  state.SetBytesProcessed(state.iterations() * static_cast<std::int64_t>(text.size()));
}
// Arg 0: the sequential reader; 1 and 4: the streamed reader's workers.
BENCHMARK(BM_ReadTraceAdversarial)
    ->Arg(0)
    ->Arg(1)
    ->Arg(4)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

// ---- scan kernels ------------------------------------------------------

/// The structural scan work of one pass over the corpus: split lines,
/// locate the call's argument list, match its parentheses and split
/// the arguments — exactly what the reader + parser ask of the scan
/// layer, without record assembly. `scalar` selects the pre-kernel
/// reference loops; otherwise the active kernel mode runs.
std::size_t scan_corpus(std::string_view text, bool scalar,
                        std::vector<std::string_view>& argv) {
  namespace kn = strace::kernels;
  std::size_t fields = 0;
  std::size_t start = 0;
  while (start <= text.size()) {
    const std::size_t nl = scalar ? kn::find_byte_scalar(text, start, '\n')
                                  : kn::find_byte(text, start, '\n');
    const std::size_t stop = nl == kn::npos ? text.size() : nl;
    const std::string_view line = text.substr(start, stop - start);
    const std::size_t open =
        scalar ? kn::find_byte_scalar(line, 0, '(') : kn::find_byte(line, 0, '(');
    if (open != kn::npos) {
      const auto close = scalar ? strace::find_matching_paren_scalar(line, open)
                                : strace::find_matching_paren(line, open);
      if (close) {
        const std::string_view args = line.substr(open + 1, *close - open - 1);
        if (scalar) {
          strace::split_args_into_scalar(args, argv);
        } else {
          strace::split_args_into(args, argv);
        }
        fields += argv.size();
      }
    }
    if (nl == kn::npos) break;
    start = nl + 1;
  }
  return fields;
}

/// Acceptance metric of the kernel PR: bytes/s of the kernel-backed
/// scan over the scalar reference (scan_kernel_speedup_vs_scalar in
/// BENCH_parse.json must be >= 1.3x).
void BM_ScanKernel(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const std::string text = make_mixed_trace(n);
  std::vector<std::string_view> argv;
  for (auto _ : state) {
    benchmark::DoNotOptimize(scan_corpus(text, /*scalar=*/false, argv));
  }
  state.SetBytesProcessed(state.iterations() * static_cast<std::int64_t>(text.size()));
  state.SetLabel(std::string(strace::kernels::scan_kernel_backend()));
}
BENCHMARK(BM_ScanKernel)->Arg(1 << 17);

void BM_ScanScalar(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const std::string text = make_mixed_trace(n);
  std::vector<std::string_view> argv;
  for (auto _ : state) {
    benchmark::DoNotOptimize(scan_corpus(text, /*scalar=*/true, argv));
  }
  state.SetBytesProcessed(state.iterations() * static_cast<std::int64_t>(text.size()));
}
BENCHMARK(BM_ScanScalar)->Arg(1 << 17);

// ---- event-log construction (model layer) ------------------------------

/// Acceptance metric of the arena-interning PR: converting parsed
/// records into model Events. Events hold string_views interned
/// per-case, so this is a flat copy of POD + views.
void BM_EventLogFromRecords(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto parsed = strace::read_trace_text(make_mixed_trace(n));
  const strace::TraceFileId id{"bench", "node1", 9001};
  for (auto _ : state) {
    strace::StringArena arena;
    benchmark::DoNotOptimize(model::case_from_records(id, parsed.records, arena));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(parsed.records.size()));
}
BENCHMARK(BM_EventLogFromRecords)->Range(1 << 14, 1 << 17);

/// The PR 1 behaviour, replicated for the speedup record: four owned
/// heap strings copied per event (cid/host/call/fp).
void BM_EventLogFromRecordsCopying(benchmark::State& state) {
  struct OwnedEvent {
    std::string cid;
    std::string host;
    std::uint64_t rid = 0;
    std::uint64_t pid = 0;
    std::string call;
    Micros start = 0;
    Micros dur = 0;
    std::string fp;
    std::int64_t size = -1;
  };
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto parsed = strace::read_trace_text(make_mixed_trace(n));
  const strace::TraceFileId id{"bench", "node1", 9001};
  for (auto _ : state) {
    std::vector<OwnedEvent> events;
    events.reserve(parsed.records.size());
    for (const auto& rec : parsed.records) {
      if (rec.kind != strace::RecordKind::Complete) continue;
      OwnedEvent e;
      e.cid = id.cid;
      e.host = id.host;
      e.rid = id.rid;
      e.pid = rec.pid;
      e.call = rec.call;
      e.start = rec.timestamp;
      e.dur = rec.duration.value_or(0);
      e.fp = rec.path;
      if (rec.is_data_transfer() && rec.retval && *rec.retval >= 0) e.size = *rec.retval;
      events.push_back(std::move(e));
    }
    std::stable_sort(events.begin(), events.end(),
                     [](const OwnedEvent& a, const OwnedEvent& b) { return a.start < b.start; });
    benchmark::DoNotOptimize(events);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(parsed.records.size()));
}
BENCHMARK(BM_EventLogFromRecordsCopying)->Range(1 << 14, 1 << 17);

/// Shared parsed corpus for the conversion / query scaling benches:
/// 8 files' worth of records, parsed once.
class ConvertCorpus {
 public:
  static const ConvertCorpus& instance() {
    static ConvertCorpus corpus;
    return corpus;
  }

  std::vector<strace::TraceFileId> ids;
  std::vector<strace::ReadResult> parsed;
  std::int64_t total_records = 0;

  ConvertCorpus(const ConvertCorpus&) = delete;
  ConvertCorpus& operator=(const ConvertCorpus&) = delete;

 private:
  ConvertCorpus() {
    for (int f = 0; f < 8; ++f) {
      ids.push_back(strace::TraceFileId{"bench", "node" + std::to_string(f % 2 + 1),
                                        static_cast<std::uint64_t>(9000 + f)});
      parsed.push_back(strace::read_trace_text(make_mixed_trace(1 << 14)));
      total_records += static_cast<std::int64_t>(parsed.back().records.size());
    }
  }
};

/// Multi-thread scaling of the record -> Case conversion step of
/// event_log_from_files (convert_parallel_speedup in BENCH_parse.json:
/// best multi-worker items/s over the 1-worker point).
void BM_ConvertCasesParallel(benchmark::State& state) {
  const auto& corpus = ConvertCorpus::instance();
  const std::size_t n = corpus.parsed.size();
  ThreadPool pool(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    std::vector<model::Case> cases(n);
    std::vector<std::shared_ptr<strace::StringArena>> arenas(n);
    parallel_for(pool, 0, n, [&](std::size_t i) {
      auto arena = std::make_shared<strace::StringArena>();
      cases[i] = model::case_from_records(corpus.ids[i], corpus.parsed[i].records, *arena);
      arenas[i] = std::move(arena);
    });
    benchmark::DoNotOptimize(cases);
    benchmark::DoNotOptimize(arenas);
  }
  state.SetItemsProcessed(state.iterations() * corpus.total_records);
}
BENCHMARK(BM_ConvertCasesParallel)->Arg(1)->Arg(2)->Arg(4)->UseRealTime();

/// Process-lifetime EventLog over the ConvertCorpus, shared by the
/// query benchmarks (leaked deliberately: its arena backs the views).
const model::EventLog& query_bench_log() {
  static const model::EventLog* log = [] {
    const auto& corpus = ConvertCorpus::instance();
    auto* l = new model::EventLog();
    for (std::size_t i = 0; i < corpus.parsed.size(); ++i) {
      l->add_case(
          model::case_from_records(corpus.ids[i], corpus.parsed[i].records, l->arena()));
      l->adopt(corpus.parsed[i].buffer);
    }
    return l;
  }();
  return *log;
}

model::Query query_bench_query() {
  return model::Query().calls({"read", "write", "openat"}).fp_contains("/p");
}

/// Multi-thread scaling of Query::apply (query_parallel_speedup in
/// BENCH_parse.json). The query exercises both precompiled call-family
/// matching and path-substring filtering over every event.
void BM_QueryApplyParallel(benchmark::State& state) {
  const model::EventLog& log = query_bench_log();
  const auto q = query_bench_query();
  ThreadPool pool(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(q.apply(log, pool));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(log.total_events()));
}
BENCHMARK(BM_QueryApplyParallel)->Arg(1)->Arg(2)->Arg(4)->UseRealTime();

/// Serial apply() for reference (no pool in the loop).
void BM_QueryApplySerial(benchmark::State& state) {
  const model::EventLog& log = query_bench_log();
  const auto q = query_bench_query();
  for (auto _ : state) {
    benchmark::DoNotOptimize(q.apply(log));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(log.total_events()));
}
BENCHMARK(BM_QueryApplySerial);

// ---- mixed per-file + intra-file parallelism ---------------------------

/// 1 big file + N small ones on disk — the workload where PR 1's
/// either/or parallelism (per-file XOR intra-file) leaves cores idle.
class MixedFileSet {
 public:
  static const MixedFileSet& instance() {
    static MixedFileSet set;
    return set;
  }

  [[nodiscard]] const std::vector<std::string>& paths() const { return paths_; }
  [[nodiscard]] std::int64_t total_bytes() const { return total_bytes_; }

  MixedFileSet(const MixedFileSet&) = delete;
  MixedFileSet& operator=(const MixedFileSet&) = delete;

 private:
  MixedFileSet() {
    dir_ = std::filesystem::temp_directory_path() /
           ("st_bench_mixed_" + std::to_string(reinterpret_cast<std::uintptr_t>(this)));
    std::filesystem::create_directories(dir_);
    const auto write = [&](const std::string& name, std::size_t lines) {
      const auto path = (dir_ / name).string();
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      const std::string text = make_mixed_trace(lines);
      out << text;
      paths_.push_back(path);
      total_bytes_ += static_cast<std::int64_t>(text.size());
    };
    write("big_node1_9000.st", 1 << 17);  // ~10 MB
    for (int i = 0; i < 8; ++i) {
      write("small_node1_" + std::to_string(9001 + i) + ".st", 1 << 12);
    }
  }

  ~MixedFileSet() {
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }

  std::filesystem::path dir_;
  std::vector<std::string> paths_;
  std::int64_t total_bytes_ = 0;
};

/// PR 1 multi-file path: per-file parallelism only (each file parsed
/// sequentially on a pool worker).
void BM_MixedFiles_PerFileOnly(benchmark::State& state) {
  const auto& set = MixedFileSet::instance();
  ThreadPool pool(0);
  for (auto _ : state) {
    auto results = parallel_map(pool, set.paths(), [](const std::string& path) {
      return strace::read_trace_file(path);
    });
    benchmark::DoNotOptimize(results);
  }
  state.SetBytesProcessed(state.iterations() * set.total_bytes());
}
BENCHMARK(BM_MixedFiles_PerFileOnly)->UseRealTime();

/// Intra-file parallelism only: the streamed reader on one file at a
/// time (files processed one after another).
void BM_MixedFiles_IntraFileOnly(benchmark::State& state) {
  const auto& set = MixedFileSet::instance();
  ThreadPool pool(0);
  strace::ParallelReadOptions opts;
  opts.pool = &pool;
  opts.min_chunk_bytes = 1 << 18;
  for (auto _ : state) {
    std::vector<strace::ReadResult> results;
    results.reserve(set.paths().size());
    for (const auto& path : set.paths()) {
      results.push_back(
          std::move(read_streamed({strace::TraceBuffer::from_file_mmap(path)}, opts).front()));
    }
    benchmark::DoNotOptimize(results);
  }
  state.SetBytesProcessed(state.iterations() * set.total_bytes());
}
BENCHMARK(BM_MixedFiles_IntraFileOnly)->UseRealTime();

/// Mixed: one work queue of (file, chunk) tasks across all files.
void BM_MixedFiles_Mixed(benchmark::State& state) {
  const auto& set = MixedFileSet::instance();
  ThreadPool pool(0);
  strace::ParallelReadOptions opts;
  opts.pool = &pool;
  opts.min_chunk_bytes = 1 << 18;
  for (auto _ : state) {
    std::vector<std::shared_ptr<strace::TraceBuffer>> buffers;
    for (const auto& path : set.paths()) buffers.push_back(strace::TraceBuffer::from_file_mmap(path));
    benchmark::DoNotOptimize(read_streamed(std::move(buffers), opts));
  }
  state.SetBytesProcessed(state.iterations() * set.total_bytes());
}
BENCHMARK(BM_MixedFiles_Mixed)->UseRealTime();

/// End-to-end: files on disk -> EventLog (mmap + mixed parallel parse +
/// arena-interned event construction).
void BM_EventLogFromFilesMixed(benchmark::State& state) {
  const auto& set = MixedFileSet::instance();
  for (auto _ : state) {
    benchmark::DoNotOptimize(model::event_log_from_files(set.paths()));
  }
  state.SetBytesProcessed(state.iterations() * set.total_bytes());
}
BENCHMARK(BM_EventLogFromFilesMixed)->UseRealTime();

void BM_WriteTrace(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto parsed = strace::read_trace_text(make_trace_text(n, false));
  for (auto _ : state) {
    benchmark::DoNotOptimize(strace::format_trace(parsed.records));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n));
}
BENCHMARK(BM_WriteTrace)->Range(1 << 8, 1 << 12);

}  // namespace

BENCHMARK_MAIN();
