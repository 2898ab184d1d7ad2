// The report fold over already-parsed cases: report::report_data folds
// the report's sinks over case sources through pipeline::fold_cases,
// and must reproduce the staged oracle (testing::staged_report_data,
// one serial pass per section):
//   - field by field — graph, activity statistics with bit-exact
//     doubles, edge statistics, case summaries, counts and timeline —
//     and in the rendered bytes, with no pool and on 1, 2 and 4
//     workers, over the ls traces, the noisy multi-host corpus of
//     testing_corpus.hpp, a 37-case synthetic log (no chunking divides
//     it evenly), an empty log and a log whose cases map no events,
//     under every mapping of testing::mappings_under_test (the seven
//     registry names, a filtered one, one naming events like the DFG's
//     markers and one that maps nothing) and a custom one reading the
//     pid, with and without a timeline — each log folded as its cases
//     (pipeline::CaseSpan) and as a v2 container of them
//     (elog::ContainerCases: column space, one read-only dictionary per
//     container and registry mapping, per-chunk ones for custom);
//   - a query's selection of an opened union (corpus::select: the
//     trace files imported into one in-memory container, an .elog, each
//     container's kept rows decoded in column space) against the oracle
//     over Query::apply on the materialized union and against the same
//     union with the trace files imported as an .elog, with no pool and
//     on 1 and 4 workers, over trace files that warn (a malformed line,
//     calls never resumed) or fail (a directory, a misnamed file) under
//     fail fast and keep_going;
//   - the container source's load policy against read_event_log_v2's:
//     the same quarantine warning and the same missing case under
//     keep_going, the lower corrupt case's error under fail fast, and
//     corpus::open_corpus's union rule: a case id met twice in trace
//     files, containers or both is EventLog::merge's LogicError, and
//     where it falls among misnamed and unreadable trace files;
//   - fold_cases' error contract: a sink throwing in two chunks
//     surfaces the lower chunk's error every time, no sink sees a
//     merge and the pool stays usable; an armed sink.fold fault is a
//     typed IoError that leaves every sink empty.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>
#include <set>
#include <span>
#include <sstream>
#include <stdexcept>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "../bench/testdata.hpp"
#include "corpus/catalog.hpp"
#include "dfg/coloring.hpp"
#include "elog/format.hpp"
#include "elog/v2_fold.hpp"
#include "elog/v2_store.hpp"
#include "iosim/commands.hpp"
#include "paper_oracles.hpp"
#include "parallel/thread_pool.hpp"
#include "pipeline/sink.hpp"
#include "report/report.hpp"
#include "support/faultpoint.hpp"
#include "testing_corpus.hpp"
#include "testing_util.hpp"

namespace st {
namespace {

enum class Source { kLs, kNoisyCorpus, kSynthetic, kEmpty, kUnmapped };

std::string source_name(Source s) {
  switch (s) {
    case Source::kLs: return "ls";
    case Source::kNoisyCorpus: return "noisy";
    case Source::kSynthetic: return "synthetic";
    case Source::kEmpty: return "empty";
    case Source::kUnmapped: return "unmapped";
  }
  return "?";
}

/// Which case source folds the log: its cases, or a v2 container of
/// them.
enum class Kind { kCases, kContainer };

using Param = std::tuple<Source, std::string, bool, Kind>;  // source, mapping, timeline, kind

std::string v2_bytes(const model::EventLog& log) {
  std::ostringstream out(std::ios::binary);
  elog::write_event_log_v2(out, log);
  return std::move(out).str();
}

std::shared_ptr<elog::MappedElog> open_bytes(std::string bytes) {
  return elog::MappedElog::from_buffer(std::make_shared<strace::TraceBuffer>(std::move(bytes)));
}

/// A kEvent mapping that reads more than (call, fp): mapping it per
/// (call id, fp id) pair would be wrong.
model::Mapping by_pid() {
  return model::Mapping::custom("by-pid", [](const model::Event& e) {
    return model::Activity(e.call) + "\n" + std::to_string(e.pid % 3);
  });
}

class LogFold : public testing::CorpusTest, public ::testing::WithParamInterface<Param> {
 protected:
  LogFold() : CorpusTest("st_log_fold") {}

  model::EventLog log_of(Source s) {
    switch (s) {
      case Source::kLs:
        return model::EventLog::merge(iosim::make_ls_traces().to_event_log(),
                                      iosim::make_ls_l_traces().to_event_log());
      case Source::kNoisyCorpus: return testing::staged_log(make_corpus());
      case Source::kSynthetic: return bench::synthetic_log(7, 37, 40, 24);
      case Source::kEmpty: return model::EventLog{};
      case Source::kUnmapped: {
        // The ls cases, plus two empty ones; the mapping below maps none
        // of their events.
        model::EventLog log = log_of(Source::kLs);
        log.add_case(testing::make_case("void", 1, {}));
        log.add_case(testing::make_case("void", 2, {}, "host2"));
        return log;
      }
    }
    return {};
  }
};

void expect_same_report_data(const report::ReportData& a, const report::ReportData& b,
                             const std::string& what) {
  SCOPED_TRACE(what);
  EXPECT_EQ(a.graph, b.graph);
  testing::expect_same_io_stats(a.stats, b.stats);
  EXPECT_EQ(a.edge_stats.per_edge(), b.edge_stats.per_edge());
  EXPECT_EQ(a.case_summaries, b.case_summaries);
  EXPECT_EQ(a.case_count, b.case_count);
  EXPECT_EQ(a.total_events, b.total_events);
  EXPECT_FALSE(a.variants.has_value());
  EXPECT_FALSE(a.health.has_value());
  ASSERT_EQ(a.timeline.size(), b.timeline.size());
  for (std::size_t i = 0; i < a.timeline.size(); ++i) {
    EXPECT_EQ(a.timeline[i].case_id, b.timeline[i].case_id) << i;
    EXPECT_EQ(a.timeline[i].interval, b.timeline[i].interval) << i;
  }
}

std::string render(const report::ReportData& data, const model::Mapping& f,
                   const report::ReportOptions& opts) {
  const dfg::StatisticsColoring styler(data.stats);
  return report::render_report(data, f, &styler, opts);
}

TEST_P(LogFold, MatchesTheStagedOracleAtAnyPool) {
  const auto& [source, mapping, with_timeline, kind] = GetParam();
  model::EventLog log = log_of(source);
  std::shared_ptr<elog::MappedElog> mapped;
  if (kind == Kind::kContainer) {
    // The oracle reads what the container holds.
    mapped = open_bytes(v2_bytes(log));
    log = elog::read_event_log_v2(mapped);
  }
  model::Mapping f = mapping == "by-pid" ? by_pid() : testing::mapping_under_test(mapping);
  if (source == Source::kUnmapped) {
    f = f.filtered(mapping + "-none", [](const model::Event&) { return false; });
  }

  report::ReportOptions opts;
  opts.title = "log fold";
  const auto staged_without = testing::staged_report_data(log, f);
  if (with_timeline) {
    // The busiest activity, or one no log here has when nothing maps.
    opts.timeline_activity = staged_without.stats.per_activity().empty()
                                 ? model::Activity("read\n/nowhere")
                                 : staged_without.stats.per_activity().begin()->first;
  }
  const auto staged = testing::staged_report_data(log, f, opts);
  if (with_timeline && !staged.stats.per_activity().empty()) {
    ASSERT_FALSE(staged.timeline.empty());  // the timeline case really has entries
  }
  const std::string staged_html = render(staged, f, opts);
  if (mapping == "markers" && source == Source::kLs) {
    // Reads really are named like the start marker and merge with it.
    ASSERT_GT(staged.graph.node_count(dfg::Dfg::start_node()), staged.graph.trace_count());
  }

  ThreadPool pool1(1);
  ThreadPool pool2(2);
  ThreadPool pool4(4);
  const std::array<const model::Mapping*, 1> mappings{&f};
  for (ThreadPool* pool : {static_cast<ThreadPool*>(nullptr), &pool1, &pool2, &pool4}) {
    const std::string what = "workers " + std::to_string(pool ? pool->size() : 0);
    std::unique_ptr<pipeline::CaseSource> cases;
    if (kind == Kind::kContainer) {
      auto container = std::make_unique<elog::ContainerCases>(mapped, mappings, RunPolicy{}, pool);
      // A registry mapping gets the container's dictionary; a custom
      // one is mapped per chunk.
      EXPECT_EQ(container->dictionary(f) != nullptr,
                f.key() == model::Mapping::Key::kCallFp)
          << what;
      cases = std::move(container);
    } else {
      cases = std::make_unique<pipeline::CaseSpan>(log.cases());
    }
    const std::array<const pipeline::CaseSource*, 1> sources{cases.get()};
    const auto folded = report::report_data(sources, f, opts, pool);
    expect_same_report_data(folded, staged, what);
    EXPECT_EQ(render(folded, f, opts), staged_html) << what;
  }
}

std::vector<std::string> log_fold_mappings() {
  auto names = testing::mappings_under_test();
  names.push_back("by-pid");
  return names;
}

INSTANTIATE_TEST_SUITE_P(
    SourcesMappingsTimelines, LogFold,
    ::testing::Combine(::testing::Values(Source::kLs, Source::kNoisyCorpus, Source::kSynthetic,
                                         Source::kEmpty, Source::kUnmapped),
                       ::testing::ValuesIn(log_fold_mappings()), ::testing::Bool(),
                       ::testing::Values(Kind::kCases, Kind::kContainer)),
    [](const ::testing::TestParamInfo<Param>& info) {
      std::string name = source_name(std::get<0>(info.param)) + "_" + std::get<1>(info.param) +
                         (std::get<2>(info.param) ? "_timeline" : "") +
                         (std::get<3>(info.param) == Kind::kContainer ? "_elog" : "");
      std::replace(name.begin(), name.end(), '-', '_');
      return name;
    });

// ---- the container source's load policy --------------------------------

/// `bytes` with one bit flipped mid-section in `kind` of case `k`.
std::string flip_column(std::string bytes, elog::SectionKind kind, std::uint32_t k) {
  const auto clean = open_bytes(bytes);
  for (const elog::SectionEntry& e : clean->sections()) {
    if (e.kind == kind && e.case_index == k && e.length > 0) {
      bytes[e.offset + e.length / 2] ^= 0x04;
      return bytes;
    }
  }
  ADD_FAILURE() << "no section for case " << k;
  return bytes;
}

TEST(ContainerCases, ARegistryActivityNamedLikeAMarkerMergesWithIt) {
  // Under `call` these events map to "●" and "■" through the shared
  // dictionary, which hands out the markers' own ids for them.
  model::EventLog log;
  for (std::uint64_t i = 0; i < 6; ++i) {
    log.add_case(testing::make_case(
        "m" + std::to_string(i), i,
        {testing::ev("read", "/p/a", 10, 2, 8), testing::ev(model::kStartActivity, "/p/a", 20, 1),
         testing::ev(model::kEndActivity, "/p/b", 30, 1), testing::ev("write", "/p/b", 40, 3, 16)}));
  }
  const auto mapped = open_bytes(v2_bytes(log));
  const auto read = elog::read_event_log_v2(mapped);
  const auto f = model::mapping_by_name("call");
  const std::array<const model::Mapping*, 1> mappings{&f};
  const auto staged = testing::staged_report_data(read, f);
  ASSERT_GT(staged.graph.node_count(dfg::Dfg::start_node()), staged.graph.trace_count());
  ThreadPool pool(2);
  const elog::ContainerCases container(mapped, mappings, RunPolicy{}, &pool);
  ASSERT_NE(container.dictionary(f), nullptr);
  const std::array<const pipeline::CaseSource*, 1> sources{&container};
  expect_same_report_data(report::report_data(sources, f, {}, &pool), staged, "markers");
}

TEST(ContainerCases, ACaseStoredOutOfStartOrderFoldsInStartOrder) {
  // A checksummed container whose case rows are not in start order:
  // case_at sorts the events like Case does, and their pool-id pairs
  // must follow them.
  const model::EventLog log = [] {
    model::EventLog l;
    l.add_case(testing::make_case("u", 1,
                                  {testing::ev("read", "/p/a", 10, 2, 8),
                                   testing::ev("write", "/p/b", 20, 3, 16),
                                   testing::ev("openat", "/p/c", 30, 1)}));
    return l;
  }();
  elog::EncodedCase ec = elog::encode_case(log.cases()[0]);
  ec.col_start.clear();
  for (const std::int64_t delta : {30, -20, 10}) elog::put_i64(ec.col_start, delta);  // 30, 10, 20
  ec.start_encoding = elog::kStartEncodingFixed;
  std::ostringstream out(std::ios::binary);
  elog::ElogV2Writer writer(out);
  writer.append_encoded(std::move(ec));
  writer.finalize();
  const auto mapped = open_bytes(std::move(out).str());
  const auto read = elog::read_event_log_v2(mapped);
  ASSERT_EQ(read.cases()[0].events()[0].call, "write");
  const auto f = model::mapping_by_name("call");
  const std::array<const model::Mapping*, 1> mappings{&f};
  const elog::ContainerCases container(mapped, mappings, RunPolicy{}, nullptr);
  const std::array<const pipeline::CaseSource*, 1> sources{&container};
  const report::ReportOptions opts{.timeline_activity = model::Activity("read")};
  expect_same_report_data(report::report_data(sources, f, opts, nullptr),
                          testing::staged_report_data(read, f, opts), "unsorted");
}

TEST(ContainerCases, KeepGoingQuarantinesWhatTheReadQuarantines) {
  const model::EventLog log = bench::synthetic_log(12, 29, 40, 12);
  const std::string corrupt = flip_column(v2_bytes(log), elog::SectionKind::kColFp, 13);
  const auto read = elog::read_event_log_v2(open_bytes(corrupt), elog::ElogReadOptions{true});
  ASSERT_EQ(read.warnings().size(), 1u);
  ASSERT_EQ(read.warnings()[0].rfind("case 13 (bench_node1_14) quarantined: io error: ", 0), 0u)
      << read.warnings()[0];
  const auto f = model::mapping_by_name("top2");
  const std::array<const model::Mapping*, 1> mappings{&f};
  const auto staged = testing::staged_report_data(read, f);
  ThreadPool pool(4);
  for (ThreadPool* p : {static_cast<ThreadPool*>(nullptr), &pool}) {
    const elog::ContainerCases container(open_bytes(corrupt), mappings, RunPolicy{true}, p);
    EXPECT_EQ(container.warnings(), read.warnings());
    ASSERT_EQ(container.case_count(), read.case_count());
    for (std::size_t k = 0; k < container.case_count(); ++k) {
      EXPECT_EQ(container.case_id(k), read.cases()[k].id()) << k;
    }
    const std::array<const pipeline::CaseSource*, 1> sources{&container};
    expect_same_report_data(report::report_data(sources, f, {}, p), staged,
                            p ? "pool" : "inline");
  }
}

TEST(ContainerCases, FailFastThrowsTheLowerCorruptCasesError) {
  const model::EventLog log = bench::synthetic_log(13, 29, 40, 12);
  const std::string one = flip_column(v2_bytes(log), elog::SectionKind::kColFp, 13);
  const std::string two = flip_column(one, elog::SectionKind::kColDur, 27);
  std::string expected;
  try {
    (void)elog::read_event_log_v2(open_bytes(two));
  } catch (const IoError& e) {
    expected = e.what();
  }
  ASSERT_NE(expected.find("crc mismatch"), std::string::npos) << expected;
  ASSERT_NE(expected.find("case 13"), std::string::npos) << expected;
  const std::array<const model::Mapping*, 0> none{};
  ThreadPool pool(4);
  for (ThreadPool* p : {static_cast<ThreadPool*>(nullptr), &pool}) {
    for (int round = 0; round < 5; ++round) {
      try {
        const elog::ContainerCases container(open_bytes(two), none, RunPolicy{}, p);
        ADD_FAILURE() << "a corrupt container opened as a source";
      } catch (const IoError& e) {
        EXPECT_EQ(e.what(), expected) << round;
      }
    }
  }
}

/// The text of the st::Error `f` throws, or "" when it throws none.
template <typename F>
std::string error_of(F&& f) {
  try {
    f();
  } catch (const Error& e) {
    return e.what();
  }
  return "";
}

/// Trace inputs every reader warns about or refuses, in `dir`: a file
/// with a malformed line and a call never resumed, a directory named
/// like a trace, and a file whose name is no cid_host_rid.st.
struct DefectiveTraces {
  std::string warned;
  std::string folder;
  std::string misnamed;
};

DefectiveTraces defective_traces(const std::filesystem::path& dir) {
  DefectiveTraces out{(dir / "open_nodeD_1.st").string(), (dir / "dir_nodeD_2.st").string(),
                      (dir / "no-trace-name.st").string()};
  const std::string text =
      "7  10:00:00.000100 read(3</p/data/f>, \"\"..., 512) = 512 <0.000040>\n"
      "7  10:00:00.000200 not_a_call_line\n"
      "7  10:00:00.000300 read(3</p/data/f>, <unfinished ...>\n";
  for (const auto& path : {out.warned, out.misnamed}) {
    std::ofstream(path, std::ios::binary) << text;
  }
  std::filesystem::create_directories(out.folder);
  return out;
}

TEST_F(LogFold, AUnionWithARepeatedCaseIdFails) {
  // The union's identity rule holds over every kind of input: a case id
  // met twice — in two trace files, in two containers, or in a trace
  // file and a container — is EventLog::merge's LogicError, under
  // keep_going too (it is no data fault of either input). Names and ids
  // are checked before any trace file is read, in input order; a
  // directory fails when it is read; the trace files fail before any
  // container opens.
  const model::EventLog log = bench::synthetic_log(14, 6, 20, 8);
  model::EventLog other;
  other.add_case(testing::make_case("other", 1, {testing::ev("read", "/p/x", 10, 2, 8)}));
  other.add_case(log.cases()[4]);  // bench_node1_5, again
  const std::string a = write_file("a.elog", v2_bytes(log));
  const std::string b = write_file("b.elog", v2_bytes(other));
  std::filesystem::create_directories(dir_ / "x");
  std::filesystem::create_directories(dir_ / "y");
  const std::string trace = testing::make_clean_trace(10, 7);
  const std::string x = write_file("x/dup_nodeA_1.st", trace);
  const std::string y = write_file("y/dup_nodeA_1.st", trace);
  const std::string again = write_file("bench_node1_5.st", trace);
  const auto bad = defective_traces(dir_);
  const std::string dup1 = "logic error: EventLog::merge: duplicate case dup_nodeA_1";
  const std::string dup5 = "logic error: EventLog::merge: duplicate case bench_node1_5";
  const std::string misnamed =
      "parse error: trace file name does not follow cid_host_rid.st: " + bad.misnamed;
  const std::string folder = "io error: trace file is a directory: " + bad.folder;
  struct Union {
    std::vector<std::string> inputs;
    std::string fail_fast;
    std::string keep_going;
  };
  const std::vector<Union> unions = {
      {{x, y}, dup1, dup1},
      {{a, b}, dup5, dup5},
      {{again, a}, dup5, dup5},
      {{bad.warned, x, bad.folder, y}, dup1, dup1},
      {{bad.misnamed, x, y}, misnamed, dup1},
      {{x, bad.misnamed, y}, misnamed, dup1},
      {{bad.warned, again, bad.folder, a}, folder, dup5},
      {{again, bad.misnamed, a, b}, misnamed, dup5},
  };
  const auto f = model::mapping_by_name("top2");
  const std::array<const model::Mapping*, 1> mappings{&f};
  ThreadPool pool1(1);
  ThreadPool pool4(4);
  for (ThreadPool* pool : {&pool1, &pool4}) {
    for (const auto& u : unions) {
      for (const bool keep_going : {false, true}) {
        EXPECT_EQ(error_of([&] {
                    (void)corpus::open_corpus(u.inputs, *pool, RunPolicy{keep_going}, mappings);
                  }),
                  keep_going ? u.keep_going : u.fail_fast)
            << u.inputs.front() << ", workers " << pool->size() << ", keep_going "
            << keep_going;
      }
    }
    // Without the repeat, each of them opens.
    for (const auto& inputs : {std::vector<std::string>{x, again}, std::vector<std::string>{a},
                               std::vector<std::string>{bad.warned, x, a}}) {
      EXPECT_NO_THROW((void)corpus::open_corpus(inputs, *pool, RunPolicy{}, mappings));
    }
  }
}

TEST_F(LogFold, AQuerysSelectionFoldsLikeItsFilteredLog) {
  // A query's selection of an opened union — the trace files imported
  // into one in-memory container, then an .elog, each selected in column
  // space — folds to the staged oracle over Query::apply on the
  // materialized union, and to the selection of the same union with the
  // trace files imported as an .elog, with no pool and on 1 and 4
  // workers. Among the trace files are a malformed line, calls never
  // resumed, a directory named like a trace and a misnamed file: fail
  // fast refuses the last two with pipeline::run's error, keep_going
  // opens what run keeps, with run's warnings.
  const std::vector<std::string> files = make_corpus();
  const auto bad = defective_traces(dir_);
  const std::vector<std::string> warned = {files[0], files[1], bad.warned, files[2],
                                           files[3], files[4], files[5]};
  const std::vector<std::string> refused = {files[0], files[1], bad.warned,  bad.folder,
                                            files[2], files[3], bad.misnamed, files[4],
                                            files[5]};
  const std::string elog = write_file("c.elog", v2_bytes(bench::synthetic_log(15, 23, 30, 6)));
  const auto with_elog = [&](std::vector<std::string> inputs) {
    inputs.push_back(elog);
    return inputs;
  };
  const std::vector<std::string> queries = {
      "all", "calls{read}", "fp~/p/scratch", "cids{bench}", "hosts{nodeA}",
      "calls{write} fp~/data/dir1", "t[0,500)", "t[36000000000,36000040000)",
      "cids{bench,s1} calls{lseek,read}", "calls{unlinkat}"};
  ThreadPool pool1(1);
  ThreadPool pool4(4);
  for (ThreadPool* pool : {&pool1, &pool4}) {
    const auto top2 = model::mapping_by_name("top2");
    const std::array<const model::Mapping*, 1> one{&top2};
    for (const auto& defect : {bad.folder, bad.misnamed}) {
      const std::vector<std::string> traces = {files[0], bad.warned, defect, files[1]};
      const std::string expected = error_of([&] { (void)pipeline::run(traces, *pool, {}); });
      ASSERT_FALSE(expected.empty()) << defect;
      EXPECT_EQ(error_of([&] {
                  (void)corpus::open_corpus(with_elog(traces), *pool, RunPolicy{}, one);
                }),
                expected);
    }
    for (const bool keep_going : {false, true}) {
      const std::vector<std::string>& traces = keep_going ? refused : warned;
      const RunPolicy policy{keep_going};
      pipeline::StreamOptions stream_opts;
      stream_opts.keep_going = keep_going;
      const model::EventLog ingested = pipeline::run(traces, *pool, {}, stream_opts);
      ASSERT_EQ(ingested.case_count(), warned.size());
      const std::vector<std::string> imported_inputs = {
          write_file("imported.elog", v2_bytes(ingested)), elog};
      const model::EventLog whole =
          model::EventLog::merge(pipeline::run(traces, *pool, {}, stream_opts),
                                 elog::read_event_log_v2(elog::open_v2(elog)));
      for (const std::string mapping : {"top2", "last1", "by-pid"}) {
        const model::Mapping f = mapping == "by-pid" ? by_pid() : model::mapping_by_name(mapping);
        const std::array<const model::Mapping*, 1> mappings{&f};
        const auto opened = corpus::open_corpus(with_elog(traces), *pool, policy, mappings);
        EXPECT_EQ(opened.warnings, ingested.warnings());
        const auto imported = corpus::open_corpus(imported_inputs, *pool, policy, mappings);
        // Every source is a container: the trace files' own, then c.elog.
        ASSERT_EQ(opened.sources.size(), 2u);
        for (const pipeline::CaseSource* source : opened.sources) {
          EXPECT_NE(dynamic_cast<const elog::ContainerCases*>(source), nullptr);
        }
        for (const auto& text : queries) {
          const auto q = model::Query::parse(text);
          const auto opts = corpus::query_report_options(q, f);
          const auto staged = testing::staged_report_data(q.apply(whole), f, opts);
          const std::string staged_html = render(staged, f, opts);
          const auto view = corpus::select(opened, q);
          const auto imported_view = corpus::select(imported, q);
          for (const pipeline::CaseSource* source : view.sources) {
            EXPECT_NE(dynamic_cast<const elog::ContainerCases::Selected*>(source), nullptr);
          }
          for (ThreadPool* fold_pool : {static_cast<ThreadPool*>(nullptr), pool}) {
            const std::string what = mapping + " [" + text + "] workers " +
                                     std::to_string(pool->size()) + (fold_pool ? "" : " inline") +
                                     (keep_going ? " keep_going" : "");
            const auto folded = report::report_data(view.sources, f, opts, fold_pool);
            expect_same_report_data(folded, staged, what);
            EXPECT_EQ(render(folded, f, opts), staged_html) << what;
            EXPECT_EQ(render(report::report_data(imported_view.sources, f, opts, fold_pool), f,
                             opts),
                      staged_html)
                << what;
          }
        }
      }
    }
  }
}

// ---- fold_cases error paths ------------------------------------------

using testing::ThrowingSink;

/// 32 one-event cases c0..c31 — on a 4-worker pool, 16 chunks of two.
model::EventLog numbered_log() {
  model::EventLog log;
  for (std::uint64_t i = 0; i < 32; ++i) {
    log.add_case(testing::make_case("c" + std::to_string(i), i,
                                    {testing::ev("read", "/p/f", static_cast<Micros>(i), 3, 64)}));
  }
  return log;
}

TEST(FoldCases, LowerChunkErrorWinsAndNothingMerges) {
  const model::EventLog log = numbered_log();
  const pipeline::CaseSpan cases(log.cases());
  const std::array<const pipeline::CaseSource*, 1> sources{&cases};
  const auto f = model::mapping_by_name("call");
  ThreadPool pool(4);
  for (int round = 0; round < 10; ++round) {
    // c5 is in chunk 2, c27 in chunk 13: c5's error must win every round.
    ThrowingSink sink({"c27", "c5"});
    pipeline::DfgSink graph(f);
    const std::array<pipeline::CaseSink*, 2> sinks{&graph, &sink};
    try {
      pipeline::fold_cases(sources, sinks, &pool);
      FAIL() << "expected the poisoned fold to throw, round " << round;
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("poisoned on c5"), std::string::npos)
          << "round " << round << ": " << e.what();
    }
    EXPECT_EQ(sink.merges(), 0) << round;
    EXPECT_TRUE(graph.graph().empty()) << round;
  }
  // The pool survives the failed folds and is still usable.
  EXPECT_EQ(pool.submit([] { return 42; }).get(), 42);
  // ...and so is the inline path: one chunk, the same error, no merge.
  ThrowingSink sink({"c27", "c5"});
  const std::array<pipeline::CaseSink*, 1> sinks{&sink};
  EXPECT_THROW(pipeline::fold_cases(sources, sinks, nullptr), std::runtime_error);
  EXPECT_EQ(sink.merges(), 0);
}

TEST(FoldCases, ArmedSinkFoldFaultIsATypedErrorAndMergesNothing) {
  const model::EventLog log = numbered_log();
  const pipeline::CaseSpan span(log.cases());
  const std::array<const pipeline::CaseSource*, 1> sources{&span};
  const auto f = model::mapping_by_name("top2");
  ThreadPool pool(4);
  for (ThreadPool* p : {static_cast<ThreadPool*>(nullptr), &pool}) {
    pipeline::DfgSink graph(f);
    pipeline::CaseStatsSink cases;
    const std::array<pipeline::CaseSink*, 2> sinks{&graph, &cases};
    {
      const fault::ScopedFault armed("sink.fold", fault::Spec{});
      EXPECT_THROW(pipeline::fold_cases(sources, sinks, p), fault::FaultInjected);
    }
    EXPECT_TRUE(graph.graph().empty());
    EXPECT_TRUE(cases.summaries().empty());
    // Disarmed, the same sinks fold the whole log.
    pipeline::fold_cases(sources, sinks, p);
    EXPECT_EQ(graph.graph(), dfg::build_serial(log, f));
    EXPECT_EQ(cases.summaries(), model::summarize_cases(log));
  }
}

}  // namespace
}  // namespace st
