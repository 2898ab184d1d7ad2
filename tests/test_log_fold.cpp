// The log-side report fold: report::report_data folds the report's
// sinks over an EventLog's cases through pipeline::fold_cases, and
// must reproduce the staged oracle (testing::staged_report_data, one
// serial pass per section):
//   - field by field — graph, activity statistics with bit-exact
//     doubles, edge statistics, case summaries, counts and timeline —
//     and in the rendered bytes, with no pool and on 1, 2 and 4
//     workers, over the ls traces, the noisy multi-host corpus of
//     testing_corpus.hpp, a 37-case synthetic log (no chunking divides
//     it evenly), an empty log and a log whose cases map no events,
//     under every mapping of testing::mappings_under_test (the seven
//     registry names, a filtered one, one naming events like the DFG's
//     markers and one that maps nothing), with and without a timeline;
//   - fold_cases' error contract: a sink throwing in two chunks
//     surfaces the lower chunk's error every time, no sink sees a
//     merge and the pool stays usable; an armed sink.fold fault is a
//     typed IoError that leaves every sink empty.
#include <gtest/gtest.h>

#include <array>
#include <memory>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <tuple>
#include <vector>

#include "../bench/testdata.hpp"
#include "dfg/coloring.hpp"
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

using Param = std::tuple<Source, std::string, bool>;  // source, mapping, timeline

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
  const auto& [source, mapping, with_timeline] = GetParam();
  const model::EventLog log = log_of(source);
  model::Mapping f = testing::mapping_under_test(mapping);
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
  for (ThreadPool* pool : {static_cast<ThreadPool*>(nullptr), &pool1, &pool2, &pool4}) {
    const std::string what = "workers " + std::to_string(pool ? pool->size() : 0);
    const auto folded = report::report_data(log, f, opts, pool);
    expect_same_report_data(folded, staged, what);
    EXPECT_EQ(render(folded, f, opts), staged_html) << what;
  }
}

INSTANTIATE_TEST_SUITE_P(
    SourcesMappingsTimelines, LogFold,
    ::testing::Combine(::testing::Values(Source::kLs, Source::kNoisyCorpus, Source::kSynthetic,
                                         Source::kEmpty, Source::kUnmapped),
                       ::testing::ValuesIn(testing::mappings_under_test()), ::testing::Bool()),
    [](const ::testing::TestParamInfo<Param>& info) {
      return source_name(std::get<0>(info.param)) + "_" + std::get<1>(info.param) +
             (std::get<2>(info.param) ? "_timeline" : "");
    });

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
  const auto f = model::mapping_by_name("call");
  ThreadPool pool(4);
  for (int round = 0; round < 10; ++round) {
    // c5 is in chunk 2, c27 in chunk 13: c5's error must win every round.
    ThrowingSink sink({"c27", "c5"});
    pipeline::DfgSink graph(f);
    const std::array<pipeline::CaseSink*, 2> sinks{&graph, &sink};
    try {
      pipeline::fold_cases(log.cases(), sinks, &pool);
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
  EXPECT_THROW(pipeline::fold_cases(log.cases(), sinks, nullptr), std::runtime_error);
  EXPECT_EQ(sink.merges(), 0);
}

TEST(FoldCases, ArmedSinkFoldFaultIsATypedErrorAndMergesNothing) {
  const model::EventLog log = numbered_log();
  const auto f = model::mapping_by_name("top2");
  ThreadPool pool(4);
  for (ThreadPool* p : {static_cast<ThreadPool*>(nullptr), &pool}) {
    pipeline::DfgSink graph(f);
    pipeline::CaseStatsSink cases;
    const std::array<pipeline::CaseSink*, 2> sinks{&graph, &cases};
    {
      const fault::ScopedFault armed("sink.fold", fault::Spec{});
      EXPECT_THROW(pipeline::fold_cases(log.cases(), sinks, p), fault::FaultInjected);
    }
    EXPECT_TRUE(graph.graph().empty());
    EXPECT_TRUE(cases.summaries().empty());
    // Disarmed, the same sinks fold the whole log.
    pipeline::fold_cases(log.cases(), sinks, p);
    EXPECT_EQ(graph.graph(), dfg::build_serial(log, f));
    EXPECT_EQ(cases.summaries(), model::summarize_cases(log));
  }
}

}  // namespace
}  // namespace st
