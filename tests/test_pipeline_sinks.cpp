// Acceptance tests for the CaseSink substrate (pipeline/sink.hpp):
//   - every sink's output is byte-identical to its staged counterpart
//     at 1, 2 and 4 workers, computed from testing::staged_log (the
//     sequential per-file read + convert): the DFG (build_serial),
//     case summaries (summarize_cases) and the variant multiset
//     (ActivityLog::build().variants()) — all produced by ONE
//     streamed pass,
//   - map once: the DFG, variants, I/O statistics (partial and
//     finalized, doubles bit for bit) and edge statistics folded over
//     activity ids equal their string-keyed oracles under every mapping
//     of testing::mappings_under_test at 1 and 4 workers, and sinks
//     holding two different mappings in one run (or fold_cases) each
//     match their own oracle,
//   - a sink whose fold throws mid-stream follows the
//     lowest-input-index-wins error contract — against other sink
//     failures AND against failed parses — never merges a
//     partial into any sink, never leaks a queued continuation
//     (ASan-verified, extending the PR 4 pool-destruction regressions),
//     and leaves the pool usable.
#include "pipeline/sink.hpp"

#include <gtest/gtest.h>

#include <array>

#include <filesystem>
#include <memory>
#include <sstream>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "dfg/builder.hpp"
#include "dfg/edge_stats.hpp"
#include "dfg/stats.hpp"
#include "elog/v2_store.hpp"
#include "model/activity_log.hpp"
#include "model/case_stats.hpp"
#include "parallel/thread_pool.hpp"
#include "strace/filename.hpp"
#include "support/errors.hpp"
#include "support/faultpoint.hpp"
#include "testing_corpus.hpp"
#include "testing_util.hpp"

namespace st {
namespace {

using testing::expect_same_log;
using testing::make_clean_trace;
using testing::ThrowingSink;

class PipelineSinks : public testing::CorpusTest {
 protected:
  PipelineSinks() : CorpusTest("st_sinks") {}
};

// ---- byte-identity with the staged counterparts ------------------------

TEST_F(PipelineSinks, EverySinkMatchesItsStagedCounterpartAt124Workers) {
  const auto paths = make_corpus();
  const auto f = model::Mapping::call_top_dirs(2);

  // Staged references, all computed from the sequential oracle.
  const auto reference = testing::staged_log(paths);
  const auto ref_graph = dfg::build_serial(reference, f);
  const auto ref_summaries = model::summarize_cases(reference);
  const auto ref_variants = model::ActivityLog::build(reference, f).variants();

  for (const std::size_t workers : {1u, 2u, 4u}) {
    ThreadPool pool(workers);
    pipeline::StreamOptions opts;
    opts.min_chunk_bytes = 256;  // force many chunks per file

    pipeline::DfgSink graph_sink(f);
    pipeline::CaseStatsSink stats_sink;
    pipeline::VariantsSink variants_sink(f);
    const auto log = pipeline::run(paths, pool, {&graph_sink, &stats_sink, &variants_sink}, opts);

    expect_same_log(reference, log);
    EXPECT_EQ(graph_sink.graph(), ref_graph) << workers;
    EXPECT_EQ(stats_sink.summaries(), ref_summaries) << workers;
    EXPECT_EQ(variants_sink.variants(), ref_variants) << workers;
  }
}

// ---- map once: the id folds vs the string oracles -----------------------

/// The string-keyed reference for IoStatsSink's partial: one add_case
/// per case, in log order.
dfg::IoStatistics::Partial io_partial_oracle(const model::EventLog& log, const model::Mapping& f) {
  dfg::IoStatistics::Partial p;
  for (const model::Case& c : log.cases()) p.add_case(c, f);
  return p;
}

TEST_F(PipelineSinks, MapOnceMatchesTheStringOraclesUnderEveryMappingAt14Workers) {
  const auto paths = make_corpus();
  const auto reference = testing::staged_log(paths);
  for (const std::string& name : testing::mappings_under_test()) {
    const model::Mapping f = testing::mapping_under_test(name);
    const auto ref_graph = dfg::build_serial(reference, f);
    const auto ref_variants = model::ActivityLog::build(reference, f).variants();
    const auto ref_io = io_partial_oracle(reference, f);
    const auto ref_edges = dfg::EdgeStatistics::compute(reference, f);
    for (const std::size_t workers : {1u, 4u}) {
      SCOPED_TRACE(name + " at " + std::to_string(workers) + " workers");
      ThreadPool pool(workers);
      pipeline::StreamOptions opts;
      opts.min_chunk_bytes = 256;
      pipeline::DfgSink graph(f);
      pipeline::VariantsSink variants(f);
      pipeline::IoStatsSink io(f);
      pipeline::EdgeStatsSink edges(f);
      (void)pipeline::run(paths, pool, {&graph, &variants, &io, &edges}, opts);
      EXPECT_EQ(graph.graph(), ref_graph);
      EXPECT_EQ(variants.variants(), ref_variants);
      EXPECT_EQ(io.partial(), ref_io);
      testing::expect_same_io_stats(io.finalize(), ref_io.finalize());
      EXPECT_EQ(edges.finalize().per_edge(), ref_edges.per_edge());
    }
  }
}

TEST_F(PipelineSinks, SinksUnderTwoMappingsEachMatchTheirOracle) {
  // Two Mapping objects among one run's sinks: each case is mapped once
  // per mapping, into that mapping's dictionary, and every sink reads
  // its own mapping's ids — through run() and through fold_cases.
  const auto paths = make_corpus();
  const auto reference = testing::staged_log(paths);
  const model::Mapping f = model::mapping_by_name("top2");
  const model::Mapping g = model::mapping_by_name("last1");
  ThreadPool pool(4);
  for (const bool streamed : {true, false}) {
    SCOPED_TRACE(streamed ? "run" : "fold_cases");
    pipeline::DfgSink graph_f(f);
    pipeline::DfgSink graph_g(g);
    pipeline::CaseStatsSink cases;
    pipeline::IoStatsSink io_f(f);
    pipeline::VariantsSink variants_g(g);
    pipeline::EdgeStatsSink edges_g(g);
    const std::vector<pipeline::CaseSink*> sinks = {&graph_f, &graph_g, &cases,
                                                    &io_f,    &variants_g, &edges_g};
    if (streamed) {
      (void)pipeline::run(paths, pool, std::span<pipeline::CaseSink* const>(sinks));
    } else {
      const pipeline::CaseSpan cases_of(reference.cases());
      const std::array<const pipeline::CaseSource*, 1> sources{&cases_of};
      pipeline::fold_cases(sources, sinks, &pool);
    }
    EXPECT_EQ(graph_f.graph(), dfg::build_serial(reference, f));
    EXPECT_EQ(graph_g.graph(), dfg::build_serial(reference, g));
    EXPECT_NE(graph_f.graph(), graph_g.graph());
    EXPECT_EQ(cases.summaries(), model::summarize_cases(reference));
    EXPECT_EQ(io_f.partial(), io_partial_oracle(reference, f));
    EXPECT_EQ(variants_g.variants(), model::ActivityLog::build(reference, g).variants());
    EXPECT_EQ(edges_g.finalize().per_edge(), dfg::EdgeStatistics::compute(reference, g).per_edge());
  }
}

TEST_F(PipelineSinks, EmptyInputs) {
  ThreadPool pool(2);
  const auto f = model::Mapping::call_only();
  pipeline::DfgSink graph_sink(f);
  pipeline::CaseStatsSink stats_sink;
  pipeline::VariantsSink variants_sink(f);
  const auto log =
      pipeline::run({}, pool, {&graph_sink, &stats_sink, &variants_sink});
  EXPECT_EQ(log.case_count(), 0u);
  EXPECT_TRUE(graph_sink.graph().empty());
  EXPECT_TRUE(stats_sink.summaries().empty());
  EXPECT_TRUE(variants_sink.variants().empty());
}

// ---- error paths -------------------------------------------------------

TEST_F(PipelineSinks, ThrowingFoldIsDeterministicAndMergesNothing) {
  std::vector<std::string> paths;
  paths.push_back(write_file("a_nodeA_1.st", make_clean_trace(500, 40)));
  paths.push_back(write_file("b_nodeA_2.st", make_clean_trace(300, 50)));
  paths.push_back(write_file("c_nodeA_3.st", make_clean_trace(400, 60)));
  paths.push_back(write_file("d_nodeA_4.st", make_clean_trace(200, 70)));

  const auto f = model::Mapping::call_only();
  ThreadPool pool(4);
  pipeline::StreamOptions opts;
  opts.min_chunk_bytes = 256;
  for (int round = 0; round < 10; ++round) {
    // Two sinks poisoned on different files: the error of the LOWER
    // input index ("b", index 1) must win every round, regardless of
    // scheduling — same contract as competing parse errors.
    ThrowingSink early({"b"});
    ThrowingSink late({"d"});
    pipeline::DfgSink graph_sink(f);
    try {
      (void)pipeline::run(paths, pool, {&graph_sink, &late, &early}, opts);
      FAIL() << "expected the poisoned fold to throw, round " << round;
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("poisoned on b"), std::string::npos)
          << "round " << round << ": " << e.what();
    }
    // No sink saw a merge — a failing run leaves every sink empty,
    // never half-merged.
    EXPECT_EQ(early.merges(), 0) << round;
    EXPECT_EQ(late.merges(), 0) << round;
    EXPECT_TRUE(graph_sink.graph().empty()) << round;

    // Only the LAST input poisoned: the merge cursor has absorbed every
    // file before it when it reaches the failure, and still no sink
    // sees a merge.
    ThrowingSink last({"d"});
    pipeline::DfgSink last_graph(f);
    pipeline::IoStatsSink last_io(f);
    try {
      (void)pipeline::run(paths, pool, {&last_graph, &last_io, &last}, opts);
      FAIL() << "expected the poisoned fold to throw, round " << round;
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("poisoned on d"), std::string::npos)
          << "round " << round << ": " << e.what();
    }
    EXPECT_EQ(last.merges(), 0) << round;
    EXPECT_TRUE(last_graph.graph().empty()) << round;
    EXPECT_TRUE(last_io.partial().empty()) << round;
  }
  // The pool survives the failed runs and is still usable.
  EXPECT_EQ(pool.submit([] { return 42; }).get(), 42);
}

TEST_F(PipelineSinks, SinkErrorCompetesWithParseErrorByInputIndex) {
  // The parse that fails is file 1's: one worker parses each file as
  // one chunk in input order, so the second reader.chunk hit is it.
  std::vector<std::string> paths;
  paths.push_back(write_file("a_nodeA_1.st", make_clean_trace(400, 40)));
  paths.push_back(write_file("bad_nodeA_2.st", make_clean_trace(100, 45)));
  paths.push_back(write_file("c_nodeA_3.st", make_clean_trace(300, 50)));
  fault::Spec second;
  second.nth = 2;

  ThreadPool pool(1);
  {
    // Sink poisoned on index 0, parse error at index 1: sink wins.
    ThrowingSink sink({"a"});
    const fault::ScopedFault parse_fails("reader.chunk", second);
    try {
      (void)pipeline::run(paths, pool, {&sink});
      FAIL() << "expected an error";
    } catch (const std::runtime_error& e) {
      // An IoError here would mean the later parse error outranked the
      // earlier sink error — its message would not match.
      EXPECT_NE(std::string(e.what()).find("poisoned on a"), std::string::npos) << e.what();
    }
    // One hit per file, so the second — file 1's — did fire.
    EXPECT_EQ(fault::hits("reader.chunk"), paths.size());
  }
  {
    // Sink poisoned on index 2, parse error at index 1: parse wins.
    ThrowingSink sink({"c"});
    const fault::ScopedFault parse_fails("reader.chunk", second);
    EXPECT_THROW((void)pipeline::run(paths, pool, {&sink}), fault::FaultInjected);
    EXPECT_EQ(sink.merges(), 0);
  }
}

TEST_F(PipelineSinks, UnopenableFileOutranksAnEarlierParseErrorWhenFailingFast) {
  // Files open on the calling thread while earlier files parse; an
  // open error still fails the run whatever failed before it — here
  // the first chunk parse of the run, in one of the files before it.
  std::vector<std::string> paths;
  paths.push_back(write_file("a_nodeA_1.st", make_clean_trace(300, 40)));
  paths.push_back(write_file("bad_nodeA_2.st", make_clean_trace(100, 45)));
  paths.push_back(write_file("c_nodeA_3.st", make_clean_trace(300, 50)));
  paths.push_back((dir_ / "ghost_nodeA_4.st").string());
  paths.push_back(write_file("e_nodeA_5.st", make_clean_trace(300, 60)));

  const auto f = model::Mapping::call_only();
  ThreadPool pool(4);
  pipeline::StreamOptions opts;
  opts.min_chunk_bytes = 256;
  for (int round = 0; round < 10; ++round) {
    ThrowingSink sink({"zzz"});
    pipeline::DfgSink graph_sink(f);
    const fault::ScopedFault parse_fails("reader.chunk", fault::Spec{});
    try {
      (void)pipeline::run(paths, pool, {&graph_sink, &sink}, opts);
      FAIL() << "expected an error, round " << round;
    } catch (const fault::FaultInjected& e) {
      FAIL() << "the earlier parse error won, round " << round << ": " << e.what();
    } catch (const IoError& e) {
      EXPECT_NE(std::string(e.what()).find("ghost_nodeA_4.st"), std::string::npos)
          << "round " << round << ": " << e.what();
    }
    EXPECT_GE(fault::hits("reader.chunk"), 1u) << round;  // a parse failed
    EXPECT_EQ(sink.merges(), 0) << round;
    EXPECT_TRUE(graph_sink.graph().empty()) << round;
  }
}

TEST_F(PipelineSinks, KeepGoingCursorMatchesTheStagedOracleAt124Workers) {
  // A skipped file (missing), an unparseable-as-a-file entry (a
  // directory named like a trace) and a quarantined case, all mid-input,
  // with chunks far smaller than the files: the cursor must still
  // assemble the log, the health counters and every sink exactly as the
  // staged per-file path does.
  auto paths = make_corpus();
  const std::string missing = (dir_ / "ghost_nodeB_77.st").string();
  const std::string directory = (dir_ / "dir_nodeB_78.st").string();
  std::filesystem::create_directories(directory);
  paths.insert(paths.begin() + 1, missing);
  paths.insert(paths.begin() + 3, directory);
  paths.push_back(write_file("tail_nodeC_79.st", make_clean_trace(200, 90)));
  const std::string poisoned = "s2";  // s2_nodeC_9102.st, after both skips
  const auto f = model::mapping_by_name("top2");

  // The staged oracle: survivors read and converted one by one, the
  // structured warnings at their input-order slots.
  model::EventLog reference;
  std::vector<std::string> survivors;
  for (const std::string& p : paths) {
    if (p == missing) {
      reference.add_warning(p + ": skipped: io error: cannot open trace file: " + p);
    } else if (p == directory) {
      reference.add_warning(p + ": skipped: io error: trace file is a directory: " + p);
    } else if (strace::parse_trace_filename(p)->cid == poisoned) {
      reference.add_warning(p + ": case quarantined: io error: sink poisoned on " + poisoned);
    } else {
      const auto one = testing::staged_log({p});
      reference.add_case(model::Case(one.cases()[0].id(),
                                     std::vector<model::Event>(one.cases()[0].events().begin(),
                                                               one.cases()[0].events().end())));
      reference.adopt_owners_of(one);
      for (const auto& w : one.warnings()) reference.add_warning(w);
      survivors.push_back(p);
    }
  }
  std::ostringstream ref_elog;
  elog::write_event_log_v2(ref_elog, reference);

  for (const std::size_t workers : {1u, 2u, 4u}) {
    SCOPED_TRACE(std::to_string(workers) + " workers");
    ThreadPool pool(workers);
    pipeline::StreamOptions opts;
    opts.keep_going = true;
    opts.min_chunk_bytes = 64;
    ThrowingSink quarantine({poisoned}, /*data_error=*/true);
    pipeline::DfgSink graph(f);
    pipeline::CaseStatsSink cases;
    pipeline::VariantsSink variants(f);
    pipeline::IoStatsSink io(f);
    pipeline::EdgeStatsSink edges(f);
    std::ostringstream elog_bytes;
    {
      elog::ElogV2Writer writer(elog_bytes);
      elog::ElogV2WriterSink container(writer);
      pipeline::DataHealth health;
      const auto log = pipeline::run(
          paths, pool, {&graph, &cases, &quarantine, &variants, &io, &edges, &container}, opts,
          &health);
      writer.finalize();
      expect_same_log(reference, log);
      EXPECT_EQ(health.files_requested, paths.size());
      EXPECT_EQ(health.files_skipped, 2u);
      EXPECT_EQ(health.cases_quarantined, 1u);
      EXPECT_EQ(health.files_ingested, survivors.size());
    }
    EXPECT_EQ(quarantine.merges(), 1);
    EXPECT_EQ(graph.graph(), dfg::build_serial(reference, f));
    EXPECT_EQ(cases.summaries(), model::summarize_cases(reference));
    EXPECT_EQ(variants.variants(), model::ActivityLog::build(reference, f).variants());
    EXPECT_EQ(io.partial(), io_partial_oracle(reference, f));
    testing::expect_same_io_stats(io.finalize(&pool), dfg::IoStatistics::compute(reference, f));
    EXPECT_EQ(edges.finalize().per_edge(), dfg::EdgeStatistics::compute(reference, f).per_edge());
    EXPECT_EQ(elog_bytes.str(), ref_elog.str());
  }
}

TEST_F(PipelineSinks, PoolDestructionAfterThrowingRunLeaksNoContinuation) {
  // Extends the PR 4 pool-destruction regressions: the pool dies
  // IMMEDIATELY after a failing sink run. run() must have awaited every
  // task, so nothing may still reference the destroyed frame — under
  // ASan this test fails loudly if a queued continuation leaked.
  std::vector<std::string> paths;
  paths.push_back(write_file("a_nodeA_1.st", make_clean_trace(600, 40)));
  paths.push_back(write_file("b_nodeA_2.st", make_clean_trace(400, 50)));
  paths.push_back(write_file("c_nodeA_3.st", make_clean_trace(500, 60)));

  const auto f = model::Mapping::call_only();
  for (int round = 0; round < 10; ++round) {
    ThreadPool pool(4);
    pipeline::StreamOptions opts;
    opts.min_chunk_bytes = 256;
    ThrowingSink sink({"b"});
    pipeline::DfgSink graph_sink(f);
    EXPECT_THROW((void)pipeline::run(paths, pool, {&graph_sink, &sink}, opts),
                 std::runtime_error)
        << round;
  }  // ~ThreadPool right after the throw, every round
}

}  // namespace
}  // namespace st
