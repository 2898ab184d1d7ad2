// Acceptance tests for the CaseSink substrate (pipeline/sink.hpp):
//   - every sink's output is byte-identical to its staged counterpart
//     at 1, 2 and 4 workers, computed from testing::staged_log (the
//     sequential per-file read + convert): the DFG (build_serial),
//     case summaries (summarize_cases) and the variant multiset
//     (ActivityLog::build().variants()) — all produced by ONE
//     streamed pass,
//   - a sink whose fold throws mid-stream follows the
//     lowest-input-index-wins error contract — against other sink
//     failures AND against strict-mode parse errors — never merges a
//     partial into any sink, never leaks a queued continuation
//     (ASan-verified, extending the PR 4 pool-destruction regressions),
//     and leaves the pool usable.
#include "pipeline/sink.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "dfg/builder.hpp"
#include "model/activity_log.hpp"
#include "model/case_stats.hpp"
#include "parallel/thread_pool.hpp"
#include "support/errors.hpp"
#include "testing_corpus.hpp"

namespace st {
namespace {

using testing::expect_same_log;
using testing::make_clean_trace;

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

/// Throws while folding the case whose cid matches; counts merges so
/// tests can assert that failing runs never merge anything.
class ThrowingSink final : public pipeline::CaseSink {
 public:
  explicit ThrowingSink(std::string poison_cid) : poison_cid_(std::move(poison_cid)) {}

  std::unique_ptr<pipeline::SinkPartial> make_partial() const override {
    return std::make_unique<pipeline::SinkPartial>();
  }

  void fold(pipeline::SinkPartial&, const pipeline::CaseContext& ctx) const override {
    if (ctx.c.id().cid == poison_cid_) {
      throw std::runtime_error("sink poisoned on " + poison_cid_);
    }
  }

  void merge(std::unique_ptr<pipeline::SinkPartial>) override { ++merges_; }

  [[nodiscard]] int merges() const { return merges_; }

 private:
  std::string poison_cid_;
  int merges_ = 0;
};

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
    ThrowingSink early("b");
    ThrowingSink late("d");
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
  }
  // The pool survives the failed runs and is still usable.
  EXPECT_EQ(pool.submit([] { return 42; }).get(), 42);
}

TEST_F(PipelineSinks, SinkErrorCompetesWithParseErrorByInputIndex) {
  std::vector<std::string> paths;
  paths.push_back(write_file("a_nodeA_1.st", make_clean_trace(400, 40)));
  paths.push_back(write_file("bad_nodeA_2.st", "8  10:00:00.000000 garbage line\n"));
  paths.push_back(write_file("c_nodeA_3.st", make_clean_trace(300, 50)));

  ThreadPool pool(4);
  pipeline::StreamOptions opts;
  opts.strict = true;
  opts.min_chunk_bytes = 256;
  for (int round = 0; round < 10; ++round) {
    {
      // Sink poisoned on index 0, parse error at index 1: sink wins.
      ThrowingSink sink("a");
      try {
        (void)pipeline::run(paths, pool, {&sink}, opts);
        FAIL() << "expected an error, round " << round;
      } catch (const std::runtime_error& e) {
        // A ParseError here would mean the later parse error outranked
        // the earlier sink error — its message would not match.
        EXPECT_NE(std::string(e.what()).find("poisoned on a"), std::string::npos)
            << "round " << round << ": " << e.what();
      }
    }
    {
      // Sink poisoned on index 2, parse error at index 1: parse wins.
      ThrowingSink sink("c");
      EXPECT_THROW((void)pipeline::run(paths, pool, {&sink}, opts), ParseError)
          << "round " << round;
    }
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
    ThrowingSink sink("b");
    pipeline::DfgSink graph_sink(f);
    EXPECT_THROW((void)pipeline::run(paths, pool, {&graph_sink, &sink}, opts),
                 std::runtime_error)
        << round;
  }  // ~ThreadPool right after the throw, every round
}

}  // namespace
}  // namespace st
