// ISSUE 7 acceptance for pipeline::run_sharded: the sharded analytics
// — and the rendered report, byte for byte — are identical to the
// in-process streamed run at ANY shard count (1, 2, 3, 5, and more
// shards than files), doubles compared bit-exactly. The subprocess
// path (elog_tool fold-shard via posix_spawn) is exercised when
// ST_ELOG_TOOL points at the built binary (ctest sets it); without it
// those tests skip.
#include "pipeline/shard.hpp"

#include <gtest/gtest.h>
#include <sys/wait.h>

#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include "dfg/stats.hpp"
#include "parallel/thread_pool.hpp"
#include "pipeline/sink.hpp"
#include "report/report.hpp"
#include "support/errors.hpp"
#include "testing_corpus.hpp"

namespace st {
namespace {

using testing::expect_same_io_stats;

class Shard : public testing::CorpusTest {
 protected:
  Shard() : CorpusTest("st_shard") {}

  static pipeline::ShardOptions base_options(std::size_t shards) {
    pipeline::ShardOptions opts;
    opts.shards = shards;
    opts.mapping = "top2";
    opts.worker_threads = 2;
    return opts;
  }
};

TEST_F(Shard, AnyShardCountIsBitIdenticalToTheStreamedRun) {
  const auto paths = make_corpus();
  const auto f = model::mapping_by_name("top2");

  // In-process reference: one streamed pass, all sinks.
  ThreadPool pool(3);
  report::ReportOptions report_opts;
  const auto reference = report::streaming_report(paths, f, pool, report_opts);
  const model::EventLog log = pipeline::run(paths, pool, {});
  const auto ref_io = dfg::IoStatistics::compute(log, f);
  const auto ref_edges = dfg::EdgeStatistics::compute(log, f);
  ASSERT_FALSE(log.warnings().empty());  // the corpus has noise
  // The report's pass counts and warns like the log's.
  EXPECT_EQ(reference.summary.case_count, log.case_count());
  EXPECT_EQ(reference.summary.total_events, log.total_events());
  EXPECT_EQ(reference.summary.warnings, log.warnings());

  // More shards than files (64) degenerates to one file per shard.
  for (const std::size_t shards : {1u, 2u, 3u, 5u, 64u}) {
    const auto analytics = pipeline::run_sharded(paths, base_options(shards));
    EXPECT_EQ(analytics.case_count, log.case_count()) << shards;
    EXPECT_EQ(analytics.total_events, log.total_events()) << shards;
    EXPECT_EQ(analytics.warnings, log.warnings()) << shards;
    expect_same_io_stats(analytics.io_stats, ref_io);
    EXPECT_EQ(analytics.edge_stats.per_edge(), ref_edges.per_edge()) << shards;
    // The rendered report: BYTE-identical to the streamed one.
    EXPECT_EQ(report::render_sharded_report(analytics, f, report_opts), reference.html)
        << shards;
  }
}

TEST_F(Shard, TimelineSectionSurvivesTheShardBoundary) {
  const auto paths = make_corpus();
  const auto f = model::mapping_by_name("top2");

  ThreadPool pool(3);
  report::ReportOptions report_opts;
  {
    // Pick a real activity to embed as the timeline section.
    const auto stats = dfg::IoStatistics::compute(pipeline::run(paths, pool, {}), f);
    ASSERT_FALSE(stats.per_activity().empty());
    report_opts.timeline_activity = stats.per_activity().begin()->first;
  }
  const auto reference = report::streaming_report(paths, f, pool, report_opts);
  const auto analytics = pipeline::run_sharded(paths, base_options(3));
  EXPECT_EQ(report::render_sharded_report(analytics, f, report_opts), reference.html);
}

TEST_F(Shard, BlobCarriesOnlyReportSections) {
  // The blob holds exactly what the report renders: meta, DFG, case
  // table, variants, activity and edge statistics — no activity-log (5)
  // or query-log (7) section.
  const std::string blob = pipeline::fold_shard(make_corpus(), base_options(1));
  const pipeline::PartialReader r(blob);
  using K = pipeline::PartialSection;
  for (const K kind : {K::kMeta, K::kDfg, K::kCaseStats, K::kVariants, K::kIoStats,
                       K::kEdgeStats}) {
    EXPECT_TRUE(r.has_section(kind)) << static_cast<int>(kind);
  }
  for (const int retired : {5, 7}) {
    EXPECT_FALSE(r.has_section(static_cast<K>(retired))) << retired;
  }
}

TEST_F(Shard, RepeatedCaseIdAcrossShardsIsRefusedBeforeAnyFold) {
  // Each shard would see one copy only: the coordinator's check is the
  // one that can refuse it, before any shard runs.
  auto paths = make_corpus();
  std::filesystem::create_directories(dir_ / "again");
  paths.push_back(write_file("again/big_nodeA_9001.st", "garbage\n"));
  for (const std::size_t workers : {1u, 4u}) {
    for (const bool keep_going : {false, true}) {
      auto opts = base_options(3);
      opts.worker_threads = workers;
      opts.stream.keep_going = keep_going;
      try {
        (void)pipeline::run_sharded(paths, opts);
        ADD_FAILURE() << "a repeated case id was folded";
      } catch (const LogicError& e) {
        EXPECT_STREQ(e.what(), "logic error: EventLog::merge: duplicate case big_nodeA_9001")
            << workers << " " << keep_going;
      }
    }
  }
}

TEST_F(Shard, EmptyInputProducesEmptyAnalytics) {
  const auto analytics = pipeline::run_sharded({}, base_options(4));
  EXPECT_EQ(analytics.case_count, 0u);
  EXPECT_EQ(analytics.total_events, 0u);
  EXPECT_TRUE(analytics.warnings.empty());
  EXPECT_TRUE(analytics.graph.empty());
  EXPECT_TRUE(analytics.io_partial.empty());
}

// ---- the subprocess path (gated on the built elog_tool) ----------------

TEST_F(Shard, SpawnedFoldShardMatchesInProcessByteForByte) {
  const char* exe = std::getenv("ST_ELOG_TOOL");
  if (exe == nullptr || *exe == '\0' || !std::filesystem::exists(exe)) {
    GTEST_SKIP() << "ST_ELOG_TOOL unset or not built (ctest exports the path)";
  }
  const auto paths = make_corpus();
  const auto f = model::mapping_by_name("top2");

  ThreadPool pool(3);
  report::ReportOptions report_opts;
  const auto reference = report::streaming_report(paths, f, pool, report_opts);

  for (const std::size_t shards : {2u, 3u}) {
    auto opts = base_options(shards);
    opts.fold_shard_exe = exe;
    const auto analytics = pipeline::run_sharded(paths, opts);
    EXPECT_EQ(analytics.warnings, reference.summary.warnings) << shards;
    EXPECT_EQ(report::render_sharded_report(analytics, f, report_opts), reference.html)
        << shards;
  }
}

TEST_F(Shard, ReportShardedRejectsQueryFlags) {
  // Only `elog_tool filter` applies --fp/--calls; the sharded report
  // must refuse them (exit 1) rather than write an unfiltered report.
  const char* exe = std::getenv("ST_ELOG_TOOL");
  if (exe == nullptr || *exe == '\0' || !std::filesystem::exists(exe)) {
    GTEST_SKIP() << "ST_ELOG_TOOL unset or not built (ctest exports the path)";
  }
  const auto paths = make_corpus();
  const std::string out = (dir_ / "report.html").string();
  const auto report_sharded = [&](const std::string& flags) {
    std::string cmd = std::string("'") + exe + "' report-sharded '" + out + "' --map top2" + flags;
    for (const auto& p : paths) cmd += " '" + p + "'";
    cmd += " >/dev/null 2>&1";
    const int status = std::system(cmd.c_str());
    return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  };
  for (const char* flags : {" --fp /p/", " --calls read"}) {
    EXPECT_EQ(report_sharded(flags), 1) << flags;
    EXPECT_FALSE(std::filesystem::exists(out)) << flags;
  }
  // Control: the same invocation without the query flags succeeds.
  EXPECT_EQ(report_sharded(""), 0);
  EXPECT_TRUE(std::filesystem::exists(out));
}

// ---- error paths -------------------------------------------------------

TEST_F(Shard, ZeroShardsIsLogicError) {
  const auto paths = make_corpus();
  EXPECT_THROW((void)pipeline::run_sharded(paths, base_options(0)), LogicError);
}

TEST_F(Shard, BadTraceFilenameIsParseErrorBeforeAnyWork) {
  auto paths = make_corpus();
  paths.push_back(write_file("not-a-trace.txt", "x\n"));
  EXPECT_THROW((void)pipeline::run_sharded(paths, base_options(2)), ParseError);
}

TEST_F(Shard, MissingFoldShardExecutableRecoversViaInProcessFallback) {
  // The supervisor retries the spawn, exhausts max_attempts and folds
  // the shards in-process — same bytes as the clean run, with the whole
  // story in the shard report instead of the analytics.
  const auto paths = make_corpus();
  const auto f = model::mapping_by_name("top2");
  const auto reference = pipeline::run_sharded(paths, base_options(2));

  auto opts = base_options(2);
  opts.fold_shard_exe = "/nonexistent/st_fold_shard_binary";
  opts.max_attempts = 2;
  opts.retry_backoff_ms = 0;
  const auto analytics = pipeline::run_sharded(paths, opts);
  EXPECT_EQ(report::render_sharded_report(analytics, f),
            report::render_sharded_report(reference, f));
  ASSERT_EQ(analytics.shard_report.shards.size(), 2u);
  EXPECT_EQ(analytics.shard_report.total_fallbacks(), 2u);
  for (const auto& s : analytics.shard_report.shards) {
    EXPECT_EQ(s.attempts, 2u);
    EXPECT_TRUE(s.fell_back);
    ASSERT_EQ(s.failures.size(), 2u);
    EXPECT_NE(s.failures[0].find("cannot spawn"), std::string::npos);
  }
  EXPECT_FALSE(analytics.shard_report.to_lines().empty());
}

}  // namespace
}  // namespace st
