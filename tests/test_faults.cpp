// The site x kind fault matrix. Every injected fault must end in
// exactly one of
//   - byte-identical recovered output (supervision retried or fell
//     back, or a hang merely delayed the run),
//   - a typed IoError/ParseError (the documented fail-fast contract),
//   - a clean quarantine under keep_going (structured warning, the run
//     completes over the surviving inputs),
// and NEVER in a hang, a crash of the coordinating process, or a
// half-merged sink. The subprocess half of the matrix (shard.child
// sites, env-inherited injection, deadline kills) is gated on
// ST_ELOG_TOOL like test_shard's spawned cases; a child that fails on
// every attempt is /bin/false.
#include "support/faultpoint.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include "elog/store.hpp"
#include "elog/v2_select.hpp"
#include "elog/v2_store.hpp"
#include "model/mapping.hpp"
#include "model/query.hpp"
#include "parallel/thread_pool.hpp"
#include "pipeline/shard.hpp"
#include "pipeline/sink.hpp"
#include "report/report.hpp"
#include "strace/trace_buffer.hpp"
#include "support/errors.hpp"
#include "testing_corpus.hpp"

namespace st {
namespace {

using fault::Kind;
using fault::ScopedFault;
using fault::Spec;
using testing::expect_same_log;

Spec spec(Kind kind, std::uint64_t nth = 1, std::uint32_t hang_ms = 200) {
  Spec s;
  s.kind = kind;
  s.nth = nth;
  s.hang_ms = hang_ms;
  return s;
}

/// Arms ST_FAULTS for spawned children (the parent's registry loaded an
/// empty environment at startup and stays disarmed); scrubbed again on
/// scope exit so no later test inherits the injection.
struct EnvFault {
  explicit EnvFault(const char* config) { ::setenv("ST_FAULTS", config, 1); }
  EnvFault(const EnvFault&) = delete;
  EnvFault& operator=(const EnvFault&) = delete;
  ~EnvFault() { ::unsetenv("ST_FAULTS"); }
};

const char* elog_tool_exe() {
  const char* exe = std::getenv("ST_ELOG_TOOL");
  if (exe == nullptr || *exe == '\0' || !std::filesystem::exists(exe)) return nullptr;
  return exe;
}

// ---- registry grammar and semantics ------------------------------------

TEST(FaultSpec, GrammarParses) {
  EXPECT_EQ(fault::parse_spec("error").kind, Kind::kError);
  EXPECT_EQ(fault::parse_spec("error").nth, 1u);
  EXPECT_EQ(fault::parse_spec("exit").kind, Kind::kExit);
  EXPECT_EQ(fault::parse_spec("truncate").kind, Kind::kTruncate);
  EXPECT_EQ(fault::parse_spec("bitflip:0").kind, Kind::kBitflip);
  EXPECT_EQ(fault::parse_spec("bitflip:0").nth, 0u);
  EXPECT_EQ(fault::parse_spec("error:3").nth, 3u);
  EXPECT_EQ(fault::parse_spec("hang_ms250").kind, Kind::kHang);
  EXPECT_EQ(fault::parse_spec("hang_ms250").hang_ms, 250u);
  EXPECT_EQ(fault::parse_spec("hang_ms").hang_ms, 200u);  // default sleep
  EXPECT_THROW((void)fault::parse_spec(""), ParseError);
  EXPECT_THROW((void)fault::parse_spec("explode"), ParseError);
  EXPECT_THROW((void)fault::parse_spec("error:x"), ParseError);
  EXPECT_THROW((void)fault::parse_spec("hang_msX"), ParseError);
}

TEST(FaultSpec, EnvGrammarArmsAndDisarms) {
  ASSERT_FALSE(fault::armed());
  fault::load_env("reader.open=error:2,codec.decode=bitflip");
  EXPECT_TRUE(fault::armed());
  const auto sites = fault::armed_sites();
  EXPECT_EQ(sites.size(), 2u);
  EXPECT_THROW(fault::load_env("reader.open"), ParseError);  // no '='
  fault::disarm_all();
  EXPECT_FALSE(fault::armed());
}

TEST(FaultSpec, NthTargetsExactlyThatHit) {
  const ScopedFault f("t.nth", spec(Kind::kError, 2));
  EXPECT_NO_THROW(fault::point("t.nth"));                   // hit 1
  EXPECT_THROW(fault::point("t.nth"), fault::FaultInjected);  // hit 2 fires
  EXPECT_NO_THROW(fault::point("t.nth"));                   // one-shot: healed
  EXPECT_EQ(fault::hits("t.nth"), 3u);
  EXPECT_NO_THROW(fault::point("t.other"));  // unarmed site is free
}

TEST(FaultSpec, NthZeroIsPersistent) {
  const ScopedFault f("t.persistent", spec(Kind::kError, 0));
  EXPECT_THROW(fault::point("t.persistent"), fault::FaultInjected);
  EXPECT_THROW(fault::point("t.persistent"), fault::FaultInjected);
}

TEST(FaultSpec, DataKindsMutateBytesAndDegradeAtControlSites) {
  {
    const ScopedFault f("t.data", spec(Kind::kTruncate));
    std::string bytes = "0123456789";
    fault::point_data("t.data", bytes);
    EXPECT_EQ(bytes, "01234");  // second half dropped
  }
  {
    const ScopedFault f("t.data", spec(Kind::kBitflip));
    std::string bytes = "aaaa";
    fault::point_data("t.data", bytes);
    EXPECT_NE(bytes, "aaaa");
    EXPECT_EQ(bytes.size(), 4u);
  }
  {
    const ScopedFault f("t.data", spec(Kind::kBitflip));
    std::string scratch;
    const std::string_view original = "aaaa";
    const std::string_view corrupted = fault::corrupt_view("t.data", original, scratch);
    EXPECT_NE(corrupted, original);
    EXPECT_EQ(original, "aaaa");  // source untouched
  }
  // truncate/bitflip armed at a CONTROL site degrade to error.
  const ScopedFault f("t.control", spec(Kind::kTruncate));
  EXPECT_THROW(fault::point("t.control"), fault::FaultInjected);
}

// ---- the in-process matrix ---------------------------------------------

class Faults : public testing::CorpusTest {
 protected:
  Faults() : CorpusTest("st_faults") {}

  static constexpr const char* kPipelineSites[] = {
      "reader.open", "reader.chunk", "pipeline.convert", "sink.fold", "sink.merge"};
};

TEST_F(Faults, ErrorAtEveryPipelineSiteIsATypedIoErrorStrict) {
  const auto paths = make_corpus();
  ThreadPool pool(2);
  const model::EventLog reference = pipeline::run(paths, pool, {});
  for (const char* site : kPipelineSites) {
    {
      const ScopedFault f(site, spec(Kind::kError));
      EXPECT_THROW((void)pipeline::run(paths, pool, {}), IoError) << site;
    }
    // The failed run left nothing behind: a clean rerun on the same
    // pool is byte-identical.
    expect_same_log(reference, pipeline::run(paths, pool, {}));
  }
}

TEST_F(Faults, FailingRunNeverHalfMergesASink) {
  const auto paths = make_corpus();
  ThreadPool pool(2);
  const auto f = model::mapping_by_name("top2");
  for (const char* site : kPipelineSites) {
    pipeline::DfgSink graph_sink(f);
    pipeline::CaseStatsSink stats_sink;
    const ScopedFault fp(site, spec(Kind::kError));
    EXPECT_THROW((void)pipeline::run(paths, pool, {&graph_sink, &stats_sink}), IoError) << site;
    EXPECT_TRUE(graph_sink.graph().empty()) << site;
    EXPECT_TRUE(stats_sink.summaries().empty()) << site;
  }
}

TEST_F(Faults, HangAtEveryPipelineSiteOnlyDelaysTheRun) {
  const auto paths = make_corpus();
  ThreadPool pool(2);
  const model::EventLog reference = pipeline::run(paths, pool, {});
  for (const char* site : kPipelineSites) {
    const ScopedFault f(site, spec(Kind::kHang, 1, 30));
    expect_same_log(reference, pipeline::run(paths, pool, {}));
  }
}

TEST_F(Faults, KeepGoingQuarantinesAnInjectedOpenFailure) {
  const auto paths = make_corpus();
  ThreadPool pool(2);
  pipeline::StreamOptions opts;
  opts.keep_going = true;

  // run() opens buffers in input order, so hit 1 is paths[0].
  const ScopedFault f("reader.open", spec(Kind::kError));
  pipeline::DataHealth health;
  const auto log = pipeline::run(paths, pool, {}, opts, &health);
  EXPECT_EQ(log.case_count(), paths.size() - 1);
  ASSERT_FALSE(log.warnings().empty());
  EXPECT_EQ(log.warnings().front(),
            paths[0] + ": skipped: io error: fault injected at reader.open");
  EXPECT_EQ(health.files_requested, paths.size());
  EXPECT_EQ(health.files_skipped, 1u);
  EXPECT_EQ(health.cases_quarantined, 0u);
  EXPECT_EQ(health.files_ingested, paths.size() - 1);
  EXPECT_EQ(health.warnings_by_class.at("file-skipped"), 1u);
}

TEST_F(Faults, KeepGoingQuarantinesAnInjectedConvertFailure) {
  // Single file: its one conversion is deterministically the target.
  const std::vector<std::string> paths = {write_file("only_nodeA_1.st", testing::make_trace(40, false))};
  ThreadPool pool(2);
  pipeline::StreamOptions opts;
  opts.keep_going = true;
  const ScopedFault f("pipeline.convert", spec(Kind::kError));
  pipeline::DataHealth health;
  const auto log = pipeline::run(paths, pool, {}, opts, &health);
  EXPECT_EQ(log.case_count(), 0u);
  ASSERT_EQ(log.warnings().size(), 1u);
  EXPECT_EQ(log.warnings().front(),
            paths[0] + ": case quarantined: io error: fault injected at pipeline.convert");
  EXPECT_EQ(health.cases_quarantined, 1u);
  EXPECT_EQ(health.warnings_by_class.at("case-quarantined"), 1u);
}

TEST_F(Faults, KeepGoingNeverRescuesTheMergePhase) {
  // sink.merge fires before the first merge: even under keep_going the
  // run aborts with the typed error and no sink sees a partial merge.
  const auto paths = make_corpus();
  ThreadPool pool(2);
  const auto f = model::mapping_by_name("top2");
  pipeline::DfgSink graph_sink(f);
  pipeline::StreamOptions opts;
  opts.keep_going = true;
  const ScopedFault fp("sink.merge", spec(Kind::kError));
  EXPECT_THROW((void)pipeline::run(paths, pool, {&graph_sink}, opts), IoError);
  EXPECT_TRUE(graph_sink.graph().empty());
}

TEST_F(Faults, KeepGoingSkipsAMissingFileWithAPinnedWarning) {
  auto paths = make_corpus();
  const std::string missing = (dir_ / "ghost_nodeA_1.st").string();
  paths.insert(paths.begin() + 1, missing);
  ThreadPool pool(2);

  EXPECT_THROW((void)pipeline::run(paths, pool, {}), IoError);  // strict

  pipeline::StreamOptions opts;
  opts.keep_going = true;
  pipeline::DataHealth health;
  const auto log = pipeline::run(paths, pool, {}, opts, &health);
  EXPECT_EQ(log.case_count(), paths.size() - 1);
  EXPECT_EQ(health.files_skipped, 1u);
  bool found = false;
  for (const auto& w : log.warnings()) {
    if (w == missing + ": skipped: io error: cannot open trace file: " + missing) found = true;
  }
  EXPECT_TRUE(found);
}

TEST_F(Faults, KeepGoingShardedMatchesKeepGoingStreamedByteForByte) {
  auto paths = make_corpus();
  paths.insert(paths.begin() + 2, (dir_ / "ghost_nodeB_2.st").string());
  paths.push_back(write_file("badname.txt", "x\n"));
  const auto f = model::mapping_by_name("top2");

  ThreadPool pool(2);
  pipeline::StreamOptions stream_opts;
  stream_opts.keep_going = true;
  const auto reference = report::streaming_report(paths, f, pool, {}, stream_opts);

  pipeline::ShardOptions opts;
  opts.shards = 3;
  opts.mapping = "top2";
  opts.worker_threads = 2;
  opts.stream.keep_going = true;
  const auto analytics = pipeline::run_sharded(paths, opts);
  EXPECT_EQ(analytics.warnings, reference.summary.warnings);
  EXPECT_EQ(report::render_sharded_report(analytics, f), reference.html);

  // And across the process boundary: --keep-going must reach the
  // fold-shard argv (and the coordinator must skip the strict upfront
  // filename validation).
  if (const char* exe = elog_tool_exe()) {
    opts.fold_shard_exe = exe;
    const auto spawned = pipeline::run_sharded(paths, opts);
    EXPECT_EQ(spawned.warnings, reference.summary.warnings);
    EXPECT_EQ(report::render_sharded_report(spawned, f), reference.html);
  }
}

// ---- zero-byte and truncated trace inputs (robustness satellites) ------

TEST_F(Faults, ZeroByteTraceIsAnEmptyCaseInBothModes) {
  const std::vector<std::string> paths = {write_file("zero_nodeA_1.st", "")};
  // Both buffer paths agree on the bytes.
  EXPECT_EQ(strace::TraceBuffer::from_file(paths[0])->text(),
            strace::TraceBuffer::from_file_mmap(paths[0])->text());

  ThreadPool pool(2);
  const auto strict = pipeline::run(paths, pool, {});
  EXPECT_EQ(strict.case_count(), 1u);
  EXPECT_EQ(strict.total_events(), 0u);
  EXPECT_TRUE(strict.warnings().empty());

  pipeline::StreamOptions opts;
  opts.keep_going = true;
  expect_same_log(strict, pipeline::run(paths, pool, {}, opts));

  pipeline::ShardOptions sopts;
  sopts.shards = 2;
  const auto analytics = pipeline::run_sharded(paths, sopts);
  EXPECT_EQ(analytics.case_count, 1u);
  EXPECT_EQ(analytics.total_events, 0u);
}

TEST_F(Faults, TruncatedFinalLineWarnsIdenticallyInBothModes) {
  // A trace cut mid-line (no trailing newline): the final fragment is a
  // malformed line — a warning, never an abort, in strict and
  // keep_going alike, through pipeline::run and run_sharded.
  std::string text = testing::make_trace(10, false);
  // Cut mid-timestamp: a fragment like this cannot parse as ANY record
  // kind (a cut inside the argument list would read as an unfinished
  // call, which is a different warning class).
  text += "7  10:00:5";  // writer died mid-line
  const std::vector<std::string> paths = {write_file("cut_nodeA_3.st", text)};
  EXPECT_EQ(strace::TraceBuffer::from_file(paths[0])->text(),
            strace::TraceBuffer::from_file_mmap(paths[0])->text());

  ThreadPool pool(2);
  const auto strict = pipeline::run(paths, pool, {});
  ASSERT_FALSE(strict.warnings().empty());
  // The fragment is line 11; "never resumed" warnings sort after line
  // warnings, so search rather than assume it's last.
  std::size_t malformed = 0;
  for (const auto& warning : strict.warnings()) {
    if (warning.find(": line 11: ") != std::string::npos) {
      ++malformed;
      EXPECT_EQ(pipeline::classify_warning(warning), "malformed-line");
    }
  }
  EXPECT_EQ(malformed, 1u);

  pipeline::StreamOptions opts;
  opts.keep_going = true;
  expect_same_log(strict, pipeline::run(paths, pool, {}, opts));

  pipeline::ShardOptions sopts;
  sopts.shards = 2;
  EXPECT_EQ(pipeline::run_sharded(paths, sopts).warnings, strict.warnings());
}

// ---- elog v2 CRC quarantine --------------------------------------------

TEST_F(Faults, ElogCrcFaultQuarantinesOneCaseUnderKeepGoing) {
  const auto paths = make_corpus();
  ThreadPool pool(2);
  const auto log = pipeline::run(paths, pool, {});
  const std::string elog_path = (dir_ / "corpus.elog").string();
  elog::write_event_log_v2_file(elog_path, log);

  // Hit 1 validates the case directory at open; hit 2 is the string
  // pool on the first case's materialization — the first per-case CRC.
  {
    const ScopedFault f("elog.crc", spec(Kind::kError, 2));
    EXPECT_THROW((void)elog::read_event_log_file(elog_path), IoError);  // strict
  }
  {
    const ScopedFault f("elog.crc", spec(Kind::kError, 2));
    const auto recovered = elog::read_event_log_file(elog_path, elog::ElogReadOptions{true});
    EXPECT_EQ(recovered.case_count(), log.case_count() - 1);
    ASSERT_EQ(recovered.warnings().size(), 1u);
    EXPECT_EQ(recovered.warnings().front(),
              "case 0 (big_nodeA_9001) quarantined: io error: fault injected at elog.crc");
    EXPECT_EQ(pipeline::classify_warning(recovered.warnings().front()), "case-quarantined");
  }
  // Disarmed, the same file reads whole again.
  EXPECT_EQ(elog::read_event_log_file(elog_path).case_count(), log.case_count());
}

TEST_F(Faults, ElogOpenFaultIsStructuralEvenUnderKeepGoing) {
  const auto paths = make_corpus();
  ThreadPool pool(2);
  const std::string elog_path = (dir_ / "corpus.elog").string();
  elog::write_event_log_v2_file(elog_path, pipeline::run(paths, pool, {}));
  const ScopedFault f("elog.open", spec(Kind::kError));
  EXPECT_THROW((void)elog::read_event_log_file(elog_path, elog::ElogReadOptions{true}), IoError);
}

TEST_F(Faults, ElogIndexFaultFailsIndexedQueriesButNotPlainReads) {
  // elog.index fires at the planner's first touch of the index sections
  // (MappedElog::index_view): an indexed query is a typed IoError, the
  // materializing read path never consults the index and stays whole,
  // and the disarmed query is byte-identical to the scan.
  const auto paths = make_corpus();
  ThreadPool pool(2);
  const std::string elog_path = (dir_ / "corpus.elog").string();
  elog::write_event_log_v2_file(elog_path, pipeline::run(paths, pool, {}));
  const auto mapped = elog::open_v2(elog_path);
  const auto base = elog::read_event_log_v2(mapped);
  const auto q = model::Query::parse("calls{read}");
  {
    const ScopedFault f("elog.index", spec(Kind::kError));
    EXPECT_THROW((void)elog::select_v2(mapped, q), IoError);
    expect_same_log(base, elog::read_event_log_v2(mapped));  // plain read unaffected
  }
  expect_same_log(q.apply(base), elog::select_v2(mapped, q));  // disarmed: heals
}

// ---- shard supervision (in-process sites) ------------------------------

TEST_F(Faults, CodecDecodeBitflipInProcessIsATypedIoError) {
  // In-process sharding has no retry loop by design: a corrupted blob
  // is the codec's documented IoError, not a hang or a wrong answer.
  const auto paths = make_corpus();
  pipeline::ShardOptions opts;
  opts.shards = 2;
  const ScopedFault f("codec.decode", spec(Kind::kBitflip));
  EXPECT_THROW((void)pipeline::run_sharded(paths, opts), IoError);
}

class SpawnedFaults : public Faults {
 protected:
  pipeline::ShardOptions spawned_options(const char* exe, std::size_t shards) {
    pipeline::ShardOptions opts;
    opts.shards = shards;
    opts.mapping = "top2";
    opts.worker_threads = 2;
    opts.fold_shard_exe = exe;
    opts.retry_backoff_ms = 1;
    return opts;
  }

  /// The clean spawned run's report — the byte-identity baseline.
  std::string clean_html(const std::vector<std::string>& paths, const char* exe,
                         std::size_t shards) {
    const auto analytics = pipeline::run_sharded(paths, spawned_options(exe, shards));
    EXPECT_EQ(analytics.shard_report.total_retries(), 0u);
    return report::render_sharded_report(analytics, model::mapping_by_name("top2"));
  }
};

TEST_F(SpawnedFaults, SpawnFaultHealsOnRetryByteIdentically) {
  const char* exe = elog_tool_exe();
  if (exe == nullptr) GTEST_SKIP() << "ST_ELOG_TOOL unset or not built";
  const auto paths = make_corpus();
  const std::string reference = clean_html(paths, exe, 2);

  const ScopedFault f("shard.spawn", spec(Kind::kError));
  const auto analytics = pipeline::run_sharded(paths, spawned_options(exe, 2));
  EXPECT_EQ(report::render_sharded_report(analytics, model::mapping_by_name("top2")), reference);
  EXPECT_EQ(analytics.shard_report.total_retries(), 1u);
  EXPECT_EQ(analytics.shard_report.total_fallbacks(), 0u);
  ASSERT_FALSE(analytics.shard_report.shards[0].failures.empty());
  EXPECT_NE(analytics.shard_report.shards[0].failures[0].find("fault injected at shard.spawn"),
            std::string::npos);
}

TEST_F(SpawnedFaults, BlobCorruptionIsRejectedAndRetried) {
  const char* exe = elog_tool_exe();
  if (exe == nullptr) GTEST_SKIP() << "ST_ELOG_TOOL unset or not built";
  const auto paths = make_corpus();
  const std::string reference = clean_html(paths, exe, 2);

  for (const Kind kind : {Kind::kBitflip, Kind::kTruncate}) {
    const ScopedFault f("shard.blob_read", spec(kind));
    const auto analytics = pipeline::run_sharded(paths, spawned_options(exe, 2));
    EXPECT_EQ(report::render_sharded_report(analytics, model::mapping_by_name("top2")),
              reference);
    EXPECT_EQ(analytics.shard_report.total_retries(), 1u);
    bool found = false;
    for (const auto& s : analytics.shard_report.shards) {
      for (const auto& failure : s.failures) {
        if (failure.find("shard partial rejected") != std::string::npos) found = true;
      }
    }
    EXPECT_TRUE(found);
  }
}

TEST_F(SpawnedFaults, ChildExitInheritedFromEnvHealsOnScrubbedRetry) {
  const char* exe = elog_tool_exe();
  if (exe == nullptr) GTEST_SKIP() << "ST_ELOG_TOOL unset or not built";
  const auto paths = make_corpus();
  const std::string reference = clean_html(paths, exe, 2);

  // Every child parses ST_FAULTS at startup and _exits in fold-shard;
  // the retry environment is scrubbed, so attempt 2 runs clean.
  const EnvFault env("shard.child=exit");
  const auto analytics = pipeline::run_sharded(paths, spawned_options(exe, 2));
  EXPECT_EQ(report::render_sharded_report(analytics, model::mapping_by_name("top2")), reference);
  ASSERT_EQ(analytics.shard_report.shards.size(), 2u);
  for (const auto& s : analytics.shard_report.shards) {
    EXPECT_EQ(s.attempts, 2u);
    ASSERT_EQ(s.failures.size(), 1u);
    EXPECT_NE(s.failures[0].find("exited with status 70"), std::string::npos);
  }
}

TEST_F(SpawnedFaults, KilledChildAtShard2Of4IsByteIdenticalAfterRecovery) {
  // The ISSUE 8 acceptance case: shard 2 of 4 dies mid-run (deadline
  // SIGKILL on an injected hang) and the recovered HTML is
  // byte-identical to the uninjected run.
  const char* exe = elog_tool_exe();
  if (exe == nullptr) GTEST_SKIP() << "ST_ELOG_TOOL unset or not built";
  const auto paths = make_corpus();
  const std::string reference = clean_html(paths, exe, 4);

  const EnvFault env("shard.child#2=hang_ms20000");
  auto opts = spawned_options(exe, 4);
  opts.shard_timeout_ms = 300;
  const auto analytics = pipeline::run_sharded(paths, opts);
  EXPECT_EQ(report::render_sharded_report(analytics, model::mapping_by_name("top2")), reference);
  ASSERT_EQ(analytics.shard_report.shards.size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) {
    if (i == 2) {
      EXPECT_EQ(analytics.shard_report.shards[i].attempts, 2u);
      ASSERT_EQ(analytics.shard_report.shards[i].failures.size(), 1u);
      EXPECT_NE(analytics.shard_report.shards[i].failures[0].find("killed by signal 9"),
                std::string::npos);
      EXPECT_NE(analytics.shard_report.shards[i].failures[0].find("deadline"),
                std::string::npos);
    } else {
      EXPECT_EQ(analytics.shard_report.shards[i].attempts, 1u);
    }
  }
}

TEST_F(SpawnedFaults, PersistentChildFailureFallsBackInProcess) {
  // A child that fails on every attempt: retries cannot heal, only the
  // in-process fallback can, and it yields the in-process run's bytes.
  const auto paths = make_corpus();
  const auto f = model::mapping_by_name("top2");
  auto opts = spawned_options("/bin/false", 2);
  opts.max_attempts = 2;
  const auto analytics = pipeline::run_sharded(paths, opts);
  opts.fold_shard_exe.clear();
  EXPECT_EQ(report::render_sharded_report(analytics, f),
            report::render_sharded_report(pipeline::run_sharded(paths, opts), f));
  EXPECT_EQ(analytics.shard_report.total_fallbacks(), 2u);
  for (const auto& s : analytics.shard_report.shards) {
    EXPECT_EQ(s.attempts, 2u);
    EXPECT_TRUE(s.fell_back);
    EXPECT_EQ(s.failures.size(), 2u);
  }
}

TEST_F(SpawnedFaults, ExhaustedShardWhoseFallbackFailsIsALowestIndexIoError) {
  // Both shards exhaust their attempts and both fallbacks fail on a
  // missing trace: the run's IoError names the lower shard.
  auto paths = make_corpus();
  paths.insert(paths.begin(), (dir_ / "ghost_h_1.st").string());
  paths.push_back((dir_ / "ghost_h_2.st").string());
  auto opts = spawned_options("/bin/false", 2);
  opts.max_attempts = 2;
  try {
    (void)pipeline::run_sharded(paths, opts);
    FAIL() << "expected IoError";
  } catch (const IoError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("shard 0: in-process fallback failed"), std::string::npos) << what;
    EXPECT_NE(what.find("ghost_h_1.st"), std::string::npos) << what;
  }
}

}  // namespace
}  // namespace st
