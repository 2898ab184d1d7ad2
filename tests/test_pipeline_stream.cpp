// Acceptance tests for the streaming trace -> EventLog -> DFG pipeline
// (pipeline::run over read_trace_files_streamed):
//   - streamed output is byte-identical to testing::staged_log (the
//     sequential per-file read + convert): case order, event order,
//     warning strings and their order — at 1, 2 and 4 workers with
//     tiny chunks — and a DfgSink's graph equals dfg::build_serial,
//   - each file converts and folds on the thread that finished its
//     parse, before a one-worker pool parses the next file,
//   - per-file fold completion (read_trace_files_streamed) matches the
//     sequential reader file by file; the streamed reader runs only on
//     a caller-provided pool,
//   - lifetime: the log owns every view after all intermediates die,
//   - a directory named like a trace is a typed IoError, skipped with a
//     warning under keep_going,
//   - error propagation is deterministic (lowest input index wins) and
//     a file failing mid-batch shuts the pipeline down cleanly with no
//     task left touching destroyed state (ASan-verified).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "dfg/builder.hpp"
#include "model/from_strace.hpp"
#include "parallel/thread_pool.hpp"
#include "pipeline/sink.hpp"
#include "strace/reader.hpp"
#include "strace/writer.hpp"
#include "support/errors.hpp"
#include "support/faultpoint.hpp"
#include "testing_corpus.hpp"
#include "testing_util.hpp"

namespace st {
namespace {

using testing::expect_same_log;
using testing::make_clean_trace;
using testing::make_trace;
using testing::staged_log;
using testing::ThrowingSink;

class PipelineStream : public testing::CorpusTest {
 protected:
  PipelineStream() : CorpusTest("st_pipeline") {}

  /// A randomized-shape corpus: one big file, several small ones, with
  /// and without noise, multiple hosts. Distinct salts produce distinct
  /// FILE NAMES too, so two corpora can coexist (and be parsed
  /// concurrently) in one test.
  std::vector<std::string> make_salted_corpus(std::uint64_t salt) {
    const std::string tag = "c" + std::to_string(salt);
    std::vector<std::string> paths;
    paths.push_back(write_file("big" + tag + "_nodeA_9001.st", make_trace(1100 + salt % 37, true)));
    for (int i = 0; i < 5; ++i) {
      paths.push_back(write_file(
          "s" + tag + std::to_string(i) + "_node" + (i % 2 ? "B" : "C") + "_" +
              std::to_string(9100 + i) + ".st",
          make_trace(30 + static_cast<std::size_t>(i) * 7 + salt % 11, i % 2 == 0,
                     static_cast<std::uint64_t>(100 + i))));
    }
    paths.push_back(write_file("empty" + tag + "_nodeA_9200.st", ""));
    return paths;
  }
};

// ---- byte-identity with the staged path --------------------------------

TEST_F(PipelineStream, StreamedLogMatchesStagedAt124Workers) {
  const auto paths = make_salted_corpus(0);
  const auto reference = staged_log(paths);
  for (const std::size_t workers : {1u, 2u, 4u}) {
    ThreadPool pool(workers);
    pipeline::StreamOptions opts;
    opts.min_chunk_bytes = 256;  // force many chunks per file
    expect_same_log(reference, pipeline::run(paths, pool, {}, opts));
  }
}

TEST_F(PipelineStream, DfgSinkMatchesBuildSerialAt124Workers) {
  const auto paths = make_salted_corpus(3);
  const auto reference = staged_log(paths);
  const auto f = model::Mapping::call_top_dirs(2);
  for (const std::size_t workers : {1u, 2u, 4u}) {
    ThreadPool pool(workers);
    pipeline::StreamOptions opts;
    opts.min_chunk_bytes = 256;
    pipeline::DfgSink sink(f);
    const auto log = pipeline::run(paths, pool, {&sink}, opts);
    expect_same_log(reference, log);
    EXPECT_EQ(sink.graph(), dfg::build_serial(reference, f)) << workers;
  }
}

TEST_F(PipelineStream, RepeatedRunsAreDeterministic) {
  // Scheduling may differ run to run; output may not.
  const auto paths = make_salted_corpus(7);
  ThreadPool pool(4);
  pipeline::StreamOptions opts;
  opts.min_chunk_bytes = 256;
  const auto first = pipeline::run(paths, pool, {}, opts);
  for (int round = 0; round < 5; ++round) {
    expect_same_log(first, pipeline::run(paths, pool, {}, opts));
  }
}

TEST_F(PipelineStream, EventLogFromFilesIsTheStreamingPath) {
  // The public entry point is rebuilt on the pipeline; it must still
  // match the staged reference byte for byte.
  const auto paths = make_salted_corpus(11);
  const auto reference = staged_log(paths);
  expect_same_log(reference, model::event_log_from_files(paths, 1));
  expect_same_log(reference, model::event_log_from_files(paths, 4));
}

TEST_F(PipelineStream, EmptyInputs) {
  ThreadPool pool(2);
  const auto f = model::Mapping::call_only();
  pipeline::DfgSink sink(f);
  EXPECT_EQ(pipeline::run({}, pool, {&sink}).case_count(), 0u);
  EXPECT_TRUE(sink.graph().empty());
}

// ---- each file converts and folds right after its own parse -----------

/// Records, per file, how many parse chunks had run when the file's
/// case reached fold().
class ChunkCountProbe final : public pipeline::CaseSink {
 public:
  struct Partial final : pipeline::SinkPartial {
    std::uint64_t chunks_parsed = 0;  ///< a file's
    std::vector<std::uint64_t> seen;  ///< the run's accumulator
  };

  [[nodiscard]] std::unique_ptr<pipeline::SinkPartial> make_partial() const override {
    return std::make_unique<Partial>();
  }
  void fold(pipeline::SinkPartial& p, const pipeline::CaseContext&) const override {
    static_cast<Partial&>(p).chunks_parsed = fault::hits("reader.chunk");
  }
  void absorb(pipeline::SinkPartial& acc, std::unique_ptr<pipeline::SinkPartial> p) const override {
    static_cast<Partial&>(acc).seen.push_back(static_cast<Partial&>(*p).chunks_parsed);
  }
  void merge(std::unique_ptr<pipeline::SinkPartial> acc) override {
    seen = std::move(static_cast<Partial&>(*acc).seen);
  }

  std::vector<std::uint64_t> seen;  ///< input order
};

TEST_F(PipelineStream, EachFileFoldsBeforeTheNextFileParses) {
#ifdef ST_NO_FAULT_POINTS
  GTEST_SKIP() << "fault points are compiled out: there are no chunk hits to count";
#else
  // One worker parses every file as one chunk and runs tasks in
  // submission order, so file i's fold must follow exactly i+1 chunk
  // parses — it may not wait until every file has parsed.
  std::vector<std::string> paths;
  for (std::uint64_t i = 0; i < 6; ++i) {
    paths.push_back(write_file("f" + std::to_string(i) + "_nodeA_" + std::to_string(100 + i) +
                                   ".st",
                               make_clean_trace(40, 10 + i)));
  }
  // Armed but never firing: the site counts its hits.
  fault::Spec never;
  never.kind = fault::Kind::kHang;
  never.nth = 1'000'000;
  never.hang_ms = 0;
  const fault::ScopedFault counting("reader.chunk", never);

  ThreadPool pool(1);
  ChunkCountProbe probe;
  const auto log = pipeline::run(paths, pool, {&probe});
  EXPECT_EQ(log.case_count(), paths.size());
  ASSERT_EQ(probe.seen.size(), paths.size());
  for (std::size_t i = 0; i < paths.size(); ++i) {
    EXPECT_EQ(probe.seen[i], i + 1) << "file " << i;
  }
#endif
}

// ---- per-file fold completion (reader layer) ---------------------------

TEST_F(PipelineStream, StreamedReaderMatchesSequentialPerFile) {
  const auto paths = make_salted_corpus(5);
  ThreadPool pool(3);
  strace::ParallelReadOptions opts;
  opts.pool = &pool;
  opts.min_chunk_bytes = 256;

  std::mutex mu;
  std::vector<std::optional<strace::ReadResult>> streamed(paths.size());
  {
    auto handle = strace::read_trace_files_streamed(
        paths, opts, [&](std::size_t i, strace::ReadResult&& r) {
          std::lock_guard lock(mu);
          ASSERT_FALSE(streamed[i].has_value()) << "file " << i << " delivered twice";
          streamed[i] = std::move(r);
        });
    handle.wait();
  }
  for (std::size_t i = 0; i < paths.size(); ++i) {
    ASSERT_TRUE(streamed[i].has_value()) << paths[i];
    const auto seq = strace::read_trace_file(paths[i]);
    ASSERT_EQ(seq.records.size(), streamed[i]->records.size()) << paths[i];
    for (std::size_t r = 0; r < seq.records.size(); ++r) {
      ASSERT_EQ(strace::format_record(seq.records[r]),
                strace::format_record(streamed[i]->records[r]))
          << paths[i] << " record " << r;
    }
    EXPECT_EQ(seq.warnings, streamed[i]->warnings);
  }
}

TEST_F(PipelineStream, StreamedHandleMoveAssignmentJoinsReplacedParse) {
  // Assigning over a live handle must join the old parse first — its
  // tasks hold raw pointers into the replaced state.
  const auto batch1 = make_salted_corpus(21);
  const auto batch2 = make_salted_corpus(22);
  ThreadPool pool(3);
  strace::ParallelReadOptions opts;
  opts.pool = &pool;
  opts.min_chunk_bytes = 256;

  std::mutex mu;
  std::vector<int> delivered1(batch1.size(), 0);
  std::vector<int> delivered2(batch2.size(), 0);
  auto handle = strace::read_trace_files_streamed(
      batch1, opts, [&](std::size_t i, strace::ReadResult&&) {
        std::lock_guard lock(mu);
        ++delivered1[i];
      });
  handle = strace::read_trace_files_streamed(
      batch2, opts, [&](std::size_t i, strace::ReadResult&&) {
        std::lock_guard lock(mu);
        ++delivered2[i];
      });
  // The replaced parse was joined by the assignment: every batch1 file
  // has already been delivered exactly once.
  {
    std::lock_guard lock(mu);
    for (std::size_t i = 0; i < batch1.size(); ++i) EXPECT_EQ(delivered1[i], 1) << i;
  }
  handle.wait();
  for (std::size_t i = 0; i < batch2.size(); ++i) EXPECT_EQ(delivered2[i], 1) << i;
}

TEST_F(PipelineStream, StreamedReaderWithoutAPoolIsALogicError) {
  // The reader never spins up threads of its own: every parse task
  // runs on the caller's pool, so a missing pool is a programming
  // error, reported before any callback fires.
  const auto paths = make_salted_corpus(9);
  bool called = false;
  EXPECT_THROW((void)strace::read_trace_files_streamed(
                   paths, strace::ParallelReadOptions{},
                   [&](std::size_t, strace::ReadResult&&) { called = true; }),
               LogicError);
  EXPECT_FALSE(called);
}

// ---- lifetime ----------------------------------------------------------

TEST_F(PipelineStream, LogOwnsEveryViewAfterIntermediatesDie) {
  const auto paths = make_salted_corpus(13);
  model::EventLog log;
  {
    ThreadPool pool(3);
    pipeline::StreamOptions opts;
    opts.min_chunk_bytes = 256;
    log = pipeline::run(paths, pool, {}, opts);
  }  // pool and every pipeline intermediate destroyed here
  // Overwrite the files on disk: the log must not notice.
  for (const auto& p : paths) {
    std::ofstream out(p, std::ios::binary | std::ios::trunc);
    out << std::string(4096, 'X');
  }
  ASSERT_GT(log.total_events(), 0u);
  for (const auto& c : log.cases()) {
    EXPECT_FALSE(c.id().cid.empty());
    for (const auto& e : c.events()) {
      EXPECT_FALSE(e.call.empty());
      EXPECT_EQ(e.cid, c.id().cid);
      EXPECT_EQ(e.host, c.id().host);
    }
  }
}

// ---- error determinism + shutdown ordering -----------------------------

TEST_F(PipelineStream, BadFileNameThrowsFirstInInputOrderBeforeIo) {
  const auto good = write_file("ok_host1_1.st", make_trace(10, false));
  const std::vector<std::string> paths = {good, (dir_ / "nounderscore.st").string(),
                                          (dir_ / "alsobad.st").string()};
  ThreadPool pool(2);
  try {
    (void)pipeline::run(paths, pool, {});
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_NE(std::string(e.what()).find("nounderscore"), std::string::npos) << e.what();
  }
}

TEST_F(PipelineStream, DirectoryNamedLikeATraceIsAnIoErrorOrSkipped) {
  auto paths = make_corpus();
  const std::string dir = (dir_ / "x_h_1.st").string();
  std::filesystem::create_directory(dir);
  paths.insert(paths.begin() + 2, dir);
  ThreadPool pool(2);
  const auto f = model::Mapping::call_only();

  pipeline::DfgSink strict_graph(f);
  try {
    (void)pipeline::run(paths, pool, {&strict_graph});
    FAIL() << "expected IoError";
  } catch (const IoError& e) {
    EXPECT_NE(std::string(e.what()).find("is a directory"), std::string::npos) << e.what();
  }
  EXPECT_TRUE(strict_graph.graph().empty());

  pipeline::StreamOptions opts;
  opts.keep_going = true;
  pipeline::DataHealth health;
  pipeline::DfgSink graph(f);
  const auto log = pipeline::run(paths, pool, {&graph}, opts, &health);
  EXPECT_EQ(log.case_count(), paths.size() - 1);
  EXPECT_EQ(health.files_skipped, 1u);
  EXPECT_EQ(health.files_ingested, paths.size() - 1);
  const std::string warning = dir + ": skipped: io error: trace file is a directory: " + dir;
  EXPECT_NE(std::find(log.warnings().begin(), log.warnings().end(), warning),
            log.warnings().end());
  EXPECT_EQ(graph.graph(), dfg::build_serial(log, f));
}

TEST_F(PipelineStream, MalformedFileMidBatchShutsDownCleanly) {
  // Regression for pipeline shutdown ordering: the file in the MIDDLE
  // of the batch fails on the pool thread that finished its parse,
  // while later files are still parsing and other files are still
  // converting. Every task must be awaited before the rethrow — under
  // ASan this test fails loudly if any continuation touches a
  // destroyed arena or stack slot.
  std::vector<std::string> paths;
  paths.push_back(write_file("a_nodeA_1.st", make_clean_trace(600, 40)));
  paths.push_back(write_file("b_nodeA_2.st", make_clean_trace(400, 50)));
  paths.push_back(write_file("bad_nodeA_3.st",
                             make_clean_trace(80, 60) + "9  10:00:09.000000 garbage\n" +
                                 make_clean_trace(80, 70)));
  paths.push_back(write_file("c_nodeA_4.st", make_clean_trace(500, 80)));
  paths.push_back(write_file("d_nodeA_5.st", make_clean_trace(300, 90)));

  ThreadPool pool(4);
  pipeline::StreamOptions opts;
  opts.min_chunk_bytes = 256;
  const auto f = model::Mapping::call_only();
  // The last file fails too, and must not outrank the middle one.
  const auto error_of = [&](std::initializer_list<pipeline::CaseSink*> sinks) -> std::string {
    try {
      (void)pipeline::run(paths, pool, sinks, opts);
    } catch (const std::runtime_error& e) {
      return e.what();
    }
    return "no error";
  };
  for (int round = 0; round < 10; ++round) {
    ThrowingSink poisoned({"bad", "d"});
    EXPECT_EQ(error_of({&poisoned}), "sink poisoned on bad") << "round " << round;
    pipeline::DfgSink sink(f);
    EXPECT_EQ(error_of({&sink, &poisoned}), "sink poisoned on bad") << "round " << round;
    EXPECT_TRUE(sink.graph().empty()) << "round " << round;
    EXPECT_EQ(poisoned.merges(), 0) << "round " << round;
  }
  // The pool survives the failed runs and is still usable.
  EXPECT_EQ(pool.submit([] { return 42; }).get(), 42);
  // Without the poisoned sink the same batch builds fine, and the
  // malformed line is a warning.
  const auto log = pipeline::run(paths, pool, {}, opts);
  EXPECT_EQ(log.case_count(), paths.size());
  ASSERT_FALSE(log.warnings().empty());
  EXPECT_NE(log.warnings().front().find("bad_nodeA_3.st"), std::string::npos);
}

TEST_F(PipelineStream, LowestInputIndexErrorWinsDeterministically) {
  // Two failing files — the small one last, so it tends to settle
  // first; the error must always name the earlier one, no matter how
  // the pool schedules the work.
  std::vector<std::string> paths;
  paths.push_back(write_file("ok_nodeA_1.st", make_clean_trace(400, 30)));
  paths.push_back(write_file("bad1_nodeA_2.st", make_clean_trace(300, 50)));
  paths.push_back(write_file("ok_nodeA_3.st", make_clean_trace(200, 40)));
  paths.push_back(write_file("bad2_nodeA_4.st", make_clean_trace(2, 60)));

  ThreadPool pool(4);
  pipeline::StreamOptions opts;
  opts.min_chunk_bytes = 256;
  for (int round = 0; round < 15; ++round) {
    ThrowingSink poisoned({"bad1", "bad2"});
    try {
      (void)pipeline::run(paths, pool, {&poisoned}, opts);
      FAIL() << "expected an error, round " << round;
    } catch (const std::runtime_error& e) {
      // bad1's error (input index 1) must win over bad2's.
      EXPECT_NE(std::string(e.what()).find("poisoned on bad1"), std::string::npos)
          << "round " << round << ": " << e.what();
    }
    EXPECT_EQ(poisoned.merges(), 0) << "round " << round;
  }
}

}  // namespace
}  // namespace st
