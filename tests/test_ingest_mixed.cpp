// End-to-end coverage for the mmap + arena + mixed-parallel ingestion
// architecture:
//   - from_file_mmap and from_file produce byte-identical ReadResults,
//   - read_trace_files_streamed (one work queue of (file, chunk)
//     tasks on the caller's pool) matches the sequential reader file
//     by file,
//   - event_log_from_files equals testing::staged_log at 1/2/4
//     workers; the EventLog owns the storage its events view into
//     (valid after every intermediate is gone, including through
//     derived logs), and reader warnings surface via
//     EventLog::warnings() ordered by file then line,
//   - error propagation is deterministic (first path in input order).
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "iosim/ior.hpp"
#include "model/from_strace.hpp"
#include "parallel/thread_pool.hpp"
#include "strace/reader.hpp"
#include "strace/writer.hpp"
#include "support/errors.hpp"
#include "testing_corpus.hpp"

namespace st {
namespace {

using testing::make_trace;

class TempTraceDir : public testing::CorpusTest {
 protected:
  TempTraceDir() : CorpusTest("st_ingest") {}
};

void expect_same_result(const strace::ReadResult& a, const strace::ReadResult& b) {
  ASSERT_EQ(a.records.size(), b.records.size());
  for (std::size_t i = 0; i < a.records.size(); ++i) {
    ASSERT_EQ(strace::format_record(a.records[i]), strace::format_record(b.records[i]))
        << "record " << i;
  }
  EXPECT_EQ(a.warnings, b.warnings);
}

// ---- mmap vs read ------------------------------------------------------

using MmapVsRead = TempTraceDir;

TEST_F(MmapVsRead, ByteIdenticalReadResults) {
  const auto path = write_file("a_host1_1.st", make_trace(400, /*with_noise=*/true));
  const auto via_read = strace::read_trace_buffer(strace::TraceBuffer::from_file(path));
  const auto via_mmap = strace::read_trace_buffer(strace::TraceBuffer::from_file_mmap(path));
  EXPECT_EQ(via_read.buffer->text(), via_mmap.buffer->text());
  expect_same_result(via_read, via_mmap);
#if defined(__unix__) || defined(__APPLE__)
  EXPECT_TRUE(via_mmap.buffer->is_mapped());
  EXPECT_FALSE(via_read.buffer->is_mapped());
#endif
}

TEST_F(MmapVsRead, EmptyFile) {
  const auto path = write_file("a_host1_2.st", "");
  const auto buffer = strace::TraceBuffer::from_file_mmap(path);
  EXPECT_TRUE(buffer->text().empty());
  const auto result = strace::read_trace_buffer(buffer);
  EXPECT_TRUE(result.records.empty());
  EXPECT_TRUE(result.warnings.empty());
}

TEST_F(MmapVsRead, MissingFileThrows) {
  EXPECT_THROW((void)strace::TraceBuffer::from_file_mmap((dir_ / "nope.st").string()),
               IoError);
}

// ---- mixed parallelism -------------------------------------------------

using MixedParallel = TempTraceDir;

TEST_F(MixedParallel, OneBigPlusManySmallMatchesSequential) {
  std::vector<std::string> paths;
  paths.push_back(write_file("big_host1_1.st", make_trace(2000, true)));
  for (int i = 0; i < 6; ++i) {
    paths.push_back(write_file("small_host1_" + std::to_string(i + 2) + ".st",
                               make_trace(40 + static_cast<std::size_t>(i), true,
                                          static_cast<std::uint64_t>(100 + i))));
  }

  ThreadPool pool(3);
  strace::ParallelReadOptions opts;
  opts.pool = &pool;
  opts.min_chunk_bytes = 256;  // force many chunks per file
  std::vector<strace::ReadResult> mixed(paths.size());
  strace::read_trace_files_streamed(
      paths, opts, [&mixed](std::size_t i, strace::ReadResult&& r) { mixed[i] = std::move(r); })
      .wait();
  for (std::size_t i = 0; i < paths.size(); ++i) {
    const auto seq = strace::read_trace_file(paths[i]);
    expect_same_result(seq, mixed[i]);
  }
}

TEST_F(MixedParallel, EventLogMatchesStagedLogAt124Workers) {
  // Case order, events, warning strings and their order are
  // byte-identical to the sequential per-file build at any width.
  std::vector<std::string> paths;
  paths.push_back(write_file("big_nodeA_9001.st", make_trace(1200, true)));
  paths.push_back(write_file("s1_nodeB_9002.st", make_trace(55, true, 50)));
  paths.push_back(write_file("s2_nodeA_9003.st", make_trace(70, false, 60)));
  for (int i = 0; i < 5; ++i) {
    paths.push_back(write_file("s_nodeB_" + std::to_string(i + 4) + ".st",
                               make_trace(35 + static_cast<std::size_t>(i), true,
                                          static_cast<std::uint64_t>(200 + i))));
  }
  const auto reference = testing::staged_log(paths);
  for (const std::size_t workers : {1u, 2u, 4u}) {
    testing::expect_same_log(reference, model::event_log_from_files(paths, workers));
  }
}

TEST_F(MixedParallel, WarningsOrderedByFileThenLine) {
  std::vector<std::string> paths = {
      write_file("w1_host1_1.st", make_trace(40, true)),
      write_file("clean_host1_2.st", make_trace(20, false, 30)),
      write_file("w2_host1_3.st", "1  10:00:00.000001 garbage\n" + make_trace(40, true, 40)),
  };
  const auto log = model::event_log_from_files(paths, 2);
  ASSERT_FALSE(log.warnings().empty());

  // Every warning is "<path>: line N: ..."; file groups appear in input
  // order and line numbers ascend within a group.
  std::size_t file_idx = 0;
  std::size_t last_line = 0;
  for (const auto& w : log.warnings()) {
    while (file_idx < paths.size() && w.rfind(paths[file_idx] + ": ", 0) != 0) {
      ++file_idx;
      last_line = 0;
    }
    ASSERT_LT(file_idx, paths.size()) << "warning out of file order: " << w;
    const std::string rest = w.substr(paths[file_idx].size() + 2);
    if (rest.rfind("line ", 0) == 0) {
      // Line-anchored warnings ascend, and never follow the file's
      // "never resumed" tail warnings.
      ASSERT_NE(last_line, static_cast<std::size_t>(-1)) << w;
      const std::size_t line = std::stoull(rest.substr(5));
      EXPECT_GE(line, last_line) << w;
      last_line = line;
    } else {
      ASSERT_EQ(rest.rfind("unfinished call never resumed", 0), 0u) << w;
      last_line = static_cast<std::size_t>(-1);
    }
  }
  // The first bad file really is the first group.
  EXPECT_EQ(log.warnings().front().rfind(paths[0] + ": ", 0), 0u);
  // Derived logs do not inherit ingestion warnings.
  EXPECT_TRUE(log.filter_fp("/p").warnings().empty());
}

TEST_F(MixedParallel, IdenticalConsecutiveWarningsAreDeduped) {
  // A file whose only defect is one never-resumed unfinished call
  // produces exactly one warning; listing the file twice would repeat
  // it back to back — the builder collapses the run.
  const auto path = write_file(
      "dup_host1_1.st", "7  10:00:00.000000 read(3</p/f>, <unfinished ...>\n");
  const auto once = model::event_log_from_files({path});
  ASSERT_EQ(once.warnings().size(), 1u);
  EXPECT_EQ(once.warnings()[0], path + ": unfinished call never resumed: pid 7 read");

  const auto twice = model::event_log_from_files({path, path});
  EXPECT_EQ(twice.warnings(), once.warnings());

  // Distinct consecutive warnings are all kept.
  const auto other = write_file(
      "dup_host1_2.st", "9  10:00:00.000000 read(3</p/f>, <unfinished ...>\n");
  const auto mixed = model::event_log_from_files({path, other});
  EXPECT_EQ(mixed.warnings().size(), 2u);
}

TEST_F(MixedParallel, BadFileNameThrowsFirstInInputOrder) {
  const auto good = write_file("ok_host1_1.st", make_trace(10, false));
  const auto bad1 = write_file("nounderscore.st", make_trace(10, false));
  const auto bad2 = write_file("alsobad.st", make_trace(10, false));
  try {
    (void)model::event_log_from_files({good, bad1, bad2});
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_NE(std::string(e.what()).find("nounderscore"), std::string::npos) << e.what();
  }
}

// ---- EventLog ownership ------------------------------------------------

using EventLogLifetime = TempTraceDir;

TEST_F(EventLogLifetime, ViewsValidAfterAllIntermediatesDie) {
  const auto path = write_file("life_host1_7.st", make_trace(250, true));
  model::EventLog log = model::event_log_from_files({path});
  // Overwrite the file on disk: the log must not notice (mmap'd pages
  // are MAP_PRIVATE; the buffer object is owned by the log).
  write_file("life_host1_7.st", std::string(4096, 'X'));

  ASSERT_EQ(log.case_count(), 1u);
  const auto& c = log.cases()[0];
  EXPECT_EQ(c.id().cid, "life");
  ASSERT_GT(c.size(), 0u);
  for (const auto& e : c.events()) {
    EXPECT_EQ(e.cid, "life");
    EXPECT_EQ(e.host, "host1");
    EXPECT_FALSE(e.call.empty());
  }
}

TEST_F(EventLogLifetime, DerivedLogOutlivesSource) {
  const auto path = write_file("d_host1_8.st", make_trace(300, false));
  auto source = std::make_unique<model::EventLog>(model::event_log_from_files({path}));
  const std::size_t total = source->total_events();
  ASSERT_GT(total, 0u);

  model::EventLog reads = source->filter_events(
      [](const model::Event& e) { return e.call == "read"; });
  auto [scratch, rest] = reads.partition([](const model::Case&) { return true; });
  source.reset();  // the only named owner dies; adopted owners keep storage alive

  ASSERT_EQ(scratch.case_count(), 1u);
  for (const auto& e : scratch.cases()[0].events()) {
    EXPECT_EQ(e.call, "read");
    EXPECT_EQ(e.fp, "/p/data/f");
    EXPECT_EQ(e.cid, "d");
  }
}

TEST(SimulatedLogLifetime, EventLogOutlivesTraceSet) {
  iosim::IorOptions opt;
  opt.num_ranks = 4;
  opt.ranks_per_node = 2;
  opt.transfer_size = 1 << 18;
  opt.block_size = 1 << 20;
  opt.segments = 1;
  model::EventLog log;
  {
    const auto traces = iosim::run_ior(opt);
    log = traces.to_event_log();
  }  // TraceSet (and its RankTrace records) destroyed here
  ASSERT_GT(log.total_events(), 0u);
  bool saw_scratch = false;
  for (const auto& c : log.cases()) {
    for (const auto& e : c.events()) {
      EXPECT_FALSE(e.call.empty());
      if (e.fp == "/p/scratch/ssf/test") saw_scratch = true;
    }
  }
  EXPECT_TRUE(saw_scratch);
}

}  // namespace
}  // namespace st
