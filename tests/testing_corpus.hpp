// Shared synthetic strace corpus for pipeline-level tests: reads with
// sizes and durations (the FP-sensitive rate samples), opens, writes,
// cross-line resume pairs, optional warning noise — plus a gtest
// fixture that writes it into a per-test temp directory as a small
// multi-host corpus.
//
// Also the sequential oracles the parallel paths are checked against:
// staged_log (the per-file sequential read + convert pipeline::run
// must reproduce) and read_streamed (the streamed reader on an explicit
// pool, for comparison with read_trace_buffer), and the exact-equality
// helpers: doubles are compared by BIT PATTERN (std::bit_cast),
// because the determinism contract is bit-identity, not approximate
// equality.
#pragma once

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "dfg/stats.hpp"
#include "model/event_log.hpp"
#include "model/from_strace.hpp"
#include "parallel/thread_pool.hpp"
#include "pipeline/sink.hpp"
#include "strace/filename.hpp"
#include "strace/reader.hpp"
#include "support/timeparse.hpp"

namespace st::testing {

/// Line `i` of the corpus's five-line cycle: a read, an openat, a
/// pwrite64, an unfinished read and its resumption. `noise` replaces
/// the unfinished read with a line the reader warns about.
inline std::string trace_line(std::size_t i, const std::string& pid, Micros t, bool noise) {
  const std::string prefix = pid + "  " + format_time_of_day(t);
  switch (i % 5) {
    case 0:
      return prefix + " read(3</p/data/f>, \"\"..., 512) = 512 <0.000040>\n";
    case 1:
      return prefix +
             " openat(AT_FDCWD, \"/p/scratch/ssf/test\", O_RDWR|O_CREAT, 0644) = 5 "
             "<0.000150>\n";
    case 2:
      return prefix +
             " pwrite64(5</p/scratch/ssf/test>, \"\"..., 1048576, 33554432) = 1048576 "
             "<0.000294>\n";
    case 3:
      return prefix + (noise ? " not_a_call_line\n" : " read(3</p/data/f>, <unfinished ...>\n");
    default:
      return prefix + " <... read resumed> \"\"..., 405) = 404 <0.000223>\n";
  }
}

/// A trace body over two alternating pids (so resume pairs cross pids
/// and the reader warns) and — when `with_noise` — malformed lines.
inline std::string make_trace(std::size_t lines, bool with_noise, std::uint64_t pid_base = 7) {
  std::string text;
  Micros t = 36000000000;  // 10:00:00
  for (std::size_t i = 0; i < lines; ++i) {
    t += 100;
    text += trace_line(i, std::to_string(pid_base + i % 2), t, with_noise && i % 15 == 3);
  }
  return text;
}

/// A clean trace: one pid, every unfinished/resumed pair matches, no
/// noise — parses without a single warning, so tests can inject
/// failures precisely where they want them.
inline std::string make_clean_trace(std::size_t lines, std::uint64_t pid) {
  std::string text;
  Micros t = 36000000000;  // 10:00:00
  for (std::size_t i = 0; i < lines; ++i) {
    t += 100;
    text += trace_line(i, std::to_string(pid), t, false);
  }
  return text;
}

/// The sequential reference for pipeline::run and event_log_from_files:
/// every file read by the sequential reader and converted in input
/// order, warnings prefixed with the path and consecutive duplicates
/// collapsed.
inline model::EventLog staged_log(const std::vector<std::string>& paths) {
  model::EventLog log;
  for (const auto& p : paths) {
    const auto id = strace::parse_trace_filename(p);
    EXPECT_TRUE(id.has_value()) << p;
    const auto result = strace::read_trace_file(p);
    log.add_case(model::case_from_records(*id, result.records, log.arena()));
    log.adopt(result.buffer);
    for (const auto& warning : result.warnings) {
      const std::string prefixed = p + ": " + warning;
      if (!log.warnings().empty() && log.warnings().back() == prefixed) continue;
      log.add_warning(prefixed);
    }
  }
  return log;
}

/// The streamed reader over `buffers` on its own `workers`-thread pool,
/// with chunks as small as `min_chunk_bytes` so every fold path runs.
/// Results come back in input order; the first failure is rethrown
/// like StreamedParse::wait().
inline std::vector<strace::ReadResult> read_streamed(
    std::vector<std::shared_ptr<strace::TraceBuffer>> buffers, std::size_t workers = 3,
    std::size_t min_chunk_bytes = 256) {
  ThreadPool pool(workers);
  strace::ParallelReadOptions opts;
  opts.pool = &pool;
  opts.min_chunk_bytes = min_chunk_bytes;
  std::vector<strace::ReadResult> results(buffers.size());
  strace::read_trace_buffers_streamed(
      std::move(buffers), opts,
      [&results](std::size_t i, strace::ReadResult&& r) { results[i] = std::move(r); })
      .wait();
  return results;
}

/// Per-test temp directory + the standard corpus: one big noisy file,
/// several small ones across two more hosts, plus an empty file (empty
/// case, empty variant). Derive and pass a unique `prefix`.
class CorpusTest : public ::testing::Test {
 protected:
  explicit CorpusTest(std::string prefix) : prefix_(std::move(prefix)) {}

  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           (prefix_ + "_" +
            std::to_string(::testing::UnitTest::GetInstance()->random_seed()) + "_" +
            std::to_string(reinterpret_cast<std::uintptr_t>(this)));
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string write_file(const std::string& name, const std::string& text) {
    const std::filesystem::path p = dir_ / name;
    std::ofstream out(p, std::ios::binary | std::ios::trunc);
    out << text;
    return p.string();
  }

  std::vector<std::string> make_corpus() {
    std::vector<std::string> paths;
    paths.push_back(write_file("big_nodeA_9001.st", make_trace(900, true)));
    for (int i = 0; i < 4; ++i) {
      paths.push_back(write_file(
          "s" + std::to_string(i) + "_node" + (i % 2 ? "B" : "C") + "_" +
              std::to_string(9100 + i) + ".st",
          make_trace(30 + static_cast<std::size_t>(i) * 7, i % 2 == 0,
                     static_cast<std::uint64_t>(100 + i))));
    }
    paths.push_back(write_file("empty_nodeA_9200.st", ""));
    return paths;
  }

  std::filesystem::path dir_;
  std::string prefix_;
};

/// Bitwise double equality.
/// EXPECT_EQ on doubles would pass for -0.0 vs +0.0; the bit pattern
/// may not.
inline void expect_same_bits(double a, double b, const std::string& what) {
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a), std::bit_cast<std::uint64_t>(b))
      << what << ": " << a << " vs " << b;
}

/// Field-by-field IoStatistics equality with bit-exact doubles,
/// including the rendered labels the reports embed.
inline void expect_same_io_stats(const dfg::IoStatistics& a, const dfg::IoStatistics& b) {
  EXPECT_EQ(a.total_duration(), b.total_duration());
  ASSERT_EQ(a.per_activity().size(), b.per_activity().size());
  auto ita = a.per_activity().begin();
  auto itb = b.per_activity().begin();
  for (; ita != a.per_activity().end(); ++ita, ++itb) {
    ASSERT_EQ(ita->first, itb->first);
    const dfg::ActivityStat& sa = ita->second;
    const dfg::ActivityStat& sb = itb->second;
    EXPECT_EQ(sa.total_dur, sb.total_dur) << ita->first;
    expect_same_bits(sa.rel_dur, sb.rel_dur, "rel_dur of " + ita->first);
    EXPECT_EQ(sa.bytes, sb.bytes) << ita->first;
    EXPECT_EQ(sa.has_bytes, sb.has_bytes) << ita->first;
    expect_same_bits(sa.mean_rate, sb.mean_rate, "mean_rate of " + ita->first);
    EXPECT_EQ(sa.rate_samples, sb.rate_samples) << ita->first;
    EXPECT_EQ(sa.max_concurrency, sb.max_concurrency) << ita->first;
    EXPECT_EQ(sa.rank_count, sb.rank_count) << ita->first;
    EXPECT_EQ(sa.event_count, sb.event_count) << ita->first;
    EXPECT_EQ(sa.load_label(), sb.load_label()) << ita->first;
    EXPECT_EQ(sa.dr_label(), sb.dr_label()) << ita->first;
  }
}

/// Case-by-case, event-by-event EventLog equality (EventLog itself has
/// no operator== — views make that a trap).
inline void expect_same_log(const model::EventLog& a, const model::EventLog& b) {
  ASSERT_EQ(a.case_count(), b.case_count());
  for (std::size_t c = 0; c < a.case_count(); ++c) {
    const auto& ca = a.cases()[c];
    const auto& cb = b.cases()[c];
    ASSERT_EQ(ca.id(), cb.id()) << "case " << c;
    ASSERT_EQ(ca.size(), cb.size()) << "case " << c;
    for (std::size_t i = 0; i < ca.size(); ++i) {
      ASSERT_EQ(ca.events()[i], cb.events()[i]) << "case " << c << " event " << i;
    }
  }
  EXPECT_EQ(a.warnings(), b.warnings());
}

/// The cases of `sources`, in order, decoded through their cursors into
/// one log (whose events view the sources' storage).
inline model::EventLog decoded_log(std::span<const pipeline::CaseSource* const> sources) {
  model::EventLog log;
  for (const pipeline::CaseSource* source : sources) {
    const auto cursor = source->cursor();
    for (std::size_t i = 0; i < source->case_count(); ++i) log.add_case(cursor->load(i));
  }
  return log;
}

}  // namespace st::testing
