// Parallel-vs-sequential ingestion equivalence and the TraceBuffer
// lifetime contract.
//
// The streamed reader (read_trace_buffers_streamed) promises output
// byte-identical to read_trace_buffer: same records in the same order,
// same warning strings. The corpus
// generator below is adversarial on purpose — multi-PID interleaved
// unfinished/resumed pairs (often spanning chunk boundaries),
// overwritten unfinished records, resumed records with no match,
// call-name mismatches, signals, exits, ERESTARTSYS (whole and split
// across unfinished/resumed halves), malformed and blank lines — and
// the streamed reader runs on an explicit pool with 256-byte chunks so
// halves straddle chunk boundaries.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "strace/reader.hpp"
#include "strace/writer.hpp"
#include "support/errors.hpp"
#include "support/rng.hpp"
#include "support/timeparse.hpp"
#include "testing_corpus.hpp"

namespace st::strace {
namespace {

using testing::read_streamed;

std::string ts(Micros t) { return format_time_of_day(t); }

/// Deterministic adversarial trace: six pids, every merger code path.
std::string make_corpus(std::uint64_t seed, std::size_t lines) {
  Xoshiro256 rng(seed);
  std::string text;
  text.reserve(lines * 90);
  // Per-pid pending call name ("" = nothing pending).
  std::vector<std::string> pending(6);
  Micros t = 36000000000;  // 10:00:00
  for (std::size_t i = 0; i < lines; ++i) {
    t += static_cast<Micros>(1 + rng.below(300));
    const std::uint64_t pid = 1 + rng.below(6);
    auto& open_call = pending[pid - 1];
    const std::string pid_ts = std::to_string(pid) + "  " + ts(t) + " ";
    switch (rng.below(12)) {
      case 0:  // complete read with fd annotation
        text += pid_ts + "read(3</p/data/file" + std::to_string(rng.below(4)) +
                ">, \"\"..., 4096) = " + std::to_string(rng.below(4097)) + " <0.000040>\n";
        break;
      case 1:  // openat with quoted path + annotated return
        text += pid_ts + "openat(AT_FDCWD, \"rel/file\", O_RDONLY) = 5</p/abs/file> <0.000150>\n";
        break;
      case 2:  // ERESTARTSYS (always dropped, a Sec. III rule)
        text += pid_ts + "read(3</p/f>, \"\"..., 100) = -1 ERESTARTSYS (To be restarted) <0.000005>\n";
        break;
      case 3:  // signal
        text += pid_ts + "--- SIGCHLD {si_signo=SIGCHLD, si_code=CLD_EXITED} ---\n";
        break;
      case 4:  // exit
        text += pid_ts + "+++ exited with 0 +++\n";
        break;
      case 5:  // malformed: no parenthesis
        text += pid_ts + "not_a_call_line\n";
        break;
      case 6:  // malformed: unbalanced parens
        text += pid_ts + "read(3</p/f>, \"\"..., 100 = 100\n";
        break;
      case 7:  // blank line
        text += "\n";
        break;
      case 8: {  // resumed — matches, mismatches its name, is interrupted, or dangles
        const std::uint64_t roll = open_call.empty() ? 4 : rng.below(4);
        if (roll == 0) {
          text += pid_ts + "<... mismatched_call resumed> \"\"..., 512) = 512 <0.000080>\n";
          open_call.clear();
        } else if (roll == 1) {  // merges, then dropped by the ERESTARTSYS rule
          text += pid_ts + "<... " + open_call +
                  " resumed> ) = ? ERESTARTSYS (To be restarted if SA_RESTART is set) "
                  "<0.000010>\n";
          open_call.clear();
        } else {
          text += pid_ts + "<... " + (open_call.empty() ? std::string("read") : open_call) +
                  " resumed> \"\"..., 512) = 499 <0.000080>\n";
          open_call.clear();
        }
        break;
      }
      case 9:   // unfinished (may silently overwrite an earlier one)
      case 10: {
        const bool write = rng.below(2) == 0;
        open_call = write ? "write" : "read";
        text += pid_ts + open_call + "(4</p/shared/out" + std::to_string(pid) +
                ">, \"\"..., " + (write ? "8192, " : "") + "<unfinished ...>\n";
        break;
      }
      default:  // pwrite64 with offset (third-argument size rule)
        text += pid_ts + "pwrite64(5</p/scratch/ssf/test>, \"\"..., 1048576, 33554432) = "
                "1048576 <0.000294>\n";
        break;
    }
  }
  return text;
}

void expect_same_records(const ReadResult& seq, const ReadResult& par) {
  ASSERT_EQ(seq.records.size(), par.records.size());
  for (std::size_t i = 0; i < seq.records.size(); ++i) {
    const RawRecord& a = seq.records[i];
    const RawRecord& b = par.records[i];
    ASSERT_EQ(a.pid, b.pid) << "record " << i;
    ASSERT_EQ(a.timestamp, b.timestamp) << "record " << i;
    ASSERT_EQ(a.kind, b.kind) << "record " << i;
    ASSERT_EQ(a.call, b.call) << "record " << i;
    ASSERT_EQ(a.args, b.args) << "record " << i;
    ASSERT_EQ(a.fd, b.fd) << "record " << i;
    ASSERT_EQ(a.path, b.path) << "record " << i;
    ASSERT_EQ(a.retval, b.retval) << "record " << i;
    ASSERT_EQ(a.errno_name, b.errno_name) << "record " << i;
    ASSERT_EQ(a.duration, b.duration) << "record " << i;
    ASSERT_EQ(a.requested, b.requested) << "record " << i;
    // Full line formatting must also agree byte for byte.
    ASSERT_EQ(format_record(a), format_record(b)) << "record " << i;
  }
}

/// One text through the streamed reader (tiny chunks on `workers`).
ReadResult read_text_streamed(std::string_view text, std::size_t workers = 3) {
  return std::move(
      read_streamed({std::make_shared<TraceBuffer>(std::string(text))}, workers).front());
}

TEST(ParallelReader, EquivalentOnAdversarialCorpusAt1234Workers) {
  for (const std::uint64_t seed : {1ULL, 7ULL, 42ULL, 1234ULL}) {
    const std::string text = make_corpus(seed, 600);
    const auto seq = read_trace_text(text);
    ASSERT_FALSE(seq.warnings.empty()) << "seed " << seed;  // the corpus is adversarial
    for (const std::size_t workers : {1u, 2u, 3u, 4u}) {
      const auto par = read_text_streamed(text, workers);
      expect_same_records(seq, par);
      EXPECT_EQ(seq.warnings, par.warnings) << "seed " << seed << ", workers " << workers;
    }
  }
}

TEST(ParallelReader, ManyBuffersShareOneWorkQueue) {
  // Every adversarial corpus in ONE streamed call: (buffer, chunk)
  // tasks of all files interleave on the pool, and each file still
  // matches its own sequential read.
  std::vector<std::string> texts;
  std::vector<std::shared_ptr<TraceBuffer>> buffers;
  for (const std::uint64_t seed : {3ULL, 5ULL, 11ULL, 13ULL, 17ULL}) {
    texts.push_back(make_corpus(seed, 150 + seed * 40));
    buffers.push_back(std::make_shared<TraceBuffer>(texts.back()));
  }
  const auto par = read_streamed(std::move(buffers));
  ASSERT_EQ(par.size(), texts.size());
  for (std::size_t i = 0; i < texts.size(); ++i) {
    const auto seq = read_trace_text(texts[i]);
    expect_same_records(seq, par[i]);
    EXPECT_EQ(seq.warnings, par[i].warnings) << "buffer " << i;
  }
}

TEST(ParallelReader, EquivalentOnCleanSingleChunkAndManyChunks) {
  // A clean trace (no warnings) across chunk-count extremes.
  std::string text;
  for (int i = 0; i < 500; ++i) {
    text += "7  " + ts(36000000000 + i * 100) + " read(3</p/f>, \"\"..., 512) = 512 <0.000040>\n";
  }
  const auto seq = read_trace_text(text);
  for (const std::size_t chunk_bytes : {std::size_t{1} << 20, std::size_t{128}}) {
    const auto par = std::move(
        read_streamed({std::make_shared<TraceBuffer>(text)}, 2, chunk_bytes).front());
    expect_same_records(seq, par);
    EXPECT_TRUE(par.warnings.empty());
  }
}

TEST(ParallelReader, CrossChunkResumePairsMerge) {
  // One unfinished/resumed pair per pid, separated by enough filler
  // that a 256-byte chunking always splits the pair across chunks.
  std::string text;
  Micros t = 36000000000;
  text += "1  " + ts(t += 10) + " read(3</p/a>, <unfinished ...>\n";
  text += "2  " + ts(t += 10) + " write(4</p/b>, \"\"..., 8192, <unfinished ...>\n";
  text += "3  " + ts(t += 10) + " read(5</p/c>, <unfinished ...>\n";
  for (int i = 0; i < 40; ++i) {
    text += "9  " + ts(t += 10) + " read(3</p/f>, \"\"..., 512) = 512 <0.000040>\n";
  }
  text += "1  " + ts(t += 10) + " <... read resumed> \"\"..., 405) = 404 <0.000223>\n";
  text += "2  " + ts(t += 10) + " <... write resumed> ) = 8192 <0.000100>\n";
  text += "3  " + ts(t += 10) +
          " <... read resumed> ) = ? ERESTARTSYS (To be restarted if SA_RESTART is set) "
          "<0.000010>\n";
  const auto seq = read_trace_text(text);
  const auto par = read_text_streamed(text);
  EXPECT_TRUE(seq.warnings.empty());
  expect_same_records(seq, par);
  EXPECT_EQ(seq.warnings, par.warnings);
  // The merged pairs really did merge (with the unfinished timestamps).
  const auto merged_read = std::find_if(par.records.begin(), par.records.end(),
                                        [](const RawRecord& r) { return r.pid == 1; });
  ASSERT_NE(merged_read, par.records.end());
  EXPECT_EQ(merged_read->kind, RecordKind::Complete);
  EXPECT_EQ(merged_read->retval, 404);
  EXPECT_EQ(merged_read->path, "/p/a");
  // The interrupted pair merged and was dropped (Sec. III).
  EXPECT_TRUE(std::none_of(par.records.begin(), par.records.end(),
                           [](const RawRecord& r) { return r.pid == 3; }));
}

TEST(TraceBufferLifetime, RecordsOutliveTheSourceString) {
  ReadResult result;
  {
    // Includes an escaped path, so both the text-view and the
    // arena-decoded cases are covered.
    std::string text =
        "1  10:00:00.000001 openat(AT_FDCWD, \"/p/a\\nb\", O_RDONLY) = 3 <0.000010>\n"
        "1  10:00:00.000002 read(3</p/data/f>, \"\"..., 512) = 512 <0.000040>\n";
    result = read_trace_text(text);
    // Scribble over and destroy the source: records must not notice,
    // because read_trace_text copied the bytes into result.buffer.
    std::fill(text.begin(), text.end(), 'X');
  }
  ASSERT_EQ(result.records.size(), 2u);
  EXPECT_EQ(result.records[0].call, "openat");
  EXPECT_EQ(result.records[0].path, "/p/a\nb");  // decoded into the buffer's arena
  EXPECT_EQ(result.records[1].call, "read");
  EXPECT_EQ(result.records[1].path, "/p/data/f");
}

TEST(TraceBufferLifetime, RecordsFollowAMovedResult) {
  std::vector<ReadResult> results;
  {
    const std::string text =
        "1  10:00:00.000001 read(3</p/a>, <unfinished ...>\n"
        "1  10:00:00.000002 <... read resumed> \"\"..., 405) = 404 <0.000223>\n";
    results.push_back(read_trace_text(text));
  }
  for (int i = 0; i < 8; ++i) {  // force reallocations of the holder
    results.push_back(ReadResult{});
  }
  const ReadResult& moved = results.front();
  ASSERT_EQ(moved.records.size(), 1u);
  // The merged args are arena-backed; the buffer travelled with the
  // result, so the view is still alive.
  EXPECT_EQ(moved.records[0].args, "3</p/a>, \"\"..., 405");
  EXPECT_EQ(moved.records[0].path, "/p/a");
  EXPECT_EQ(moved.records[0].retval, 404);
}

TEST(TraceBufferLifetime, SharedBufferServesManyReads) {
  std::string text;
  for (int i = 0; i < 50; ++i) {
    text += "7  " + ts(36000000000 + i * 100) + " read(3</p/f>, \"\"..., 512) = 512 <0.000040>\n";
  }
  auto buffer = std::make_shared<TraceBuffer>(text);
  const auto a = read_trace_buffer(buffer);
  const auto b = std::move(read_streamed({buffer}).front());
  expect_same_records(a, b);
  // Both results share the same byte storage: zero-copy means the
  // sequential records literally point into the buffer's text.
  const char* base = buffer->text().data();
  const char* end = base + buffer->text().size();
  EXPECT_TRUE(a.records[0].call.data() >= base && a.records[0].call.data() < end);
}

}  // namespace
}  // namespace st::strace
