#include <gtest/gtest.h>

#include "strace/parser.hpp"
#include "strace/reader.hpp"
#include "strace/writer.hpp"
#include "support/errors.hpp"

namespace st::strace {
namespace {

constexpr const char* kSmallTrace =
    "9054  08:55:54.153994 read(3</usr/lib/x86_64-linux-gnu/libselinux.so.1>, ..., 832) = 832 <0.000203>\n"
    "9054  08:55:54.156640 read(3</usr/lib/x86_64-linux-gnu/libc.so.6>, ..., 832) = 832 <0.000079>\n"
    "9054  08:55:54.176260 write(1</dev/pts/7>, ..., 50) = 50 <0.000111>\n";

TEST(Reader, ParsesAllLines) {
  const auto result = read_trace_text(kSmallTrace);
  EXPECT_TRUE(result.warnings.empty());
  ASSERT_EQ(result.records.size(), 3u);
  EXPECT_EQ(result.records[0].call, "read");
  EXPECT_EQ(result.records[2].call, "write");
}

TEST(Reader, MergesUnfinishedResumed) {
  const std::string text =
      "1  10:00:00.000001 read(3</a>, <unfinished ...>\n"
      "2  10:00:00.000002 write(4</b>, ..., 5) = 5 <0.000001>\n"
      "1  10:00:00.000007 <... read resumed> ..., 10) = 10 <0.000006>\n";
  const auto result = read_trace_text(text);
  ASSERT_EQ(result.records.size(), 2u);
  // Order of completion: the write completes first, then the merged read.
  EXPECT_EQ(result.records[0].call, "write");
  EXPECT_EQ(result.records[1].call, "read");
  EXPECT_EQ(result.records[1].duration, 6);
}

TEST(Reader, DropsRestartsByDefault) {
  const std::string text =
      "1  10:00:00.000001 read(3</a>, ..., 5) = -1 ERESTARTSYS (To be restarted) <0.000001>\n"
      "1  10:00:00.000002 read(3</a>, ..., 5) = 5 <0.000001>\n";
  const auto result = read_trace_text(text);
  ASSERT_EQ(result.records.size(), 1u);
  EXPECT_EQ(result.records[0].retval, 5);
}

TEST(Reader, DropsARestartSplitAcrossUnfinishedAndResumed) {
  const std::string text =
      "1  10:00:00.000001 read(3</a>, <unfinished ...>\n"
      "2  10:00:00.000002 read(4</b>, ..., 5) = 5 <0.000001>\n"
      "1  10:00:00.000003 <... read resumed> ) = ? ERESTARTSYS (To be restarted if SA_RESTART "
      "is set) <0.000010>\n";
  const auto result = read_trace_text(text);
  ASSERT_EQ(result.records.size(), 1u);
  EXPECT_EQ(result.records[0].pid, 2u);
  EXPECT_TRUE(result.warnings.empty());
}

TEST(Reader, DropsSignalsAndExitsByDefault) {
  const std::string text =
      "1  10:00:00.000001 --- SIGCHLD {} ---\n"
      "1  10:00:00.000002 +++ exited with 0 +++\n";
  const auto result = read_trace_text(text);
  EXPECT_TRUE(result.records.empty());
}

TEST(Reader, MalformedLineBecomesWarning) {
  const std::string text =
      "garbage line without pid\n"
      "1  10:00:00.000002 read(3</a>, ..., 5) = 5 <0.000001>\n";
  const auto result = read_trace_text(text);
  EXPECT_EQ(result.records.size(), 1u);
  ASSERT_EQ(result.warnings.size(), 1u);
  EXPECT_NE(result.warnings[0].find("line 1"), std::string::npos);
}

TEST(Reader, DanglingUnfinishedBecomesWarning) {
  const auto result = read_trace_text("1  10:00:00.000001 read(3</a>, <unfinished ...>\n");
  EXPECT_TRUE(result.records.empty());
  ASSERT_EQ(result.warnings.size(), 1u);
  EXPECT_NE(result.warnings[0].find("never resumed"), std::string::npos);
}

TEST(Reader, MissingFileThrows) {
  EXPECT_THROW((void)read_trace_file("/nonexistent/trace.st"), IoError);
}

TEST(Writer, FormatsCompleteRecord) {
  RawRecord rec;
  rec.pid = 9054;
  rec.timestamp = *parse_time_of_day("08:55:54.153994");
  rec.call = "read";
  rec.args = "3</usr/lib/libc.so.6>, \"\"..., 832";
  rec.retval = 832;
  rec.duration = 203;
  EXPECT_EQ(format_record(rec),
            "9054  08:55:54.153994 read(3</usr/lib/libc.so.6>, \"\"..., 832) = 832 <0.000203>");
}

TEST(Writer, RoundTripsThroughParser) {
  RawRecord rec;
  rec.pid = 77;
  rec.timestamp = *parse_time_of_day("10:00:00.000123");
  rec.call = "pwrite64";
  rec.args = "5</p/scratch/ssf/test>, \"\"..., 1048576, 33554432";
  rec.retval = 1048576;
  rec.duration = 294;

  const std::string line = format_record(rec);  // must outlive the record's views
  const auto reparsed = parse_line(line);
  ASSERT_TRUE(reparsed);
  EXPECT_EQ(reparsed->pid, rec.pid);
  EXPECT_EQ(reparsed->timestamp, rec.timestamp);
  EXPECT_EQ(reparsed->call, rec.call);
  EXPECT_EQ(reparsed->retval, rec.retval);
  EXPECT_EQ(reparsed->duration, rec.duration);
  EXPECT_EQ(reparsed->path, "/p/scratch/ssf/test");
  EXPECT_EQ(reparsed->requested, 1048576);
}

TEST(Writer, TraceTextRoundTripsThroughReader) {
  StringArena arena;
  std::vector<RawRecord> records;
  for (int i = 0; i < 10; ++i) {
    RawRecord rec;
    rec.pid = 50;
    rec.timestamp = 1000 + i * 100;
    rec.call = i % 2 == 0 ? "read" : "write";
    rec.args = arena.concat({"3</data/file>, \"\"..., ", std::to_string(512 * (i + 1))});
    rec.retval = 512 * (i + 1);
    rec.duration = 10 + i;
    records.push_back(rec);
  }
  const auto result = read_trace_text(format_trace(records));
  EXPECT_TRUE(result.warnings.empty());
  ASSERT_EQ(result.records.size(), records.size());
  for (std::size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(result.records[i].call, records[i].call);
    EXPECT_EQ(result.records[i].retval, records[i].retval);
    EXPECT_EQ(result.records[i].duration, records[i].duration);
    EXPECT_EQ(result.records[i].path, "/data/file");
  }
}

}  // namespace
}  // namespace st::strace
