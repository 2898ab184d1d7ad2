#include "strace/parser.hpp"

#include <gtest/gtest.h>

#include <string>

#include "support/errors.hpp"

namespace st::strace {
namespace {

// ---- complete records (Fig. 2a/2b verbatim lines) ---------------------

TEST(ParseLine, Fig2aReadLine) {
  const auto rec = parse_line(
      "9054  08:55:54.153994 read(3</usr/lib/x86_64-linux-gnu/libselinux.so.1>, ..., 832) "
      "= 832 <0.000203>");
  ASSERT_TRUE(rec);
  EXPECT_EQ(rec->pid, 9054u);
  EXPECT_EQ(rec->kind, RecordKind::Complete);
  EXPECT_EQ(rec->call, "read");
  EXPECT_EQ(rec->path, "/usr/lib/x86_64-linux-gnu/libselinux.so.1");
  EXPECT_EQ(rec->fd, 3);
  EXPECT_EQ(rec->retval, 832);
  EXPECT_EQ(rec->duration, 203);
  EXPECT_EQ(rec->requested, 832);
}

TEST(ParseLine, Fig2aShortRead) {
  const auto rec =
      parse_line("9054  08:55:54.162874 read(3</proc/filesystems>, ..., 1024) = 478 <0.000052>");
  ASSERT_TRUE(rec);
  EXPECT_EQ(rec->retval, 478);      // transferred
  EXPECT_EQ(rec->requested, 1024);  // requested differs (Sec. III rule 6)
}

TEST(ParseLine, Fig2aZeroRead) {
  const auto rec =
      parse_line("9054  08:55:54.163049 read(3</proc/filesystems>, \"\", 1024) = 0 <0.000040>");
  ASSERT_TRUE(rec);
  EXPECT_EQ(rec->retval, 0);
}

TEST(ParseLine, Fig2bWriteToTty) {
  const auto rec = parse_line("9173  08:56:04.758661 write(1</dev/pts/7>, ..., 9) = 9 <0.000074>");
  ASSERT_TRUE(rec);
  EXPECT_EQ(rec->call, "write");
  EXPECT_EQ(rec->fd, 1);
  EXPECT_EQ(rec->path, "/dev/pts/7");
}

TEST(ParseLine, QuotedPayloadWithCommasAndParens) {
  const auto rec = parse_line(
      R"(100  01:02:03.000001 write(1</dev/pts/0>, "a,b)c\n", 6) = 6 <0.000010>)");
  ASSERT_TRUE(rec);
  EXPECT_EQ(rec->retval, 6);
  EXPECT_EQ(rec->requested, 6);
}

TEST(ParseLine, OpenatPathFromQuotedArg) {
  const auto rec = parse_line(
      R"(42  10:00:00.000000 openat(AT_FDCWD, "/p/scratch/ssf/test", O_RDWR|O_CREAT, 0644) = 5 <0.000150>)");
  ASSERT_TRUE(rec);
  EXPECT_EQ(rec->call, "openat");
  EXPECT_EQ(rec->path, "/p/scratch/ssf/test");
  EXPECT_EQ(rec->retval, 5);
}

TEST(ParseLine, OpenatAnnotatedReturnPathWins) {
  const auto rec = parse_line(
      R"(42  10:00:00.000000 openat(AT_FDCWD, "test", O_RDONLY) = 5</p/resolved/test> <0.000020>)");
  ASSERT_TRUE(rec);
  EXPECT_EQ(rec->retval, 5);
  // Quoted arg path was relative; the -y resolved path is available.
  EXPECT_EQ(rec->path, "test");  // first extraction wins; annotation fills only if empty
}

TEST(ParseLine, OpenAbsolutePathFirstArg) {
  const auto rec =
      parse_line(R"(42  10:00:00.000000 open("/etc/passwd", O_RDONLY) = 3 <0.000010>)");
  ASSERT_TRUE(rec);
  EXPECT_EQ(rec->path, "/etc/passwd");
}

TEST(ParseLine, LseekRecord) {
  const auto rec = parse_line(
      "42  10:00:00.000000 lseek(5</p/scratch/ssf/test>, 16777216, SEEK_SET) = 16777216 "
      "<0.000002>");
  ASSERT_TRUE(rec);
  EXPECT_EQ(rec->call, "lseek");
  EXPECT_EQ(rec->retval, 16777216);
  EXPECT_EQ(rec->path, "/p/scratch/ssf/test");
}

TEST(ParseLine, Pwrite64Record) {
  const auto rec = parse_line(
      "42  10:00:00.000000 pwrite64(5</p/scratch/ssf/test>, \"\"..., 1048576, 33554432) = "
      "1048576 <0.000294>");
  ASSERT_TRUE(rec);
  EXPECT_EQ(rec->call, "pwrite64");
  EXPECT_EQ(rec->requested, 1048576);
  EXPECT_EQ(rec->retval, 1048576);
  EXPECT_TRUE(rec->is_data_transfer());
}

TEST(ParseLine, NegativeReturnWithErrno) {
  const auto rec = parse_line(
      "42  10:00:00.000000 read(3</p/f>, ..., 100) = -1 EAGAIN (Resource temporarily "
      "unavailable) <0.000005>");
  ASSERT_TRUE(rec);
  EXPECT_EQ(rec->retval, -1);
  EXPECT_EQ(rec->errno_name, "EAGAIN");
  EXPECT_FALSE(rec->is_restart());
}

TEST(ParseLine, RestartedCallFlagged) {
  // strace prints an interrupted call's return as "?"; "-1" is kept
  // for hand-written traces.
  for (const std::string_view line :
       {"42  10:00:00.000000 read(3</p/f>, ..., 100) = -1 ERESTARTSYS (To be restarted) "
        "<0.000005>",
        "42  10:00:00.000000 read(3</p/f>, ..., 100) = ? ERESTARTSYS (To be restarted if "
        "SA_RESTART is set) <0.000005>"}) {
    const auto rec = parse_line(line);
    ASSERT_TRUE(rec) << line;
    EXPECT_TRUE(rec->is_restart()) << line;
  }
}

TEST(ParseLine, QuestionMarkReturn) {
  const auto rec = parse_line("42  10:00:00.000000 exit_group(0) = ?");
  ASSERT_TRUE(rec);
  EXPECT_FALSE(rec->retval);
}

TEST(ParseLine, NoDurationIsNullopt) {
  const auto rec = parse_line("42  10:00:00.000000 close(3</p/f>) = 0");
  ASSERT_TRUE(rec);
  EXPECT_FALSE(rec->duration);
}

// ---- unfinished / resumed (Fig. 2c) -----------------------------------

TEST(ParseLine, UnfinishedRecord) {
  const auto rec = parse_line(
      "77423  16:56:40.452431 read(3</usr/lib/x86_64-linux-gnu/libselinux.so.1>, "
      "<unfinished ...>");
  ASSERT_TRUE(rec);
  EXPECT_EQ(rec->kind, RecordKind::Unfinished);
  EXPECT_EQ(rec->call, "read");
  EXPECT_EQ(rec->path, "/usr/lib/x86_64-linux-gnu/libselinux.so.1");
}

TEST(ParseLine, ResumedRecord) {
  const auto rec = parse_line("77423  16:56:40.452660 <... read resumed> ..., 405) = 404 <0.000223>");
  ASSERT_TRUE(rec);
  EXPECT_EQ(rec->kind, RecordKind::Resumed);
  EXPECT_EQ(rec->call, "read");
  EXPECT_EQ(rec->retval, 404);
  EXPECT_EQ(rec->duration, 223);
}

TEST(Merger, Fig2cPairMergesIntoOneRecord) {
  ResumeMerger merger;
  std::string problem;
  auto unfinished = parse_line(
      "77423  16:56:40.452431 read(3</usr/lib/x86_64-linux-gnu/libselinux.so.1>, "
      "<unfinished ...>");
  auto resumed =
      parse_line("77423  16:56:40.452660 <... read resumed> ..., 405) = 404 <0.000223>");
  EXPECT_FALSE(merger.feed(std::move(*unfinished), problem));
  const auto merged = merger.feed(std::move(*resumed), problem);
  ASSERT_TRUE(merged);
  EXPECT_TRUE(problem.empty());
  EXPECT_EQ(merged->kind, RecordKind::Complete);
  // Start from the unfinished part, result from the resumed part.
  EXPECT_EQ(merged->timestamp, *parse_time_of_day("16:56:40.452431"));
  EXPECT_EQ(merged->retval, 404);
  EXPECT_EQ(merged->duration, 223);
  EXPECT_EQ(merged->path, "/usr/lib/x86_64-linux-gnu/libselinux.so.1");
  EXPECT_EQ(merged->requested, 405);
}

TEST(Merger, InterleavedPidsMatchCorrectly) {
  ResumeMerger merger;
  std::string problem;
  (void)merger.feed(*parse_line("1  10:00:00.000001 read(3</a>, <unfinished ...>"), problem);
  (void)merger.feed(*parse_line("2  10:00:00.000002 write(4</b>, <unfinished ...>"), problem);
  const auto m2 = merger.feed(
      *parse_line("2  10:00:00.000005 <... write resumed> , 7) = 7 <0.000003>"), problem);
  ASSERT_TRUE(m2);
  EXPECT_EQ(m2->call, "write");
  EXPECT_EQ(m2->path, "/b");
  const auto m1 = merger.feed(
      *parse_line("1  10:00:00.000009 <... read resumed> , 5) = 5 <0.000008>"), problem);
  ASSERT_TRUE(m1);
  EXPECT_EQ(m1->call, "read");
  EXPECT_EQ(m1->path, "/a");
}

TEST(Merger, ResumedWithoutUnfinishedIsAProblem) {
  ResumeMerger merger;
  std::string problem;
  EXPECT_FALSE(merger.feed(
      *parse_line("9  10:00:00.000000 <... read resumed> , 5) = 5 <0.000001>"), problem));
  EXPECT_EQ(problem,
            "parse error: resumed record for pid 9 without matching unfinished record");
}

TEST(Merger, CallNameMismatchIsAProblem) {
  ResumeMerger merger;
  std::string problem;
  (void)merger.feed(*parse_line("5  10:00:00.000000 read(3</a>, <unfinished ...>"), problem);
  EXPECT_FALSE(merger.feed(
      *parse_line("5  10:00:00.000001 <... write resumed> , 5) = 5 <0.000001>"), problem));
  EXPECT_EQ(problem,
            "parse error: resumed call 'write' does not match unfinished 'read' for pid 5");
  // The mismatched half is dropped: nothing is left pending.
  EXPECT_TRUE(merger.take_pending().empty());
}

TEST(Merger, TakePendingReturnsDanglingCalls) {
  ResumeMerger merger;
  std::string problem;
  (void)merger.feed(*parse_line("5  10:00:00.000000 read(3</a>, <unfinished ...>"), problem);
  const auto pending = merger.take_pending();
  ASSERT_EQ(pending.size(), 1u);
  EXPECT_EQ(pending.front().call, "read");
  EXPECT_TRUE(merger.take_pending().empty());
}

TEST(Merger, CompleteRecordsPassThrough) {
  ResumeMerger merger;
  std::string problem = "stale";
  const auto rec =
      merger.feed(*parse_line("5  10:00:00.000000 close(3</a>) = 0 <0.000004>"), problem);
  EXPECT_TRUE(problem.empty());  // a clean feed clears the last verdict
  ASSERT_TRUE(rec);
  EXPECT_EQ(rec->call, "close");
}

// ---- signals and exits -------------------------------------------------

TEST(ParseLine, SignalRecord) {
  const auto rec = parse_line(
      "9054  08:55:54.200000 --- SIGCHLD {si_signo=SIGCHLD, si_code=CLD_EXITED} ---");
  ASSERT_TRUE(rec);
  EXPECT_EQ(rec->kind, RecordKind::Signal);
  EXPECT_EQ(rec->call, "SIGCHLD");
}

TEST(ParseLine, ExitRecord) {
  const auto rec = parse_line("9054  08:55:54.300000 +++ exited with 0 +++");
  ASSERT_TRUE(rec);
  EXPECT_EQ(rec->kind, RecordKind::Exit);
}

// ---- malformed input ---------------------------------------------------

TEST(ParseLine, BlankLineIsNullopt) {
  EXPECT_FALSE(parse_line(""));
  EXPECT_FALSE(parse_line("   "));
}

TEST(ParseLine, MissingPidThrows) {
  EXPECT_THROW((void)parse_line("read(3, x, 1) = 1"), ParseError);
}

TEST(ParseLine, MissingTimestampThrows) {
  EXPECT_THROW((void)parse_line("9054 read(3, x, 1) = 1"), ParseError);
}

TEST(ParseLine, UnbalancedParensThrows) {
  EXPECT_THROW((void)parse_line("9054  08:55:54.153994 read(3, x, 1 = 1"), ParseError);
}

TEST(ParseLine, MissingEqualsThrows) {
  EXPECT_THROW((void)parse_line("9054  08:55:54.153994 read(3, x, 1) 1"), ParseError);
}

TEST(ParseLine, HexPointerReturnHasNoSize) {
  const auto rec =
      parse_line("9  10:00:00.000000 mmap(NULL, 8192, PROT_READ, MAP_PRIVATE, 3</a>, 0) = "
                 "0x7f1200000000 <0.000007>");
  ASSERT_TRUE(rec);
  EXPECT_FALSE(rec->retval);
}

TEST(ParseLine, NonRwThirdNumericArgNotMisreadAsSize) {
  // fallocate(fd, mode, offset, len): the third argument is an offset,
  // not a byte count — the rw-family third-argument rule must not
  // apply, leaving the last numeric argument (the length).
  const auto rec =
      parse_line("1  10:00:00.000000 fallocate(3</a>, 0, 0, 1048576) = 0 <0.000010>");
  ASSERT_TRUE(rec);
  EXPECT_EQ(rec->requested, 1048576);
}

TEST(ParseLine, VectoredIoLeavesRequestedUnset) {
  // preadv's third argument is iovcnt; the byte sizes live inside the
  // iovec dump, so no requested count is extractable.
  const auto rec = parse_line(
      "1  10:00:00.000000 preadv(3</a>, [{iov_base=..., iov_len=4096}], 2, 8192) = 4096 "
      "<0.000010>");
  ASSERT_TRUE(rec);
  EXPECT_FALSE(rec->requested);
  EXPECT_TRUE(rec->is_data_transfer());
}

TEST(ParseLine, DataTransferClassification) {
  EXPECT_TRUE(parse_line("1  10:00:00.000000 readv(3</a>, [], 2) = 10 <0.000001>")->is_data_transfer());
  EXPECT_TRUE(parse_line("1  10:00:00.000000 pwritev(3</a>, [], 2, 0) = 10 <0.000001>")
                  ->is_data_transfer());
  EXPECT_FALSE(parse_line("1  10:00:00.000000 lseek(3</a>, 0, SEEK_SET) = 0 <0.000001>")
                   ->is_data_transfer());
  EXPECT_FALSE(
      parse_line("1  10:00:00.000000 openat(AT_FDCWD, \"/a\", O_RDONLY) = 3 <0.000001>")
          ->is_data_transfer());
}

}  // namespace
}  // namespace st::strace
