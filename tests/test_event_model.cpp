#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <string_view>
#include <vector>

#include "model/event_log.hpp"
#include "model/from_strace.hpp"
#include "strace/parser.hpp"
#include "support/errors.hpp"
#include "testing_util.hpp"

namespace st::model {
namespace {

using testing::ev;
using testing::make_case;

// ---- event_from_record (Sec. III extraction rules) --------------------

strace::RawRecord complete_read(std::int64_t retval) {
  return *strace::parse_line("9054  08:55:54.153994 read(3</p/f>, ..., 1024) = " +
                             std::to_string(retval) + " <0.000052>");
}

TEST(EventFromRecord, CopiesIdentityFromFileName) {
  const strace::TraceFileId id{"a", "host1", 9042};
  const auto e = event_from_record(id, complete_read(478));
  ASSERT_TRUE(e);
  EXPECT_EQ(e->cid, "a");
  EXPECT_EQ(e->host, "host1");
  EXPECT_EQ(e->rid, 9042u);
  EXPECT_EQ(e->pid, 9054u);  // differs from rid: forked child (Sec. III)
}

TEST(EventFromRecord, SizeFromReturnValueForTransfers) {
  const strace::TraceFileId id{"a", "h", 1};
  EXPECT_EQ(event_from_record(id, complete_read(478))->size, 478);
  EXPECT_EQ(event_from_record(id, complete_read(0))->size, 0);
}

TEST(EventFromRecord, FailedTransferHasNoSize) {
  const strace::TraceFileId id{"a", "h", 1};
  auto rec = *strace::parse_line(
      "1  10:00:00.000000 read(3</p/f>, ..., 8) = -1 EAGAIN (x) <0.000001>");
  EXPECT_EQ(event_from_record(id, rec)->size, -1);
}

TEST(EventFromRecord, NonTransferCallHasNoSize) {
  const strace::TraceFileId id{"a", "h", 1};
  auto rec = *strace::parse_line(
      "1  10:00:00.000000 lseek(3</p/f>, 100, SEEK_SET) = 100 <0.000001>");
  const auto e = event_from_record(id, rec);
  ASSERT_TRUE(e);
  EXPECT_EQ(e->size, -1);  // lseek's return is an offset, not bytes moved
  EXPECT_FALSE(e->has_size());
}

TEST(EventFromRecord, SignalsAreNotEvents) {
  const strace::TraceFileId id{"a", "h", 1};
  auto rec = *strace::parse_line("1  10:00:00.000000 --- SIGCHLD {} ---");
  EXPECT_FALSE(event_from_record(id, rec));
}

TEST(EventFromRecord, MissingDurationBecomesZero) {
  const strace::TraceFileId id{"a", "h", 1};
  auto rec = *strace::parse_line("1  10:00:00.000000 close(3</p/f>) = 0");
  EXPECT_EQ(event_from_record(id, rec)->dur, 0);
}

// ---- Case --------------------------------------------------------------

TEST(Case, SortsEventsByStart) {
  auto c = make_case("a", 1, {ev("read", "/b", 300, 5), ev("read", "/a", 100, 5),
                              ev("write", "/c", 200, 5)});
  ASSERT_EQ(c.size(), 3u);
  EXPECT_EQ(c.events()[0].fp, "/a");
  EXPECT_EQ(c.events()[1].fp, "/c");
  EXPECT_EQ(c.events()[2].fp, "/b");
}

TEST(Case, StableSortKeepsTiesInInputOrder) {
  auto c = make_case("a", 1, {ev("read", "/first", 100, 5), ev("read", "/second", 100, 5)});
  EXPECT_EQ(c.events()[0].fp, "/first");
  EXPECT_EQ(c.events()[1].fp, "/second");
}

TEST(Case, UnsortedInputStillStableSortsAndSortedInputIsKept) {
  // Sorted input skips the sort; anything else still gets the stable
  // sort, ties in input order.
  auto c = make_case("a", 1, {ev("read", "/c", 300, 5), ev("read", "/t1", 100, 5),
                              ev("write", "/t2", 100, 5), ev("read", "/a", 50, 5),
                              ev("read", "/t3", 100, 5)});
  std::vector<std::string_view> order;
  for (const Event& e : c.events()) order.push_back(e.fp);
  EXPECT_EQ(order, (std::vector<std::string_view>{"/a", "/t1", "/t2", "/t3", "/c"}));

  const auto sorted = make_case("a", 1, {ev("read", "/x", 100, 5), ev("read", "/y", 100, 5),
                                         ev("read", "/z", 200, 5)});
  order.clear();
  for (const Event& e : sorted.events()) order.push_back(e.fp);
  EXPECT_EQ(order, (std::vector<std::string_view>{"/x", "/y", "/z"}));
}

TEST(Case, FilteredKeepsOrder) {
  auto c = make_case("a", 1, {ev("read", "/a", 100, 5), ev("write", "/b", 200, 5),
                              ev("read", "/c", 300, 5)});
  const auto reads = c.filtered([](const Event& e) { return e.call == "read"; });
  ASSERT_EQ(reads.size(), 2u);
  EXPECT_EQ(reads.events()[0].fp, "/a");
  EXPECT_EQ(reads.events()[1].fp, "/c");
  EXPECT_EQ(reads.id(), c.id());
}

// ---- EventLog ------------------------------------------------------------

EventLog two_command_log() {
  EventLog log;
  log.add_case(make_case("a", 1, {ev("read", "/usr/lib/x", 0, 10, 832)}));
  log.add_case(make_case("a", 2, {ev("read", "/usr/lib/x", 5, 10, 832)}));
  log.add_case(make_case("b", 3, {ev("write", "/dev/pts/7", 20, 10, 50)}));
  return log;
}

TEST(EventLog, Counts) {
  const auto log = two_command_log();
  EXPECT_EQ(log.case_count(), 3u);
  EXPECT_EQ(log.total_events(), 3u);
}

TEST(EventLog, FindCase) {
  const auto log = two_command_log();
  ASSERT_NE(log.find_case(CaseId{"a", "host1", 2}), nullptr);
  EXPECT_EQ(log.find_case(CaseId{"z", "host1", 2}), nullptr);
}

TEST(EventLog, FilterFpKeepsMatchingEventsAndEmptyCases) {
  const auto filtered = two_command_log().filter_fp("/usr/lib");
  EXPECT_EQ(filtered.case_count(), 3u);  // cases survive, possibly empty
  EXPECT_EQ(filtered.total_events(), 2u);
}

TEST(EventLog, PartitionSplitsGreenRed) {
  const auto [green, red] =
      two_command_log().partition([](const Case& c) { return c.id().cid == "a"; });
  EXPECT_EQ(green.case_count(), 2u);
  EXPECT_EQ(red.case_count(), 1u);
}

TEST(EventLog, MergeUnionOfDisjointLogs) {
  EventLog a;
  a.add_case(make_case("a", 1, {ev("read", "/x", 0, 1)}));
  EventLog b;
  b.add_case(make_case("b", 2, {ev("read", "/y", 0, 1)}));
  const auto merged = EventLog::merge(a, b);
  EXPECT_EQ(merged.case_count(), 2u);
}

TEST(EventLog, MergeRejectsDuplicateCases) {
  EventLog a;
  a.add_case(make_case("a", 1, {ev("read", "/x", 0, 1)}));
  EXPECT_THROW((void)EventLog::merge(a, a), LogicError);
}

TEST(EventLog, MergeByMoveEqualsTheCopyingMerge) {
  const auto a = two_command_log();
  EventLog b;
  b.add_case(make_case("c", 4, {ev("read", "/y", 0, 1), ev("write", "/z", 3, 1)}));
  const auto copied = EventLog::merge(a, b);
  const auto moved = EventLog::merge(EventLog(a), EventLog(b));
  ASSERT_EQ(moved.case_count(), copied.case_count());
  for (std::size_t i = 0; i < copied.case_count(); ++i) {
    EXPECT_EQ(moved.cases()[i].id(), copied.cases()[i].id());
    EXPECT_TRUE(std::ranges::equal(moved.cases()[i].events(), copied.cases()[i].events()));
  }
}

TEST(EventLog, MergeByMoveRejectsDuplicatesWithTheSameErrorAndMovesNothing) {
  EventLog a;
  a.add_case(make_case("a", 1, {ev("read", "/x", 0, 1)}));
  EventLog b;
  b.add_case(make_case("b", 2, {ev("read", "/y", 0, 1)}));
  b.add_case(make_case("a", 1, {ev("write", "/z", 0, 1)}));
  std::string copied_error;
  try {
    (void)EventLog::merge(a, b);
  } catch (const LogicError& e) {
    copied_error = e.what();
  }
  EXPECT_EQ(copied_error, "logic error: EventLog::merge: duplicate case a_host1_1");
  try {
    (void)EventLog::merge(std::move(a), std::move(b));
    ADD_FAILURE() << "a duplicate case merged";
  } catch (const LogicError& e) {
    EXPECT_EQ(e.what(), copied_error);
  }
  // The check runs before anything moves.
  EXPECT_EQ(a.case_count(), 1u);
  EXPECT_EQ(b.case_count(), 2u);
}

TEST(CaseId, ToStringMatchesFileConvention) {
  EXPECT_EQ((CaseId{"a", "host1", 9042}.to_string()), "a_host1_9042");
}

}  // namespace
}  // namespace st::model
