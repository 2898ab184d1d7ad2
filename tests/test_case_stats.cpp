#include "model/case_stats.hpp"

#include <gtest/gtest.h>

#include "iosim/commands.hpp"
#include "testing_util.hpp"

namespace st::model {
namespace {

using testing::ev;
using testing::make_case;

EventLog sample() {
  EventLog log;
  log.add_case(make_case("a", 1, {
                                     ev("openat", "/p/f", 0, 25, -1),
                                     ev("read", "/p/f", 100, 50, 1024),
                                     ev("pwrite64", "/p/f", 200, 60, 2048),
                                     ev("write", "/p/f", 300, 40, 512),
                                 }));
  log.add_case(make_case("b", 2, {}));
  return log;
}

TEST(CaseStats, CountsAndBytes) {
  const auto summaries = summarize_cases(sample());
  ASSERT_EQ(summaries.size(), 2u);
  const auto& s = summaries[0];
  EXPECT_EQ(s.events, 4u);
  EXPECT_EQ(s.calls.at("openat"), 1u);
  EXPECT_EQ(s.calls.at("read"), 1u);
  EXPECT_EQ(s.bytes_read, 1024);
  EXPECT_EQ(s.bytes_written, 2048 + 512);  // pwrite64 counts as a write
  EXPECT_EQ(s.total_dur, 25 + 50 + 60 + 40);
}

TEST(CaseStats, SpanFromFirstStartToLastEnd) {
  const auto summaries = summarize_cases(sample());
  EXPECT_EQ(summaries[0].first_start, 0);
  EXPECT_EQ(summaries[0].last_end, 340);
  EXPECT_EQ(summaries[0].span(), 340);
}

TEST(CaseStats, EmptyCaseIsZeroed) {
  const auto summaries = summarize_cases(sample());
  EXPECT_EQ(summaries[1].events, 0u);
  EXPECT_EQ(summaries[1].span(), 0);
  EXPECT_EQ(summaries[1].bytes_read, 0);
}

TEST(CaseStats, EventsWithoutSizeDoNotCountBytes) {
  EventLog log;
  log.add_case(make_case("a", 1, {ev("read", "/f", 0, 10, -1)}));
  const auto summaries = summarize_cases(log);
  EXPECT_EQ(summaries[0].bytes_read, 0);
}

TEST(CaseStats, RenderIsDeterministicTable) {
  const auto summaries = summarize_cases(sample());
  const auto text = render_case_summaries(summaries);
  EXPECT_EQ(text, render_case_summaries(summaries));
  EXPECT_NE(text.find("a_host1_1"), std::string::npos);
  EXPECT_NE(text.find("b_host1_2"), std::string::npos);
  EXPECT_NE(text.find("events"), std::string::npos);
}

TEST(CaseStats, LsTracesMatchFig2Totals) {
  const auto summaries = summarize_cases(iosim::make_ls_traces().to_event_log());
  ASSERT_EQ(summaries.size(), 3u);
  for (const auto& s : summaries) {
    EXPECT_EQ(s.events, 8u);
    // Fig. 2a reads: 832*3 + 478 + 0 + 2996 + 0 = 5970 B.
    EXPECT_EQ(s.bytes_read, 5970);
    EXPECT_EQ(s.bytes_written, 50);
  }
}

}  // namespace
}  // namespace st::model
