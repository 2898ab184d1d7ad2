#include "model/activity_log.hpp"

#include <gtest/gtest.h>

#include "iosim/campaign.hpp"
#include "testing_util.hpp"

namespace st::model {
namespace {

using testing::ev;
using testing::make_case;

// The paper's fictitious example: C = {0,1,2}, traces <a,a,b>, <a,a,b>,
// <a,c> produce L = { <a,a,b>^2, <a,c> }.
TEST(ActivityLog, MultisetSemanticsPaperExample) {
  EventLog log;
  log.add_case(make_case("c", 0, {ev("a", "", 0, 1), ev("a", "", 1, 1), ev("b", "", 2, 1)}));
  log.add_case(make_case("c", 1, {ev("a", "", 0, 1), ev("a", "", 1, 1), ev("b", "", 2, 1)}));
  log.add_case(make_case("c", 2, {ev("a", "", 0, 1), ev("c", "", 1, 1)}));
  const auto al = ActivityLog::build(log, Mapping::call_only());

  ASSERT_EQ(al.variants().size(), 2u);
  const ActivityTrace aab{"a", "a", "b"};
  const ActivityTrace ac{"a", "c"};
  EXPECT_EQ(al.variants().at(aab), 2u);
  EXPECT_EQ(al.variants().at(ac), 1u);
  EXPECT_EQ(al.case_count(), 3u);
  std::size_t instances = 0;
  for (const Case& c : log.cases()) instances += activity_trace(c, Mapping::call_only()).size();
  EXPECT_EQ(instances, 8u);
}

TEST(ActivityLog, ActivitiesSetIsDistinct) {
  EventLog log;
  log.add_case(make_case("c", 0, {ev("a", "", 0, 1), ev("a", "", 1, 1), ev("b", "", 2, 1)}));
  const auto al = ActivityLog::build(log, Mapping::call_only());
  EXPECT_EQ(al.activities(), (std::set<Activity>{"a", "b"}));
}

TEST(ActivityLog, PartialMappingSkipsEvents) {
  EventLog log;
  log.add_case(make_case("c", 0, {ev("read", "/usr/lib/x", 0, 1), ev("read", "/etc/y", 1, 1),
                                  ev("write", "/usr/lib/z", 2, 1)}));
  const auto f = Mapping::call_only().filtered("usrlib", [](const Event& e) {
    return e.fp.starts_with("/usr/lib");
  });
  const auto al = ActivityLog::build(log, f);
  const ActivityTrace expected{"read", "write"};
  EXPECT_EQ(al.variants().at(expected), 1u);
}

TEST(ActivityLog, FullyUnmappedCaseContributesEmptyTrace) {
  EventLog log;
  log.add_case(make_case("c", 0, {ev("read", "/etc/y", 0, 1)}));
  const auto f = Mapping::call_only().filtered("none", [](const Event&) { return false; });
  const auto al = ActivityLog::build(log, f);
  EXPECT_EQ(al.case_count(), 1u);
  EXPECT_EQ(al.variants().at(ActivityTrace{}), 1u);
  EXPECT_TRUE(activity_trace(log.cases().front(), f).empty());
}

TEST(ActivityLog, PerCaseTracePreservesEventOrder) {
  EventLog log;
  log.add_case(make_case("c", 7, {ev("b", "", 5, 1), ev("a", "", 0, 1)}));  // unsorted input
  const auto trace = activity_trace(*log.find_case(CaseId{"c", "host1", 7}), Mapping::call_only());
  ASSERT_EQ(trace.size(), 2u);
  EXPECT_EQ(trace[0], "a");  // case sorted by start
  EXPECT_EQ(trace[1], "b");
}

TEST(ActivityLog, OrderPreservationTheorem) {
  // For all e_i preceding e_j in a case, a_i precedes a_j in the trace
  // (Sec. IV). Verify on a shuffled input.
  EventLog log;
  std::vector<Event> events;
  for (int i = 9; i >= 0; --i) events.push_back(ev("c" + std::to_string(i), "", i * 10, 1));
  log.add_case(make_case("c", 1, std::move(events)));
  const auto trace = activity_trace(log.cases().front(), Mapping::call_only());
  for (int i = 0; i < 10; ++i) EXPECT_EQ(trace[static_cast<std::size_t>(i)], "c" + std::to_string(i));
}

TEST(ActivityLog, EmptyLog) {
  const auto al = ActivityLog::build(EventLog{}, Mapping::call_only());
  EXPECT_EQ(al.case_count(), 0u);
  EXPECT_TRUE(al.variants().empty());
  EXPECT_TRUE(al.activities().empty());
}

TEST(ActivityLog, HomogeneousSpmdRunHasOneVariantPerRun) {
  // All ranks of one IOR run behave identically up to activity level
  // — but rank-dependent file names (FPP) split the variants.
  iosim::CampaignScale scale = iosim::CampaignScale::small();
  auto options = iosim::make_ssf_options(scale);
  options.keep_files = true;  // -k: rank 0 would otherwise add unlinkat events
  const auto ssf = iosim::run_ior(options).to_event_log();
  const auto f = Mapping::call_site(SitePathMap::juwels_like(), 1);
  const auto al = ActivityLog::build(ssf, f);
  EXPECT_EQ(al.variants().size(), 1u);  // every rank: same activity trace
  EXPECT_EQ(al.variants().begin()->second, static_cast<std::size_t>(scale.num_ranks));
}

}  // namespace
}  // namespace st::model
