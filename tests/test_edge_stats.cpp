#include "dfg/edge_stats.hpp"

#include <gtest/gtest.h>

#include "testing_util.hpp"

namespace st::dfg {
namespace {

using testing::ev;
using testing::make_case;

TEST(EdgeStats, GapIsEndToStart) {
  model::EventLog log;
  // a: [0,100], b: [150,200] -> gap 50.
  log.add_case(make_case("c", 1, {ev("a", "", 0, 100), ev("b", "", 150, 50)}));
  const auto stats = EdgeStatistics::compute(log, model::Mapping::call_only());
  const auto* s = stats.find("a", "b");
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(s->count, 1u);
  EXPECT_EQ(s->total_gap, 50);
  EXPECT_EQ(s->max_gap, 50);
  EXPECT_DOUBLE_EQ(s->mean_gap(), 50.0);
}

TEST(EdgeStats, MeanOverMultipleObservations) {
  model::EventLog log;
  log.add_case(make_case("c", 1, {ev("a", "", 0, 10), ev("b", "", 20, 10),   // gap 10
                                  ev("a", "", 100, 10), ev("b", "", 140, 10)}));  // gap 30
  const auto stats = EdgeStatistics::compute(log, model::Mapping::call_only());
  const auto* ab = stats.find("a", "b");
  ASSERT_NE(ab, nullptr);
  EXPECT_EQ(ab->count, 2u);
  EXPECT_DOUBLE_EQ(ab->mean_gap(), 20.0);
  EXPECT_EQ(ab->max_gap, 30);
  // The b->a back edge also exists with its own gap (110 - 30 = 70).
  const auto* ba = stats.find("b", "a");
  ASSERT_NE(ba, nullptr);
  EXPECT_EQ(ba->count, 1u);
  EXPECT_EQ(ba->total_gap, 70);
}

TEST(EdgeStats, NegativeGapCountsAsOverlapped) {
  model::EventLog log;
  // a: [0,100]; b starts at 50 (SMT interleaving).
  log.add_case(make_case("c", 1, {ev("a", "", 0, 100), ev("b", "", 50, 10)}));
  const auto stats = EdgeStatistics::compute(log, model::Mapping::call_only());
  const auto* s = stats.find("a", "b");
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(s->count, 1u);
  EXPECT_EQ(s->overlapped, 1u);
  EXPECT_EQ(s->total_gap, 0);
}

TEST(EdgeStats, GapsDoNotCrossCases) {
  model::EventLog log;
  log.add_case(make_case("c", 1, {ev("a", "", 0, 10)}));
  log.add_case(make_case("c", 2, {ev("b", "", 1000, 10)}));
  const auto stats = EdgeStatistics::compute(log, model::Mapping::call_only());
  EXPECT_EQ(stats.find("a", "b"), nullptr);
}

TEST(EdgeStats, UnmappedEventsDoNotBreakEdges) {
  model::EventLog log;
  log.add_case(make_case("c", 1, {ev("a", "/keep", 0, 10), ev("skip", "/drop", 20, 10),
                                  ev("b", "/keep", 40, 10)}));
  const auto f = model::Mapping::call_only().filtered("keep", [](const model::Event& e) {
    return e.fp == "/keep";
  });
  const auto stats = EdgeStatistics::compute(log, f);
  const auto* s = stats.find("a", "b");
  ASSERT_NE(s, nullptr);
  // Gap measured from a's end (10) to b's start (40).
  EXPECT_EQ(s->total_gap, 30);
}

TEST(EdgeStats, EdgeCountsMatchDfgCounts) {
  model::EventLog log;
  log.add_case(make_case("c", 1, {ev("x", "", 0, 1), ev("x", "", 10, 1), ev("y", "", 20, 1)}));
  log.add_case(make_case("c", 2, {ev("x", "", 0, 1), ev("y", "", 10, 1)}));
  const auto f = model::Mapping::call_only();
  const auto stats = EdgeStatistics::compute(log, f);
  EXPECT_EQ(stats.find("x", "x")->count, 1u);
  EXPECT_EQ(stats.find("x", "y")->count, 2u);
}

TEST(EdgeStats, EmptyLogHasNoEdges) {
  const auto stats = EdgeStatistics::compute(model::EventLog{}, model::Mapping::call_only());
  EXPECT_TRUE(stats.per_edge().empty());
}

TEST(EdgeStats, BarrierStallVisibleInIorShape) {
  // Synthetic two-phase case: writes, long stall, then reads — the
  // stall shows up on the write->openat edge, not inside any node.
  model::EventLog log;
  log.add_case(make_case("ior", 1, {
                                       ev("openat", "/p/scratch/t", 0, 10),
                                       ev("write", "/p/scratch/t", 20, 100),
                                       ev("write", "/p/scratch/t", 130, 100),
                                       ev("openat", "/p/scratch/t", 50000, 10),  // post-barrier
                                       ev("read", "/p/scratch/t", 50020, 80),
                                   }));
  const auto f = model::Mapping::call_only();
  const auto stats = EdgeStatistics::compute(log, f);
  const double stall = stats.find("write", "openat")->mean_gap();
  EXPECT_GT(stall, 49000.0);
  for (const auto& [edge, s] : stats.per_edge()) {
    if (edge != EdgeStatistics::Edge{"write", "openat"}) {
      EXPECT_LT(s.mean_gap(), stall);
    }
  }
}

}  // namespace
}  // namespace st::dfg
