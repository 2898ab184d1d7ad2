#include <gtest/gtest.h>

#include "dfg/coloring.hpp"
#include "dfg/diff.hpp"
#include "testing_util.hpp"

namespace st::dfg {
namespace {

Dfg green_graph() {
  Dfg g;
  g.add_trace({"shared", "green-only"}, 2);
  return g;
}

Dfg red_graph() {
  Dfg g;
  g.add_trace({"shared", "red-only"}, 2);
  return g;
}

TEST(GraphDiff, NodePartition) {
  const GraphDiff diff(green_graph(), red_graph());
  EXPECT_EQ(diff.classify_node("green-only"), PartitionClass::GreenOnly);
  EXPECT_EQ(diff.classify_node("red-only"), PartitionClass::RedOnly);
  EXPECT_EQ(diff.classify_node("shared"), PartitionClass::Common);
  // Start/end markers occur in both graphs.
  EXPECT_EQ(diff.classify_node(Dfg::start_node()), PartitionClass::Common);
}

TEST(GraphDiff, NodeSets) {
  const GraphDiff diff(green_graph(), red_graph());
  EXPECT_EQ(diff.green_nodes(), std::set<model::Activity>{"green-only"});
  EXPECT_EQ(diff.red_nodes(), std::set<model::Activity>{"red-only"});
  EXPECT_TRUE(diff.common_nodes().contains("shared"));
}

TEST(GraphDiff, EdgePartition) {
  const GraphDiff diff(green_graph(), red_graph());
  EXPECT_EQ(diff.classify_edge("shared", "green-only"), PartitionClass::GreenOnly);
  EXPECT_EQ(diff.classify_edge("shared", "red-only"), PartitionClass::RedOnly);
  EXPECT_EQ(diff.classify_edge(Dfg::start_node(), "shared"), PartitionClass::Common);
}

TEST(GraphDiff, UnknownElementsClassifyCommon) {
  // Elements in neither graph default to Common (uncolored) — they can
  // only come from the combined graph, where they'd be in one subset.
  const GraphDiff diff(green_graph(), red_graph());
  EXPECT_EQ(diff.classify_node("never-seen"), PartitionClass::Common);
}

TEST(GraphDiff, Fig3dShape) {
  // ls (green) vs ls -l (red): the only green-exclusive element in
  // Fig. 3d is the edge read:/etc/locale.alias -> write:/dev/pts.
  Dfg ls;
  ls.add_trace({"read\n/usr/lib", "read\n/etc/locale.alias", "write\n/dev/pts"}, 3);
  Dfg lsl;
  lsl.add_trace({"read\n/usr/lib", "read\n/etc/locale.alias", "read\n/etc/passwd",
                 "write\n/dev/pts"},
                3);
  const GraphDiff diff(ls, lsl);
  EXPECT_TRUE(diff.green_nodes().empty());  // every ls activity also in ls -l
  EXPECT_EQ(diff.red_nodes(), std::set<model::Activity>{"read\n/etc/passwd"});
  EXPECT_TRUE(diff.green_edges().contains({"read\n/etc/locale.alias", "write\n/dev/pts"}));
  EXPECT_TRUE(diff.red_edges().contains({"read\n/etc/locale.alias", "read\n/etc/passwd"}));
}

// ---- PartitionColoring ---------------------------------------------------

TEST(PartitionColoring, StylesFollowDiff) {
  const PartitionColoring styler(green_graph(), red_graph());
  EXPECT_EQ(styler.node_style("green-only").tag, "GREEN");
  EXPECT_EQ(styler.node_style("red-only").tag, "RED");
  EXPECT_TRUE(styler.node_style("shared").tag.empty());
  EXPECT_TRUE(styler.node_style("shared").fill.empty());
}

TEST(PartitionColoring, EdgeColors) {
  const PartitionColoring styler(green_graph(), red_graph());
  EXPECT_EQ(styler.edge_color("shared", "green-only"), "green");
  EXPECT_EQ(styler.edge_color("shared", "red-only"), "red");
  EXPECT_EQ(styler.edge_color(Dfg::start_node(), "shared"), "");
}

// ---- StatisticsColoring ----------------------------------------------------

TEST(StatisticsColoring, BusiestActivityIsDarkest) {
  model::EventLog log;
  log.add_case(testing::make_case("a", 1,
                                  {testing::ev("slow", "/f", 0, 900, 10),
                                   testing::ev("fast", "/f", 1000, 100, 10)}));
  const auto stats = IoStatistics::compute(log, model::Mapping::call_only());
  const StatisticsColoring styler(stats);

  const auto slow = styler.node_style("slow");
  const auto fast = styler.node_style("fast");
  ASSERT_FALSE(slow.fill.empty());
  ASSERT_FALSE(fast.fill.empty());
  // Max rel_dur maps to the full steel-blue shade.
  EXPECT_EQ(slow.fill, "#1F77B4");
  EXPECT_NE(fast.fill, slow.fill);
  // High-load nodes flip to white text for readability.
  EXPECT_EQ(slow.fontcolor, "white");
  EXPECT_EQ(fast.fontcolor, "black");
  EXPECT_EQ(slow.tag, "load=0.90");
}

TEST(StatisticsColoring, UnknownActivityUnstyled) {
  model::EventLog log;
  log.add_case(testing::make_case("a", 1, {testing::ev("x", "/f", 0, 10, 1)}));
  const auto stats = IoStatistics::compute(log, model::Mapping::call_only());
  const StatisticsColoring styler(stats);
  EXPECT_TRUE(styler.node_style("unknown").fill.empty());
  EXPECT_TRUE(styler.edge_color("x", "x").empty());
}

// A renderer that already found the activity's statistics passes them
// in; the style is node_style's, and statistics other than the
// styler's own are looked up again rather than trusted.
TEST(StatisticsColoring, GivenStatisticsMatchTheLookup) {
  model::EventLog log;
  log.add_case(testing::make_case("a", 1,
                                  {testing::ev("slow", "/f", 0, 900, 10),
                                   testing::ev("fast", "/f", 1000, 100, 10)}));
  const auto stats = IoStatistics::compute(log, model::Mapping::call_only());
  const StatisticsColoring styler(stats);
  const auto same = [](const NodeStyle& a, const NodeStyle& b) {
    return a.fill == b.fill && a.fontcolor == b.fontcolor && a.tag == b.tag;
  };
  for (const char* a : {"slow", "fast", "unknown"}) {
    EXPECT_TRUE(same(styler.node_style_given(a, &stats, stats.find(a)), styler.node_style(a)))
        << a;
  }
  const IoStatistics other;
  EXPECT_TRUE(same(styler.node_style_given("slow", &other, nullptr), styler.node_style("slow")));
  EXPECT_TRUE(same(styler.node_style_given("slow", nullptr, nullptr), styler.node_style("slow")));

  Dfg green;
  green.add_trace({"slow"});
  const PartitionColoring partition(green, Dfg{});
  EXPECT_TRUE(same(partition.node_style_given("slow", &stats, stats.find("slow")),
                   partition.node_style("slow")));
}

}  // namespace
}  // namespace st::dfg
