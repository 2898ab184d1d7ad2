#include <gtest/gtest.h>

#include <algorithm>

#include "../bench/testdata.hpp"
#include "dfg/builder.hpp"
#include "dfg/layout.hpp"
#include "dfg/render_svg.hpp"
#include "iosim/commands.hpp"
#include "support/crc32.hpp"
#include "testing_util.hpp"

namespace st::dfg {
namespace {

const NodeBox* find_box(const Layout& layout, const Activity& a) {
  for (const auto& box : layout.nodes) {
    if (box.activity == a) return &box;
  }
  return nullptr;
}

Dfg chain_graph() {
  Dfg g;
  g.add_trace({"a", "b", "c"}, 2);
  return g;
}

TEST(Layout, StartAtTopEndAtBottom) {
  const auto layout = layout_dfg(chain_graph(), nullptr);
  const auto* start = find_box(layout, Dfg::start_node());
  const auto* end = find_box(layout, Dfg::end_node());
  ASSERT_NE(start, nullptr);
  ASSERT_NE(end, nullptr);
  EXPECT_EQ(start->layer, 0u);
  EXPECT_GT(end->layer, find_box(layout, "c")->layer);
  EXPECT_LT(start->y, end->y);
}

TEST(Layout, ChainLayersAreSequential) {
  const auto layout = layout_dfg(chain_graph(), nullptr);
  EXPECT_EQ(find_box(layout, "a")->layer, 1u);
  EXPECT_EQ(find_box(layout, "b")->layer, 2u);
  EXPECT_EQ(find_box(layout, "c")->layer, 3u);
}

TEST(Layout, EveryNodeInsideCanvas) {
  const auto log = model::EventLog::merge(iosim::make_ls_traces().to_event_log(),
                                          iosim::make_ls_l_traces().to_event_log());
  const auto f = model::Mapping::call_top_dirs(2);
  const auto g = dfg::build_serial(log, f);
  const auto stats = IoStatistics::compute(log, f);
  const auto layout = layout_dfg(g, &stats);
  EXPECT_EQ(layout.nodes.size(), g.nodes().size());
  for (const auto& box : layout.nodes) {
    EXPECT_GE(box.x, 0.0) << box.activity;
    EXPECT_GE(box.y, 0.0) << box.activity;
    EXPECT_LE(box.x + box.width, layout.width + 1e-6) << box.activity;
    EXPECT_LE(box.y + box.height, layout.height + 1e-6) << box.activity;
    EXPECT_GT(box.width, 0.0);
    EXPECT_GT(box.height, 0.0);
  }
}

TEST(Layout, NoOverlapsWithinLayer) {
  const auto log = model::EventLog::merge(iosim::make_ls_traces().to_event_log(),
                                          iosim::make_ls_l_traces().to_event_log());
  const auto f = model::Mapping::call_top_dirs(2);
  const auto layout = layout_dfg(dfg::build_serial(log, f), nullptr);
  for (const auto& a : layout.nodes) {
    for (const auto& b : layout.nodes) {
      if (a.activity == b.activity || a.layer != b.layer) continue;
      const bool overlap = a.x < b.x + b.width && b.x < a.x + a.width;
      EXPECT_FALSE(overlap) << a.activity << " overlaps " << b.activity;
    }
  }
}

TEST(Layout, SelfLoopsAndBackEdgesClassified) {
  Dfg g;
  g.add_trace({"a", "a", "b", "a"});  // self loop a->a, back edge b->a
  const auto layout = layout_dfg(g, nullptr);
  bool self_loop_seen = false;
  bool cycle_back_edge_seen = false;
  for (const auto& e : layout.edges) {
    if (e.from == "a" && e.to == "a") {
      EXPECT_TRUE(e.self_loop);
      self_loop_seen = true;
    }
    // The a<->b cycle must have exactly one of its edges drawn
    // backward; which one is an arbitrary (but deterministic) choice
    // of the bounded layering.
    if ((e.from == "b" && e.to == "a") || (e.from == "a" && e.to == "b")) {
      cycle_back_edge_seen |= e.back_edge;
    }
  }
  EXPECT_TRUE(self_loop_seen);
  EXPECT_TRUE(cycle_back_edge_seen);
}

TEST(Layout, LabelsIncludeStatsWhenProvided) {
  model::EventLog log;
  log.add_case(testing::make_case("a", 1, {testing::ev("read", "/usr/lib/x", 0, 10, 832)}));
  const auto f = model::Mapping::call_top_dirs(2);
  const auto stats = IoStatistics::compute(log, f);
  const auto layout = layout_dfg(dfg::build_serial(log, f), &stats);
  const auto* node = find_box(layout, "read\n/usr/lib");
  ASSERT_NE(node, nullptr);
  ASSERT_GE(node->label_lines.size(), 3u);  // call, path, Load, (DR)
  EXPECT_EQ(node->label_lines[0], "read");
  EXPECT_EQ(node->label_lines[1], "/usr/lib");
  EXPECT_EQ(node->label_lines[2].substr(0, 5), "Load:");
}

TEST(Layout, EmptyGraph) {
  const auto layout = layout_dfg(Dfg{}, nullptr);
  EXPECT_TRUE(layout.nodes.empty());
  EXPECT_TRUE(layout.edges.empty());
}

TEST(Svg, WellFormedDocument) {
  const auto svg = render_svg(chain_graph(), nullptr, nullptr);
  EXPECT_EQ(svg.substr(0, 4), "<svg");
  EXPECT_NE(svg.find("</svg>"), std::string::npos);
  EXPECT_NE(svg.find("marker id=\"arrow\""), std::string::npos);
  // One rect per activity (a, b, c) plus background; circle + square markers.
  EXPECT_NE(svg.find("<circle"), std::string::npos);
  EXPECT_NE(svg.find("width=\"16\" height=\"16\" fill=\"black\""), std::string::npos);
}

TEST(Svg, EdgeCountsAppearAsLabels) {
  const auto svg = render_svg(chain_graph(), nullptr, nullptr);
  EXPECT_NE(svg.find(">2</text>"), std::string::npos);  // multiplicity 2 edges
}

TEST(Svg, XmlEscapesLabels) {
  Dfg g;
  g.add_trace({"a<b>&c"});
  const auto svg = render_svg(g, nullptr, nullptr);
  EXPECT_NE(svg.find("a&lt;b&gt;&amp;c"), std::string::npos);
  EXPECT_EQ(svg.find("a<b>&c"), std::string::npos);
}

TEST(Svg, PartitionColorsApplied) {
  Dfg green;
  green.add_trace({"g"});
  Dfg red;
  red.add_trace({"r"});
  Dfg combined = green;
  combined.merge(red);
  const PartitionColoring styler(green, red);
  const auto svg = render_svg(combined, nullptr, &styler);
  EXPECT_NE(svg.find("#C8E6C9"), std::string::npos);
  EXPECT_NE(svg.find("#FFCDD2"), std::string::npos);
  EXPECT_NE(svg.find("stroke=\"green\""), std::string::npos);
  EXPECT_NE(svg.find("stroke=\"red\""), std::string::npos);
}

TEST(Svg, DeterministicOutput) {
  const auto log = iosim::make_ls_l_traces().to_event_log();
  const auto f = model::Mapping::call_top_dirs(2);
  const auto g = dfg::build_serial(log, f);
  const auto stats = IoStatistics::compute(log, f);
  const StatisticsColoring styler(stats);
  EXPECT_EQ(render_svg(g, &stats, &styler), render_svg(g, &stats, &styler));
}

// -- golden bytes ------------------------------------------------------
//
// CRC-32 digests of render_svg output, pinned so that a change to the
// layout's internals cannot move a single byte of the drawn graph.

/// Fully dense DFG over m activities (every ordered pair directly
/// follows), as bench_render draws it.
Dfg dense_dfg(std::size_t m) {
  model::ActivityTrace trace;
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < m; ++j) {
      trace.push_back("act" + std::to_string(i));
      trace.push_back("act" + std::to_string(j));
    }
  }
  Dfg g;
  g.add_trace(trace);
  return g;
}

/// Edges that name activities absent from nodes(): "ghost" sits on a
/// path, "loner" has only a self loop.
Dfg orphan_endpoint_graph() {
  const auto& start = Dfg::start_node();
  const auto& end = Dfg::end_node();
  return Dfg::from_parts({{start, 2}, {"a", 3}, {"b", 1}, {end, 2}},
                         {{{start, "a"}, 2},
                          {{"a", "ghost"}, 1},
                          {{"ghost", "b"}, 1},
                          {{"b", end}, 1},
                          {{"a", end}, 1},
                          {{"a", "a"}, 1},
                          {{"loner", "loner"}, 4}},
                         2);
}

std::uint32_t svg_digest(const Dfg& g, const IoStatistics* stats = nullptr,
                         const Styler* styler = nullptr) {
  const std::string svg = render_svg(g, stats, styler);
  return Crc32::of(svg.data(), svg.size());
}

TEST(SvgGolden, DenseGraphs) {
  const std::vector<std::pair<std::size_t, std::uint32_t>> golden = {
      {1, 0xb2bac32du}, {2, 0x1f32fe62u},  {3, 0x9b5c3071u},
      {8, 0x30f5c33cu}, {17, 0x87478922u}, {64, 0xfd235318u}};
  for (const auto& [m, digest] : golden) {
    EXPECT_EQ(svg_digest(dense_dfg(m)), digest) << "m = " << m;
  }
}

TEST(SvgGolden, CycleWithSelfLoop) {
  Dfg g;
  g.add_trace({"a", "a", "b", "a"});
  EXPECT_EQ(svg_digest(g), 0x81e80839u);
}

TEST(SvgGolden, OrphanEdgeEndpoints) {
  EXPECT_EQ(svg_digest(orphan_endpoint_graph()), 0xe4848a12u);
}

TEST(Layout, EdgeBoxIndicesPointAtTheirEndpoints) {
  Dfg cycle;
  cycle.add_trace({"a", "a", "b", "a"});
  for (const Dfg& g : {dense_dfg(8), cycle, orphan_endpoint_graph()}) {
    const auto layout = layout_dfg(g, nullptr);
    ASSERT_EQ(layout.edges.size(), g.edges().size());
    for (const auto& e : layout.edges) {
      if (e.from == "loner") {  // named only by its self loop: no box
        EXPECT_EQ(e.from_box, EdgeGeom::npos);
        EXPECT_EQ(e.to_box, EdgeGeom::npos);
        EXPECT_EQ(find_box(layout, "loner"), nullptr);
        continue;
      }
      ASSERT_LT(e.from_box, layout.nodes.size());
      ASSERT_LT(e.to_box, layout.nodes.size());
      EXPECT_EQ(layout.nodes[e.from_box].activity, e.from);
      EXPECT_EQ(layout.nodes[e.to_box].activity, e.to);
    }
  }
  // The orphan on a path is laid out like any node.
  EXPECT_NE(find_box(layout_dfg(orphan_endpoint_graph(), nullptr), "ghost"), nullptr);
}

/// Activities whose labels need escaping (& < > ") and span two lines
/// under top2. The case revisits them, so the graph has self loops and
/// back edges, and the statistics add Load/DR lines.
model::EventLog escape_log() {
  using testing::ev;
  model::EventLog log;
  log.add_case(testing::make_case(
      "esc", 1,
      {ev("openat", "/p<&>/a\"b\"/x", 0, 5), ev("read", "/q&/<r>/f", 10, 20, 512),
       ev("read", "/q&/<r>/f", 40, 20, 512), ev("write", "/p<&>/a\"b\"/x", 70, 30, 4096),
       ev("read", "/q&/<r>/f", 110, 5, 100), ev("openat", "/p<&>/a\"b\"/x", 120, 3),
       ev("close", "/p<&>/a\"b\"/x", 130, 1)}));
  log.add_case(testing::make_case(
      "esc", 2,
      {ev("openat", "/p<&>/a\"b\"/x", 0, 4), ev("write", "/p<&>/a\"b\"/x", 10, 50, 8192),
       ev("write", "/p<&>/a\"b\"/x", 70, 40, 8192), ev("close", "/p<&>/a\"b\"/x", 120, 2)}));
  return log;
}

TEST(SvgGolden, PartitionColoring) {
  const auto ls = iosim::make_ls_traces().to_event_log();
  const auto ls_l = iosim::make_ls_l_traces().to_event_log();
  const auto f = model::Mapping::call_top_dirs(2);
  const auto g = dfg::build_serial(model::EventLog::merge(ls, ls_l), f);
  const PartitionColoring styler(dfg::build_serial(ls, f), dfg::build_serial(ls_l, f));
  EXPECT_EQ(svg_digest(g, nullptr, &styler), 0x97ebc085u);
}

TEST(SvgGolden, EscapedMultiLineLabelsWithLoops) {
  const auto log = escape_log();
  const auto f = model::Mapping::call_top_dirs(2);
  const auto g = dfg::build_serial(log, f);
  const auto stats = IoStatistics::compute(log, f);
  const StatisticsColoring styler(stats);
  const auto layout = layout_dfg(g, &stats);
  EXPECT_TRUE(std::any_of(layout.edges.begin(), layout.edges.end(),
                          [](const EdgeGeom& e) { return e.self_loop; }));
  EXPECT_TRUE(std::any_of(layout.edges.begin(), layout.edges.end(),
                          [](const EdgeGeom& e) { return e.back_edge; }));
  EXPECT_EQ(svg_digest(g, &stats, &styler), 0xb9429e91u);
  EXPECT_EQ(svg_digest(g), 0x06795188u);
}

TEST(SvgGolden, SyntheticLogLast1WithStatistics) {
  const auto log = bench::synthetic_log(42, 128, 16, 64);
  const auto f = model::Mapping::call_last_components(1);
  const auto g = dfg::build_serial(log, f);
  const auto stats = IoStatistics::compute(log, f);
  const StatisticsColoring styler(stats);
  EXPECT_EQ(svg_digest(g, &stats, &styler), 0x8056c373u);
}

}  // namespace
}  // namespace st::dfg
