// Layered graph layout for DFGs.
//
// Graphviz renders the paper's figures; to keep this repository
// dependency-free we implement the classic Sugiyama pipeline in a
// form sufficient for DFGs (which are almost-DAGs: ● at the top, ■ at
// the bottom, self loops, and occasional back edges):
//
//   1. layer assignment  — longest path from ● (back edges relaxed a
//      bounded number of rounds, then frozen),
//   2. crossing reduction — barycenter sweeps over adjacent layers,
//   3. coordinates       — nodes sized by their label text, centered
//      per layer on a common canvas.
//
// Activities are interned once into dense ids (in Activity order), and
// every step works on ids and id-indexed adjacency. With V activities,
// E edges and R = |nodes| + 1 relaxation rounds at most, layering costs
// O(R·E) and the barycenter ordering O(sweeps·(V log V + E)): each row's
// keys are computed once before its sort, not inside the comparator.
//
// The result is a plain geometry description consumed by the SVG
// renderer (render_svg.hpp) and tested independently of any markup.
#pragma once

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

#include "dfg/dfg.hpp"
#include "dfg/stats.hpp"

namespace st::dfg {

// The activity names of a Layout are views into the Dfg it was
// computed from: the graph must outlive the layout (layout_dfg of a
// temporary graph does not compile).

struct NodeBox {
  std::string_view activity;
  /// The activity's entry in the statistics the layout was given; null
  /// without statistics or without an entry. The Load/DR label lines
  /// come from it, and a renderer hands it to Styler::node_style_given.
  const ActivityStat* stat = nullptr;
  std::vector<std::string> label_lines;
  double x = 0;  ///< left edge
  double y = 0;  ///< top edge
  double width = 0;
  double height = 0;
  std::size_t layer = 0;

  [[nodiscard]] double cx() const { return x + width / 2; }
  [[nodiscard]] double cy() const { return y + height / 2; }
};

struct EdgeGeom {
  static constexpr std::size_t npos = static_cast<std::size_t>(-1);

  std::string_view from;
  std::string_view to;
  /// Indices into Layout::nodes of the two endpoint boxes; npos for an
  /// endpoint that has no box (one named only by its own self loop).
  std::size_t from_box = npos;
  std::size_t to_box = npos;
  std::uint64_t count = 0;
  bool self_loop = false;
  bool back_edge = false;  ///< points to an earlier or equal layer
};

struct Layout {
  std::vector<NodeBox> nodes;  ///< topological-ish order (by layer)
  std::vector<EdgeGeom> edges;
  double width = 0;   ///< canvas size
  double height = 0;
};

struct LayoutOptions {
  double char_width = 7.5;    ///< monospace-ish text metrics
  double line_height = 14.0;
  double node_padding = 8.0;
  double layer_gap = 56.0;
  double node_gap = 28.0;
  std::size_t barycenter_sweeps = 4;
  bool show_stats = true;  ///< include Load/DR lines in labels
};

/// Computes the layout of `g`, whose names it views. `stats` may be
/// null (labels are then just the activity text).
[[nodiscard]] Layout layout_dfg(const Dfg& g, const IoStatistics* stats,
                                const LayoutOptions& opts = {});
Layout layout_dfg(Dfg&& g, const IoStatistics* stats, const LayoutOptions& opts = {}) = delete;

}  // namespace st::dfg
