#include "dfg/layout.hpp"

#include <algorithm>
#include <string_view>
#include <utility>

#include "support/strings.hpp"

namespace st::dfg {

namespace {

constexpr std::size_t kNone = EdgeGeom::npos;

/// The graph on dense ids. Ids follow Activity order (the order of
/// g.nodes()) and cover every node plus every endpoint of a non-self
/// edge: Dfg::from_parts graphs may name endpoints that nodes() lacks,
/// and those are laid out like any node. An endpoint named only by its
/// own self loop gets no id (kNone), so it gets no box either.
struct IdGraph {
  std::vector<std::string_view> names;                     ///< id -> activity
  std::vector<std::pair<std::size_t, std::size_t>> edges;  ///< edge-map order
  std::size_t end = kNone;                                 ///< the end marker's id
};

IdGraph intern(const Dfg& g) {
  IdGraph ig;
  ig.names.reserve(g.nodes().size());
  for (const auto& [node, count] : g.nodes()) ig.names.emplace_back(node);
  const auto id_of = [&](std::string_view a) {
    const auto it = std::lower_bound(ig.names.begin(), ig.names.end(), a);
    return it != ig.names.end() && *it == a ? static_cast<std::size_t>(it - ig.names.begin())
                                            : kNone;
  };
  const auto edge_ids = [&] {
    ig.edges.clear();
    for (const auto& [edge, count] : g.edges()) {
      ig.edges.emplace_back(id_of(edge.first), id_of(edge.second));
    }
  };
  ig.edges.reserve(g.edges().size());
  edge_ids();
  // Endpoints of non-self edges that nodes() lacks join the ids in
  // Activity order, which renumbers the ids after them.
  std::vector<std::string_view> orphans;
  auto ids = ig.edges.begin();
  for (const auto& [edge, count] : g.edges()) {
    const auto [from, to] = *ids++;
    if ((from != kNone && to != kNone) || edge.first == edge.second) continue;
    if (from == kNone) orphans.emplace_back(edge.first);
    if (to == kNone) orphans.emplace_back(edge.second);
  }
  if (!orphans.empty()) {
    std::sort(orphans.begin(), orphans.end());
    orphans.erase(std::unique(orphans.begin(), orphans.end()), orphans.end());
    const auto old_end = ig.names.insert(ig.names.end(), orphans.begin(), orphans.end());
    std::inplace_merge(ig.names.begin(), old_end, ig.names.end());
    edge_ids();
  }
  ig.end = id_of(Dfg::end_node());
  return ig;
}

/// Longest-path layering from the start node. Cycles (other than self
/// loops) are tolerated by bounding the relaxation to `rounds` passes:
/// an edge still unrelaxed after them stays a drawn-back edge. The end
/// marker then goes below everything.
std::vector<std::size_t> assign_layers(const IdGraph& ig, std::size_t rounds) {
  std::vector<std::size_t> layer(ig.names.size(), 0);
  for (std::size_t r = 0; r < rounds; ++r) {
    bool changed = false;
    for (const auto& [from, to] : ig.edges) {
      if (from == to) continue;  // self loop
      if (layer[to] < layer[from] + 1) {
        layer[to] = layer[from] + 1;
        changed = true;
      }
    }
    if (!changed) break;
  }
  if (ig.end != kNone) {
    std::size_t max_layer = 0;
    for (std::size_t v = 0; v < layer.size(); ++v) {
      if (v != ig.end) max_layer = std::max(max_layer, layer[v]);
    }
    layer[ig.end] = max_layer + 1;
  }
  return layer;
}

std::vector<std::string> label_lines_for(const Activity& a, const ActivityStat* stat) {
  std::vector<std::string> lines;
  for (const auto part : split(a, '\n')) lines.emplace_back(part);
  if (stat != nullptr) {
    lines.push_back(stat->load_label());
    if (std::string dr = stat->dr_label(); !dr.empty()) lines.push_back(std::move(dr));
  }
  return lines;
}

}  // namespace

Layout layout_dfg(const Dfg& g, const IoStatistics* stats, const LayoutOptions& opts) {
  Layout out;
  if (g.nodes().empty()) return out;

  const IdGraph ig = intern(g);
  const std::size_t n = ig.names.size();
  const std::vector<std::size_t> layer = assign_layers(ig, g.nodes().size() + 1);

  // Group nodes by layer (deterministic start order: Activity order).
  std::vector<std::vector<std::size_t>> rows(*std::max_element(layer.begin(), layer.end()) + 1);
  for (std::size_t v = 0; v < n; ++v) rows[layer[v]].push_back(v);

  // Neighbours in other layers, in edge-map order. Same-layer
  // neighbours (self loops included) never count towards a barycenter.
  std::vector<std::vector<std::size_t>> preds(n);
  std::vector<std::vector<std::size_t>> succs(n);
  for (const auto& [from, to] : ig.edges) {
    if (from == to || layer[from] == layer[to]) continue;
    succs[from].push_back(to);
    preds[to].push_back(from);
  }

  // Barycenter sweeps: order each row by the mean position of its
  // neighbours (predecessors on downward sweeps, successors on upward
  // ones). A key reads only positions in other rows and, for a node
  // without neighbours, its own pre-sort position; none of those move
  // while the row sorts, so each key is computed once up front.
  std::vector<double> pos(n);
  for (const auto& row : rows) {
    for (std::size_t i = 0; i < row.size(); ++i) pos[row[i]] = static_cast<double>(i);
  }
  std::vector<std::pair<double, std::size_t>> keyed;
  for (std::size_t sweep = 0; sweep < opts.barycenter_sweeps; ++sweep) {
    const auto& neighbours = sweep % 2 == 1 ? succs : preds;
    for (auto& row : rows) {
      keyed.clear();
      for (const std::size_t v : row) {
        double sum = 0;
        for (const std::size_t u : neighbours[v]) sum += pos[u];
        keyed.emplace_back(
            neighbours[v].empty() ? pos[v] : sum / static_cast<double>(neighbours[v].size()), v);
      }
      std::stable_sort(keyed.begin(), keyed.end(),
                       [](const auto& a, const auto& b) { return a.first < b.first; });
      for (std::size_t i = 0; i < row.size(); ++i) {
        row[i] = keyed[i].second;
        pos[row[i]] = static_cast<double>(i);
      }
    }
  }

  // Size the boxes, place rows centered on the widest row. Boxes land
  // in Layout::nodes row by row, which fixes each node's box index.
  std::vector<std::vector<NodeBox>> boxed(rows.size());
  std::vector<std::size_t> box_of(n);
  std::size_t boxes = 0;
  double max_row_width = 0;
  for (std::size_t l = 0; l < rows.size(); ++l) {
    double row_width = 0;
    for (const std::size_t v : rows[l]) {
      box_of[v] = boxes++;
      NodeBox box;
      box.activity = Activity(ig.names[v]);
      if (stats != nullptr) box.stat = stats->find(box.activity);
      box.label_lines = label_lines_for(box.activity, opts.show_stats ? box.stat : nullptr);
      std::size_t longest = 1;
      for (const auto& line : box.label_lines) longest = std::max(longest, line.size());
      box.width = static_cast<double>(longest) * opts.char_width + 2 * opts.node_padding;
      box.height = static_cast<double>(box.label_lines.size()) * opts.line_height +
                   2 * opts.node_padding;
      box.layer = l;
      row_width += box.width;
      boxed[l].push_back(std::move(box));
    }
    if (!rows[l].empty()) {
      row_width += static_cast<double>(rows[l].size() - 1) * opts.node_gap;
    }
    max_row_width = std::max(max_row_width, row_width);
  }

  out.nodes.reserve(n);
  double y = opts.layer_gap / 2;
  for (auto& row : boxed) {
    double row_width = 0;
    double row_height = 0;
    for (const auto& box : row) {
      row_width += box.width;
      row_height = std::max(row_height, box.height);
    }
    if (!row.empty()) row_width += static_cast<double>(row.size() - 1) * opts.node_gap;
    double x = (max_row_width - row_width) / 2 + opts.node_gap;
    for (auto& box : row) {
      box.x = x;
      box.y = y;
      x += box.width + opts.node_gap;
      out.nodes.push_back(std::move(box));
    }
    y += row_height + opts.layer_gap;
  }
  out.width = max_row_width + 2 * opts.node_gap;
  out.height = y;

  out.edges.reserve(ig.edges.size());
  auto ids = ig.edges.begin();
  for (const auto& [edge, count] : g.edges()) {
    const auto [from, to] = *ids++;
    EdgeGeom geom;
    geom.from = edge.first;
    geom.to = edge.second;
    geom.from_box = from == kNone ? kNone : box_of[from];
    geom.to_box = to == kNone ? kNone : box_of[to];
    geom.count = count;
    geom.self_loop = edge.first == edge.second;
    geom.back_edge = !geom.self_loop && layer[to] <= layer[from];
    out.edges.push_back(std::move(geom));
  }
  return out;
}

}  // namespace st::dfg
