#include "dfg/render_svg.hpp"

#include <algorithm>
#include <string_view>

#include "support/si.hpp"
#include "support/strings.hpp"

namespace st::dfg {

namespace {

/// Text appended with & < > " escaped.
struct Escaped {
  std::string_view text;
};

void put_one(std::string& svg, std::string_view s) { svg += s; }
/// Coordinates and sizes carry one decimal.
void put_one(std::string& svg, double v) { append_fixed(svg, v, 1); }
void put_one(std::string& svg, std::uint64_t n) { append_int(svg, n); }
void put_one(std::string& svg, Escaped e) { append_markup_escaped(svg, e.text, true); }

/// Appends the parts in order.
template <typename... Parts>
void put(std::string& svg, const Parts&... parts) {
  (put_one(svg, parts), ...);
}

void draw_node(std::string& svg, const NodeBox& box, const IoStatistics* stats,
               const Styler* styler, const LayoutOptions& layout) {
  if (box.activity == Dfg::start_node()) {
    put(svg, "<circle cx=\"", box.cx(), "\" cy=\"", box.cy(), "\" r=\"9\" fill=\"black\"/>\n");
    return;
  }
  if (box.activity == Dfg::end_node()) {
    put(svg, "<rect x=\"", box.cx() - 8, "\" y=\"", box.cy() - 8,
        "\" width=\"16\" height=\"16\" fill=\"black\"/>\n");
    return;
  }
  const NodeStyle style =
      styler != nullptr ? styler->node_style_given(box.activity, stats, box.stat) : NodeStyle{};
  const std::string_view fill = style.fill.empty() ? "#FFFFFF" : std::string_view(style.fill);
  const std::string_view fontcolor =
      style.fontcolor.empty() ? "black" : std::string_view(style.fontcolor);
  put(svg, "<rect x=\"", box.x, "\" y=\"", box.y, "\" width=\"", box.width, "\" height=\"",
      box.height, "\" rx=\"6\" fill=\"", fill, "\" stroke=\"#333333\"/>\n");
  double ty = box.y + layout.node_padding + layout.line_height * 0.75;
  for (const auto& line : box.label_lines) {
    put(svg, "<text x=\"", box.cx(), "\" y=\"", ty,
        "\" text-anchor=\"middle\" font-family=\"monospace\" font-size=\"11\" fill=\"", fontcolor,
        "\">", Escaped{line}, "</text>\n");
    ty += layout.line_height;
  }
}

void draw_edge(std::string& svg, const Layout& layout, const EdgeGeom& edge,
               const Styler* styler) {
  if (edge.from_box == EdgeGeom::npos || edge.to_box == EdgeGeom::npos) return;
  const NodeBox* from = &layout.nodes[edge.from_box];
  const NodeBox* to = &layout.nodes[edge.to_box];
  const std::string styled = styler != nullptr ? styler->edge_color(edge.from, edge.to) : "";
  const std::string_view color = styled.empty() ? "#555555" : std::string_view(styled);

  if (edge.self_loop) {
    // Side arc on the right edge of the box.
    const double x = from->x + from->width;
    const double y = from->cy();
    put(svg, "<path d=\"M ", x, " ", y - 8, " C ", x + 26, " ", y - 14, ", ", x + 26, " ",
        y + 14, ", ", x, " ", y + 8, "\" fill=\"none\" stroke=\"", color,
        "\" marker-end=\"url(#arrow)\"/>\n");
    put(svg, "<text x=\"", x + 30, "\" y=\"", y + 4,
        "\" font-family=\"monospace\" font-size=\"10\" fill=\"", color, "\">", edge.count,
        "</text>\n");
    return;
  }

  const double x1 = from->cx();
  const double y1 = from->y + from->height;
  const double x2 = to->cx();
  const double y2 = to->y;
  if (edge.back_edge) {
    // Route around the left side.
    const double detour = std::min(from->x, to->x) - 24;
    put(svg, "<path d=\"M ", from->x, " ", from->cy(), " C ", detour, " ", from->cy(), ", ",
        detour, " ", to->cy(), ", ", to->x, " ", to->cy(), "\" fill=\"none\" stroke=\"", color,
        "\" stroke-dasharray=\"4 2\" marker-end=\"url(#arrow)\"/>\n");
    put(svg, "<text x=\"", detour + 4, "\" y=\"", (from->cy() + to->cy()) / 2,
        "\" font-family=\"monospace\" font-size=\"10\" fill=\"", color, "\">", edge.count,
        "</text>\n");
    return;
  }
  const double midy = (y1 + y2) / 2;
  put(svg, "<path d=\"M ", x1, " ", y1, " C ", x1, " ", midy, ", ", x2, " ", midy, ", ", x2, " ",
      y2, "\" fill=\"none\" stroke=\"", color, "\" marker-end=\"url(#arrow)\"/>\n");
  put(svg, "<text x=\"", (x1 + x2) / 2 + 4, "\" y=\"", midy,
      "\" font-family=\"monospace\" font-size=\"10\" fill=\"", color, "\">", edge.count,
      "</text>\n");
}

}  // namespace

void append_svg(std::string& out, const Dfg& g, const IoStatistics* stats, const Styler* styler,
                const SvgOptions& opts) {
  const Layout layout = layout_dfg(g, stats, opts.layout);
  put(out, "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"", layout.width, "\" height=\"",
      layout.height, "\" viewBox=\"0 0 ", layout.width, " ", layout.height, "\">\n");
  put(out, "<title>", Escaped{opts.title}, "</title>\n");
  out +=
      "<defs><marker id=\"arrow\" viewBox=\"0 0 10 10\" refX=\"9\" refY=\"5\" "
      "markerWidth=\"7\" markerHeight=\"7\" orient=\"auto-start-reverse\">"
      "<path d=\"M 0 0 L 10 5 L 0 10 z\" fill=\"#555555\"/></marker></defs>\n";
  out += "<rect width=\"100%\" height=\"100%\" fill=\"white\"/>\n";
  // Edges below nodes.
  for (const auto& edge : layout.edges) draw_edge(out, layout, edge, styler);
  for (const auto& box : layout.nodes) draw_node(out, box, stats, styler, opts.layout);
  out += "</svg>\n";
}

std::string render_svg(const Dfg& g, const IoStatistics* stats, const Styler* styler,
                       const SvgOptions& opts) {
  std::string svg;
  append_svg(svg, g, stats, styler, opts);
  return svg;
}

}  // namespace st::dfg
