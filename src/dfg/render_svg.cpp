#include "dfg/render_svg.hpp"

#include <cmath>

#include "support/si.hpp"

namespace st::dfg {

namespace {

std::string xml_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '&': out += "&amp;"; break;
      case '<': out += "&lt;"; break;
      case '>': out += "&gt;"; break;
      case '"': out += "&quot;"; break;
      default: out += c;
    }
  }
  return out;
}

std::string num(double v) { return format_fixed(v, 1); }

void draw_node(std::string& svg, const NodeBox& box, const Styler* styler,
               const LayoutOptions& layout) {
  std::string fill = "#FFFFFF";
  std::string fontcolor = "black";
  if (styler != nullptr) {
    const NodeStyle style = styler->node_style(box.activity);
    if (!style.fill.empty()) fill = style.fill;
    if (!style.fontcolor.empty()) fontcolor = style.fontcolor;
  }
  const bool marker = box.activity == Dfg::start_node() || box.activity == Dfg::end_node();
  if (marker) {
    if (box.activity == Dfg::start_node()) {
      svg += "<circle cx=\"" + num(box.cx()) + "\" cy=\"" + num(box.cy()) + "\" r=\"9\" fill=\"black\"/>\n";
    } else {
      svg += "<rect x=\"" + num(box.cx() - 8) + "\" y=\"" + num(box.cy() - 8) +
             "\" width=\"16\" height=\"16\" fill=\"black\"/>\n";
    }
    return;
  }
  svg += "<rect x=\"" + num(box.x) + "\" y=\"" + num(box.y) + "\" width=\"" + num(box.width) +
         "\" height=\"" + num(box.height) + "\" rx=\"6\" fill=\"" + fill +
         "\" stroke=\"#333333\"/>\n";
  double ty = box.y + layout.node_padding + layout.line_height * 0.75;
  for (const auto& line : box.label_lines) {
    svg += "<text x=\"" + num(box.cx()) + "\" y=\"" + num(ty) +
           "\" text-anchor=\"middle\" font-family=\"monospace\" font-size=\"11\" fill=\"" +
           fontcolor + "\">" + xml_escape(line) + "</text>\n";
    ty += layout.line_height;
  }
}

void draw_edge(std::string& svg, const Layout& layout, const EdgeGeom& edge,
               const Styler* styler) {
  if (edge.from_box == EdgeGeom::npos || edge.to_box == EdgeGeom::npos) return;
  const NodeBox* from = &layout.nodes[edge.from_box];
  const NodeBox* to = &layout.nodes[edge.to_box];
  std::string color = "#555555";
  if (styler != nullptr) {
    if (const std::string c = styler->edge_color(edge.from, edge.to); !c.empty()) color = c;
  }
  const std::string label = std::to_string(edge.count);

  if (edge.self_loop) {
    // Side arc on the right edge of the box.
    const double x = from->x + from->width;
    const double y = from->cy();
    svg += "<path d=\"M " + num(x) + " " + num(y - 8) + " C " + num(x + 26) + " " + num(y - 14) +
           ", " + num(x + 26) + " " + num(y + 14) + ", " + num(x) + " " + num(y + 8) +
           "\" fill=\"none\" stroke=\"" + color + "\" marker-end=\"url(#arrow)\"/>\n";
    svg += "<text x=\"" + num(x + 30) + "\" y=\"" + num(y + 4) +
           "\" font-family=\"monospace\" font-size=\"10\" fill=\"" + color + "\">" + label +
           "</text>\n";
    return;
  }

  const double x1 = from->cx();
  const double y1 = from->y + from->height;
  const double x2 = to->cx();
  const double y2 = to->y;
  if (edge.back_edge) {
    // Route around the left side.
    const double detour = std::min(from->x, to->x) - 24;
    svg += "<path d=\"M " + num(from->x) + " " + num(from->cy()) + " C " + num(detour) + " " +
           num(from->cy()) + ", " + num(detour) + " " + num(to->cy()) + ", " + num(to->x) + " " +
           num(to->cy()) + "\" fill=\"none\" stroke=\"" + color +
           "\" stroke-dasharray=\"4 2\" marker-end=\"url(#arrow)\"/>\n";
    svg += "<text x=\"" + num(detour + 4) + "\" y=\"" + num((from->cy() + to->cy()) / 2) +
           "\" font-family=\"monospace\" font-size=\"10\" fill=\"" + color + "\">" + label +
           "</text>\n";
    return;
  }
  const double midy = (y1 + y2) / 2;
  svg += "<path d=\"M " + num(x1) + " " + num(y1) + " C " + num(x1) + " " + num(midy) + ", " +
         num(x2) + " " + num(midy) + ", " + num(x2) + " " + num(y2) +
         "\" fill=\"none\" stroke=\"" + color + "\" marker-end=\"url(#arrow)\"/>\n";
  svg += "<text x=\"" + num((x1 + x2) / 2 + 4) + "\" y=\"" + num(midy) +
         "\" font-family=\"monospace\" font-size=\"10\" fill=\"" + color + "\">" + label +
         "</text>\n";
}

}  // namespace

std::string render_svg(const Dfg& g, const IoStatistics* stats, const Styler* styler,
                       const SvgOptions& opts) {
  const Layout layout = layout_dfg(g, stats, opts.layout);
  std::string svg = "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"" + num(layout.width) +
                    "\" height=\"" + num(layout.height) + "\" viewBox=\"0 0 " +
                    num(layout.width) + " " + num(layout.height) + "\">\n";
  svg += "<title>" + xml_escape(opts.title) + "</title>\n";
  svg +=
      "<defs><marker id=\"arrow\" viewBox=\"0 0 10 10\" refX=\"9\" refY=\"5\" "
      "markerWidth=\"7\" markerHeight=\"7\" orient=\"auto-start-reverse\">"
      "<path d=\"M 0 0 L 10 5 L 0 10 z\" fill=\"#555555\"/></marker></defs>\n";
  svg += "<rect width=\"100%\" height=\"100%\" fill=\"white\"/>\n";
  // Edges below nodes.
  for (const auto& edge : layout.edges) draw_edge(svg, layout, edge, styler);
  for (const auto& box : layout.nodes) draw_node(svg, box, styler, opts.layout);
  svg += "</svg>\n";
  return svg;
}

}  // namespace st::dfg
