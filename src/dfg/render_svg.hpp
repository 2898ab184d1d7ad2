// Self-contained SVG rendering of a laid-out DFG.
//
// Produces a single .svg document (no external resources) with the
// paper's visual vocabulary: rounded boxes with the activity + Load/DR
// lines, ● and ■ markers, arrowed edges with frequency labels, self
// loops as side arcs, and node fills/edge colors taken from a Styler
// (statistics shading or green/red partition).
//
// append_svg is the one writer: it lays the graph out and appends each
// element straight onto the caller's string — coordinates by
// append_fixed (support/si.hpp), text escaped in place — with no string
// per element or per number. The report writes its page through it;
// render_svg is it into a fresh string.
#pragma once

#include <string>

#include "dfg/coloring.hpp"
#include "dfg/layout.hpp"

namespace st::dfg {

struct SvgOptions {
  LayoutOptions layout;
  std::string title = "DFG";
};

/// Appends the graph's SVG markup to `out`. `stats` and `styler` may be
/// null.
void append_svg(std::string& out, const Dfg& g, const IoStatistics* stats, const Styler* styler,
                const SvgOptions& opts = {});

/// The graph's SVG markup: append_svg into a new string.
[[nodiscard]] std::string render_svg(const Dfg& g, const IoStatistics* stats,
                                     const Styler* styler, const SvgOptions& opts = {});

}  // namespace st::dfg
