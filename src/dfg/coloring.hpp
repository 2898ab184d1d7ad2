// Graph coloring strategies (paper Sec. IV-C).
//
//  1. StatisticsColoring — node fill is a shade of blue proportional to
//     the activity's relative duration (Fig. 3b/3c, Fig. 8).
//  2. PartitionColoring — nodes/edges exclusive to subset G are green,
//     exclusive to R red, common ones uncolored (Fig. 3d, Fig. 9).
//
// Stylers are consulted by the DOT and ASCII renderers through the
// Styler interface; styles are plain strings (DOT color syntax) so the
// renderers stay dumb.
#pragma once

#include <memory>
#include <string>
#include <string_view>

#include "dfg/dfg.hpp"
#include "dfg/diff.hpp"
#include "dfg/stats.hpp"

namespace st::dfg {

struct NodeStyle {
  std::string fill;       ///< DOT fillcolor ("" = unstyled)
  std::string fontcolor;  ///< "" = default
  std::string tag;        ///< ASCII marker ("", "GREEN", "RED", "load=0.43")
};

class Styler {
 public:
  virtual ~Styler() = default;
  [[nodiscard]] virtual NodeStyle node_style(const Activity& a) const = 0;
  /// node_style(a) for a renderer that has already looked `a` up in
  /// `stats` (`stat` is its entry there, or null): a styler that colors
  /// by those same statistics takes `stat` instead of a second lookup.
  /// The style is the same either way. `a` is a view (a layout's name,
  /// dfg/layout.hpp): a styler that needs the name copies it.
  [[nodiscard]] virtual NodeStyle node_style_given(std::string_view a, const IoStatistics* stats,
                                                   const ActivityStat* stat) const {
    (void)stats;
    (void)stat;
    return node_style(Activity(a));
  }
  /// DOT color for an edge; "" = default black. Views, as for
  /// node_style_given.
  [[nodiscard]] virtual std::string edge_color(std::string_view from,
                                               std::string_view to) const = 0;
};

/// Darker blue == larger relative duration. The shade scales against
/// the maximum rel_dur in the statistics so the busiest activity is
/// always the darkest.
class StatisticsColoring final : public Styler {
 public:
  explicit StatisticsColoring(const IoStatistics& stats);

  [[nodiscard]] NodeStyle node_style(const Activity& a) const override;
  [[nodiscard]] NodeStyle node_style_given(std::string_view a, const IoStatistics* stats,
                                           const ActivityStat* stat) const override;
  [[nodiscard]] std::string edge_color(std::string_view from, std::string_view to) const override;

 private:
  [[nodiscard]] NodeStyle style_of(const ActivityStat* stat) const;

  const IoStatistics& stats_;
  double max_rel_dur_;
};

/// Green/red/uncolored per the G/R partition.
class PartitionColoring final : public Styler {
 public:
  PartitionColoring(const Dfg& green, const Dfg& red) : diff_(green, red) {}

  [[nodiscard]] NodeStyle node_style(const Activity& a) const override;
  [[nodiscard]] std::string edge_color(std::string_view from, std::string_view to) const override;

  [[nodiscard]] const GraphDiff& diff() const { return diff_; }

 private:
  GraphDiff diff_;
};

}  // namespace st::dfg
