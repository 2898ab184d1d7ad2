#include "dfg/coloring.hpp"

#include <algorithm>
#include <initializer_list>

#include "support/si.hpp"

namespace st::dfg {

StatisticsColoring::StatisticsColoring(const IoStatistics& stats)
    : stats_(stats), max_rel_dur_(0.0) {
  for (const auto& [activity, stat] : stats.per_activity()) {
    max_rel_dur_ = std::max(max_rel_dur_, stat.rel_dur);
  }
}

NodeStyle StatisticsColoring::node_style(const Activity& a) const {
  return style_of(stats_.find(a));
}

NodeStyle StatisticsColoring::node_style_given(std::string_view a, const IoStatistics* stats,
                                               const ActivityStat* stat) const {
  return stats == &stats_ ? style_of(stat) : node_style(Activity(a));
}

NodeStyle StatisticsColoring::style_of(const ActivityStat* stat) const {
  if (stat == nullptr || max_rel_dur_ <= 0.0) return {};
  // Interpolate white (weight 0) -> steel blue (weight 1) in RGB.
  const double w = std::clamp(stat->rel_dur / max_rel_dur_, 0.0, 1.0);
  const auto channel = [w](int light, int dark) {
    return static_cast<int>(static_cast<double>(light) +
                            w * static_cast<double>(dark - light));
  };
  NodeStyle style;
  style.fill = "#";
  for (const int c : {channel(0xFF, 0x1F), channel(0xFF, 0x77), channel(0xFF, 0xB4)}) {
    style.fill += "0123456789ABCDEF"[c >> 4];
    style.fill += "0123456789ABCDEF"[c & 0xF];
  }
  style.fontcolor = w > 0.6 ? "white" : "black";
  style.tag = "load=";
  append_fixed(style.tag, stat->rel_dur, 2);
  return style;
}

std::string StatisticsColoring::edge_color(std::string_view from, std::string_view to) const {
  (void)from;
  (void)to;
  return {};
}

NodeStyle PartitionColoring::node_style(const Activity& a) const {
  switch (diff_.classify_node(a)) {
    case PartitionClass::GreenOnly:
      return NodeStyle{"#C8E6C9", "black", "GREEN"};
    case PartitionClass::RedOnly:
      return NodeStyle{"#FFCDD2", "black", "RED"};
    case PartitionClass::Common:
      return {};
  }
  return {};
}

std::string PartitionColoring::edge_color(std::string_view from, std::string_view to) const {
  switch (diff_.classify_edge(Activity(from), Activity(to))) {
    case PartitionClass::GreenOnly:
      return "green";
    case PartitionClass::RedOnly:
      return "red";
    case PartitionClass::Common:
      return {};
  }
  return {};
}

}  // namespace st::dfg
