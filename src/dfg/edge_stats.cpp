#include "dfg/edge_stats.hpp"

#include <algorithm>
#include <optional>
#include <utility>

namespace st::dfg {

void EdgeStatistics::Partial::add_case(const model::Case& c, const model::Mapping& f) {
  std::optional<model::Activity> prev_activity;
  Micros prev_end = 0;
  for (const model::Event& e : c.events()) {
    auto activity = f(e);
    if (!activity) continue;
    if (prev_activity) stats_[{*prev_activity, *activity}].add(e.start - prev_end);
    prev_activity = std::move(activity);
    prev_end = e.end();
  }
}

void EdgeStatistics::Partial::merge(Partial&& other) {
  if (stats_.empty()) {
    stats_ = std::move(other.stats_);
    return;
  }
  while (!other.stats_.empty()) {
    auto node = other.stats_.extract(other.stats_.begin());
    const auto result = stats_.insert(std::move(node));
    if (!result.inserted) {
      EdgeStat& into = result.position->second;
      const EdgeStat& from = result.node.mapped();
      into.count += from.count;
      into.total_gap += from.total_gap;
      into.max_gap = std::max(into.max_gap, from.max_gap);
      into.overlapped += from.overlapped;
    }
  }
}

EdgeStatistics EdgeStatistics::Partial::finalize() const {
  EdgeStatistics out;
  out.stats_ = stats_;
  return out;
}

EdgeStatistics::Partial EdgeStatistics::Partial::from_stats(std::map<Edge, EdgeStat> stats) {
  Partial p;
  p.stats_ = std::move(stats);
  return p;
}

EdgeStatistics EdgeStatistics::compute(const model::EventLog& log, const model::Mapping& f) {
  Partial partial;
  for (const model::Case& c : log.cases()) partial.add_case(c, f);
  return partial.finalize();
}

const EdgeStat* EdgeStatistics::find(const model::Activity& from,
                                     const model::Activity& to) const {
  const auto it = stats_.find({from, to});
  return it == stats_.end() ? nullptr : &it->second;
}

}  // namespace st::dfg
