#include "model/activity_log.hpp"

#include <utility>

namespace st::model {

ActivityTrace activity_trace(const Case& c, const Mapping& f) {
  ActivityTrace trace;
  trace.reserve(c.size());
  for (const Event& e : c.events()) {
    if (auto a = f(e)) trace.push_back(std::move(*a));
  }
  return trace;
}

void merge_variant_counts(VariantCounts& to, VariantCounts&& from) {
  if (to.empty()) {
    to = std::move(from);
    return;
  }
  while (!from.empty()) {
    auto node = from.extract(from.begin());
    const auto result = to.insert(std::move(node));
    if (!result.inserted) result.position->second += result.node.mapped();
  }
}

ActivityLog ActivityLog::build(const EventLog& log, const Mapping& f) {
  ActivityLog out;
  for (const Case& c : log.cases()) {
    ActivityTrace trace = activity_trace(c, f);
    for (const Activity& a : trace) out.activities_.insert(a);
    out.total_instances_ += trace.size();
    out.per_case_.emplace(c.id(), trace);
    ++out.variants_[std::move(trace)];
    ++out.case_count_;
  }
  return out;
}

}  // namespace st::model
