#include "dfg/builder.hpp"

namespace st::dfg {

void add_case_trace(Dfg& g, const model::Case& c, const model::Mapping& f) {
  // model::activity_trace is THE per-case mapped-event walk
  // (model/case_walk.hpp) — shared with IoStatistics/EdgeStatistics so
  // the graph and the statistics cannot drift on event order.
  g.add_trace(model::activity_trace(c, f), 1);
}

Dfg build_serial(const model::EventLog& log, const model::Mapping& f) {
  Dfg g;
  for (const model::Case& c : log.cases()) add_case_trace(g, c, f);
  return g;
}

}  // namespace st::dfg
