#include "dfg/builder.hpp"

namespace st::dfg {

namespace {

/// Folds ONE case's activity trace into `g` — the unit step of
/// build_serial.
void add_case_trace(Dfg& g, const model::Case& c, const model::Mapping& f) {
  g.add_trace(model::activity_trace(c, f), 1);
}

}  // namespace

Dfg build_serial(const model::EventLog& log, const model::Mapping& f) {
  Dfg g;
  for (const model::Case& c : log.cases()) add_case_trace(g, c, f);
  return g;
}

}  // namespace st::dfg
