// Reference checks for two of the paper's claims, shared by the
// figure, property and clock-skew suites, and the staged report oracle
// the report suites hold the folded report to.
//
// flow_violations: any graph produced by build_serial, a sink fold or
// a merge satisfies flow conservation — every activity node is entered
// exactly as often as it is left, and exactly as often as the activity
// occurs:
//
//   (1) Σ out-edges(●) == Σ in-edges(■) == trace_count
//   (2) for every activity a:
//         Σ in-edges(a) == Σ out-edges(a) == node_count(a)
//   (3) every edge endpoint is a known node; ● has no in-edges and
//       ■ no out-edges.
//
// shift_host_clocks: the paper notes (Sec. IV-B) that for processes
// distributed across hosts the system clocks must be synchronized for
// max-concurrency to be exact, but that unsynchronized clocks "do not
// affect the DFG construction or the other metrics". This applies a
// per-host offset to every event's start timestamp (durations
// untouched), producing the log an unsynchronized cluster would have
// recorded, so the claim can be asserted on the shifted log.
//
// staged_report_data: a report's sections computed the staged way, one
// serial pass per section (Sec. V step 3's DFG, Sec. IV-B's activity
// statistics, the edge gaps, the case table) — what report_data's one
// fold of the report's sinks must reproduce field by field.
#pragma once

#include <map>
#include <string>
#include <utility>
#include <vector>

#include "dfg/builder.hpp"
#include "dfg/dfg.hpp"
#include "dfg/edge_stats.hpp"
#include "dfg/stats.hpp"
#include "model/case_stats.hpp"
#include "model/event_log.hpp"
#include "model/mapping.hpp"
#include "report/report.hpp"

namespace st::testing {

/// Human-readable flow-conservation violations of `g` (empty == valid).
inline std::vector<std::string> flow_violations(const dfg::Dfg& g) {
  using dfg::Dfg;
  std::vector<std::string> violations;
  std::map<dfg::Activity, std::uint64_t> in_flow;
  std::map<dfg::Activity, std::uint64_t> out_flow;

  for (const auto& [edge, count] : g.edges()) {
    const auto& [from, to] = edge;
    if (!g.has_node(from)) violations.push_back("edge from unknown node: " + from);
    if (!g.has_node(to)) violations.push_back("edge to unknown node: " + to);
    if (to == Dfg::start_node()) violations.push_back("in-edge into the start marker");
    if (from == Dfg::end_node()) violations.push_back("out-edge from the end marker");
    out_flow[from] += count;
    in_flow[to] += count;
  }

  if (out_flow[Dfg::start_node()] != g.trace_count()) {
    violations.push_back("start out-flow " + std::to_string(out_flow[Dfg::start_node()]) +
                         " != trace count " + std::to_string(g.trace_count()));
  }
  if (in_flow[Dfg::end_node()] != g.trace_count()) {
    violations.push_back("end in-flow " + std::to_string(in_flow[Dfg::end_node()]) +
                         " != trace count " + std::to_string(g.trace_count()));
  }

  for (const auto& [node, count] : g.nodes()) {
    if (node == Dfg::start_node() || node == Dfg::end_node()) continue;
    if (in_flow[node] != count) {
      violations.push_back("node '" + node + "' in-flow " + std::to_string(in_flow[node]) +
                           " != occurrence count " + std::to_string(count));
    }
    if (out_flow[node] != count) {
      violations.push_back("node '" + node + "' out-flow " + std::to_string(out_flow[node]) +
                           " != occurrence count " + std::to_string(count));
    }
  }
  return violations;
}

/// A copy of `log` with every event's start shifted by the offset of
/// its host (hosts without an entry are unshifted).
inline model::EventLog shift_host_clocks(const model::EventLog& log,
                                         const std::map<std::string, Micros>& offsets) {
  model::EventLog out;
  out.adopt_owners_of(log);  // shifted events still view the source's storage
  for (const model::Case& c : log.cases()) {
    const auto it = offsets.find(c.id().host);
    const Micros offset = it == offsets.end() ? 0 : it->second;
    std::vector<model::Event> events(c.events().begin(), c.events().end());
    for (model::Event& e : events) e.start += offset;
    out.add_case(model::Case(c.id(), std::move(events)));
  }
  return out;
}

/// The staged ReportData of `log`: every section but variants and
/// data health, each from its own pass over the log.
inline report::ReportData staged_report_data(const model::EventLog& log, const model::Mapping& f,
                                             const report::ReportOptions& opts = {}) {
  report::ReportData data;
  data.graph = dfg::build_serial(log, f);
  data.stats = dfg::IoStatistics::compute(log, f);
  data.edge_stats = dfg::EdgeStatistics::compute(log, f);
  data.case_summaries = model::summarize_cases(log);
  data.case_count = log.case_count();
  data.total_events = log.total_events();
  if (opts.timeline_activity) {
    data.timeline = dfg::IoStatistics::timeline(log, f, *opts.timeline_activity);
  }
  return data;
}

}  // namespace st::testing
