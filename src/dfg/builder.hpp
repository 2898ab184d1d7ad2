// DFG construction directly from an event log and a mapping.
//
// build_serial is the single-pass O(n) construction of Sec. V step 3.
// The scalable construction of refs [24][25] — per-task partial graphs
// merged through the Dfg monoid — is pipeline::DfgSink, which folds
// add_case_trace per case while the trace files are still parsing.
#pragma once

#include "dfg/dfg.hpp"
#include "model/event_log.hpp"
#include "model/mapping.hpp"

namespace st::dfg {

/// One pass over the cases; no intermediate ActivityLog materialized.
[[nodiscard]] Dfg build_serial(const model::EventLog& log, const model::Mapping& f);

/// Folds ONE case's activity trace into `g` — the unit step of
/// build_serial, exported so pipeline::DfgSink can grow per-task
/// partial graphs that merge to exactly what build_serial produces.
void add_case_trace(Dfg& g, const model::Case& c, const model::Mapping& f);

}  // namespace st::dfg
