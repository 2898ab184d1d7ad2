// DFG construction directly from an event log and a mapping.
//
// build_serial is the single-pass O(n) construction of Sec. V step 3,
// in strings: each case's activity trace goes into Dfg::add_trace. It
// is the reference for the scalable construction of refs [24][25],
// pipeline::DfgSink, which counts per-task partial graphs over dense
// activity ids (model/mapped_case.hpp) while the trace files are still
// parsing, names them once per partial and merges them through the
// Dfg monoid.
#pragma once

#include "dfg/dfg.hpp"
#include "model/event_log.hpp"
#include "model/mapping.hpp"

namespace st::dfg {

/// One pass over the cases; no intermediate ActivityLog materialized.
[[nodiscard]] Dfg build_serial(const model::EventLog& log, const model::Mapping& f);

}  // namespace st::dfg
