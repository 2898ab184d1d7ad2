// strace-format writer.
//
// Produces lines byte-compatible with `strace -f -tt -T -y` from
// RawRecords. The simulator uses this to materialize synthetic traces,
// which then flow through the *same parser* as real strace output —
// guaranteeing the analysis pipeline is exercised end to end.
#pragma once

#include <string>
#include <vector>

#include "strace/record.hpp"

namespace st::strace {

/// Formats a Complete record as one strace line (no trailing newline).
/// Unfinished/Resumed records format as their respective line shapes.
[[nodiscard]] std::string format_record(const RawRecord& rec);

/// Convenience: renders a full trace text from a record sequence.
[[nodiscard]] std::string format_trace(const std::vector<RawRecord>& records);

/// Renders records from multiple pids the way `strace -f` does when
/// calls overlap in time (Fig. 2c): a call during which another event
/// from a different pid occurs is split into an "<unfinished ...>"
/// line at its start timestamp and a "<... call resumed>" line at its
/// return; return value and duration appear only on the resumed line.
/// Non-overlapping records render as ordinary complete lines. The
/// output parses back (through ResumeMerger) to the input records.
[[nodiscard]] std::string format_trace_interleaved(std::vector<RawRecord> records);

}  // namespace st::strace
