// Tabular export of DFG analysis results.
//
// The paper's workflow ends in rendered graphs; downstream tooling
// (spreadsheets, regression dashboards) wants the same data as CSV.
// Activities with embedded newlines are flattened to "call path" form;
// fields are RFC-4180-quoted when needed.
#pragma once

#include <string>

#include "dfg/stats.hpp"

namespace st::dfg {

/// One row per activity:
/// activity,events,rel_dur,total_dur_us,bytes,mean_rate_bps,max_concurrency,ranks
[[nodiscard]] std::string stats_to_csv(const IoStatistics& stats);

/// RFC-4180 field quoting (used by stats_to_csv; exposed for tests).
[[nodiscard]] std::string csv_field(const std::string& value);

}  // namespace st::dfg
