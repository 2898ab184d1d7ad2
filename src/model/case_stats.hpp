// Per-case summaries: the "how big is each trace file" view that
// precedes any DFG analysis — syscall counts per call name, bytes read
// and written, total system time, and the case's wall-clock span.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "model/event_log.hpp"

namespace st::model {

struct CaseSummary {
  CaseId id;
  std::size_t events = 0;
  std::map<std::string, std::size_t, std::less<>> calls;  ///< call name -> count
  std::int64_t bytes_read = 0;               ///< read-family transfers
  std::int64_t bytes_written = 0;            ///< write-family transfers
  Micros total_dur = 0;                      ///< Σ e[dur]
  Micros first_start = 0;
  Micros last_end = 0;

  [[nodiscard]] Micros span() const { return last_end - first_start; }

  /// All-integer content, so equality is exact — the streaming sink's
  /// byte-identity contract with the staged overloads rests on it.
  [[nodiscard]] bool operator==(const CaseSummary&) const = default;
};

/// Summary of one case.
[[nodiscard]] CaseSummary summarize_case(const Case& c);

/// Monoid-shaped accumulator of case summaries: the per-case
/// summarize + input-order merge core both consumers — summarize_cases
/// and the pipeline's CaseStatsSink — are built from. Summaries appear
/// in add()/merge() call order, so folding cases in input order
/// reproduces summarize_cases byte for byte.
struct CaseSummaries {
  std::vector<CaseSummary> summaries;

  void add(const Case& c) { summaries.push_back(summarize_case(c)); }

  /// Appends `other`'s summaries after this one's (associative; the
  /// empty CaseSummaries is the identity).
  void merge(CaseSummaries&& other);
};

/// One summary per case, in the log's case order.
[[nodiscard]] std::vector<CaseSummary> summarize_cases(const EventLog& log);

/// Text table of the summaries (deterministic; one row per case).
[[nodiscard]] std::string render_case_summaries(const std::vector<CaseSummary>& summaries);

}  // namespace st::model
