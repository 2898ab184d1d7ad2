#include "model/case_stats.hpp"

#include <algorithm>

#include "model/query.hpp"
#include "support/si.hpp"

namespace st::model {

CaseSummary summarize_case(const Case& c) {
  CaseSummary s;
  s.id = c.id();
  s.events = c.size();
  bool first = true;
  for (const Event& e : c.events()) {
    ++s.calls[std::string(e.call)];
    if (e.has_size()) {
      if (call_in_family(e.call, "read")) s.bytes_read += e.size;
      if (call_in_family(e.call, "write")) s.bytes_written += e.size;
    }
    s.total_dur += e.dur;
    if (first || e.start < s.first_start) s.first_start = e.start;
    s.last_end = std::max(s.last_end, e.end());
    first = false;
  }
  if (c.empty()) {
    s.first_start = 0;
    s.last_end = 0;
  }
  return s;
}

void CaseSummaries::merge(CaseSummaries&& other) {
  if (summaries.empty()) {
    summaries = std::move(other.summaries);
    return;
  }
  summaries.insert(summaries.end(), std::make_move_iterator(other.summaries.begin()),
                   std::make_move_iterator(other.summaries.end()));
}

std::vector<CaseSummary> summarize_cases(const EventLog& log) {
  CaseSummaries acc;
  acc.summaries.reserve(log.case_count());
  for (const Case& c : log.cases()) acc.add(c);
  return std::move(acc.summaries);
}

std::string render_case_summaries(const std::vector<CaseSummary>& summaries) {
  std::string out =
      "case                     events   read        written     io-time     span\n";
  for (const CaseSummary& s : summaries) {
    std::string name = s.id.to_string();
    name.resize(std::max<std::size_t>(24, name.size()), ' ');
    auto pad = [](std::string v, std::size_t w) {
      v.resize(std::max(w, v.size()), ' ');
      return v;
    };
    out += name + " " + pad(std::to_string(s.events), 8) +
           pad(format_bytes(static_cast<double>(s.bytes_read)), 11) + " " +
           pad(format_bytes(static_cast<double>(s.bytes_written)), 11) + " " +
           pad(std::to_string(s.total_dur) + " us", 11) + " " +
           std::to_string(s.span()) + " us\n";
  }
  return out;
}

}  // namespace st::model
