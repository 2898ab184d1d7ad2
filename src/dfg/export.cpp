#include "dfg/export.hpp"

#include <algorithm>

#include "support/si.hpp"

namespace st::dfg {

namespace {

std::string flat(const model::Activity& a) {
  std::string out = a;
  std::replace(out.begin(), out.end(), '\n', ' ');
  return out;
}

}  // namespace

std::string csv_field(const std::string& value) {
  if (value.find_first_of(",\"\n") == std::string::npos) return value;
  std::string out = "\"";
  for (const char c : value) {
    if (c == '"') out += '"';
    out += c;
  }
  out += '"';
  return out;
}

std::string stats_to_csv(const IoStatistics& stats) {
  std::string out =
      "activity,events,rel_dur,total_dur_us,bytes,mean_rate_bps,max_concurrency,ranks\n";
  for (const auto& [activity, s] : stats.per_activity()) {
    out += csv_field(flat(activity)) + "," + std::to_string(s.event_count) + "," +
           format_fixed(s.rel_dur, 6) + "," + std::to_string(s.total_dur) + "," +
           (s.has_bytes ? std::to_string(s.bytes) : std::string{}) + "," +
           (s.rate_samples > 0 ? format_fixed(s.mean_rate, 1) : std::string{}) + "," +
           std::to_string(s.max_concurrency) + "," + std::to_string(s.rank_count) + "\n";
  }
  return out;
}

}  // namespace st::dfg
