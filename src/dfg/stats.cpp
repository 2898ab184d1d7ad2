#include "dfg/stats.hpp"

#include <algorithm>
#include <cstdint>
#include <unordered_map>
#include <utility>

#include "support/si.hpp"

namespace st::dfg {

std::string ActivityStat::load_label() const {
  std::string out = "Load:" + format_ratio(rel_dur);
  if (has_bytes) out += " (" + format_bytes(static_cast<double>(bytes)) + ")";
  return out;
}

std::string ActivityStat::dr_label() const {
  if (rate_samples == 0) return {};
  return "DR: " + std::to_string(max_concurrency) + "x" + format_rate_mbps(mean_rate);
}

double deterministic_pairwise_sum(std::span<const double> xs) {
  // Shape is a pure function of xs.size(): halve, recurse, add.
  if (xs.empty()) return 0.0;
  if (xs.size() == 1) return xs[0];
  const std::size_t half = xs.size() / 2;
  return deterministic_pairwise_sum(xs.first(half)) +
         deterministic_pairwise_sum(xs.subspan(half));
}

void IoStatistics::ActivityContribution::add(const model::Event& e) {
  total_dur += e.dur;
  ++event_count;
  if (e.has_size()) {
    bytes += e.size;
    has_bytes = true;
    if (e.dur > 0) {
      rate_sum += static_cast<double>(e.size) /
                  (static_cast<double>(e.dur) / static_cast<double>(kMicrosPerSecond));
      ++rate_samples;
    }
  }
  intervals.push_back(Interval{e.start, e.end()});
}

void IoStatistics::Partial::add_case(const model::Case& c, const model::Mapping& f) {
  CaseContribution contribution;
  contribution.id = c.id();
  for (const model::Event& e : c.events()) {
    if (auto a = f(e)) contribution.activities[std::move(*a)].add(e);
  }
  cases_.push_back(std::move(contribution));
}

void IoStatistics::Partial::merge(Partial&& other) {
  if (cases_.empty()) {
    cases_ = std::move(other.cases_);
    return;
  }
  cases_.insert(cases_.end(), std::make_move_iterator(other.cases_.begin()),
                std::make_move_iterator(other.cases_.end()));
  other.cases_.clear();
}

IoStatistics IoStatistics::Partial::finalize() const {
  struct Gathered {
    ActivityStat stat;
    std::vector<double> rate_sums;  ///< one leaf per contributing case, input order
    std::vector<std::uint32_t> cases;  ///< dense ids of the contributing case ids
    std::vector<Micros> starts;        ///< of the non-empty intervals
    std::vector<Micros> ends;
  };
  std::map<model::Activity, Gathered> acc;
  // Case ids interned once, so counting an activity's ranks compares
  // integers instead of id strings.
  std::unordered_map<model::CaseId, std::uint32_t> case_ids;

  for (const CaseContribution& c : cases_) {
    if (c.activities.empty()) continue;  // filtered logs keep many such cases
    const std::uint32_t id =
        case_ids.try_emplace(c.id, static_cast<std::uint32_t>(case_ids.size())).first->second;
    for (const auto& [activity, con] : c.activities) {
      Gathered& slot = acc[activity];
      slot.stat.total_dur += con.total_dur;
      slot.stat.event_count += con.event_count;
      slot.stat.bytes += con.bytes;
      slot.stat.has_bytes = slot.stat.has_bytes || con.has_bytes;
      slot.stat.rate_samples += con.rate_samples;
      if (con.rate_samples > 0) slot.rate_sums.push_back(con.rate_sum);
      slot.cases.push_back(id);
      for (const Interval& iv : con.intervals) {
        if (iv.end <= iv.start) continue;
        slot.starts.push_back(iv.start);
        slot.ends.push_back(iv.end);
      }
    }
  }

  IoStatistics out;
  for (const auto& [activity, slot] : acc) {
    out.total_dur_ += slot.stat.total_dur;
  }
  std::vector<Micros> sort_buffer;
  for (auto& [activity, slot] : acc) {
    ActivityStat stat = slot.stat;
    stat.rel_dur = out.total_dur_ > 0
                       ? static_cast<double>(stat.total_dur) / static_cast<double>(out.total_dur_)
                       : 0.0;
    stat.mean_rate = stat.rate_samples > 0
                         ? deterministic_pairwise_sum(slot.rate_sums) /
                               static_cast<double>(stat.rate_samples)
                         : 0.0;
    stat.max_concurrency = max_concurrency_of_columns(slot.starts, slot.ends, sort_buffer);
    std::sort(slot.cases.begin(), slot.cases.end());
    stat.rank_count = static_cast<std::size_t>(
        std::unique(slot.cases.begin(), slot.cases.end()) - slot.cases.begin());
    out.stats_.emplace(activity, std::move(stat));
  }
  return out;
}

std::vector<TimelineEntry> IoStatistics::Partial::timeline(const model::Activity& a) const {
  std::vector<TimelineEntry> out;
  for (const CaseContribution& c : cases_) {
    const auto it = c.activities.find(a);
    if (it == c.activities.end()) continue;
    for (const Interval& interval : it->second.intervals) {
      out.push_back(TimelineEntry{c.id, interval});
    }
  }
  // The pre-sort sequence equals IoStatistics::timeline's (cases in
  // input order, intervals in event order), so the same sort yields
  // the same output — ties included.
  std::sort(out.begin(), out.end(), [](const TimelineEntry& x, const TimelineEntry& y) {
    return x.interval.start < y.interval.start;
  });
  return out;
}

IoStatistics::Partial IoStatistics::Partial::from_cases(std::vector<CaseContribution> cases) {
  Partial p;
  p.cases_ = std::move(cases);
  return p;
}

IoStatistics IoStatistics::compute(const model::EventLog& log, const model::Mapping& f) {
  Partial partial;
  for (const model::Case& c : log.cases()) partial.add_case(c, f);
  return partial.finalize();
}

const ActivityStat* IoStatistics::find(const model::Activity& a) const {
  const auto it = stats_.find(a);
  return it == stats_.end() ? nullptr : &it->second;
}

std::vector<TimelineEntry> IoStatistics::timeline(const model::EventLog& log,
                                                  const model::Mapping& f,
                                                  const model::Activity& a) {
  std::vector<TimelineEntry> out;
  for (const model::Case& c : log.cases()) {
    for (const model::Event& e : c.events()) {
      const auto mapped = f(e);
      if (mapped && *mapped == a) {
        out.push_back(TimelineEntry{c.id(), Interval{e.start, e.end()}});
      }
    }
  }
  std::sort(out.begin(), out.end(), [](const TimelineEntry& x, const TimelineEntry& y) {
    return x.interval.start < y.interval.start;
  });
  return out;
}

}  // namespace st::dfg
