#include "dfg/stats.hpp"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <exception>
#include <future>
#include <string_view>
#include <unordered_map>
#include <utility>

#include "parallel/algorithms.hpp"
#include "parallel/thread_pool.hpp"
#include "support/si.hpp"

namespace st::dfg {

std::string ActivityStat::load_label() const {
  std::string out = "Load:";
  append_fixed(out, rel_dur, 2);
  if (has_bytes) {
    out += " (";
    append_bytes(out, static_cast<double>(bytes));
    out += ')';
  }
  return out;
}

std::string ActivityStat::dr_label() const {
  if (rate_samples == 0) return {};
  std::string out = "DR: ";
  append_int(out, max_concurrency);
  out += 'x';
  append_rate_mbps(out, mean_rate);
  return out;
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

namespace {

/// One activity's share of finalize: its contributions in input order,
/// each with the dense id of its case, and the statistic they sum to.
struct ActivityJob {
  struct Source {
    std::uint32_t case_id;
    const IoStatistics::ActivityContribution* con;
  };
  std::vector<Source> sources;
  std::size_t intervals = 0;  ///< the job's size, for largest-first order
  ActivityStat stat;

  /// Sums the contributions: integers plainly, the per-case rate sums
  /// through deterministic_pairwise_sum (one leaf per contributing
  /// case, in input order), the non-empty intervals into one start and
  /// one end column for the (multiset-pure) concurrency sweep.
  void run() {
    std::vector<double> rate_sums;
    std::vector<std::uint32_t> cases;
    std::vector<Micros> starts;
    std::vector<Micros> ends;
    cases.reserve(sources.size());
    starts.reserve(intervals);
    ends.reserve(intervals);
    for (const auto& [case_id, con] : sources) {
      stat.total_dur += con->total_dur;
      stat.event_count += con->event_count;
      stat.bytes += con->bytes;
      stat.has_bytes = stat.has_bytes || con->has_bytes;
      stat.rate_samples += con->rate_samples;
      if (con->rate_samples > 0) rate_sums.push_back(con->rate_sum);
      cases.push_back(case_id);
      for (const Interval& iv : con->intervals) {
        if (iv.end <= iv.start) continue;
        starts.push_back(iv.start);
        ends.push_back(iv.end);
      }
    }
    stat.mean_rate = stat.rate_samples > 0 ? deterministic_pairwise_sum(rate_sums) /
                                                 static_cast<double>(stat.rate_samples)
                                           : 0.0;
    std::vector<Micros> sort_buffer;
    stat.max_concurrency = max_concurrency_of_columns(starts, ends, sort_buffer);
    std::sort(cases.begin(), cases.end());
    stat.rank_count = static_cast<std::size_t>(std::unique(cases.begin(), cases.end()) -
                                               cases.begin());
    sources = {};
  }
};

}  // namespace

IoStatistics IoStatistics::Partial::finalize(ThreadPool* pool) const {
  // One serial pass lists each activity's contributions. Activities
  // key by views into the cases' own map keys (the partial is const
  // and outlives this call), ordered as the Activity strings are.
  std::map<std::string_view, ActivityJob> jobs;
  // Case ids interned once, so counting an activity's ranks compares
  // integers instead of id strings.
  std::unordered_map<model::CaseId, std::uint32_t> case_ids;
  for (const CaseContribution& c : cases_) {
    if (c.activities.empty()) continue;  // filtered logs keep many such cases
    const std::uint32_t id =
        case_ids.try_emplace(c.id, static_cast<std::uint32_t>(case_ids.size())).first->second;
    for (const auto& [activity, con] : c.activities) {
      ActivityJob& job = jobs[activity];
      job.sources.push_back({id, &con});
      job.intervals += con.intervals.size();
    }
  }

  // Each activity sums alone, in the same order whichever thread runs
  // it, so the doubles are the same bits inline and on the pool. On the
  // pool, workers (and this thread) take activities largest first.
  std::vector<ActivityJob*> order;
  order.reserve(jobs.size());
  for (auto& [activity, job] : jobs) order.push_back(&job);
  if (pool == nullptr || pool->size() <= 1 || order.size() <= 1) {
    for (ActivityJob* job : order) job->run();
  } else {
    std::stable_sort(order.begin(), order.end(), [](const ActivityJob* x, const ActivityJob* y) {
      return x->intervals > y->intervals;
    });
    std::atomic<std::size_t> next{0};
    const auto take = [&] {
      for (std::size_t k = next++; k < order.size(); k = next++) order[k]->run();
    };
    std::vector<std::future<void>> workers;
    std::exception_ptr error;
    try {
      const std::size_t helpers = std::min(pool->size(), order.size() - 1);
      for (std::size_t w = 0; w < helpers; ++w) workers.push_back(pool->submit(take));
      take();
    } catch (...) {
      error = std::current_exception();
    }
    // The tasks use this frame: every one is awaited before anything
    // propagates.
    st::detail::await_all(workers);
    if (error) std::rethrow_exception(error);
  }

  IoStatistics out;
  for (const auto& [activity, job] : jobs) out.total_dur_ += job.stat.total_dur;
  for (auto& [activity, job] : jobs) {
    ActivityStat& stat = job.stat;
    stat.rel_dur = out.total_dur_ > 0
                       ? static_cast<double>(stat.total_dur) / static_cast<double>(out.total_dur_)
                       : 0.0;
    out.stats_.emplace_hint(out.stats_.end(), model::Activity(activity), stat);
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
