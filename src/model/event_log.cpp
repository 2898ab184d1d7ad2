#include "model/event_log.hpp"

#include <algorithm>
#include <iterator>
#include <unordered_set>

#include "support/errors.hpp"
#include "support/strings.hpp"

namespace st::model {

Case::Case(CaseId id, std::vector<Event> events) : id_(std::move(id)), events_(std::move(events)) {
  const auto by_start = [](const Event& a, const Event& b) { return a.start < b.start; };
  // Decoders and parsers mostly hand over sorted events; a stable sort
  // of a sorted range is the identity, so skip it.
  if (!std::is_sorted(events_.begin(), events_.end(), by_start)) {
    std::stable_sort(events_.begin(), events_.end(), by_start);
  }
}

Case Case::filtered(const std::function<bool(const Event&)>& pred) const {
  std::vector<Event> kept;
  kept.reserve(events_.size());
  for (const Event& e : events_) {
    if (pred(e)) kept.push_back(e);
  }
  return Case(id_, std::move(kept));
}

strace::StringArena& EventLog::arena() {
  if (!arena_) {
    arena_ = std::make_shared<strace::StringArena>();
    owners_.push_back(arena_);
  }
  return *arena_;
}

std::size_t EventLog::total_events() const {
  std::size_t n = 0;
  for (const auto& c : cases_) n += c.size();
  return n;
}

const Case* EventLog::find_case(const CaseId& id) const {
  for (const auto& c : cases_) {
    if (c.id() == id) return &c;
  }
  return nullptr;
}

EventLog EventLog::filter_fp(std::string_view substr) const {
  return filter_events([substr = std::string(substr)](const Event& e) {
    return contains(e.fp, substr);
  });
}

EventLog EventLog::filter_events(const std::function<bool(const Event&)>& pred) const {
  EventLog out;
  out.adopt_owners_of(*this);
  for (const auto& c : cases_) out.add_case(c.filtered(pred));
  return out;
}

std::pair<EventLog, EventLog> EventLog::partition(
    const std::function<bool(const Case&)>& pred) const {
  EventLog green;
  EventLog red;
  green.adopt_owners_of(*this);
  red.adopt_owners_of(*this);
  for (const auto& c : cases_) {
    (pred(c) ? green : red).add_case(c);
  }
  return {std::move(green), std::move(red)};
}

EventLog EventLog::merge(const EventLog& a, const EventLog& b) {
  return merge(EventLog(a), EventLog(b));
}

EventLog EventLog::merge(EventLog&& a, EventLog&& b) {
  std::unordered_set<CaseId> seen;
  for (const auto* log : {&a, &b}) {
    for (const auto& c : log->cases()) {
      if (!seen.insert(c.id()).second) {
        throw LogicError("EventLog::merge: duplicate case " + c.id().to_string());
      }
    }
  }
  EventLog out;
  out.cases_ = std::move(a.cases_);
  out.cases_.reserve(out.cases_.size() + b.cases_.size());
  std::move(b.cases_.begin(), b.cases_.end(), std::back_inserter(out.cases_));
  out.owners_ = std::move(a.owners_);
  out.adopt_owners_of(b);
  return out;
}

}  // namespace st::model
