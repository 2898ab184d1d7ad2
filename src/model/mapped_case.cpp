#include "model/mapped_case.hpp"

#include <limits>
#include <string>
#include <utility>

#include "support/errors.hpp"

namespace st::model {

ActivityDict::ActivityDict() {
  intern(Activity(kStartActivity));
  intern(Activity(kEndActivity));
}

std::uint32_t ActivityDict::intern(Activity&& a) {
  const auto [it, inserted] = ids_.try_emplace(std::move(a), size());
  if (inserted) names_.push_back(&it->first);
  return it->second;
}

std::uint32_t ActivityDict::map(const Event& e, const Mapping& f) {
  const auto eval = [&] {
    auto a = f(e);
    return a ? intern(std::move(*a)) : kUnmapped;
  };
  if (f.key() != Mapping::Key::kCallFp) return eval();
  if (memo_of_ != f.key_id()) {
    memo_.clear();
    memo_of_ = f.key_id();
  }
  if (const auto it = memo_.find(CallFpView{e.call, e.fp}); it != memo_.end()) {
    return it->second;
  }
  const std::uint32_t id = eval();
  memo_.emplace(CallFp(e.call, e.fp), id);
  return id;
}

void map_case(const Case& c, const Mapping& f, ActivityDict& dict, MappedCase& out) {
  const auto events = c.events();
  if (events.size() > std::numeric_limits<std::uint32_t>::max()) {
    throw LogicError("map_case: a case of " + std::to_string(events.size()) +
                     " events exceeds 32-bit event indices");
  }
  out.activities.clear();
  out.events.clear();
  out.activities.reserve(events.size());
  out.events.reserve(events.size());
  for (std::uint32_t i = 0; i < events.size(); ++i) {
    if (const std::uint32_t id = dict.map(events[i], f); id != ActivityDict::kUnmapped) {
      out.activities.push_back(id);
      out.events.push_back(i);
    }
  }
}

}  // namespace st::model
