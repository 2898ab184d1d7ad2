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
    if (auto a = f(events[i])) {
      out.activities.push_back(dict.intern(std::move(*a)));
      out.events.push_back(i);
    }
  }
}

}  // namespace st::model
