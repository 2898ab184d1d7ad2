#include "model/mapping.hpp"

#include <algorithm>

#include "support/errors.hpp"
#include "support/strings.hpp"

namespace st::model {

void SitePathMap::add_prefix(std::string prefix, std::string label) {
  prefixes_.emplace_back(std::move(prefix), std::move(label));
  // Longest-prefix-first so the first hit below is the longest match.
  std::stable_sort(prefixes_.begin(), prefixes_.end(), [](const auto& a, const auto& b) {
    return a.first.size() > b.first.size();
  });
}

SitePathMap::Match SitePathMap::match(std::string_view fp) const {
  for (const auto& [prefix, label] : prefixes_) {
    if (fp.starts_with(prefix)) {
      return Match{label, fp.substr(prefix.size()), true};
    }
  }
  return Match{default_label_, {}, false};
}

std::string SitePathMap::abstract(std::string_view fp) const { return match(fp).label; }

SitePathMap SitePathMap::juwels_like() {
  SitePathMap map("Node Local");
  map.add_prefix("/p/scratch", "$SCRATCH");
  map.add_prefix("/p/home", "$HOME");
  map.add_prefix("/p/software", "$SOFTWARE");
  return map;
}

Mapping Mapping::keyed_by_call_fp(std::string name, Fn fn) {
  Mapping f(std::move(name), std::move(fn));
  f.key_id_ = std::make_shared<const char>('\0');
  return f;
}

Mapping Mapping::filtered_fp(std::string_view substr) const {
  Mapping f = filtered(name_ + "|fp~" + std::string(substr),
                       [needle = std::string(substr)](const Event& e) {
                         return contains(e.fp, needle);
                       });
  // A predicate on fp keeps a function of (call, fp) one.
  if (key() == Key::kCallFp) return keyed_by_call_fp(std::move(f.name_), std::move(f.fn_));
  return f;
}

Mapping Mapping::filtered(std::string name, std::function<bool(const Event&)> pred) const {
  return Mapping(std::move(name),
                 [inner = fn_, pred = std::move(pred)](const Event& e) -> std::optional<Activity> {
                   if (!pred(e)) return std::nullopt;
                   return inner(e);
                 });
}

Mapping Mapping::call_top_dirs(int levels) {
  return keyed_by_call_fp("call_top_dirs(" + std::to_string(levels) + ")",
                          [levels](const Event& e) -> std::optional<Activity> {
                            return std::string(e.call) + "\n" + top_dirs(e.fp, levels);
                          });
}

Mapping Mapping::call_last_components(int n) {
  return keyed_by_call_fp("call_last_components(" + std::to_string(n) + ")",
                          [n](const Event& e) -> std::optional<Activity> {
                            return std::string(e.call) + "\n" + last_components(e.fp, n);
                          });
}

Mapping Mapping::call_only() {
  return keyed_by_call_fp("call_only", [](const Event& e) -> std::optional<Activity> {
    return std::string(e.call);
  });
}

Mapping Mapping::call_site(SitePathMap map, int extra_levels) {
  return keyed_by_call_fp(
      "call_site(+" + std::to_string(extra_levels) + ")",
      [map = std::move(map), extra_levels](const Event& e) -> std::optional<Activity> {
        const auto m = map.match(e.fp);
        std::string label = m.label;
        if (extra_levels > 0 && m.matched) {
          // Append up to `extra_levels` components after the site root:
          // /p/scratch/ssf/test with +1 -> $SCRATCH/ssf (Fig. 8b).
          std::string_view rest = m.remainder;
          int taken = 0;
          std::size_t pos = 0;
          while (taken < extra_levels && pos < rest.size()) {
            while (pos < rest.size() && rest[pos] == '/') ++pos;
            if (pos >= rest.size()) break;
            std::size_t end = rest.find('/', pos);
            if (end == std::string_view::npos) end = rest.size();
            label += "/";
            label += rest.substr(pos, end - pos);
            pos = end;
            ++taken;
          }
        }
        return std::string(e.call) + "\n" + label;
      });
}

Mapping mapping_by_name(const std::string& name) {
  if (name == "top1") return Mapping::call_top_dirs(1);
  if (name == "top2") return Mapping::call_top_dirs(2);
  if (name == "last1") return Mapping::call_last_components(1);
  if (name == "last2") return Mapping::call_last_components(2);
  if (name == "call") return Mapping::call_only();
  if (name == "site") return Mapping::call_site(SitePathMap::juwels_like(), 0);
  if (name == "site1") return Mapping::call_site(SitePathMap::juwels_like(), 1);
  throw ParseError("unknown mapping (use top1|top2|last1|last2|call|site|site1): " + name);
}

}  // namespace st::model
