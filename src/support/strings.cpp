#include "support/strings.hpp"

#include <cctype>
#include <charconv>

namespace st {

std::string_view trim(std::string_view s) {
  std::size_t b = 0;
  std::size_t e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b])) != 0) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1])) != 0) --e;
  return s.substr(b, e - b);
}

std::vector<std::string_view> split(std::string_view s, char sep) {
  std::vector<std::string_view> out;
  std::size_t start = 0;
  while (true) {
    const std::size_t pos = s.find(sep, start);
    if (pos == std::string_view::npos) {
      out.push_back(s.substr(start));
      break;
    }
    out.push_back(s.substr(start, pos - start));
    start = pos + 1;
  }
  return out;
}

std::vector<std::string_view> split_ws(std::string_view s) {
  std::vector<std::string_view> out;
  std::size_t i = 0;
  const std::size_t n = s.size();
  while (i < n) {
    while (i < n && std::isspace(static_cast<unsigned char>(s[i])) != 0) ++i;
    if (i >= n) break;
    std::size_t j = i;
    while (j < n && std::isspace(static_cast<unsigned char>(s[j])) == 0) ++j;
    out.push_back(s.substr(i, j - i));
    i = j;
  }
  return out;
}

namespace {
template <class Range>
std::string join_impl(const Range& parts, std::string_view sep) {
  std::string out;
  bool first = true;
  for (const auto& p : parts) {
    if (!first) out.append(sep);
    out.append(p);
    first = false;
  }
  return out;
}
}  // namespace

std::string join(const std::vector<std::string>& parts, std::string_view sep) {
  return join_impl(parts, sep);
}

std::string join(const std::vector<std::string_view>& parts, std::string_view sep) {
  return join_impl(parts, sep);
}

bool contains(std::string_view s, std::string_view needle) {
  return s.find(needle) != std::string_view::npos;
}

std::optional<std::int64_t> parse_i64(std::string_view s) {
  std::int64_t value = 0;
  const char* first = s.data();
  const char* last = s.data() + s.size();
  auto [ptr, ec] = std::from_chars(first, last, value);
  if (ec != std::errc{} || ptr != last || s.empty()) return std::nullopt;
  return value;
}

std::optional<std::uint64_t> parse_u64(std::string_view s) {
  std::uint64_t value = 0;
  const char* first = s.data();
  const char* last = s.data() + s.size();
  auto [ptr, ec] = std::from_chars(first, last, value);
  if (ec != std::errc{} || ptr != last || s.empty()) return std::nullopt;
  return value;
}

std::optional<double> parse_f64(std::string_view s) {
  double value = 0;
  const char* first = s.data();
  const char* last = s.data() + s.size();
  auto [ptr, ec] = std::from_chars(first, last, value);
  if (ec != std::errc{} || ptr != last || s.empty()) return std::nullopt;
  return value;
}

std::string top_dirs(std::string_view path, int levels) {
  if (path.empty() || path.front() != '/' || levels <= 0) return std::string(path);
  // Count '/'-separated components from the root; stop after `levels`.
  std::size_t seen = 0;
  for (std::size_t i = 1; i < path.size(); ++i) {
    if (path[i] == '/') {
      ++seen;
      if (seen == static_cast<std::size_t>(levels)) return std::string(path.substr(0, i));
    }
  }
  return std::string(path);
}

std::string last_components(std::string_view path, int n) {
  if (n <= 0) return std::string{};
  const auto parts = split(path, '/');
  std::vector<std::string_view> keep;
  for (const auto& p : parts) {
    if (!p.empty()) keep.push_back(p);
  }
  if (keep.size() > static_cast<std::size_t>(n)) {
    keep.erase(keep.begin(), keep.end() - n);
  }
  return join(keep, "/");
}

void append_markup_escaped(std::string& out, std::string_view s, bool quote) {
  std::size_t run = 0;  // start of the bytes not yet appended
  for (std::size_t i = 0; i < s.size(); ++i) {
    std::string_view entity;
    switch (s[i]) {
      case '&': entity = "&amp;"; break;
      case '<': entity = "&lt;"; break;
      case '>': entity = "&gt;"; break;
      case '"':
        if (quote) entity = "&quot;";
        break;
      default: break;
    }
    if (entity.empty()) continue;
    out.append(s.data() + run, i - run);
    out += entity;
    run = i + 1;
  }
  out.append(s.data() + run, s.size() - run);
}

std::string dot_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (c == '\n') {
      out.append("\\n");
      continue;
    }
    out.push_back(c);
  }
  return out;
}

}  // namespace st
