#include "model/query.hpp"

#include <algorithm>
#include <charconv>
#include <optional>

#include "parallel/algorithms.hpp"
#include "parallel/thread_pool.hpp"
#include "support/strings.hpp"

namespace st::model {
namespace {

// ---- the wire grammar's value atoms ------------------------------------
//
// An atom is rendered bare when every byte is printable ASCII and none
// of it collides with the grammar's structure (space separates
// clauses; ',' and '}' terminate set members; '"' and '\' introduce
// quoting). Anything else — spaces, control bytes, UTF-8, the
// structural characters themselves — renders double-quoted with \",
// \\ and \xHH escapes. parse_atom accepts both spellings, so
// describe()'s choice is a canonicalization, not a restriction.

bool atom_is_bare(std::string_view a) {
  if (a.empty()) return false;
  for (const unsigned char c : a) {
    if (c <= 0x20 || c >= 0x7f) return false;
    if (c == '"' || c == '\\' || c == ',' || c == '{' || c == '}') return false;
  }
  return true;
}

std::string render_atom(std::string_view a) {
  if (atom_is_bare(a)) return std::string(a);
  static constexpr char kHex[] = "0123456789abcdef";
  std::string out = "\"";
  for (const unsigned char c : a) {
    if (c == '"') {
      out += "\\\"";
    } else if (c == '\\') {
      out += "\\\\";
    } else if (c < 0x20 || c >= 0x7f) {
      out += "\\x";
      out += kHex[c >> 4];
      out += kHex[c & 0xf];
    } else {
      out += static_cast<char>(c);
    }
  }
  out += '"';
  return out;
}

/// Renders a brace-set clause: name{atom,atom,...}.
template <class Range>
std::string render_set(std::string_view name, const Range& values) {
  std::string out(name);
  out += '{';
  bool first = true;
  for (const auto& v : values) {
    if (!first) out += ',';
    out += render_atom(v);
    first = false;
  }
  out += '}';
  return out;
}

// ---- the parser --------------------------------------------------------

class Cursor {
 public:
  explicit Cursor(std::string_view text) : text_(text) {}

  [[nodiscard]] bool done() const { return pos_ >= text_.size(); }
  [[nodiscard]] std::size_t pos() const { return pos_; }
  [[nodiscard]] char peek() const { return text_[pos_]; }

  [[noreturn]] void fail(const std::string& what) const { throw QueryParseError(what, pos_); }

  void skip_spaces() {
    while (!done() && text_[pos_] == ' ') ++pos_;
  }

  /// Consumes `lit` if it is next; false (no movement) otherwise.
  bool consume(std::string_view lit) {
    if (text_.substr(pos_).starts_with(lit)) {
      pos_ += lit.size();
      return true;
    }
    return false;
  }

  void expect(char c, const char* context) {
    if (done() || peek() != c) {
      fail(std::string("expected '") + c + "' " + context);
    }
    ++pos_;
  }

  /// One value atom: quoted (escapes decoded) or bare. A bare atom
  /// runs until a character of `terminators`, end of input, or a space;
  /// any other non-bare character is an error — quote such values.
  std::string parse_atom(std::string_view terminators) {
    if (!done() && peek() == '"') return parse_quoted();
    const std::size_t start = pos_;
    std::string out;
    while (!done()) {
      const char c = peek();
      if (c == ' ' || terminators.find(c) != std::string_view::npos) break;
      const auto u = static_cast<unsigned char>(c);
      if (u <= 0x20 || u >= 0x7f || c == '"' || c == '\\' || c == ',' || c == '{' || c == '}') {
        fail("character needs a quoted value");
      }
      out += c;
      ++pos_;
    }
    if (pos_ == start) fail("empty value (write it quoted: \"\")");
    return out;
  }

  std::int64_t parse_int() {
    const char* begin = text_.data() + pos_;
    const char* end = text_.data() + text_.size();
    std::int64_t value = 0;
    const auto [ptr, ec] = std::from_chars(begin, end, value);
    if (ec != std::errc() || ptr == begin) fail("expected integer");
    pos_ += static_cast<std::size_t>(ptr - begin);
    return value;
  }

  /// The members of a brace set, up to and including the closing '}'.
  /// Lenient about spaces around members and separators — the
  /// canonical form has none, but hand-typed requests do.
  std::vector<std::string> parse_atom_list() {
    std::vector<std::string> out;
    skip_spaces();
    if (consume("}")) return out;
    for (;;) {
      out.push_back(parse_atom(",}"));
      skip_spaces();
      if (consume(",")) {
        skip_spaces();
        continue;
      }
      if (consume("}")) break;
      fail("expected ',' or '}' in set");
    }
    return out;
  }

 private:
  std::string parse_quoted() {
    ++pos_;  // the opening quote
    std::string out;
    while (!done()) {
      const char c = peek();
      if (c == '"') {
        ++pos_;
        return out;
      }
      if (c == '\\') {
        ++pos_;
        if (done()) fail("truncated escape");
        const char e = peek();
        if (e == '"' || e == '\\') {
          out += e;
          ++pos_;
        } else if (e == 'x') {
          ++pos_;
          if (pos_ + 2 > text_.size()) fail("truncated \\xHH escape");
          const int hi = hex_digit(text_[pos_]);
          const int lo = hex_digit(text_[pos_ + 1]);
          if (hi < 0 || lo < 0) fail("bad \\xHH escape");
          out += static_cast<char>((hi << 4) | lo);
          pos_ += 2;
        } else {
          fail("unknown escape (\\\", \\\\ and \\xHH only)");
        }
      } else {
        out += c;
        ++pos_;
      }
    }
    fail("unterminated quoted value");
  }

  static int hex_digit(char c) {
    if (c >= '0' && c <= '9') return c - '0';
    if (c >= 'a' && c <= 'f') return c - 'a' + 10;
    if (c >= 'A' && c <= 'F') return c - 'A' + 10;
    return -1;
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

void sort_unique(std::vector<std::string>& v) {
  std::sort(v.begin(), v.end());
  v.erase(std::unique(v.begin(), v.end()), v.end());
}

/// What both apply() overloads keep of a case: nothing when the case-level
/// restrictions drop it, else its matching events (an empty case stays).
std::optional<Case> apply_case(const Query& q, const Case& c) {
  if (!q.matches_case(c)) return std::nullopt;
  return c.filtered([&q](const Event& e) { return q.matches(e); });
}

}  // namespace

bool call_in_family(std::string_view call, std::string_view family) {
  if (call == family) return true;
  // The variants: p<family>64, <family>v, p<family>v, p<family>v2.
  const auto is_variant = [&](bool p_prefix, std::string_view suffix) {
    const std::size_t want = (p_prefix ? 1 : 0) + family.size() + suffix.size();
    if (call.size() != want) return false;
    std::string_view rest = call;
    if (p_prefix) {
      if (rest.front() != 'p') return false;
      rest.remove_prefix(1);
    }
    if (rest.substr(0, family.size()) != family) return false;
    return rest.substr(family.size()) == suffix;
  };
  return is_variant(true, "64") || is_variant(false, "v") || is_variant(true, "v") ||
         is_variant(true, "v2");
}

Query Query::fp_contains(std::string substr) const {
  Query q = *this;
  q.fp_substrings_.push_back(std::move(substr));
  // Conjunctive restrictions are order-insensitive: keep them sorted +
  // deduplicated so describe() is canonical without a render-time sort.
  sort_unique(q.fp_substrings_);
  return q;
}

Query Query::calls(std::vector<std::string> families) const {
  Query q = *this;
  for (auto& f : families) q.call_families_.push_back(std::move(f));
  sort_unique(q.call_families_);
  // Precompile the family match: call_in_family accepts exactly five
  // spellings per family, so the whole accept set is finite — expand
  // it into one sorted vector and matches() binary-searches it.
  q.compiled_calls_.clear();
  q.compiled_calls_.reserve(q.call_families_.size() * 5);
  for (const auto& f : q.call_families_) {
    q.compiled_calls_.push_back(f);
    q.compiled_calls_.push_back("p" + f + "64");
    q.compiled_calls_.push_back(f + "v");
    q.compiled_calls_.push_back("p" + f + "v");
    q.compiled_calls_.push_back("p" + f + "v2");
  }
  sort_unique(q.compiled_calls_);
  return q;
}

Query Query::between(Micros from, Micros to) const {
  Query q = *this;
  q.from_ = from;
  q.to_ = to;
  return q;
}

Query Query::cids(std::set<std::string> cids) const {
  Query q = *this;
  q.cids_ = std::move(cids);
  return q;
}

Query Query::hosts(std::set<std::string> hosts) const {
  Query q = *this;
  q.hosts_ = std::move(hosts);
  return q;
}

bool Query::matches(const Event& e) const {
  for (const auto& needle : fp_substrings_) {
    if (!contains(e.fp, needle)) return false;
  }
  if (!compiled_calls_.empty()) {
    const auto it = std::lower_bound(
        compiled_calls_.begin(), compiled_calls_.end(), e.call,
        [](const std::string& a, std::string_view b) { return std::string_view(a) < b; });
    if (it == compiled_calls_.end() || *it != e.call) return false;
  }
  return e.start >= from_ && e.start < to_;
}

bool Query::matches_case(const Case& c) const {
  if (cids_ && !cids_->contains(c.id().cid)) return false;
  if (hosts_ && !hosts_->contains(c.id().host)) return false;
  return true;
}

EventLog Query::apply(const EventLog& log) const {
  EventLog out;
  out.adopt_owners_of(log);  // the view keeps the source's strings alive
  for (const Case& c : log.cases()) {
    if (auto filtered = apply_case(*this, c)) out.add_case(std::move(*filtered));
  }
  return out;
}

EventLog Query::apply(const EventLog& log, ThreadPool& pool) const {
  const std::span<const Case> cases = log.cases();
  EventLog out;
  out.adopt_owners_of(log);
  // Per-case filtering is independent work; nullopt marks cases the
  // case-level restrictions drop. Collecting in input order afterwards
  // reproduces the serial apply() byte for byte.
  std::vector<std::optional<Case>> kept(cases.size());
  parallel_for(pool, 0, cases.size(),
               [&](std::size_t i) { kept[i] = apply_case(*this, cases[i]); });
  for (auto& k : kept) {
    if (k) out.add_case(std::move(*k));
  }
  return out;
}

std::string Query::describe() const {
  // Clauses joined by single spaces in the fixed grammar order —
  // members already sorted by the builders, so this render IS the
  // canonical form (and therefore the Catalog cache fingerprint).
  std::string out;
  const auto clause = [&out](std::string_view text) {
    if (!out.empty()) out += ' ';
    out += text;
  };
  for (const auto& s : fp_substrings_) clause("fp~" + render_atom(s));
  if (!call_families_.empty()) clause(render_set("calls", call_families_));
  if (from_ != std::numeric_limits<Micros>::min() ||
      to_ != std::numeric_limits<Micros>::max()) {
    clause("t[" + std::to_string(from_) + "," + std::to_string(to_) + ")");
  }
  if (cids_) clause(render_set("cids", *cids_));
  if (hosts_) clause(render_set("hosts", *hosts_));
  return out.empty() ? "all" : out;
}

Query Query::parse(std::string_view text) {
  Query q;
  Cursor cur(text);
  cur.skip_spaces();
  if (cur.done()) cur.fail("empty query (the unrestricted query is \"all\")");
  // "all" is only valid alone — it names the absence of clauses.
  {
    Cursor probe = cur;
    if (probe.consume("all")) {
      probe.skip_spaces();
      if (probe.done()) return q;
    }
  }
  while (!cur.done()) {
    if (cur.consume("fp~")) {
      q = q.fp_contains(cur.parse_atom(""));
    } else if (cur.consume("calls{")) {
      q = q.calls(cur.parse_atom_list());
    } else if (cur.consume("t[")) {
      // Lenient about spaces around the bounds, like the brace sets.
      cur.skip_spaces();
      const Micros from = cur.parse_int();
      cur.skip_spaces();
      cur.expect(',', "between the window bounds");
      cur.skip_spaces();
      const Micros to = cur.parse_int();
      cur.skip_spaces();
      cur.expect(')', "after the time window (half-open: t[from,to))");
      q = q.between(from, to);
    } else if (cur.consume("cids{")) {
      auto atoms = cur.parse_atom_list();
      q = q.cids(std::set<std::string>(std::make_move_iterator(atoms.begin()),
                                       std::make_move_iterator(atoms.end())));
    } else if (cur.consume("hosts{")) {
      auto atoms = cur.parse_atom_list();
      q = q.hosts(std::set<std::string>(std::make_move_iterator(atoms.begin()),
                                        std::make_move_iterator(atoms.end())));
    } else {
      cur.fail("unknown clause (fp~ / calls{} / t[,) / cids{} / hosts{})");
    }
    if (!cur.done()) {
      if (cur.peek() != ' ') cur.fail("expected space between clauses");
      cur.skip_spaces();
    }
  }
  return q;
}

bool Query::operator==(const Query& other) const {
  // compiled_calls_ is derived from call_families_, so it is excluded.
  return fp_substrings_ == other.fp_substrings_ && call_families_ == other.call_families_ &&
         from_ == other.from_ && to_ == other.to_ && cids_ == other.cids_ &&
         hosts_ == other.hosts_;
}

}  // namespace st::model
