// Composable event-log queries — and the system's wire format.
//
// The paper frames the DFG as "a response to a query applied through f
// on the event-log". This module makes the query side first-class: a
// Query accumulates independent restrictions — file-path substring,
// call families, a wall-clock time window, cid/host selection — and
// applies them in one pass. Queries are value types; chaining returns
// a new Query (builder style), so partially-built queries can be
// shared.
//
//   auto q = Query().fp_contains("/p/scratch")
//                   .calls({"read", "write"})
//                   .between(t0, t1);
//   EventLog view = q.apply(log);
//
// The grammar (ISSUE 9): describe() renders the query as CANONICAL
// text and parse() inverts it, so the same string is simultaneously
//   - the wire format of the trace-query service (corpus/serve.hpp),
//   - the cache fingerprint of corpus::Catalog's memoized artifacts,
//   - the human-readable summary it always was.
// Canonical means: clauses in the fixed order fp / calls / t / cids /
// hosts, one space between clauses, set-valued restrictions sorted and
// deduplicated, and every value atom rendered bare when it is safe or
// double-quoted (\", \\, \xHH escapes) when it is not. On canonical
// strings parse ∘ describe is the identity:
//
//   fp~/p/scratch calls{read,write} t[10,200) cids{a,b} hosts{node1}
//   all                                  (the unrestricted query)
//   fp~"odd atom" calls{"we ird"}        (quoted atoms round-trip too)
//
// parse() accepts lenient spacing and unsorted sets; describe() of the
// result is canonical again (parse-then-describe canonicalizes).
// Malformed input throws QueryParseError, which carries the byte
// offset of the offending character.
#pragma once

#include <cstddef>
#include <limits>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "model/event_log.hpp"
#include "support/errors.hpp"

namespace st {
class ThreadPool;
}

namespace st::model {

/// Malformed query text. Derives from ParseError so generic CLI/server
/// error handling keeps working; position() is the byte offset into
/// the parsed string where the problem starts (also in the message).
class QueryParseError : public ParseError {
 public:
  QueryParseError(const std::string& what, std::size_t position)
      : ParseError(what + " at offset " + std::to_string(position)), position_(position) {}

  [[nodiscard]] std::size_t position() const { return position_; }

 private:
  std::size_t position_;
};

class Query {
 public:
  /// Keep events whose path contains `substr` (conjunctive with any
  /// previously added path restriction). Restrictions are conjunctive,
  /// so the builder stores them sorted + deduplicated — the canonical
  /// order describe() renders.
  [[nodiscard]] Query fp_contains(std::string substr) const;

  /// Keep events whose call belongs to one of the given families.
  /// A family name matches itself plus its p*/…v variants ("read"
  /// also matches pread64, readv, preadv, preadv2), mirroring the
  /// paper's "variants of read" selections. The finite variant set is
  /// expanded into a flat sorted set here, once per Query, so matches()
  /// does a binary search per event instead of re-deriving the
  /// variants (call_in_family) per event. Families are stored sorted +
  /// deduplicated (canonical form).
  [[nodiscard]] Query calls(std::vector<std::string> families) const;

  /// Keep events with start in [from, to).
  [[nodiscard]] Query between(Micros from, Micros to) const;

  /// Keep cases with one of the given cids.
  [[nodiscard]] Query cids(std::set<std::string> cids) const;

  /// Keep cases on one of the given hosts.
  [[nodiscard]] Query hosts(std::set<std::string> hosts) const;

  /// True iff the event satisfies all event-level restrictions.
  [[nodiscard]] bool matches(const Event& e) const;

  /// True iff the case satisfies all case-level restrictions.
  [[nodiscard]] bool matches_case(const Case& c) const;

  /// The per-case unit of apply(): nullopt when the case-level
  /// restrictions drop the case, otherwise the case filtered to the
  /// matching events (possibly empty — empty cases are kept, like
  /// filter_fp). Both apply() overloads are folds of this over the
  /// cases; thread-safe (const, uses the precompiled call set).
  [[nodiscard]] std::optional<Case> apply_case(const Case& c) const;

  /// Applies case restrictions, then event restrictions.
  [[nodiscard]] EventLog apply(const EventLog& log) const;

  /// Same result as apply(log) — case order, per-case event order and
  /// ownership propagation are byte-identical — with the per-case
  /// filtering fanned out over `pool`.
  [[nodiscard]] EventLog apply(const EventLog& log, ThreadPool& pool) const;

  /// The canonical text form (grammar above): wire format, cache
  /// fingerprint and human-readable summary in one. "all" when no
  /// restriction is set.
  [[nodiscard]] std::string describe() const;

  /// Inverts describe(): parses the query grammar (lenient spacing,
  /// unsorted sets accepted). Throws QueryParseError with the byte
  /// offset on malformed input. parse(q.describe()).describe() ==
  /// q.describe() for every Query q.
  [[nodiscard]] static Query parse(std::string_view text);

  /// Two queries are equal iff they restrict identically — exactly
  /// when their canonical forms coincide.
  [[nodiscard]] bool operator==(const Query& other) const;

  // -- read access for container selection (elog/v2_select.hpp) -------
  // elog::select compiles these against a file's string dictionary; the
  // semantics stay defined by matches()/matches_case() above, which the
  // equivalence tests hold the selection to byte-for-byte.

  /// Conjunctive path substrings (sorted + deduplicated).
  [[nodiscard]] const std::vector<std::string>& fp_substrings() const { return fp_substrings_; }
  /// The expanded call accept-set (sorted; empty = no call restriction).
  [[nodiscard]] const std::vector<std::string>& compiled_calls() const { return compiled_calls_; }
  [[nodiscard]] Micros from() const { return from_; }
  [[nodiscard]] Micros to() const { return to_; }
  [[nodiscard]] bool has_window() const {
    return from_ != std::numeric_limits<Micros>::min() ||
           to_ != std::numeric_limits<Micros>::max();
  }
  [[nodiscard]] const std::optional<std::set<std::string>>& cid_set() const { return cids_; }
  [[nodiscard]] const std::optional<std::set<std::string>>& host_set() const { return hosts_; }

 private:
  std::vector<std::string> fp_substrings_;   ///< sorted + deduplicated
  std::vector<std::string> call_families_;   ///< sorted + deduplicated
  std::vector<std::string> compiled_calls_;  ///< sorted expansion of call_families_
  Micros from_ = std::numeric_limits<Micros>::min();
  Micros to_ = std::numeric_limits<Micros>::max();
  std::optional<std::set<std::string>> cids_;
  std::optional<std::set<std::string>> hosts_;
};

/// True if `call` belongs to `family` (read -> pread64/readv/...).
/// Allocation-free so it can sit on per-event hot paths.
[[nodiscard]] bool call_in_family(std::string_view call, std::string_view family);

}  // namespace st::model
