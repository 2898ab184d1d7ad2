// Mapping f : E ⇀ A — the partial function from events to activities
// (paper Sec. IV). A mapping both *abstracts* (many events -> one
// activity name) and *queries* (events mapped to nullopt are excluded
// from the activity trace), exactly the dual role the paper describes:
// "an activity-log can be seen as a query and an abstraction applied
// to an event-log through the mapping f".
//
// Activities are strings; composite activities produced by the built-in
// factories use '\n' between the call name and the path abstraction
// ("read\n/usr/lib"), which renders as a two-line node label in DOT —
// the visual style of the paper's figures.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "model/event.hpp"

namespace st::model {

using Activity = std::string;

/// Site-specific path abstraction used by the IOR experiments (f-bar):
/// longest-prefix match of the file path against named site prefixes
/// ("$SCRATCH", "$HOME", "$SOFTWARE"); anything unmatched falls back to
/// `default_label` ("Node Local" in the paper's figures).
class SitePathMap {
 public:
  SitePathMap() = default;
  explicit SitePathMap(std::string default_label) : default_label_(std::move(default_label)) {}

  /// Registers prefix -> label ("/p/scratch" -> "$SCRATCH"). Longest
  /// prefix wins regardless of registration order.
  void add_prefix(std::string prefix, std::string label);

  /// Result of matching a path against the registered prefixes.
  struct Match {
    std::string label;            ///< site label or default label
    std::string_view remainder;   ///< path after the matched prefix ("" if default)
    bool matched = false;         ///< false when the default label applied
  };
  [[nodiscard]] Match match(std::string_view fp) const;

  [[nodiscard]] std::string abstract(std::string_view fp) const;
  [[nodiscard]] const std::string& default_label() const { return default_label_; }

  /// The JUWELS-like layout used by our IOR reproduction:
  ///   /p/scratch   -> $SCRATCH      /p/home     -> $HOME
  ///   /p/software  -> $SOFTWARE     /usr, /etc, /dev, /proc, /tmp -> Node Local
  [[nodiscard]] static SitePathMap juwels_like();

 private:
  std::vector<std::pair<std::string, std::string>> prefixes_;
  std::string default_label_ = "Node Local";
};

/// The key a mapping declares: what of an event its value may depend
/// on. The declaration is fixed by how the mapping is built, never set
/// by a caller:
///   kEvent   any field of the event. `custom`, `filtered(name, pred)`
///            and the public constructor: f runs once per event;
///   kCallFp  the event's (call, fp) alone. The four factories, and
///            `filtered_fp` over one of them: f(e) == f(e') whenever
///            e.call == e'.call and e.fp == e'.fp, so map_case
///            (model/mapped_case.hpp) may evaluate f once per distinct
///            (call, fp) and reuse the result for every event sharing
///            it. Copies of such a mapping share one memo identity
///            (key_id()), so they may share one memo.
class Mapping {
 public:
  using Fn = std::function<std::optional<Activity>(const Event&)>;
  enum class Key { kEvent, kCallFp };

  Mapping() = default;
  Mapping(std::string name, Fn fn) : name_(std::move(name)), fn_(std::move(fn)) {}

  /// Applies the partial function. nullopt == event not mapped.
  [[nodiscard]] std::optional<Activity> operator()(const Event& e) const {
    return fn_ ? fn_(e) : std::nullopt;
  }

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] bool valid() const { return static_cast<bool>(fn_); }

  /// The declared key (see Key).
  [[nodiscard]] Key key() const { return key_id_ ? Key::kCallFp : Key::kEvent; }

  /// For a kCallFp mapping, a token shared by it and its copies only:
  /// two mappings with the same token are the same function of
  /// (call, fp). Null for a kEvent mapping.
  [[nodiscard]] const std::shared_ptr<const void>& key_id() const { return key_id_; }

  // -- composition ---------------------------------------------------

  /// Restricts the mapping to events whose fp contains `substr`
  /// (e.g. the "/usr/lib" query of Fig. 4). Keeps a kCallFp key.
  [[nodiscard]] Mapping filtered_fp(std::string_view substr) const;

  /// Restricts the mapping with an arbitrary predicate. The result is
  /// keyed kEvent: the predicate may read any field.
  [[nodiscard]] Mapping filtered(std::string name,
                                 std::function<bool(const Event&)> pred) const;

  // -- factories -----------------------------------------------------

  /// f-hat (Eq. 4): "call\n" + fp truncated to its top `levels`
  /// directories. Example: read of /usr/lib/x/libc.so -> "read\n/usr/lib".
  [[nodiscard]] static Mapping call_top_dirs(int levels);

  /// Fig. 4 style: "call\n" + last `n` path components
  /// ("read\nx86_64-linux-gnu/libc.so.6").
  [[nodiscard]] static Mapping call_last_components(int n);

  /// Activity = call name only.
  [[nodiscard]] static Mapping call_only();

  /// f-bar (Sec. V): "call\n" + site abstraction of the path, with the
  /// site map applied at `extra_levels` below a matched prefix so that
  /// "$SCRATCH/ssf" vs "$SCRATCH/fpp" can be distinguished when
  /// extra_levels == 1 (Fig. 8b) or collapsed when 0 (Fig. 8a).
  [[nodiscard]] static Mapping call_site(SitePathMap map, int extra_levels = 0);

  /// Fully custom mapping.
  [[nodiscard]] static Mapping custom(std::string name, Fn fn) {
    return Mapping(std::move(name), std::move(fn));
  }

 private:
  /// A kCallFp mapping (the factories and filtered_fp build these).
  [[nodiscard]] static Mapping keyed_by_call_fp(std::string name, Fn fn);

  std::string name_;
  Fn fn_;
  std::shared_ptr<const void> key_id_;  ///< non-null iff kCallFp
};

/// The registry behind every CLI --map flag AND the shard protocol:
/// a Mapping wraps a std::function, so it cannot cross a process
/// boundary — shard workers receive one of these short names instead
/// and rebuild the mapping locally. Accepted names:
///   top1|top2    call_top_dirs(1|2)
///   last1|last2  call_last_components(1|2)
///   call         call_only()
///   site|site1   call_site(juwels_like, 0|1)
/// Throws ParseError on anything else.
[[nodiscard]] Mapping mapping_by_name(const std::string& name);

}  // namespace st::model
