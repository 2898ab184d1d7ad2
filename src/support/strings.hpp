// Small string and path utilities used across the library.
//
// Everything operates on std::string_view and returns either views into
// the input (zero-copy splitting) or freshly allocated std::string where
// ownership is required; append_markup_escaped writes onto the end of
// the caller's string instead. All functions are pure.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace st {

/// Removes leading and trailing ASCII whitespace.
[[nodiscard]] std::string_view trim(std::string_view s);

/// Splits `s` on every occurrence of `sep`. Adjacent separators produce
/// empty fields; an empty input produces a single empty field, matching
/// Python's str.split(sep) semantics for a non-space separator.
[[nodiscard]] std::vector<std::string_view> split(std::string_view s, char sep);

/// Splits on runs of ASCII whitespace; never produces empty fields.
[[nodiscard]] std::vector<std::string_view> split_ws(std::string_view s);

/// Joins `parts` with `sep`.
[[nodiscard]] std::string join(const std::vector<std::string>& parts, std::string_view sep);
[[nodiscard]] std::string join(const std::vector<std::string_view>& parts, std::string_view sep);

/// True if `s` contains `needle`.
[[nodiscard]] bool contains(std::string_view s, std::string_view needle);

/// Parses a decimal integer; returns nullopt on any trailing garbage.
[[nodiscard]] std::optional<std::int64_t> parse_i64(std::string_view s);
[[nodiscard]] std::optional<std::uint64_t> parse_u64(std::string_view s);

/// Parses a decimal floating point number (full-string match).
[[nodiscard]] std::optional<double> parse_f64(std::string_view s);

/// Truncates an absolute file path to its top `levels` directory
/// components: top_dirs("/usr/lib/x86_64/libc.so", 2) == "/usr/lib".
/// Paths with fewer components are returned unchanged. Relative paths
/// are returned unchanged. This is the truncation used by the paper's
/// mapping f-hat (Eq. 4).
[[nodiscard]] std::string top_dirs(std::string_view path, int levels);

/// Returns the last `n` components joined by '/':
/// last_components("/usr/lib/x86_64-linux-gnu/libc.so.6", 2)
///   == "x86_64-linux-gnu/libc.so.6"  (the Fig. 4 node naming).
[[nodiscard]] std::string last_components(std::string_view path, int n);

/// Appends `s` to `out` with & < > written as entities, and " too when
/// `quote` is set: text for an SVG or HTML page, escaped in place.
void append_markup_escaped(std::string& out, std::string_view s, bool quote);

/// Escapes a string for embedding inside a DOT double-quoted label.
[[nodiscard]] std::string dot_escape(std::string_view s);

}  // namespace st
