// Low-level scanning helpers for strace's argument syntax.
//
// strace argument lists contain C string literals with escapes
// ("a\n\"b\331"...), nested braces/brackets (struct and array dumps)
// and the -y fd annotations "3</path/to/file>". These helpers let the
// record parser find structural positions without fully interpreting
// the argument values. Everything is zero-copy: results view into the
// input except decode_c_string, which interns into a StringArena only
// when the literal actually contains escapes.
//
// The scanners run on the vectorized kernels of strace/scan_kernels.hpp
// (AVX2/SSE2/NEON/SWAR block scans instead of a branch per byte); the
// original byte loops are kept as *_scalar reference implementations,
// and the differential fuzz test (test_scan_kernels) asserts the
// kernel-backed versions are byte-identical to them on adversarial
// inputs.
#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "strace/arena.hpp"

namespace st::strace {

/// Given `s[open_paren] == '('`, returns the index of the matching ')'
/// honoring quoted strings and nested (), [], {}. nullopt if unbalanced.
[[nodiscard]] std::optional<std::size_t> find_matching_paren(std::string_view s,
                                                             std::size_t open_paren);

/// Given `s[start] == '"'`, returns the index one past the closing
/// quote, honoring backslash escapes. nullopt if unterminated.
[[nodiscard]] std::optional<std::size_t> skip_quoted(std::string_view s, std::size_t start);

/// Splits a raw argument string on top-level commas (commas inside
/// quotes/braces/brackets/parens do not split). Fields are trimmed.
/// Appends into `out` (cleared first) so the parse loop can reuse one
/// vector across lines instead of allocating per record.
void split_args_into(std::string_view args, std::vector<std::string_view>& out);

/// Convenience wrapper allocating a fresh vector.
[[nodiscard]] std::vector<std::string_view> split_args(std::string_view args);

/// Decodes a C-style string literal body (no surrounding quotes):
/// handles \n \t \r \0 \\ \" \xHH and octal \NNN escapes.
[[nodiscard]] std::string decode_c_string(std::string_view body);

/// Zero-copy variant: returns `body` unchanged when it contains no
/// backslash (the overwhelmingly common case for paths), otherwise
/// decodes into `arena` and returns the interned view.
[[nodiscard]] std::string_view decode_c_string(std::string_view body, StringArena& arena);

/// Parses an fd-with-path annotation "3</usr/lib/libc.so.6>"
/// or "4<socket:[12345]>". Returns (fd, path-inside-angle-brackets);
/// the path views into `token`.
struct FdPath {
  int fd = -1;
  std::string_view path;
};
[[nodiscard]] std::optional<FdPath> parse_fd_annotation(std::string_view token);

// -- scalar reference implementations ------------------------------------
// The pre-kernel byte-at-a-time loops, kept verbatim as the behavioural
// reference the kernel-backed scanners above are differentially tested
// against. Not for production call sites.

[[nodiscard]] std::optional<std::size_t> skip_quoted_scalar(std::string_view s,
                                                            std::size_t start);
[[nodiscard]] std::optional<std::size_t> find_matching_paren_scalar(std::string_view s,
                                                                    std::size_t open_paren);
void split_args_into_scalar(std::string_view args, std::vector<std::string_view>& out);

}  // namespace st::strace
