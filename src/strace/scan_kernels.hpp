// Vectorized byte-classification kernels for the strace scan layer.
//
// The byte-at-a-time loops in skip_quoted / find_matching_paren /
// split_args became the dominant cost of parsing once ingestion went
// zero-copy: almost every byte of a trace line is ordinary path or
// argument text, and the scalar loops spend a branch per byte deciding
// it is uninteresting. These kernels answer the one question those
// loops actually ask — "where is the next byte I must look at?" — over
// 8 bytes (portable SWAR) or 16 bytes (SSE2 / NEON) per step:
//
//   find_byte                next occurrence of one byte (reader's
//                            '\n' line splitting),
//   find_quote_or_backslash  next '"' or '\\' (quoted-literal scan),
//   find_structural          next of  " ( ) [ ] { } ,  (bracket
//                            matching and argument splitting).
//
// Exactness contract: every kernel returns the index of the FIRST
// member byte at or after `pos`, or npos — no false positives, no
// false negatives, for arbitrary bytes including NUL and >= 0x80. The
// SWAR masks use the exact per-byte zero test (no borrow bleed), so
// the first-match property holds on both endiannesses.
//
// Memory-safety contract: kernels never read outside
// [s.data(), s.data() + s.size()). Wide loads are issued only for
// whole 8/16-byte blocks inside the view (via memcpy / loadu); the
// tail is scanned scalar. This keeps the kernels clean under
// AddressSanitizer, which the asan-ubsan preset runs over the whole
// suite.
//
// Backend selection is fixed at compile time: AVX2 (32-byte blocks,
// when compiled with -mavx2 / -march=native), then SSE2 (all x86-64)
// or NEON (aarch64), and SWAR otherwise. Under AVX2 the sub-32-byte
// tail is finished on the SSE2 path, so only the final sub-16 bytes go
// scalar. The *_scalar loops are the references and *_swar is the
// portable fallback; test_scan_kernels holds find_* and find_*_swar
// against the references.
#pragma once

#include <cstddef>
#include <string_view>

namespace st::strace::kernels {

inline constexpr std::size_t npos = std::string_view::npos;

/// Name of the backend find_* run on: "avx2", "sse2", "neon" or
/// "swar".
[[nodiscard]] std::string_view scan_kernel_backend();

/// True for the structural class the scanners stop on:  " ( ) [ ] { } ,
[[nodiscard]] constexpr bool is_structural_byte(char c) {
  switch (c) {
    case '"':
    case '(':
    case ')':
    case '[':
    case ']':
    case '{':
    case '}':
    case ',':
      return true;
    default:
      return false;
  }
}

// -- the kernels (the backend compiled in) -------------------------------

/// Index of the first `c` at or after `pos`, npos if none.
[[nodiscard]] std::size_t find_byte(std::string_view s, std::size_t pos, char c);

/// Index of the first '"' or '\\' at or after `pos`, npos if none.
[[nodiscard]] std::size_t find_quote_or_backslash(std::string_view s, std::size_t pos);

/// Index of the first structural byte (is_structural_byte) at or after
/// `pos`, npos if none.
[[nodiscard]] std::size_t find_structural(std::string_view s, std::size_t pos);

// -- the references and the portable fallback ----------------------------

[[nodiscard]] std::size_t find_byte_scalar(std::string_view s, std::size_t pos, char c);
[[nodiscard]] std::size_t find_quote_or_backslash_scalar(std::string_view s, std::size_t pos);
[[nodiscard]] std::size_t find_structural_scalar(std::string_view s, std::size_t pos);

[[nodiscard]] std::size_t find_byte_swar(std::string_view s, std::size_t pos, char c);
[[nodiscard]] std::size_t find_quote_or_backslash_swar(std::string_view s, std::size_t pos);
[[nodiscard]] std::size_t find_structural_swar(std::string_view s, std::size_t pos);

}  // namespace st::strace::kernels
