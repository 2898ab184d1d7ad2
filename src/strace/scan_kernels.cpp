#include "strace/scan_kernels.hpp"

#include <bit>
#include <cstdint>
#include <cstring>

#if defined(__AVX2__)
#include <immintrin.h>
#define ST_SCAN_HAVE_SSE2 1  // AVX2 implies SSE2; the 16-byte path scans the tail
#define ST_SCAN_HAVE_AVX2 1
#elif defined(__SSE2__)
#include <emmintrin.h>
#define ST_SCAN_HAVE_SSE2 1
#elif defined(__ARM_NEON) && defined(__aarch64__)
#include <arm_neon.h>
#define ST_SCAN_HAVE_NEON 1
#endif

namespace st::strace::kernels {

namespace {

// ---- SWAR primitives ---------------------------------------------------

constexpr std::uint64_t kOnes = 0x0101010101010101ULL;
constexpr std::uint64_t kHighs = 0x8080808080808080ULL;
constexpr std::uint64_t kLow7 = 0x7F7F7F7F7F7F7F7FULL;

inline std::uint64_t load_word(const char* p) {
  std::uint64_t w;
  std::memcpy(&w, p, sizeof w);  // single unaligned mov after optimization
  return w;
}

/// 0x80 in every byte of `w` equal to the byte replicated in `pat`,
/// 0x00 elsewhere. Exact per byte — the naive haszero(x ^ pat) trick
/// lets the subtraction borrow bleed flags into bytes past the first
/// real match, which would break the first-match scan on big-endian.
inline std::uint64_t byte_eq_mask(std::uint64_t w, std::uint64_t pat) {
  const std::uint64_t x = w ^ pat;
  return ~(x | ((x & kLow7) + kLow7)) & kHighs;
}

/// 0x80 per byte in the structural class  " ( ) [ ] { } , .
/// '(' 0x28 / ')' 0x29 collapse under | 0x01; '[' 0x5B / '{' 0x7B and
/// ']' 0x5D / '}' 0x7D collapse under | 0x20 — three comparisons cover
/// six brackets exactly (no other byte maps onto the targets).
inline std::uint64_t structural_mask(std::uint64_t w) {
  const std::uint64_t w01 = w | (kOnes * 0x01);
  const std::uint64_t w20 = w | (kOnes * 0x20);
  return byte_eq_mask(w, kOnes * static_cast<std::uint8_t>('"')) |
         byte_eq_mask(w, kOnes * static_cast<std::uint8_t>(',')) |
         byte_eq_mask(w01, kOnes * 0x29) | byte_eq_mask(w20, kOnes * 0x7B) |
         byte_eq_mask(w20, kOnes * 0x7D);
}

/// Byte offset of the lowest-indexed flag in an exact 0x80-per-byte mask.
inline std::size_t first_flagged_byte(std::uint64_t mask) {
  if constexpr (std::endian::native == std::endian::little) {
    return static_cast<std::size_t>(std::countr_zero(mask)) >> 3;
  } else {
    return static_cast<std::size_t>(std::countl_zero(mask)) >> 3;
  }
}

/// Shared word-loop shape: scan whole 8-byte blocks with `mask_fn`,
/// finish the sub-word tail with `scalar_pred`. Never reads past
/// s.data() + s.size().
template <class MaskFn, class ScalarPred>
std::size_t scan_swar(std::string_view s, std::size_t pos, MaskFn mask_fn,
                      ScalarPred scalar_pred) {
  const char* p = s.data();
  const std::size_t n = s.size();
  std::size_t i = pos;
  for (; i + 8 <= n; i += 8) {
    const std::uint64_t mask = mask_fn(load_word(p + i));
    if (mask != 0) return i + first_flagged_byte(mask);
  }
  for (; i < n; ++i) {
    if (scalar_pred(p[i])) return i;
  }
  return npos;
}

#if defined(ST_SCAN_HAVE_SSE2)

template <class BlockFn, class ScalarPred>
std::size_t scan_sse2(std::string_view s, std::size_t pos, BlockFn block_fn,
                      ScalarPred scalar_pred) {
  const char* p = s.data();
  const std::size_t n = s.size();
  std::size_t i = pos;
  for (; i + 16 <= n; i += 16) {
    const __m128i w = _mm_loadu_si128(reinterpret_cast<const __m128i*>(p + i));
    const int mask = _mm_movemask_epi8(block_fn(w));
    if (mask != 0) {
      return i + static_cast<std::size_t>(std::countr_zero(static_cast<unsigned>(mask)));
    }
  }
  for (; i < n; ++i) {
    if (scalar_pred(p[i])) return i;
  }
  return npos;
}

inline __m128i sse2_structural(__m128i w) {
  const __m128i w01 = _mm_or_si128(w, _mm_set1_epi8(0x01));
  const __m128i w20 = _mm_or_si128(w, _mm_set1_epi8(0x20));
  __m128i hits = _mm_cmpeq_epi8(w, _mm_set1_epi8('"'));
  hits = _mm_or_si128(hits, _mm_cmpeq_epi8(w, _mm_set1_epi8(',')));
  hits = _mm_or_si128(hits, _mm_cmpeq_epi8(w01, _mm_set1_epi8(0x29)));
  hits = _mm_or_si128(hits, _mm_cmpeq_epi8(w20, _mm_set1_epi8(0x7B)));
  hits = _mm_or_si128(hits, _mm_cmpeq_epi8(w20, _mm_set1_epi8(0x7D)));
  return hits;
}

#if defined(ST_SCAN_HAVE_AVX2)

/// 32-byte blocks (-mavx2 / release-native builds). The sub-32-byte
/// tail is finished on the 16-byte SSE2 scan, so only the final sub-16
/// bytes ever go scalar. Same memory-safety contract as the other
/// backends: whole blocks only, never a load past s.data() + s.size().
template <class BlockFn, class BlockFn16, class ScalarPred>
std::size_t scan_avx2(std::string_view s, std::size_t pos, BlockFn block_fn,
                      BlockFn16 block_fn16, ScalarPred scalar_pred) {
  const char* p = s.data();
  const std::size_t n = s.size();
  std::size_t i = pos;
  for (; i + 32 <= n; i += 32) {
    const __m256i w = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p + i));
    const auto mask = static_cast<unsigned>(_mm256_movemask_epi8(block_fn(w)));
    if (mask != 0) {
      return i + static_cast<std::size_t>(std::countr_zero(mask));
    }
  }
  return scan_sse2(s, i, block_fn16, scalar_pred);
}

inline __m256i avx2_structural(__m256i w) {
  const __m256i w01 = _mm256_or_si256(w, _mm256_set1_epi8(0x01));
  const __m256i w20 = _mm256_or_si256(w, _mm256_set1_epi8(0x20));
  __m256i hits = _mm256_cmpeq_epi8(w, _mm256_set1_epi8('"'));
  hits = _mm256_or_si256(hits, _mm256_cmpeq_epi8(w, _mm256_set1_epi8(',')));
  hits = _mm256_or_si256(hits, _mm256_cmpeq_epi8(w01, _mm256_set1_epi8(0x29)));
  hits = _mm256_or_si256(hits, _mm256_cmpeq_epi8(w20, _mm256_set1_epi8(0x7B)));
  hits = _mm256_or_si256(hits, _mm256_cmpeq_epi8(w20, _mm256_set1_epi8(0x7D)));
  return hits;
}

#endif

#elif defined(ST_SCAN_HAVE_NEON)

/// 4-bit-per-byte movemask emulation: narrowing shift packs each
/// byte's top nibble into a 64-bit word, so countr_zero / 4 recovers
/// the first matching byte index.
inline std::uint64_t neon_nibble_mask(uint8x16_t hits) {
  const uint8x8_t narrowed = vshrn_n_u16(vreinterpretq_u16_u8(hits), 4);
  return vget_lane_u64(vreinterpret_u64_u8(narrowed), 0);
}

template <class BlockFn, class ScalarPred>
std::size_t scan_neon(std::string_view s, std::size_t pos, BlockFn block_fn,
                      ScalarPred scalar_pred) {
  const char* p = s.data();
  const std::size_t n = s.size();
  std::size_t i = pos;
  for (; i + 16 <= n; i += 16) {
    const uint8x16_t w = vld1q_u8(reinterpret_cast<const std::uint8_t*>(p + i));
    const std::uint64_t mask = neon_nibble_mask(block_fn(w));
    if (mask != 0) {
      return i + (static_cast<std::size_t>(std::countr_zero(mask)) >> 2);
    }
  }
  for (; i < n; ++i) {
    if (scalar_pred(p[i])) return i;
  }
  return npos;
}

inline uint8x16_t neon_structural(uint8x16_t w) {
  const uint8x16_t w01 = vorrq_u8(w, vdupq_n_u8(0x01));
  const uint8x16_t w20 = vorrq_u8(w, vdupq_n_u8(0x20));
  uint8x16_t hits = vceqq_u8(w, vdupq_n_u8('"'));
  hits = vorrq_u8(hits, vceqq_u8(w, vdupq_n_u8(',')));
  hits = vorrq_u8(hits, vceqq_u8(w01, vdupq_n_u8(0x29)));
  hits = vorrq_u8(hits, vceqq_u8(w20, vdupq_n_u8(0x7B)));
  hits = vorrq_u8(hits, vceqq_u8(w20, vdupq_n_u8(0x7D)));
  return hits;
}

#endif

}  // namespace

std::string_view scan_kernel_backend() {
#if defined(ST_SCAN_HAVE_AVX2)
  return "avx2";
#elif defined(ST_SCAN_HAVE_SSE2)
  return "sse2";
#elif defined(ST_SCAN_HAVE_NEON)
  return "neon";
#else
  return "swar";
#endif
}

// ---- scalar reference --------------------------------------------------

std::size_t find_byte_scalar(std::string_view s, std::size_t pos, char c) {
  for (std::size_t i = pos; i < s.size(); ++i) {
    if (s[i] == c) return i;
  }
  return npos;
}

std::size_t find_quote_or_backslash_scalar(std::string_view s, std::size_t pos) {
  for (std::size_t i = pos; i < s.size(); ++i) {
    if (s[i] == '"' || s[i] == '\\') return i;
  }
  return npos;
}

std::size_t find_structural_scalar(std::string_view s, std::size_t pos) {
  for (std::size_t i = pos; i < s.size(); ++i) {
    if (is_structural_byte(s[i])) return i;
  }
  return npos;
}

// ---- SWAR --------------------------------------------------------------

std::size_t find_byte_swar(std::string_view s, std::size_t pos, char c) {
  const std::uint64_t pat = kOnes * static_cast<std::uint8_t>(c);
  return scan_swar(
      s, pos, [pat](std::uint64_t w) { return byte_eq_mask(w, pat); },
      [c](char b) { return b == c; });
}

std::size_t find_quote_or_backslash_swar(std::string_view s, std::size_t pos) {
  constexpr std::uint64_t quote = kOnes * static_cast<std::uint8_t>('"');
  constexpr std::uint64_t bslash = kOnes * static_cast<std::uint8_t>('\\');
  return scan_swar(
      s, pos,
      [](std::uint64_t w) { return byte_eq_mask(w, quote) | byte_eq_mask(w, bslash); },
      [](char b) { return b == '"' || b == '\\'; });
}

std::size_t find_structural_swar(std::string_view s, std::size_t pos) {
  return scan_swar(
      s, pos, [](std::uint64_t w) { return structural_mask(w); },
      [](char b) { return is_structural_byte(b); });
}

// ---- the kernels: the widest backend compiled in -----------------------

std::size_t find_byte(std::string_view s, std::size_t pos, char c) {
#if defined(ST_SCAN_HAVE_AVX2)
  const __m256i pat = _mm256_set1_epi8(c);
  const __m128i pat16 = _mm_set1_epi8(c);
  return scan_avx2(
      s, pos, [pat](__m256i w) { return _mm256_cmpeq_epi8(w, pat); },
      [pat16](__m128i w) { return _mm_cmpeq_epi8(w, pat16); }, [c](char b) { return b == c; });
#elif defined(ST_SCAN_HAVE_SSE2)
  const __m128i pat = _mm_set1_epi8(c);
  return scan_sse2(
      s, pos, [pat](__m128i w) { return _mm_cmpeq_epi8(w, pat); },
      [c](char b) { return b == c; });
#elif defined(ST_SCAN_HAVE_NEON)
  const uint8x16_t pat = vdupq_n_u8(static_cast<std::uint8_t>(c));
  return scan_neon(
      s, pos, [pat](uint8x16_t w) { return vceqq_u8(w, pat); },
      [c](char b) { return b == c; });
#else
  return find_byte_swar(s, pos, c);
#endif
}

std::size_t find_quote_or_backslash(std::string_view s, std::size_t pos) {
#if defined(ST_SCAN_HAVE_AVX2)
  return scan_avx2(
      s, pos,
      [](__m256i w) {
        return _mm256_or_si256(_mm256_cmpeq_epi8(w, _mm256_set1_epi8('"')),
                               _mm256_cmpeq_epi8(w, _mm256_set1_epi8('\\')));
      },
      [](__m128i w) {
        return _mm_or_si128(_mm_cmpeq_epi8(w, _mm_set1_epi8('"')),
                            _mm_cmpeq_epi8(w, _mm_set1_epi8('\\')));
      },
      [](char b) { return b == '"' || b == '\\'; });
#elif defined(ST_SCAN_HAVE_SSE2)
  return scan_sse2(
      s, pos,
      [](__m128i w) {
        return _mm_or_si128(_mm_cmpeq_epi8(w, _mm_set1_epi8('"')),
                            _mm_cmpeq_epi8(w, _mm_set1_epi8('\\')));
      },
      [](char b) { return b == '"' || b == '\\'; });
#elif defined(ST_SCAN_HAVE_NEON)
  return scan_neon(
      s, pos,
      [](uint8x16_t w) {
        return vorrq_u8(vceqq_u8(w, vdupq_n_u8('"')), vceqq_u8(w, vdupq_n_u8('\\')));
      },
      [](char b) { return b == '"' || b == '\\'; });
#else
  return find_quote_or_backslash_swar(s, pos);
#endif
}

std::size_t find_structural(std::string_view s, std::size_t pos) {
#if defined(ST_SCAN_HAVE_AVX2)
  return scan_avx2(
      s, pos, [](__m256i w) { return avx2_structural(w); },
      [](__m128i w) { return sse2_structural(w); },
      [](char b) { return is_structural_byte(b); });
#elif defined(ST_SCAN_HAVE_SSE2)
  return scan_sse2(
      s, pos, [](__m128i w) { return sse2_structural(w); },
      [](char b) { return is_structural_byte(b); });
#elif defined(ST_SCAN_HAVE_NEON)
  return scan_neon(
      s, pos, [](uint8x16_t w) { return neon_structural(w); },
      [](char b) { return is_structural_byte(b); });
#else
  return find_structural_swar(s, pos);
#endif
}

}  // namespace st::strace::kernels
