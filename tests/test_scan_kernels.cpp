// Differential fuzz test for the SWAR/SIMD scan kernels: the kernels
// (find_*, on the widest backend compiled in — AVX2 under -mavx2), the
// portable SWAR fallback (find_*_swar) and every kernel-backed scanner
// must be byte-identical to the scalar reference implementations over
// randomized adversarial inputs — quotes, escapes, brackets, NUL and
// high-bit bytes, all lengths around the 8/16/32-byte block
// boundaries.
// Runs under the asan-ubsan preset like the whole suite, which also
// proves the wide loads never read outside the input view.
#include "strace/scan_kernels.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "strace/scan.hpp"
#include "support/rng.hpp"

namespace st::strace {
namespace {

/// Random string biased towards the bytes the kernels classify,
/// including NUL, newline and >= 0x80 bytes (SWAR sign pitfalls).
std::string random_input(Xoshiro256& rng, std::size_t len) {
  static constexpr char kSpecials[] = {'"', '\\', '(', ')', '[', ']',
                                       '{', '}', ',', '\n', '\0'};
  std::string s;
  s.reserve(len);
  for (std::size_t i = 0; i < len; ++i) {
    const std::uint64_t roll = rng.below(100);
    if (roll < 40) {
      s.push_back(kSpecials[rng.below(sizeof kSpecials)]);
    } else if (roll < 50) {
      s.push_back(static_cast<char>(0x80 + rng.below(0x80)));  // high-bit bytes
    } else {
      s.push_back(static_cast<char>('a' + rng.below(26)));
    }
  }
  return s;
}

void expect_same_positions(std::string_view s) {
  // Every start position exercises all head/block/tail alignments.
  for (std::size_t pos = 0; pos <= s.size(); ++pos) {
    for (const char c : {'\n', '\0'}) {
      const std::size_t want = kernels::find_byte_scalar(s, pos, c);
      ASSERT_EQ(kernels::find_byte(s, pos, c), want)
          << "find_byte(" << int{c} << ") at " << pos << " in " << testing::PrintToString(s);
      ASSERT_EQ(kernels::find_byte_swar(s, pos, c), want)
          << "swar find_byte(" << int{c} << ") at " << pos << " in "
          << testing::PrintToString(s);
    }
    const std::size_t quote = kernels::find_quote_or_backslash_scalar(s, pos);
    ASSERT_EQ(kernels::find_quote_or_backslash(s, pos), quote)
        << "find_quote_or_backslash at " << pos << " in " << testing::PrintToString(s);
    ASSERT_EQ(kernels::find_quote_or_backslash_swar(s, pos), quote)
        << "swar find_quote_or_backslash at " << pos << " in " << testing::PrintToString(s);
    const std::size_t structural = kernels::find_structural_scalar(s, pos);
    ASSERT_EQ(kernels::find_structural(s, pos), structural)
        << "find_structural at " << pos << " in " << testing::PrintToString(s);
    ASSERT_EQ(kernels::find_structural_swar(s, pos), structural)
        << "swar find_structural at " << pos << " in " << testing::PrintToString(s);
  }
}

void expect_same_scanners(std::string_view s) {
  std::vector<std::string_view> kernel_fields;
  std::vector<std::string_view> scalar_fields;
  split_args_into(s, kernel_fields);
  split_args_into_scalar(s, scalar_fields);
  ASSERT_EQ(kernel_fields, scalar_fields) << "split_args on " << testing::PrintToString(s);

  for (std::size_t pos = 0; pos < s.size(); ++pos) {
    if (s[pos] == '"') {
      ASSERT_EQ(skip_quoted(s, pos), skip_quoted_scalar(s, pos))
          << "skip_quoted at " << pos << " in " << testing::PrintToString(s);
    }
    if (s[pos] == '(') {
      ASSERT_EQ(find_matching_paren(s, pos), find_matching_paren_scalar(s, pos))
          << "find_matching_paren at " << pos << " in " << testing::PrintToString(s);
    }
  }
}

TEST(ScanKernelsTest, FuzzKernelsMatchScalarReference) {
  Xoshiro256 rng(0x5ca9);
  for (int round = 0; round < 400; ++round) {
    const std::string s = random_input(rng, rng.below(96));
    expect_same_positions(s);
    expect_same_scanners(s);
  }
}

TEST(ScanKernelsTest, FuzzLongInputs) {
  // Long enough that the wide-block loops dominate and block
  // boundaries land everywhere relative to the matches.
  Xoshiro256 rng(0xbeef);
  for (int round = 0; round < 20; ++round) {
    const std::string s = random_input(rng, 256 + rng.below(1024));
    ASSERT_EQ(kernels::find_byte(s, 0, '\n'), kernels::find_byte_scalar(s, 0, '\n'));
    ASSERT_EQ(kernels::find_byte_swar(s, 0, '\n'), kernels::find_byte_scalar(s, 0, '\n'));
    ASSERT_EQ(kernels::find_structural(s, 0), kernels::find_structural_scalar(s, 0));
    ASSERT_EQ(kernels::find_structural_swar(s, 0), kernels::find_structural_scalar(s, 0));
    expect_same_scanners(s);
  }
}

TEST(ScanKernelsTest, BlockBoundaryLengths) {
  // A lone special byte at every position of every length around the
  // SWAR (8), SIMD (16) and AVX2 (32) block sizes.
  for (std::size_t len : {1u, 7u, 8u, 9u, 15u, 16u, 17u, 31u, 32u, 33u, 47u, 48u, 49u, 63u,
                          64u, 65u, 95u, 96u, 97u}) {
    for (std::size_t at = 0; at < len; ++at) {
      for (const char c : {'"', '\\', ')', ',', '\n'}) {
        std::string s(len, 'x');
        s[at] = c;
        expect_same_positions(s);
      }
    }
  }
}

TEST(ScanKernelsTest, EmptyAndMissing) {
  using Find = std::size_t (*)(std::string_view, std::size_t, char);
  using FindClass = std::size_t (*)(std::string_view, std::size_t);
  const struct {
    Find byte;
    FindClass quote;
    FindClass structural;
  } backends[] = {
      {kernels::find_byte, kernels::find_quote_or_backslash, kernels::find_structural},
      {kernels::find_byte_swar, kernels::find_quote_or_backslash_swar,
       kernels::find_structural_swar},
  };
  for (const auto& k : backends) {
    EXPECT_EQ(k.byte("", 0, '\n'), kernels::npos);
    EXPECT_EQ(k.structural("", 0), kernels::npos);
    EXPECT_EQ(k.structural("plain text, no wait", 5), 10u);
    EXPECT_EQ(k.quote("plain text no specials", 0), kernels::npos);
    const std::string plain(200, 'a');
    EXPECT_EQ(k.structural(plain, 0), kernels::npos);
    EXPECT_EQ(k.byte(plain, 64, 'b'), kernels::npos);
    // pos past the end is a clean miss, not a read.
    EXPECT_EQ(k.byte(plain, plain.size() + 10, 'a'), kernels::npos);
  }
}

TEST(ScanKernelsTest, StructuralClassIsExact) {
  // Neighbours of the class members under the |0x01 / |0x20 collapses
  // must NOT match: e.g. '(' 0x28 collapses with ')' 0x29, but '*' 0x2A,
  // '[' 0x5B vs 'z' 0x7A, '|' 0x7C, '~' 0x7E must stay out.
  const std::string_view members = "\"()[]{},";
  for (int b = 0; b < 256; ++b) {
    const char c = static_cast<char>(b);
    std::string s(17, 'x');  // one SIMD block + tail
    s[3] = c;
    s[16] = c;
    const std::size_t want = members.find(c) != std::string_view::npos ? 3u : kernels::npos;
    EXPECT_EQ(kernels::find_structural(s, 0), want) << "byte " << b;
    EXPECT_EQ(kernels::find_structural_swar(s, 0), want) << "swar byte " << b;
  }
}

TEST(ScanKernelsTest, TraceShapedLines) {
  // Real syntax shapes from the parser's hot path.
  const std::string_view lines[] = {
      R"(9054  08:55:54.153994 read(3</usr/lib/x86_64-linux-gnu/libselinux.so.1>, "\177ELF\2\1\1"..., 832) = 832 <0.000203>)",
      R"(42  10:00:00.000000 openat(AT_FDCWD, "/p/scratch/ssf/test", O_RDWR|O_CREAT, 0644) = 5 <0.000150>)",
      R"(7  10:00:00.000100 fstat(3, {st_mode=S_IFREG|0644, st_size=100}) = 0)",
      R"raw(8  10:00:00.000200 writev(4</p/f>, [{iov_base="a,b", iov_len=3}, {iov_base=")", iov_len=1}], 2) = 4)raw",
      R"(9  10:00:00.000300 read(3</p/f>, <unfinished ...>)",
      R"(9  10:00:00.000400 <... read resumed> "x\"y\\z", 405) = 404 <0.000223>)",
  };
  for (const auto line : lines) {
    expect_same_positions(line);
    expect_same_scanners(line);
  }
}

TEST(ScanKernelsTest, BackendAndModeControls) {
  const auto backend = kernels::scan_kernel_backend();
  EXPECT_TRUE(backend == "avx2" || backend == "sse2" || backend == "neon" || backend == "swar")
      << backend;
}

}  // namespace
}  // namespace st::strace
