#include "support/strings.hpp"

#include <gtest/gtest.h>

namespace st {
namespace {

TEST(Trim, RemovesBothSides) { EXPECT_EQ(trim("  a b \t\n"), "a b"); }
TEST(Trim, EmptyStaysEmpty) { EXPECT_EQ(trim(""), ""); }
TEST(Trim, AllWhitespaceBecomesEmpty) { EXPECT_EQ(trim(" \t \n"), ""); }
TEST(Trim, NoWhitespaceUntouched) { EXPECT_EQ(trim("abc"), "abc"); }

TEST(Split, BasicFields) {
  const auto parts = split("a,b,c", ',');
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "b");
  EXPECT_EQ(parts[2], "c");
}

TEST(Split, AdjacentSeparatorsGiveEmptyFields) {
  const auto parts = split("a,,c", ',');
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[1], "");
}

TEST(Split, EmptyInputGivesOneEmptyField) {
  const auto parts = split("", ',');
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_EQ(parts[0], "");
}

TEST(Split, TrailingSeparator) {
  const auto parts = split("a,", ',');
  ASSERT_EQ(parts.size(), 2u);
  EXPECT_EQ(parts[1], "");
}

TEST(SplitWs, SkipsRuns) {
  const auto parts = split_ws("  a \t b\n c  ");
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[2], "c");
}

TEST(SplitWs, EmptyGivesNothing) { EXPECT_TRUE(split_ws("   ").empty()); }

TEST(Join, Basic) {
  EXPECT_EQ(join(std::vector<std::string>{"a", "b"}, "/"), "a/b");
}

TEST(Join, SingleElement) {
  EXPECT_EQ(join(std::vector<std::string>{"a"}, ", "), "a");
}

TEST(Join, Empty) { EXPECT_EQ(join(std::vector<std::string>{}, ","), ""); }

TEST(Contains, Finds) {
  EXPECT_TRUE(contains("/usr/lib/libc.so", "/usr/lib"));
  EXPECT_FALSE(contains("/usr/lib", "/usr/local"));
}

TEST(ParseI64, Valid) {
  EXPECT_EQ(parse_i64("42"), 42);
  EXPECT_EQ(parse_i64("-7"), -7);
  EXPECT_EQ(parse_i64("0"), 0);
}

TEST(ParseI64, RejectsGarbage) {
  EXPECT_FALSE(parse_i64("42x"));
  EXPECT_FALSE(parse_i64(""));
  EXPECT_FALSE(parse_i64("4 2"));
  EXPECT_FALSE(parse_i64("0x10"));
}

TEST(ParseU64, RejectsNegative) { EXPECT_FALSE(parse_u64("-1")); }

TEST(ParseF64, Valid) {
  EXPECT_DOUBLE_EQ(*parse_f64("0.5"), 0.5);
  EXPECT_DOUBLE_EQ(*parse_f64("-2.25"), -2.25);
}

TEST(ParseF64, RejectsGarbage) {
  EXPECT_FALSE(parse_f64("1.2.3"));
  EXPECT_FALSE(parse_f64(""));
}

// The mapping of Eq. 4 truncates to at most the top two directories.
TEST(TopDirs, PaperExample) {
  EXPECT_EQ(top_dirs("/usr/lib/x86_64-linux-gnu/libselinux.so.1", 2), "/usr/lib");
}

TEST(TopDirs, ShorterPathUnchanged) {
  EXPECT_EQ(top_dirs("/proc/filesystems", 2), "/proc/filesystems");
  EXPECT_EQ(top_dirs("/etc/locale.alias", 2), "/etc/locale.alias");
}

TEST(TopDirs, ExactDepth) { EXPECT_EQ(top_dirs("/a/b/c", 2), "/a/b"); }

TEST(TopDirs, OneLevel) { EXPECT_EQ(top_dirs("/dev/pts/7", 2), "/dev/pts"); }

TEST(TopDirs, RelativePathUnchanged) { EXPECT_EQ(top_dirs("rel/path/x", 2), "rel/path/x"); }

TEST(TopDirs, EmptyUnchanged) { EXPECT_EQ(top_dirs("", 2), ""); }

TEST(TopDirs, RootOnly) { EXPECT_EQ(top_dirs("/", 2), "/"); }

TEST(LastComponents, Fig4Style) {
  EXPECT_EQ(last_components("/usr/lib/x86_64-linux-gnu/libc.so.6", 2),
            "x86_64-linux-gnu/libc.so.6");
}

TEST(LastComponents, FewerComponentsThanRequested) {
  EXPECT_EQ(last_components("/etc/passwd", 3), "etc/passwd");
}

TEST(LastComponents, One) { EXPECT_EQ(last_components("/a/b/c", 1), "c"); }

TEST(LastComponents, ZeroGivesEmpty) { EXPECT_EQ(last_components("/a/b", 0), ""); }

TEST(DotEscape, QuotesAndBackslashes) {
  EXPECT_EQ(dot_escape("a\"b\\c"), "a\\\"b\\\\c");
}

TEST(DotEscape, NewlineBecomesLiteralEscape) { EXPECT_EQ(dot_escape("a\nb"), "a\\nb"); }

TEST(DotEscape, PlainUntouched) { EXPECT_EQ(dot_escape("read:/usr/lib"), "read:/usr/lib"); }

TEST(MarkupEscape, AppendsEntitiesAfterWhatIsThere) {
  std::string out = "<p>";
  append_markup_escaped(out, "a&b <c> \"d\"\n", true);
  EXPECT_EQ(out, "<p>a&amp;b &lt;c&gt; &quot;d&quot;\n");
  out.clear();
  append_markup_escaped(out, "\"&\"", false);
  EXPECT_EQ(out, "\"&amp;\"");
  append_markup_escaped(out, "", true);
  append_markup_escaped(out, "plain", true);
  EXPECT_EQ(out, "\"&amp;\"plain");
}

}  // namespace
}  // namespace st
