#include "support/cli.hpp"

#include <gtest/gtest.h>

#include "support/errors.hpp"

namespace st {
namespace {

CliParser make_parser() {
  CliParser p;
  p.add_flag("ranks", "number of ranks", "96");
  p.add_flag("out", "output path", std::nullopt);
  p.add_flag("verbose", "chatty output", std::nullopt, /*boolean=*/true);
  p.add_flag("alpha", "contention factor", "1.0");
  return p;
}

TEST(Cli, DefaultsApply) {
  CliParser p = make_parser();
  const char* argv[] = {"prog"};
  p.parse(1, argv);
  EXPECT_EQ(p.get_int("ranks"), 96);
  EXPECT_FALSE(p.has("ranks"));
}

TEST(Cli, SpaceSeparatedValue) {
  CliParser p = make_parser();
  const char* argv[] = {"prog", "--ranks", "8"};
  p.parse(3, argv);
  EXPECT_EQ(p.get_int("ranks"), 8);
  EXPECT_TRUE(p.has("ranks"));
}

TEST(Cli, EqualsValue) {
  CliParser p = make_parser();
  const char* argv[] = {"prog", "--ranks=16"};
  p.parse(2, argv);
  EXPECT_EQ(p.get_int("ranks"), 16);
}

TEST(Cli, BooleanFlag) {
  CliParser p = make_parser();
  const char* argv[] = {"prog", "--verbose"};
  p.parse(2, argv);
  EXPECT_TRUE(p.get_bool("verbose"));
}

TEST(Cli, BooleanDefaultFalse) {
  CliParser p = make_parser();
  const char* argv[] = {"prog"};
  p.parse(1, argv);
  EXPECT_FALSE(p.get_bool("verbose"));
}

TEST(Cli, DoubleValue) {
  CliParser p = make_parser();
  const char* argv[] = {"prog", "--alpha", "0.25"};
  p.parse(3, argv);
  EXPECT_DOUBLE_EQ(p.get_double("alpha"), 0.25);
}

TEST(Cli, Positional) {
  CliParser p = make_parser();
  const char* argv[] = {"prog", "file1.st", "--ranks", "4", "file2.st"};
  p.parse(5, argv);
  ASSERT_EQ(p.positional().size(), 2u);
  EXPECT_EQ(p.positional()[0], "file1.st");
  EXPECT_EQ(p.positional()[1], "file2.st");
}

TEST(Cli, UnknownFlagThrows) {
  CliParser p = make_parser();
  const char* argv[] = {"prog", "--bogus", "1"};
  EXPECT_THROW(p.parse(3, argv), ParseError);
}

TEST(Cli, MissingValueThrows) {
  CliParser p = make_parser();
  const char* argv[] = {"prog", "--ranks"};
  EXPECT_THROW(p.parse(2, argv), ParseError);
}

TEST(Cli, BooleanWithValueThrows) {
  CliParser p = make_parser();
  const char* argv[] = {"prog", "--verbose=yes"};
  EXPECT_THROW(p.parse(2, argv), ParseError);
}

TEST(Cli, GetWithoutValueThrows) {
  CliParser p = make_parser();
  const char* argv[] = {"prog"};
  p.parse(1, argv);
  EXPECT_THROW((void)p.get("out"), ParseError);
}

TEST(Cli, UndeclaredGetThrowsLogicError) {
  CliParser p = make_parser();
  const char* argv[] = {"prog"};
  p.parse(1, argv);
  EXPECT_THROW((void)p.get("nope"), LogicError);
}

TEST(Cli, NonIntegerThrows) {
  CliParser p = make_parser();
  const char* argv[] = {"prog", "--ranks", "abc"};
  p.parse(3, argv);
  EXPECT_THROW((void)p.get_int("ranks"), ParseError);
}

TEST(Cli, IntegerOutsideItsRangeThrows) {
  // serve's --port: 70000 and -1 would wrap into another port.
  for (const char* value : {"70000", "-1", "65536"}) {
    CliParser p = make_parser();
    const char* argv[] = {"prog", "--ranks", value};
    p.parse(3, argv);
    try {
      (void)p.get_int("ranks", 0, 65535);
      ADD_FAILURE() << value << " was accepted";
    } catch (const ParseError& e) {
      EXPECT_STREQ(e.what(), "parse error: flag --ranks must lie in 0..65535") << value;
    }
  }
  for (const char* value : {"0", "65535"}) {
    CliParser p = make_parser();
    const char* argv[] = {"prog", "--ranks", value};
    p.parse(3, argv);
    EXPECT_EQ(p.get_int("ranks", 0, 65535), std::stoll(value));
  }
}

TEST(Cli, UsageListsFlags) {
  CliParser p = make_parser();
  const std::string usage = p.usage("prog");
  EXPECT_NE(usage.find("--ranks"), std::string::npos);
  EXPECT_NE(usage.find("default: 96"), std::string::npos);
}

TEST(Cli, UsageShowsDeclaredDefaultsNotParsedValues) {
  // usage() is printed after a failed run: it must describe the flags,
  // not echo the user's own arguments back as defaults.
  CliParser p = make_parser();
  const char* argv[] = {"prog", "--ranks", "4", "--out", "/tmp/x"};
  p.parse(5, argv);
  EXPECT_EQ(p.get_int("ranks"), 4);
  const std::string usage = p.usage("prog");
  EXPECT_NE(usage.find("default: 96"), std::string::npos);
  EXPECT_EQ(usage.find("default: 4"), std::string::npos);
  EXPECT_EQ(usage.find("/tmp/x"), std::string::npos);  // --out has no default
}

}  // namespace
}  // namespace st
