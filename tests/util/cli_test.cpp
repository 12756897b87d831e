#include "util/cli.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <vector>

namespace mwc {
namespace {

CliArgs parse(std::vector<const char*> argv) {
  return CliArgs(static_cast<int>(argv.size()),
                 const_cast<char**>(argv.data()));
}

TEST(CliArgs, EqualsForm) {
  const auto args = parse({"prog", "--n=200", "--name=test"});
  EXPECT_EQ(args.get_int_or("n", 0), 200);
  EXPECT_EQ(args.get_or("name", ""), "test");
}

TEST(CliArgs, SpaceForm) {
  const auto args = parse({"prog", "--n", "300"});
  EXPECT_EQ(args.get_int_or("n", 0), 300);
}

TEST(CliArgs, BooleanFlag) {
  const auto args = parse({"prog", "--verbose"});
  EXPECT_TRUE(args.has("verbose"));
  EXPECT_TRUE(args.get_bool_or("verbose", false));
  EXPECT_FALSE(args.get_bool_or("quiet", false));
}

TEST(CliArgs, BoolExplicitValues) {
  const auto args = parse({"prog", "--a=true", "--b=0", "--c=yes"});
  EXPECT_TRUE(args.get_bool_or("a", false));
  EXPECT_FALSE(args.get_bool_or("b", true));
  EXPECT_TRUE(args.get_bool_or("c", false));
}

TEST(CliArgs, DoubleValues) {
  const auto args = parse({"prog", "--sigma=2.5"});
  EXPECT_DOUBLE_EQ(args.get_double_or("sigma", 0.0), 2.5);
  EXPECT_DOUBLE_EQ(args.get_double_or("missing", 1.25), 1.25);
}

TEST(CliArgs, MalformedNumberFallsBack) {
  const auto args = parse({"prog", "--n=abc"});
  EXPECT_EQ(args.get_int_or("n", 17), 17);
}

TEST(CliArgs, Positional) {
  const auto args = parse({"prog", "input.txt", "--n=1", "more"});
  ASSERT_EQ(args.positional().size(), 2u);
  EXPECT_EQ(args.positional()[0], "input.txt");
  EXPECT_EQ(args.positional()[1], "more");
}

TEST(CliArgs, FlagFollowedByFlagIsBoolean) {
  const auto args = parse({"prog", "--a", "--b", "5"});
  EXPECT_TRUE(args.has("a"));
  EXPECT_EQ(args.get_or("a", "x"), "");
  EXPECT_EQ(args.get_int_or("b", 0), 5);
}

TEST(CliArgs, Program) {
  const auto args = parse({"myprog"});
  EXPECT_EQ(args.program(), "myprog");
}

TEST(CliArgsChecked, InRangeValuesAndAbsentFlagsPass) {
  auto args = parse({"prog", "--threads", "4", "--gamma=0.5", "--on"});
  args.allow_only({"threads", "gamma", "on", "port"});
  EXPECT_EQ(args.get_int_or("threads", 0, 0, 1024), 4);
  EXPECT_EQ(args.get_int_or("port", 7, 1, 65535), 7);
  EXPECT_DOUBLE_EQ(args.get_double_or("gamma", 0.3, 0.0, 1.0), 0.5);
  EXPECT_TRUE(args.get_bool_or("on", false));
  EXPECT_EQ(args.error(), "");
}

TEST(CliArgsChecked, NegativeIntegerOutOfRangeNamesTheFlag) {
  auto args = parse({"prog", "--threads", "-1"});
  EXPECT_EQ(args.get_int_or("threads", 0, 0, 1024), 0);
  EXPECT_EQ(args.error(), "--threads: expected an integer in [0, 1024], "
                          "got '-1'");
}

TEST(CliArgsChecked, MalformedAndMissingNumbersAreErrors) {
  for (const char* bad : {"abc", "12x", "", "99999999999999999999"}) {
    auto args = parse({"prog", "--port", bad});
    args.get_int_or("port", 0, 1, 65535);
    EXPECT_NE(args.error().find("--port"), std::string::npos) << bad;
  }
  for (const char* bad : {"nan", "inf", "1e", "-0.5"}) {
    auto args = parse({"prog", "--margin", bad});
    args.get_double_or("margin", 0.1, 0.0, 1.0);
    EXPECT_NE(args.error().find("--margin"), std::string::npos) << bad;
  }
}

TEST(CliArgsChecked, RangesIncludeTheirEnds) {
  auto closed = parse({"prog", "--gamma=1"});
  EXPECT_DOUBLE_EQ(closed.get_double_or("gamma", 0.3, 0.0, 1.0), 1.0);
  EXPECT_EQ(closed.error(), "");
  // An open end is the closed range up to the next double inside.
  auto open = parse({"prog", "--gamma=1"});
  open.get_double_or("gamma", 0.3, 0.0, std::nextafter(1.0, 0.0));
  EXPECT_EQ(open.error(),
            "--gamma: expected a number in [0, 0.99999999999999989], "
            "got '1'");
}

TEST(CliArgsChecked, UnknownFlagsAndStrayArgumentsAreErrors) {
  auto typo = parse({"prog", "--prot", "9000"});
  typo.allow_only({"port"});
  EXPECT_EQ(typo.error(), "unknown flag --prot");

  // A single dash is not a flag: "-port" lands among the positionals.
  auto stray = parse({"prog", "-port", "9000"});
  stray.allow_only({"port"});
  EXPECT_EQ(stray.error(), "unexpected argument '-port'");
}

TEST(CliArgsChecked, AllowedPositionalsPassAndExtrasAreErrors) {
  auto command = parse({"prog", "statusz", "--connect", "h:1"});
  command.allow_only({"connect"}, 1);
  EXPECT_EQ(command.error(), "");

  auto extra = parse({"prog", "statusz", "tracez"});
  extra.allow_only({"connect"}, 1);
  EXPECT_EQ(extra.error(), "unexpected argument 'tracez'");
}

TEST(CliArgsChecked, BoolRejectsNonBooleanValues) {
  auto args = parse({"prog", "--sessions", "maybe"});
  EXPECT_FALSE(args.get_bool_or("sessions", false));
  EXPECT_EQ(args.error(), "--sessions: expected true or false, got 'maybe'");
}

TEST(CliArgsChecked, FirstErrorWins) {
  auto args = parse({"prog", "--a=x", "--b=y"});
  args.get_int_or("a", 0, 0, 1);
  args.get_int_or("b", 0, 0, 1);
  EXPECT_EQ(args.error().rfind("--a:", 0), 0u);
}

TEST(EnvIntOr, ReadsAndFallsBack) {
  ::setenv("MWC_TEST_ENV_INT", "123", 1);
  EXPECT_EQ(env_int_or("MWC_TEST_ENV_INT", 0), 123);
  ::setenv("MWC_TEST_ENV_INT", "junk", 1);
  EXPECT_EQ(env_int_or("MWC_TEST_ENV_INT", 7), 7);
  ::unsetenv("MWC_TEST_ENV_INT");
  EXPECT_EQ(env_int_or("MWC_TEST_ENV_INT", 9), 9);
}

}  // namespace
}  // namespace mwc
