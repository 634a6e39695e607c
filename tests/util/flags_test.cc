#include "util/flags.h"

#include <gtest/gtest.h>

namespace hinpriv::util {
namespace {

FlagParser MakeParser() {
  FlagParser flags;
  flags.Define("name", "default", "a string flag");
  flags.Define("count", "5", "an int flag");
  flags.Define("ratio", "0.5", "a double flag");
  flags.Define("verbose", "false", "a bool flag");
  return flags;
}

Status ParseArgs(FlagParser* flags, std::vector<const char*> args) {
  args.insert(args.begin(), "prog");
  return flags->Parse(static_cast<int>(args.size()), args.data());
}

TEST(FlagParserTest, DefaultsApply) {
  FlagParser flags = MakeParser();
  ASSERT_TRUE(ParseArgs(&flags, {}).ok());
  EXPECT_EQ(flags.GetString("name"), "default");
  EXPECT_EQ(flags.GetInt("count"), 5);
  EXPECT_DOUBLE_EQ(flags.GetDouble("ratio"), 0.5);
  EXPECT_FALSE(flags.GetBool("verbose"));
}

TEST(FlagParserTest, EqualsSyntax) {
  FlagParser flags = MakeParser();
  ASSERT_TRUE(ParseArgs(&flags, {"--name=abc", "--count=9"}).ok());
  EXPECT_EQ(flags.GetString("name"), "abc");
  EXPECT_EQ(flags.GetInt("count"), 9);
}

TEST(FlagParserTest, SpaceSyntax) {
  FlagParser flags = MakeParser();
  ASSERT_TRUE(ParseArgs(&flags, {"--name", "xyz", "--ratio", "0.25"}).ok());
  EXPECT_EQ(flags.GetString("name"), "xyz");
  EXPECT_DOUBLE_EQ(flags.GetDouble("ratio"), 0.25);
}

TEST(FlagParserTest, BareFlagMeansTrue) {
  FlagParser flags = MakeParser();
  ASSERT_TRUE(ParseArgs(&flags, {"--verbose"}).ok());
  EXPECT_TRUE(flags.GetBool("verbose"));
}

TEST(FlagParserTest, BoolSpellings) {
  for (const char* spelling : {"true", "1", "yes", "on"}) {
    FlagParser flags = MakeParser();
    ASSERT_TRUE(
        ParseArgs(&flags, {"--verbose", spelling}).ok());
    EXPECT_TRUE(flags.GetBool("verbose")) << spelling;
  }
  FlagParser flags = MakeParser();
  ASSERT_TRUE(ParseArgs(&flags, {"--verbose", "0"}).ok());
  EXPECT_FALSE(flags.GetBool("verbose"));
}

TEST(FlagParserTest, HyphensNormalizeToUnderscores) {
  FlagParser flags;
  flags.Define("no_shared_cache", "false", "an ablation-style flag");
  flags.Define("aux_users", "10", "an int flag");
  ASSERT_TRUE(
      ParseArgs(&flags, {"--no-shared-cache", "--aux-users=25"}).ok());
  EXPECT_TRUE(flags.GetBool("no_shared_cache"));
  EXPECT_EQ(flags.GetInt("aux_users"), 25);
}

TEST(FlagParserTest, UnknownFlagIsError) {
  FlagParser flags = MakeParser();
  const Status s = ParseArgs(&flags, {"--nope=1"});
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), Status::Code::kInvalidArgument);
}

TEST(FlagParserTest, PositionalArgumentIsError) {
  FlagParser flags = MakeParser();
  EXPECT_FALSE(ParseArgs(&flags, {"stray"}).ok());
}

TEST(FlagParserTest, HelpRequested) {
  FlagParser flags = MakeParser();
  ASSERT_TRUE(ParseArgs(&flags, {"--help"}).ok());
  EXPECT_TRUE(flags.help_requested());
  const std::string usage = flags.Usage("prog");
  EXPECT_NE(usage.find("--count"), std::string::npos);
  EXPECT_NE(usage.find("an int flag"), std::string::npos);
}

TEST(FlagParserTest, MalformedNumberFallsBackToDefault) {
  FlagParser flags = MakeParser();
  ASSERT_TRUE(ParseArgs(&flags, {"--count", "abc"}).ok());
  EXPECT_EQ(flags.GetInt("count"), 5);
}

TEST(FlagParserTest, LastValueWins) {
  FlagParser flags = MakeParser();
  ASSERT_TRUE(ParseArgs(&flags, {"--count=1", "--count=2"}).ok());
  EXPECT_EQ(flags.GetInt("count"), 2);
}

}  // namespace
}  // namespace hinpriv::util
