// Tests for the command-line flag parser.
#include <cstdlib>
#include <stdexcept>
#include <string>

#include <gtest/gtest.h>

#include "util/cli.h"
#include "util/log.h"

namespace vs::util {
namespace {

CliArgs parse(std::initializer_list<const char*> args) {
  std::vector<const char*> argv{"prog"};
  argv.insert(argv.end(), args.begin(), args.end());
  return CliArgs(static_cast<int>(argv.size()), argv.data());
}

TEST(Cli, SpaceSeparatedValues) {
  CliArgs args = parse({"--system", "nimblock", "--apps", "20"});
  EXPECT_EQ(args.get("system"), "nimblock");
  EXPECT_EQ(args.get_int("apps", 0), 20);
}

TEST(Cli, EqualsSeparatedValues) {
  CliArgs args = parse({"--seed=42", "--t1=0.05"});
  EXPECT_EQ(args.get_int("seed", 0), 42);
  EXPECT_DOUBLE_EQ(args.get_double("t1", 0), 0.05);
}

TEST(Cli, BareBooleanFlags) {
  CliArgs args = parse({"--cluster", "--quality"});
  EXPECT_TRUE(args.get_bool("cluster"));
  EXPECT_TRUE(args.get_bool("quality"));
  EXPECT_FALSE(args.get_bool("missing"));
}

TEST(Cli, BooleanNegations) {
  CliArgs args = parse({"--prewarm=false", "--switching=0", "--x=no"});
  EXPECT_FALSE(args.get_bool("prewarm", true));
  EXPECT_FALSE(args.get_bool("switching", true));
  EXPECT_FALSE(args.get_bool("x", true));
}

TEST(Cli, FallbacksWhenAbsent) {
  CliArgs args = parse({});
  EXPECT_EQ(args.get("system", "default"), "default");
  EXPECT_EQ(args.get_int("apps", 7), 7);
  EXPECT_DOUBLE_EQ(args.get_double("rate", 1.5), 1.5);
  EXPECT_FALSE(args.has("anything"));
}

TEST(Cli, PositionalArguments) {
  CliArgs args = parse({"input.csv", "--flag", "v", "output.csv"});
  ASSERT_EQ(args.positional().size(), 2u);
  EXPECT_EQ(args.positional()[0], "input.csv");
  EXPECT_EQ(args.positional()[1], "output.csv");
  EXPECT_EQ(args.program(), "prog");
}

TEST(Cli, FlagFollowedByFlagIsBoolean) {
  CliArgs args = parse({"--a", "--b", "value"});
  EXPECT_EQ(args.get("a"), "true");
  EXPECT_EQ(args.get("b"), "value");
}

TEST(Cli, RunCliTurnsAnEscapingRuntimeErrorIntoExitOne) {
  EXPECT_EQ(run_cli([] { return 3; }), 3);
  testing::internal::CaptureStderr();
  const int rc = run_cli([]() -> int {
    throw std::runtime_error("cannot write trace file /dev/full");
  });
  const std::string err = testing::internal::GetCapturedStderr();
  EXPECT_EQ(rc, 1);
  EXPECT_EQ(err, "error: cannot write trace file /dev/full\n");
}

TEST(Log, ParseLogLevelIsCaseInsensitiveWithFallback) {
  EXPECT_EQ(parse_log_level("trace", LogLevel::kWarn), LogLevel::kTrace);
  EXPECT_EQ(parse_log_level("DEBUG", LogLevel::kWarn), LogLevel::kDebug);
  EXPECT_EQ(parse_log_level("Info", LogLevel::kWarn), LogLevel::kInfo);
  EXPECT_EQ(parse_log_level("warn", LogLevel::kError), LogLevel::kWarn);
  EXPECT_EQ(parse_log_level("error", LogLevel::kWarn), LogLevel::kError);
  EXPECT_EQ(parse_log_level("off", LogLevel::kWarn), LogLevel::kOff);
  EXPECT_EQ(parse_log_level("verbose", LogLevel::kInfo), LogLevel::kInfo);
  EXPECT_EQ(parse_log_level("", LogLevel::kError), LogLevel::kError);
}

TEST(Log, InitFromEnvAppliesVsLogOnce) {
  LogLevel saved = Log::level();
  ::setenv("VS_LOG", "debug", 1);
  Log::init_from_env();
  EXPECT_EQ(Log::level(), LogLevel::kDebug);
  // Invalid values leave the level untouched.
  ::setenv("VS_LOG", "shouty", 1);
  Log::init_from_env();
  EXPECT_EQ(Log::level(), LogLevel::kDebug);
  // Unset leaves it untouched too.
  ::unsetenv("VS_LOG");
  Log::set_level(LogLevel::kInfo);
  Log::init_from_env();
  EXPECT_EQ(Log::level(), LogLevel::kInfo);
  Log::set_level(saved);
}

}  // namespace
}  // namespace vs::util
