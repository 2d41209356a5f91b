// Tests for the command-line flag parser.
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "metrics/sweep.h"
#include "util/cli.h"
#include "util/log.h"

namespace vs::util {
namespace {

const FlagNames kNames = {"system", "apps",    "seed",   "t1",
                          "rate",   "cluster", "quality"};

std::vector<const char*> argv_of(std::initializer_list<const char*> args) {
  std::vector<const char*> argv{"prog"};
  argv.insert(argv.end(), args.begin(), args.end());
  return argv;
}

CliArgs parse(std::initializer_list<const char*> args) {
  const std::vector<const char*> argv = argv_of(args);
  return CliArgs(static_cast<int>(argv.size()), argv.data(), {kNames});
}

/// The UsageError message `read` throws (empty if it throws none).
template <typename Read>
std::string usage_error(Read read) {
  try {
    read();
  } catch (const UsageError& e) {
    return e.what();
  }
  return "";
}

TEST(Cli, SpaceSeparatedValues) {
  CliArgs args = parse({"--system", "nimblock", "--apps", "20"});
  EXPECT_EQ(args.get("system"), "nimblock");
  EXPECT_EQ(args.get_int("apps", 0, 1, 100), 20);
  EXPECT_EQ(args.get_choice("system", {"rr", "nimblock"}, "rr"), 1u);
}

TEST(Cli, EqualsSeparatedValues) {
  CliArgs args = parse({"--seed=42", "--t1=0.05", "--system="});
  EXPECT_EQ(args.get_int("seed", 0, 0, 100), 42);
  EXPECT_DOUBLE_EQ(args.get_double("t1", 0, 0, 1), 0.05);
  EXPECT_EQ(args.get("system", "default"), "");
}

TEST(Cli, BareBooleanFlags) {
  CliArgs args = parse({"--cluster", "--quality"});
  EXPECT_TRUE(args.get_bool("cluster"));
  EXPECT_TRUE(args.get_bool("quality"));
  EXPECT_FALSE(args.get_bool("system"));
}

TEST(Cli, BooleanNegations) {
  // A switch is true when given; "false", "0" and "no" are values it
  // does not take.
  for (const char* arg : {"--cluster=false", "--cluster=0", "--cluster=no"}) {
    CliArgs args = parse({arg});
    EXPECT_EQ(usage_error([&] { (void)args.get_bool("cluster"); }),
              "--cluster takes no value");
  }
  CliArgs spaced = parse({"--quality", "no"});
  EXPECT_EQ(usage_error([&] { (void)spaced.get_bool("quality"); }),
            "--quality takes no value");
}

TEST(Cli, FallbacksWhenAbsent) {
  CliArgs args = parse({});
  EXPECT_EQ(args.get("system", "default"), "default");
  EXPECT_EQ(args.get_int("apps", 7, 1, 100), 7);
  EXPECT_DOUBLE_EQ(args.get_double("rate", 1.5, 0, 10), 1.5);
  EXPECT_EQ(args.get_choice("system", {"rr", "nimblock"}, "nimblock"), 1u);
  EXPECT_EQ(args.get_choice("system", {"rr", "nimblock"}, ""), 2u);
  EXPECT_FALSE(args.has("apps"));
}

TEST(Cli, PositionalArguments) {
  EXPECT_EQ(usage_error([] { (void)parse({"input.csv", "--apps", "3"}); }),
            "unexpected argument 'input.csv'");
  EXPECT_EQ(usage_error([] { (void)parse({"--apps", "3", "7"}); }),
            "unexpected argument '7'");
  EXPECT_EQ(usage_error([] { (void)parse({"-h"}); }),
            "unexpected argument '-h'");
}

TEST(Cli, UnknownFlag) {
  EXPECT_EQ(usage_error([] { (void)parse({"--bords", "8"}); }),
            "unknown flag --bords");
  EXPECT_EQ(usage_error([] { (void)parse({"--apps", "3", "--sytem=rr"}); }),
            "unknown flag --sytem");
  // Only the lists the CLI passes are known; "help" always is.
  const auto argv = argv_of({"--jobs", "2", "--help"});
  EXPECT_EQ(usage_error([&] {
              (void)CliArgs(static_cast<int>(argv.size()), argv.data(), {});
            }),
            "unknown flag --jobs");
  EXPECT_TRUE(CliArgs(2, argv_of({"--help"}).data(), {}).get_bool("help"));
}

TEST(Cli, FlagFollowedByFlagIsBoolean) {
  // A flag followed by another flag is given bare: reading it as a value
  // is an error, while the next flag keeps its own value.
  CliArgs args = parse({"--system", "--apps", "4", "--seed"});
  EXPECT_EQ(usage_error([&] { (void)args.get("system"); }),
            "--system needs a value");
  EXPECT_EQ(usage_error([&] { (void)args.get_choice("system", {"rr"}, "rr"); }),
            "--system needs a value");
  EXPECT_EQ(args.get_int("apps", 0, 1, 10), 4);
  EXPECT_EQ(usage_error([&] { (void)args.get_int("seed", 0, 0, 10); }),
            "--seed needs a value");
}

TEST(Cli, NumbersMustParseInFull) {
  for (const char* text : {"2x0", "eight", "", " 2", "2.5", "0x10"}) {
    SCOPED_TRACE(text);
    const std::string arg = std::string("--apps=") + text;
    CliArgs args = parse({arg.c_str()});
    EXPECT_EQ(usage_error([&] { (void)args.get_int("apps", 1, 1, 100); }),
              "--apps: '" + std::string(text) +
                  "' is not a whole number in [1, 100]");
  }
  for (const char* text : {"1.5x", "fast", "", "nan", "inf"}) {
    SCOPED_TRACE(text);
    const std::string arg = std::string("--rate=") + text;
    CliArgs args = parse({arg.c_str()});
    EXPECT_EQ(usage_error([&] { (void)args.get_double("rate", 1, 0.5, 2); }),
              "--rate: '" + std::string(text) +
                  "' is not a number in [0.5, 2]");
  }
  EXPECT_DOUBLE_EQ(parse({"--rate", "-1e-1"}).get_double("rate", 0, -1, 1),
                   -0.1);
}

TEST(Cli, NumbersBelowRange) {
  EXPECT_EQ(usage_error([] {
              (void)parse({"--apps", "0"}).get_int("apps", 20, 1, 100);
            }),
            "--apps: '0' is not a whole number in [1, 100]");
  EXPECT_EQ(usage_error([] {
              (void)parse({"--rate", "-1"}).get_double("rate", 1, 0.01, 100);
            }),
            "--rate: '-1' is not a number in [0.01, 100]");
  EXPECT_EQ(parse({"--apps", "1"}).get_int("apps", 20, 1, 100), 1);
}

TEST(Cli, NumbersAboveRange) {
  EXPECT_EQ(usage_error([] {
              (void)parse({"--apps", "101"}).get_int("apps", 20, 1, 100);
            }),
            "--apps: '101' is not a whole number in [1, 100]");
  // Past the integer type's range is out of range too, not a wrap.
  EXPECT_EQ(usage_error([] {
              (void)parse({"--apps", "99999999999999999999"})
                  .get_int("apps", 20, 1, 100);
            }),
            "--apps: '99999999999999999999' is not a whole number in "
            "[1, 100]");
  EXPECT_EQ(usage_error([] {
              (void)parse({"--rate", "1e400"}).get_double("rate", 1, 0, 100);
            }),
            "--rate: '1e400' is not a number in [0, 100]");
  EXPECT_EQ(parse({"--apps", "100"}).get_int("apps", 20, 1, 100), 100);
}

TEST(Cli, UnknownChoice) {
  CliArgs args = parse({"--system", "foo"});
  EXPECT_EQ(usage_error([&] {
              (void)args.get_choice("system", {"rr", "nimblock"}, "rr");
            }),
            "--system: 'foo' is not one of rr|nimblock");
}

TEST(Cli, RejectNamesTheFirstFlagTheModeIgnores) {
  // examples/simulate's mode rules: the cluster run ignores --system, --csv
  // and --quality, the single-board run --boards, and a loaded workload
  // the generator's --apps, --seed and --congestion.
  const FlagNames names = {"system", "congestion", "apps", "seed", "workload",
                           "cluster", "boards", "quality", "csv"};
  auto check = [&](std::initializer_list<const char*> given) {
    const std::vector<const char*> argv = argv_of(given);
    const CliArgs args(static_cast<int>(argv.size()), argv.data(), {names});
    return usage_error([&] {
      if (args.get_bool("cluster")) {
        args.reject({"system", "csv", "quality"},
                    "has no effect with --cluster");
      } else {
        args.reject({"boards"}, "has no effect without --cluster");
      }
      if (args.has("workload")) {
        args.reject({"apps", "seed", "congestion"},
                    "has no effect with --workload");
      }
    });
  };
  EXPECT_EQ(check({"--cluster", "--system", "nimblock"}),
            "--system has no effect with --cluster");
  EXPECT_EQ(check({"--cluster", "--csv", "x.csv"}),
            "--csv has no effect with --cluster");
  EXPECT_EQ(check({"--cluster", "--quality"}),
            "--quality has no effect with --cluster");
  EXPECT_EQ(check({"--boards", "2"}),
            "--boards has no effect without --cluster");
  EXPECT_EQ(check({"--workload", "w.csv", "--apps", "40"}),
            "--apps has no effect with --workload");
  EXPECT_EQ(check({"--workload", "w.csv", "--seed", "3"}),
            "--seed has no effect with --workload");
  EXPECT_EQ(check({"--workload", "w.csv", "--congestion", "stress"}),
            "--congestion has no effect with --workload");
  // Each mode keeps the flags it reads.
  EXPECT_EQ(check({"--cluster", "--boards", "2", "--apps", "40"}), "");
  EXPECT_EQ(check({"--system", "fcfs", "--csv", "x.csv", "--quality"}), "");
  EXPECT_EQ(check({"--workload", "w.csv", "--system", "fcfs"}), "");
}

TEST(Cli, RunCliExitsTwoWithTheMessageAndUsage) {
  const auto argv = argv_of({"--apps", "0"});
  bool ran = false;
  testing::internal::CaptureStdout();
  testing::internal::CaptureStderr();
  const int rc = run_cli(static_cast<int>(argv.size()), argv.data(), {kNames},
                         [&](const CliArgs& args) {
                           (void)args.get_int("apps", 20, 1, 100);
                           ran = true;
                           return 0;
                         });
  const std::string err = testing::internal::GetCapturedStderr();
  EXPECT_EQ(testing::internal::GetCapturedStdout(), "");
  EXPECT_EQ(rc, 2);
  EXPECT_FALSE(ran);
  EXPECT_EQ(err,
            "error: --apps: '0' is not a whole number in [1, 100]\n"
            "usage: prog [--system] [--apps] [--seed] [--t1] [--rate] "
            "[--cluster] [--quality] [--help]\n");

  const auto stray = argv_of({"stray"});
  testing::internal::CaptureStderr();
  EXPECT_EQ(run_cli(2, stray.data(), {}, [](const CliArgs&) { return 0; }),
            2);
  EXPECT_EQ(testing::internal::GetCapturedStderr(),
            "error: unexpected argument 'stray'\nusage: prog [--help]\n");
}

TEST(Cli, RunCliHelpPrintsUsageWithoutRunningTheBody) {
  const char* argv[] = {"/path/to/simulate", "--help"};
  bool ran = false;
  testing::internal::CaptureStdout();
  const int rc = run_cli(2, argv, {kNames}, [&](const CliArgs&) {
    ran = true;
    return 3;
  });
  EXPECT_EQ(rc, 0);
  EXPECT_FALSE(ran);
  EXPECT_EQ(testing::internal::GetCapturedStdout(),
            "usage: simulate [--system] [--apps] [--seed] [--t1] [--rate] "
            "[--cluster] [--quality] [--help]\n");
}

TEST(Cli, RunCliTurnsAnEscapingRuntimeErrorIntoExitOne) {
  const char* argv[] = {"prog"};
  EXPECT_EQ(run_cli(1, argv, {}, [](const CliArgs&) { return 3; }), 3);
  testing::internal::CaptureStderr();
  const int rc = run_cli(1, argv, {}, [](const CliArgs&) -> int {
    throw std::runtime_error("cannot write trace file /dev/full");
  });
  const std::string err = testing::internal::GetCapturedStderr();
  EXPECT_EQ(rc, 1);
  EXPECT_EQ(err, "error: cannot write trace file /dev/full\n");
}

TEST(Cli, JobsStaysWithinOneToOneThousandTwentyFour) {
  // SweepRunner(args) reads --jobs; it builds no thread pool.
  for (const char* jobs : {"0", "1025", "5000", "-1"}) {
    SCOPED_TRACE(jobs);
    const auto argv = argv_of({"--jobs", jobs});
    const CliArgs args(3, argv.data(), {metrics::SweepRunner::kFlags});
    EXPECT_EQ(usage_error([&] { (void)metrics::SweepRunner(args); }),
              "--jobs: '" + std::string(jobs) +
                  "' is not a whole number in [1, 1024]");
  }
  const auto argv = argv_of({"--jobs", "1024"});
  const CliArgs args(3, argv.data(), {metrics::SweepRunner::kFlags});
  EXPECT_EQ(metrics::SweepRunner(args).jobs(), 1024);
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
