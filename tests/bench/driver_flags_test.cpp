// Shared bench-driver flag parsing (bench/common): the side-effect-free
// parse_driver_options path, where every unknown, removed, malformed or
// non-positive flag is rejected with an error naming it, the up-front
// run-directory check of parse_driver_flags, and the exit on a CSV that
// cannot be written into the run directory.
#include <cstdlib>
#include <filesystem>
#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common.hpp"
#include "obs/flight.hpp"
#include "util/table.hpp"

namespace mcopt::bench {
namespace {

std::optional<DriverOptions> parse(std::vector<const char*> argv,
                                   std::string* error) {
  argv.insert(argv.begin(), "driver");
  return parse_driver_options(static_cast<int>(argv.size()), argv.data(),
                              error);
}

TEST(DriverFlagsTest, DefaultsWhenNoFlagsGiven) {
  std::string error;
  const auto opts = parse({}, &error);
  ASSERT_TRUE(opts.has_value()) << error;
  EXPECT_EQ(opts->threads, 1u);
  EXPECT_TRUE(opts->run_dir.empty());
  EXPECT_EQ(opts->trace_sample, 0u);
  EXPECT_EQ(opts->progress_interval, 0.0);
  EXPECT_EQ(opts->flight_capacity, 0u);
  EXPECT_FALSE(opts->quiet);
  EXPECT_FALSE(opts->verbose);
}

TEST(DriverFlagsTest, BareFlightRecorderUsesDefaultCapacity) {
  std::string error;
  const auto opts = parse({"--run-dir", "d", "--flight-recorder"}, &error);
  ASSERT_TRUE(opts.has_value()) << error;
  EXPECT_EQ(opts->flight_capacity, obs::FlightRecorder::kDefaultCapacity);
}

TEST(DriverFlagsTest, FlightRecorderCapacityAndPathParse) {
  std::string error;
  const auto opts =
      parse({"--flight-recorder", "128", "--run-dir", "d"}, &error);
  ASSERT_TRUE(opts.has_value()) << error;
  EXPECT_EQ(opts->flight_capacity, 128u);
  EXPECT_EQ(opts->run_dir, "d");
}

TEST(DriverFlagsTest, RejectsNonPositiveFlightCapacity) {
  for (const char* value : {"0", "-8", "big"}) {
    std::string error;
    EXPECT_FALSE(parse({"--run-dir", "d", "--flight-recorder", value}, &error)
                     .has_value())
        << value;
    EXPECT_NE(error.find("--flight-recorder"), std::string::npos) << error;
  }
}

TEST(DriverFlagsTest, ParsesEveryObservabilityFlag) {
  std::string error;
  const auto opts = parse({"--threads", "4", "--run-dir", "out", "--trace",
                           "16", "--progress", "0.5", "--flight-recorder",
                           "64", "--verbose"},
                          &error);
  ASSERT_TRUE(opts.has_value()) << error;
  EXPECT_EQ(opts->threads, 4u);
  EXPECT_EQ(opts->run_dir, "out");
  EXPECT_EQ(opts->trace_sample, 16u);
  EXPECT_DOUBLE_EQ(opts->progress_interval, 0.5);
  EXPECT_EQ(opts->flight_capacity, 64u);
  EXPECT_TRUE(opts->verbose);
}

TEST(DriverFlagsTest, BareTraceKeepsEveryTrio) {
  std::string error;
  const auto opts = parse({"--trace", "--run-dir", "d"}, &error);
  ASSERT_TRUE(opts.has_value()) << error;
  EXPECT_EQ(opts->trace_sample, 1u);
}

TEST(DriverFlagsTest, TraceAndFlightRecorderRequireRunDir) {
  for (const char* flag : {"--trace", "--flight-recorder"}) {
    std::string error;
    EXPECT_FALSE(parse({flag}, &error).has_value()) << flag;
    EXPECT_NE(error.find(std::string{flag} + " requires --run-dir"),
              std::string::npos)
        << error;
  }
}

TEST(DriverFlagsTest, RunDirRequiresAPath) {
  for (const std::vector<const char*>& flags :
       {std::vector<const char*>{"--run-dir"},
        std::vector<const char*>{"--run-dir", "--quiet"}}) {
    std::string error;
    EXPECT_FALSE(parse(flags, &error).has_value());
    EXPECT_NE(error.find("--run-dir expects a directory path"),
              std::string::npos)
        << error;
  }
}

TEST(DriverFlagsTest, BareProgressFlagUsesDefaultInterval) {
  std::string error;
  const auto opts = parse({"--progress"}, &error);
  ASSERT_TRUE(opts.has_value()) << error;
  EXPECT_DOUBLE_EQ(opts->progress_interval, 2.0);
}

TEST(DriverFlagsTest, RejectsZeroAndNegativeNumericFlags) {
  const std::vector<std::vector<const char*>> bad_cases{
      {"--trace", "0"},
      {"--trace", "-4"},
      {"--threads", "0"},
      {"--threads", "-1"},
      {"--progress", "-2"},
  };
  for (auto flags : bad_cases) {
    flags.insert(flags.end(), {"--run-dir", "d"});
    std::string error;
    const auto opts = parse(flags, &error);
    EXPECT_FALSE(opts.has_value()) << flags[0] << " " << flags[1];
    // The error must name the offending flag so the user can fix it.
    EXPECT_NE(error.find(flags[0]), std::string::npos) << error;
  }
}

TEST(DriverFlagsTest, RejectsNonNumericValues) {
  const std::vector<std::vector<const char*>> bad_cases{
      {"--trace", "abc"},
      // The old `--trace FILE` spelling: the trace now goes to the run dir.
      {"--trace", "trace.jsonl"},
      {"--threads", "2x"},
      {"--progress", "nan"},
      {"--progress", "inf"},
  };
  for (auto flags : bad_cases) {
    flags.insert(flags.end(), {"--run-dir", "d"});
    std::string error;
    EXPECT_FALSE(parse(flags, &error).has_value())
        << flags[0] << " " << flags[1];
    EXPECT_NE(error.find(std::string{flags[0]} + " expects"),
              std::string::npos)
        << error;
    EXPECT_NE(error.find(flags[1]), std::string::npos) << error;
  }
}

TEST(DriverFlagsTest, RejectsUnknownFlagsAndPositionals) {
  // The last eight are the per-artifact spellings --run-dir replaced.
  for (const char* flag :
       {"--frobnicate", "--metrics-out", "--metrics", "--profile-out",
        "--prom-out", "--timeline-out", "--perf-counters", "--trace-sample",
        "--flight-out"}) {
    std::string error;
    EXPECT_FALSE(parse({flag, "x.out"}, &error).has_value()) << flag;
    EXPECT_NE(error.find(std::string{"unknown flag "} + flag),
              std::string::npos)
        << error;
  }

  std::string error;
  EXPECT_FALSE(parse({"stray"}, &error).has_value());
  EXPECT_NE(error.find("stray"), std::string::npos) << error;
}

TEST(DriverFlagsTest, QuietAndVerboseConflict) {
  std::string error;
  EXPECT_FALSE(parse({"--quiet", "--verbose"}, &error).has_value());
  EXPECT_NE(error.find("--quiet"), std::string::npos) << error;
  EXPECT_NE(error.find("--verbose"), std::string::npos) << error;
}

// A run directory that cannot be created fails before any work, naming the
// path.  A path under a regular file fails even for root.
TEST(DriverFlagsDeathTest, UncreatableRunDirExitsTwo) {
  const char* argv[] = {"driver", "--run-dir", "/dev/null/x"};
  EXPECT_EXIT(parse_driver_flags(3, argv), ::testing::ExitedWithCode(2),
              "cannot create run directory /dev/null/x");
}

// A table that cannot be mirrored into the run directory fails the run,
// naming the path, instead of logging a warning and exiting 0.  A directory
// in the CSV's place makes the write fail even for root.
TEST(DriverFlagsDeathTest, UnwritableCsvDirExitsOne) {
  const std::string run_dir = ::testing::TempDir() + "unwritable_csv_run";
  const std::string csv = run_dir + "/table.csv";
  std::filesystem::remove_all(run_dir);
  std::filesystem::create_directories(csv);
  util::Table table;
  table.add_column("x");
  table.begin_row();
  table.cell(1);
  const char* argv[] = {"driver", "--run-dir", run_dir.c_str()};
  EXPECT_EXIT(
      {
        parse_driver_flags(3, argv);
        maybe_write_csv("table", table);
        std::exit(0);
      },
      ::testing::ExitedWithCode(1), "cannot write " + csv);
  std::filesystem::remove_all(run_dir);
}

}  // namespace
}  // namespace mcopt::bench
