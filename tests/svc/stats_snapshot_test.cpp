/// \file stats_snapshot_test.cpp
/// ELRR_STATS_SNAPSHOT and the periodic stats publisher:
///  * the knob parses as path:period_ms, splitting at the LAST colon
///    (paths may contain colons) with the period validated strictly in
///    [10, 86400000] -- malformed values throw InvalidInputError naming
///    the variable, never silently disable;
///  * an armed scheduler publishes the snapshot periodically and writes
///    one terminal snapshot at destruction, via atomic tmp+rename (a
///    reader never sees a torn file);
///  * the published document is the `elrr top` contract: snapshot
///    header + queue/fleet gauges + the full nested stats object + the
///    obs summary;
///  * an unwritable snapshot path degrades to a stderr warning -- the
///    observer must never kill the service it observes.

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>

#include <gtest/gtest.h>

#include "bench89/generator.hpp"
#include "support/error.hpp"
#include "support/json.hpp"
#include "svc/scheduler.hpp"

namespace elrr::svc {
namespace {

namespace fs = std::filesystem;

/// True iff `text` parses as exactly one JSON object: a torn or
/// truncated snapshot does not.
bool is_one_json_object(const std::string& text) {
  try {
    return json::parse(text).is_object();
  } catch (const InvalidInputError&) {
    return false;
  }
}

class StatsSnapshotTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("elrr_stats_snapshot_" +
            std::string(::testing::UnitTest::GetInstance()
                            ->current_test_info()
                            ->name()));
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override {
    ::unsetenv("ELRR_STATS_SNAPSHOT");
    fs::remove_all(dir_);
  }

  std::string slurp(const fs::path& path) {
    std::ifstream in(path);
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
  }

  fs::path dir_;
};

TEST_F(StatsSnapshotTest, UnsetDisablesThePublisher) {
  ::unsetenv("ELRR_STATS_SNAPSHOT");
  const SchedulerOptions options = SchedulerOptions::from_env();
  EXPECT_TRUE(options.snapshot_path.empty());
  EXPECT_EQ(options.snapshot_period_ms, 0u);
}

TEST_F(StatsSnapshotTest, ParsesPathAndPeriodAtTheLastColon) {
  ::setenv("ELRR_STATS_SNAPSHOT", "/tmp/stats.json:250", 1);
  SchedulerOptions options = SchedulerOptions::from_env();
  EXPECT_EQ(options.snapshot_path, "/tmp/stats.json");
  EXPECT_EQ(options.snapshot_period_ms, 250u);

  // The split is at the LAST colon: a path with colons still parses.
  ::setenv("ELRR_STATS_SNAPSHOT", "/tmp/run:2026:snap.json:1000", 1);
  options = SchedulerOptions::from_env();
  EXPECT_EQ(options.snapshot_path, "/tmp/run:2026:snap.json");
  EXPECT_EQ(options.snapshot_period_ms, 1000u);

  // Exact period boundaries are accepted.
  ::setenv("ELRR_STATS_SNAPSHOT", "s.json:10", 1);
  EXPECT_EQ(SchedulerOptions::from_env().snapshot_period_ms, 10u);
  ::setenv("ELRR_STATS_SNAPSHOT", "s.json:86400000", 1);
  EXPECT_EQ(SchedulerOptions::from_env().snapshot_period_ms, 86'400'000u);
}

TEST_F(StatsSnapshotTest, MalformedKnobThrowsStrictly) {
  const char* bad[] = {
      "path-without-period",  // no colon at all
      "path:",                // empty period
      ":50",                  // empty path
      "path:9",               // below the 10 ms floor
      "path:86400001",        // above the one-day cap
      "path:5x0",             // non-digit junk
      "path:-50",             // signs are junk too
  };
  for (const char* value : bad) {
    ::setenv("ELRR_STATS_SNAPSHOT", value, 1);
    EXPECT_THROW(SchedulerOptions::from_env(), InvalidInputError)
        << "accepted: " << value;
  }
}

TEST_F(StatsSnapshotTest, PublishesPeriodicallyWhileRunning) {
  const fs::path snap = dir_ / "stats.json";
  {
    SchedulerOptions options;
    options.workers = 1;
    options.sim_threads = 1;
    options.snapshot_path = snap.string();
    options.snapshot_period_ms = 10;
    Scheduler scheduler(options);
    // No jobs at all: the publisher ticks on its own clock, not on job
    // completions. Poll rather than sleep a fixed amount -- CI boxes
    // stall.
    bool seen = false;
    for (int i = 0; i < 1000 && !seen; ++i) {
      seen = fs::exists(snap);
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    ASSERT_TRUE(seen) << "no periodic snapshot within the window";
    // Atomic publish: the publisher writes `<path>.tmp` on every tick
    // and renames it over the final path, so a reader of the final path
    // sees one complete document on every read, never a torn one --
    // across about ten ticks here.
    for (int i = 0; i < 100; ++i) {
      const std::string text = slurp(snap);
      ASSERT_TRUE(is_one_json_object(text)) << "torn read: " << text;
      EXPECT_EQ(text.rfind("{\"snapshot\": true, \"uptime_s\": ", 0), 0u)
          << text;
      EXPECT_NE(text.find("\"queued\": 0"), std::string::npos) << text;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  // The destructor stopped the publisher and wrote the terminal
  // snapshot through the same rename: no temp file is left behind.
  EXPECT_TRUE(is_one_json_object(slurp(snap)));
  EXPECT_FALSE(fs::exists(snap.string() + ".tmp"));
}

TEST_F(StatsSnapshotTest, TerminalSnapshotShowsTheFinalState) {
  const fs::path snap = dir_ / "final.json";
  {
    SchedulerOptions options;
    options.workers = 1;
    options.sim_threads = 1;
    options.snapshot_path = snap.string();
    // A period the test never reaches: the only write is the terminal
    // one the destructor performs after every worker retired.
    options.snapshot_period_ms = 86'400'000;
    Scheduler scheduler(options);

    JobSpec spec;
    spec.name = "s208";
    spec.rrg = bench89::make_table2_rrg(bench89::spec_by_name("s208"), 1);
    spec.mode = JobMode::kScoreOnly;
    spec.flow.seed = 1;
    spec.flow.sim_cycles = 2000;
    const JobResult result = scheduler.wait(scheduler.submit(std::move(spec)));
    ASSERT_EQ(result.state, JobState::kDone);
    EXPECT_FALSE(fs::exists(snap)) << "periodic tick fired unexpectedly";
  }
  // The destructor published the terminal state: the completed job is
  // in the counters and the full `elrr top` contract is present.
  ASSERT_TRUE(fs::exists(snap));
  const std::string text = slurp(snap);
  EXPECT_NE(text.find("{\"snapshot\": true, \"uptime_s\": "),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("\"fleet\": {\"pool\": "), std::string::npos) << text;
  EXPECT_NE(text.find("\"stats\": {\"scheduler\": {\"submitted\": 1, "
                      "\"completed\": 1"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("\"milp\""), std::string::npos) << text;
  EXPECT_NE(text.find("\"obs\": {"), std::string::npos) << text;
  EXPECT_NE(text.find("\"dropped_spans\": "), std::string::npos) << text;
  EXPECT_NE(text.find("\"ring_capacity\": "), std::string::npos) << text;
}

TEST_F(StatsSnapshotTest, UnwritablePathWarnsAndTheServiceKeepsRunning) {
  SchedulerOptions options;
  options.workers = 1;
  options.sim_threads = 1;
  options.snapshot_path = "/proc/definitely/not/writable/stats.json";
  options.snapshot_period_ms = 10;
  Scheduler scheduler(options);

  JobSpec spec;
  spec.name = "s208";
  spec.rrg = bench89::make_table2_rrg(bench89::spec_by_name("s208"), 1);
  spec.mode = JobMode::kScoreOnly;
  spec.flow.seed = 1;
  spec.flow.sim_cycles = 2000;
  // Give the publisher a few failed ticks, then prove the service is
  // still fully functional; the destructor's terminal write must also
  // swallow the failure.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  const JobResult result = scheduler.wait(scheduler.submit(std::move(spec)));
  EXPECT_EQ(result.state, JobState::kDone);
}

}  // namespace
}  // namespace elrr::svc
