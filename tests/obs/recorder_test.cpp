/// \file recorder_test.cpp
/// In-process suite for the flight recorder (obs/recorder.hpp): the
/// disarmed no-op contract (this suite rides the sanitizer sweep, so
/// the one-load fast path is ASan-covered), the strict
/// ELRR_POSTMORTEM_BUF taxonomy with its exact boundaries, journal ring
/// wrap + drop accounting, the postmortem file's write/publish/
/// first-wins protocol, and in-flight marks. One death test sends a
/// real SIGSEGV to an armed child; everything else dumps from a healthy
/// process through the same write(2)-only path the handlers use.

#include <signal.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "bench89/generator.hpp"
#include "obs/recorder.hpp"
#include "obs/trace.hpp"
#include "sim/fleet.hpp"
#include "support/error.hpp"

namespace elrr::obs::rec {
namespace {

namespace fs = std::filesystem;

/// Every test leaves the process-wide recorder disarmed and the env
/// clean: the recorder state is a singleton, and suite order must not
/// matter.
class RecorderTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("elrr_recorder_test_" +
            std::string(::testing::UnitTest::GetInstance()
                            ->current_test_info()
                            ->name()));
    fs::remove_all(dir_);
    ::unsetenv("ELRR_POSTMORTEM_DIR");
    ::unsetenv("ELRR_POSTMORTEM_BUF");
    reset();
  }
  void TearDown() override {
    ::unsetenv("ELRR_POSTMORTEM_DIR");
    ::unsetenv("ELRR_POSTMORTEM_BUF");
    reset();
    fs::remove_all(dir_);
  }

  std::string slurp(const std::string& path) {
    std::ifstream in(path);
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
  }

  fs::path dir_;
};

TEST_F(RecorderTest, DisarmedSitesRecordNothing) {
  EXPECT_FALSE(armed());
  event("job.submit", 1, 2);
  set_inflight("job", 7);
  clear_inflight();
  EXPECT_TRUE(snapshot_events().empty());
  EXPECT_EQ(dropped_events(), 0u);
  EXPECT_TRUE(postmortem_dir().empty());
  EXPECT_FALSE(write_postmortem("test"));
}

TEST_F(RecorderTest, ConfigureFromEnvValidatesCapacityStrictly) {
  // The capacity is validated even with no dir set: a malformed knob is
  // an error, not a silent default -- same taxonomy as ELRR_OBS_BUF.
  ::setenv("ELRR_POSTMORTEM_BUF", "notanumber", 1);
  EXPECT_THROW(configure_from_env(), InvalidInputError);
  ::setenv("ELRR_POSTMORTEM_BUF", "15", 1);  // below the 16-event floor
  EXPECT_THROW(configure_from_env(), InvalidInputError);
  ::setenv("ELRR_POSTMORTEM_BUF", "16777217", 1);  // above the 2^24 cap
  EXPECT_THROW(configure_from_env(), InvalidInputError);
  ::setenv("ELRR_POSTMORTEM_BUF", "-1", 1);
  EXPECT_THROW(configure_from_env(), InvalidInputError);

  // Exact boundaries are accepted.
  ::setenv("ELRR_POSTMORTEM_BUF", "16", 1);
  configure_from_env();
  EXPECT_EQ(ring_capacity(), 16u);
  EXPECT_FALSE(armed());  // no ELRR_POSTMORTEM_DIR: validated, disarmed
  ::setenv("ELRR_POSTMORTEM_BUF", "16777216", 1);
  configure_from_env();
  EXPECT_EQ(ring_capacity(), std::size_t{1} << 24);
  EXPECT_FALSE(armed());
}

TEST_F(RecorderTest, ConfigureFromEnvArmsOnDir) {
  ::setenv("ELRR_POSTMORTEM_DIR", dir_.string().c_str(), 1);
  ::setenv("ELRR_POSTMORTEM_BUF", "64", 1);
  configure_from_env();
  EXPECT_TRUE(armed());
  EXPECT_EQ(postmortem_dir(), dir_.string());
  EXPECT_EQ(ring_capacity(), 64u);
  // The final path is announced but nothing is published until a dump.
  EXPECT_NE(postmortem_path().find("postmortem-"), std::string::npos);
  EXPECT_FALSE(fs::exists(postmortem_path()));
}

TEST_F(RecorderTest, RingWrapsAndCountsDrops) {
  configure(dir_.string(), 16);
  for (std::uint64_t i = 0; i < 20; ++i) event("tick", i);
  const std::vector<EventView> events = snapshot_events();
  EXPECT_EQ(events.size(), 16u);
  EXPECT_EQ(dropped_events(), 4u);
  // Oldest-first, and the survivors are the newest 16.
  EXPECT_EQ(events.front().a, 4u);
  EXPECT_EQ(events.back().a, 19u);
  for (std::size_t i = 1; i < events.size(); ++i) {
    EXPECT_LT(events[i - 1].seq, events[i].seq);
    EXPECT_LE(events[i - 1].t_ns, events[i].t_ns);
  }
}

TEST_F(RecorderTest, WritePostmortemPublishesAtomicallyAndOnce) {
  configure(dir_.string(), 64);
  event("job.pick", 42);
  event("slice.dispatch", 8, 4);
  set_inflight("slice", 8);

  ASSERT_TRUE(write_postmortem("test-dump"));
  const std::string path = postmortem_path();
  ASSERT_TRUE(fs::exists(path));
  // No torn temp file remains next to the published dump.
  EXPECT_FALSE(fs::exists(path + ".tmp"));

  const std::string text = slurp(path);
  EXPECT_NE(text.find("ELRR-POSTMORTEM 1\n"), std::string::npos) << text;
  EXPECT_NE(text.find("reason: test-dump\n"), std::string::npos) << text;
  EXPECT_NE(text.find("pid: " + std::to_string(::getpid())),
            std::string::npos);
  EXPECT_NE(text.find("inflight: "), std::string::npos) << text;
  EXPECT_NE(text.find("slice 8"), std::string::npos) << text;
  EXPECT_NE(text.find("name=job.pick a=42"), std::string::npos) << text;
  EXPECT_NE(text.find("name=slice.dispatch a=8 b=4"), std::string::npos)
      << text;
  EXPECT_NE(text.find("\nend\n"), std::string::npos) << text;

  // First-wins: the pre-opened fd is spent, a second dump must refuse
  // (in a real crash the second caller is a concurrent fatal signal).
  EXPECT_FALSE(write_postmortem("again"));
}

TEST_F(RecorderTest, PostmortemPercentilesNeverExceedTheMax) {
  // The signal-safe mirror carries each histogram's max, so the dump's
  // `<=` brackets clamp to it exactly as the live summary does.
  obs::configure("", 1024);
  obs::arm(true);
  for (int i = 0; i < 94; ++i) obs::record_span("pm.tail", 0, 1000);
  for (int i = 0; i < 6; ++i) obs::record_span("pm.tail", 0, 108'000'000'000);
  configure(dir_.string(), 64);
  ASSERT_TRUE(write_postmortem("test-hist"));
  obs::reset();
  const std::string text = slurp(postmortem_path());
  EXPECT_NE(text.find("hist: pm.tail count=100 total_ns=648000094000 "
                      "p50_le_ns=1024 p95_le_ns=108000000000 "
                      "p99_le_ns=108000000000 max_ns=108000000000\n"),
            std::string::npos)
      << text;
}

TEST_F(RecorderTest, ClearedInflightMarksDoNotDump) {
  configure(dir_.string(), 64);
  set_inflight("job", 7);
  clear_inflight();
  ASSERT_TRUE(write_postmortem("test-dump"));
  EXPECT_EQ(slurp(postmortem_path()).find("inflight: "), std::string::npos);
}

/// A real fatal signal: an armed child marks a slice in flight, journals
/// one event and raises SIGSEGV. The handler must publish a complete
/// postmortem naming the slice, and the child must still die by the
/// signal. The threadsafe style re-executes the binary for the child,
/// so the handler runs in a fresh single-threaded process.
TEST_F(RecorderTest, RealSigsegvPublishesAPostmortemNamingTheSlice) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  EXPECT_EXIT(
      {
        configure(dir_.string(), 64);
        set_inflight("slice", 0);
        event("slice.dispatch", 0, 4);
        ::raise(SIGSEGV);
      },
      ::testing::KilledBySignal(SIGSEGV), "");

  std::vector<fs::path> dumps;
  for (const fs::directory_entry& entry : fs::directory_iterator(dir_)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("postmortem-", 0) == 0 && entry.path().extension() == ".txt") {
      dumps.push_back(entry.path());
    }
  }
  ASSERT_EQ(dumps.size(), 1u);
  const std::string text = slurp(dumps.front().string());
  EXPECT_NE(text.find("ELRR-POSTMORTEM 1\n"), std::string::npos) << text;
  EXPECT_NE(text.find("reason: SIGSEGV\n"), std::string::npos) << text;
  EXPECT_NE(text.find("inflight: "), std::string::npos) << text;
  EXPECT_NE(text.find(" slice 0\n"), std::string::npos) << text;
  EXPECT_NE(text.find("name=slice.dispatch a=0 b=4"), std::string::npos)
      << text;
  EXPECT_NE(text.find("\nend\n"), std::string::npos) << text;
}

TEST_F(RecorderTest, ResetDisarmsAndUnlinksTheTempFile) {
  configure(dir_.string(), 64);
  ASSERT_TRUE(armed());
  const std::string tmp = postmortem_path() + ".tmp";
  EXPECT_TRUE(fs::exists(tmp));
  reset();
  EXPECT_FALSE(armed());
  EXPECT_FALSE(fs::exists(tmp));
  // Disarmed again: events are no-ops, dumps refuse.
  event("late", 1);
  EXPECT_TRUE(snapshot_events().empty());
  EXPECT_FALSE(write_postmortem("late"));
}

TEST_F(RecorderTest, ReconfigureSwapsTheJournalCleanly) {
  configure(dir_.string(), 16);
  event("first", 1);
  ASSERT_EQ(snapshot_events().size(), 1u);
  // Reconfigure retires the old ring: the journal starts empty and the
  // capacity change takes effect.
  configure(dir_.string(), 32);
  EXPECT_TRUE(snapshot_events().empty());
  EXPECT_EQ(ring_capacity(), 32u);
  event("second", 2);
  const std::vector<EventView> events = snapshot_events();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events.front().name, "second");
}

/// The recorder never feeds back into results: a fleet wave over s526
/// candidates, half of them telescopic, scores bit-identically with the
/// recorder armed and disarmed, and the armed wave did journal its
/// slice dispatches.
TEST_F(RecorderTest, ArmedFleetThetasAreBitExact) {
  std::vector<Rrg> candidates;
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    Rrg rrg = bench89::make_table2_rrg(bench89::spec_by_name("s526"), seed);
    if (seed % 2 == 0) {
      for (NodeId n = 0; n < rrg.num_nodes(); n += 7) {
        rrg.set_telescopic(n, 0.85, 2);
      }
    }
    candidates.push_back(std::move(rrg));
  }
  sim::SimOptions options;
  options.warmup_cycles = 200;
  options.measure_cycles = 2000;
  options.runs = 4;
  const auto wave = [&] {
    sim::SimFleet fleet(2);
    std::vector<sim::SimTicket> tickets;
    for (const Rrg& candidate : candidates) {
      tickets.push_back(fleet.submit_async(Rrg(candidate), options));
    }
    std::vector<double> thetas;
    for (const sim::SimTicket ticket : tickets) {
      thetas.push_back(fleet.wait(ticket).theta);
    }
    return thetas;
  };
  const std::vector<double> disarmed = wave();
  configure(dir_.string(), 4096);
  ASSERT_TRUE(armed());
  const std::vector<double> recorded = wave();
  EXPECT_FALSE(snapshot_events().empty());
  EXPECT_EQ(recorded, disarmed);
}

TEST_F(RecorderTest, InvalidDirThrowsStrictly) {
  // A dir that cannot be created is an InvalidInputError naming the
  // knob, and the recorder stays disarmed.
  EXPECT_THROW(configure("/proc/definitely/not/writable", 64),
               InvalidInputError);
  EXPECT_FALSE(armed());
}

}  // namespace
}  // namespace elrr::obs::rec
