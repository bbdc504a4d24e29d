/// \file failpoint_test.cpp
/// The fail-point registry's contract: strict spec parsing (every typo
/// throws, naming the knob), deterministic schedules (`once`, `after:N`,
/// seeded `prob:` streams reproduce hit-by-hit), per-site counters, and
/// a disarmed fast path that never fires.

#include "support/failpoint.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "support/error.hpp"

namespace elrr::failpoint {
namespace {

/// Every test leaves the process disarmed: the registry is process
///-global and other suites in this binary must not inherit a schedule.
class FailPointTest : public ::testing::Test {
 protected:
  void TearDown() override { reset(); }
};

TEST_F(FailPointTest, DisarmedTripIsANoOp) {
  reset();
  for (int i = 0; i < 100; ++i) trip("milp.solve");
  // Counters are only maintained while armed (fast-path contract).
  EXPECT_EQ(hits("milp.solve"), 0u);
  EXPECT_EQ(fired("milp.solve"), 0u);
}

TEST_F(FailPointTest, OnceFiresExactlyOnce) {
  configure("milp.solve=once");
  EXPECT_THROW(trip("milp.solve"), FailPointError);
  for (int i = 0; i < 10; ++i) EXPECT_NO_THROW(trip("milp.solve"));
  EXPECT_EQ(hits("milp.solve"), 11u);
  EXPECT_EQ(fired("milp.solve"), 1u);
}

TEST_F(FailPointTest, AfterNPassesNThenFiresOnce) {
  configure("walk.step=after:3");
  for (int i = 0; i < 3; ++i) EXPECT_NO_THROW(trip("walk.step"));
  EXPECT_THROW(trip("walk.step"), FailPointError);
  for (int i = 0; i < 5; ++i) EXPECT_NO_THROW(trip("walk.step"));
  EXPECT_EQ(fired("walk.step"), 1u);
}

TEST_F(FailPointTest, OffIsAnExplicitNoOp) {
  configure("milp.solve=off,fleet.worker=once");
  EXPECT_NO_THROW(trip("milp.solve"));
  EXPECT_THROW(trip("fleet.worker"), FailPointError);
}

TEST_F(FailPointTest, ConfigureResetsCounters) {
  configure("milp.solve=once");
  EXPECT_THROW(trip("milp.solve"), FailPointError);
  configure("milp.solve=once");  // fresh schedule, fresh counters
  EXPECT_EQ(hits("milp.solve"), 0u);
  EXPECT_THROW(trip("milp.solve"), FailPointError);
}

/// The determinism contract: the same prob spec replays the identical
/// hit-by-hit fire/pass sequence -- no wall clock, no global RNG.
TEST_F(FailPointTest, ProbStreamIsReproducibleBitForBit) {
  const auto sample = [](const std::string& spec) {
    configure(spec);
    std::vector<bool> fires;
    for (int i = 0; i < 200; ++i) {
      bool fired_now = false;
      try {
        trip("fleet.worker");
      } catch (const FailPointError&) {
        fired_now = true;
      }
      fires.push_back(fired_now);
    }
    return fires;
  };
  const std::vector<bool> a = sample("fleet.worker=prob:0.25@42");
  const std::vector<bool> b = sample("fleet.worker=prob:0.25@42");
  EXPECT_EQ(a, b);
  const std::size_t fired_count =
      static_cast<std::size_t>(std::count(a.begin(), a.end(), true));
  EXPECT_GT(fired_count, 0u);   // P=.25 over 200 hits: ~50
  EXPECT_LT(fired_count, 200u);
  // A different seed draws a different stream (overwhelmingly likely).
  EXPECT_NE(a, sample("fleet.worker=prob:0.25@43"));
  // Degenerate probabilities behave as constants.
  const std::vector<bool> never = sample("fleet.worker=prob:0@1");
  EXPECT_EQ(std::count(never.begin(), never.end(), true), 0);
  const std::vector<bool> always = sample("fleet.worker=prob:1@1");
  EXPECT_EQ(std::count(always.begin(), always.end(), true), 200);
}

TEST_F(FailPointTest, StallSleepsOnceWithoutThrowing) {
  configure("fleet.worker=stall:10");
  EXPECT_NO_THROW(trip("fleet.worker"));
  EXPECT_NO_THROW(trip("fleet.worker"));
  EXPECT_EQ(fired("fleet.worker"), 1u);
}

TEST_F(FailPointTest, StrictSpecValidation) {
  // Unknown site / malformed mode / duplicates: all throw, all name the
  // knob that carried the spec.
  const std::vector<std::string> bad = {
      "nope=once",
      "milp.solve",
      "milp.solve=",
      "milp.solve=sometimes",
      "milp.solve=after",
      "milp.solve=after:",
      "milp.solve=after:x",
      "milp.solve=prob:2@1",
      "milp.solve=prob:0.5",
      "milp.solve=stall:-1",
      "milp.solve=once,milp.solve=off",
      ",",
  };
  for (const std::string& spec : bad) {
    try {
      configure(spec, "ELRR_FAILPOINTS");
      ADD_FAILURE() << "accepted: " << spec;
    } catch (const InvalidInputError& e) {
      EXPECT_NE(std::string(e.what()).find("ELRR_FAILPOINTS"),
                std::string::npos)
          << spec;
    }
  }
  EXPECT_NO_THROW(configure(""));  // empty spec = disarm
}

TEST_F(FailPointTest, TripOnUnknownSiteIsAnInternalError) {
  configure("milp.solve=once");  // arm so the slow path runs
  EXPECT_THROW(trip("not.a.site"), InternalError);
}

TEST_F(FailPointTest, KnownSitesListTheCompiledInSites) {
  const std::vector<std::string>& sites = known_sites();
  for (const char* site : {"fleet.worker", "walk.step", "milp.solve",
                           "milp.node_warm", "svc.manifest",
                           "disk_cache.load", "disk_cache.store"}) {
    EXPECT_NE(std::find(sites.begin(), sites.end(), site), sites.end())
        << site;
  }
  EXPECT_EQ(sites.size(), 8u);
}

}  // namespace
}  // namespace elrr::failpoint
