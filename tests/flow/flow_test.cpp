/// \file flow_test.cpp
/// The experiment flow behind bench_table1/bench_table2: per-circuit
/// invariants that must hold regardless of MILP budgets -- chiefly that
/// the reported baselines and optima are internally consistent.

#include "flow/circuit_flow.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <optional>
#include <string>
#include <tuple>

#include "bench89/generator.hpp"
#include "core/analysis.hpp"
#include "support/error.hpp"
#include "support/failpoint.hpp"

namespace elrr::flow {
namespace {

FlowOptions fast_options(std::uint64_t seed) {
  FlowOptions options;
  options.seed = seed;
  options.epsilon = 0.1;
  options.milp_timeout_s = 2.0;
  options.sim_cycles = 4000;
  options.max_simulated_points = 4;
  return options;
}

// std::string rather than const char*: ctest names each case after
// GetParam(), and a printed pointer would differ from run to run.
class FlowInvariants
    : public ::testing::TestWithParam<std::tuple<std::string, int>> {};

TEST_P(FlowInvariants, HoldOnSmallCircuits) {
  const auto& [name, seed] = GetParam();
  const FlowOptions options = fast_options(static_cast<std::uint64_t>(seed));
  const CircuitResult r = run_circuit(name, options);

  EXPECT_EQ(r.name, name);
  EXPECT_GT(r.n_simple + r.n_early, 0);
  EXPECT_GT(r.n_edges, 0);
  ASSERT_FALSE(r.candidates.empty());

  // The unoptimized configuration has Theta = 1, so xi* equals tau and
  // every optimum the flow reports must be at least as good. The late
  // baseline in particular may never exceed xi* (the identity is a valid
  // late-evaluation configuration) -- this regressed once when MILP
  // budgets starved; see src/core/README.md, reproduction note 6.
  EXPECT_GT(r.xi_star, 0.0);
  EXPECT_LE(r.xi_nee, r.xi_star + 1e-6);
  EXPECT_LE(r.xi_sim_min, r.xi_star * 1.02 + 1e-6);  // 2% sim noise head
  EXPECT_GE(r.xi_sim_min, 0.0);

  // xi_lp_min is the simulated xi of the xi_lp-best candidate: it can
  // never beat the best simulated candidate.
  EXPECT_GE(r.xi_lp_min, r.xi_sim_min - 1e-9);

  for (const CandidateRow& row : r.candidates) {
    EXPECT_GT(row.tau, 0.0);
    EXPECT_GT(row.theta_lp, 0.0);
    EXPECT_LE(row.theta_lp, 1.0 + 1e-9);
    EXPECT_GT(row.theta_sim, 0.0);
    EXPECT_GE(row.bubbles, 0) << "bubbles cannot be negative";
    EXPECT_NEAR(row.xi_sim, row.tau / row.theta_sim, 1e-9);
    EXPECT_NEAR(row.xi_lp, row.tau / row.theta_lp, 1e-6);
  }

  // Candidates are presented in increasing-tau order.
  for (std::size_t i = 1; i < r.candidates.size(); ++i) {
    EXPECT_GE(r.candidates[i].tau, r.candidates[i - 1].tau - 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Circuits, FlowInvariants,
    ::testing::Combine(::testing::Values("s208", "s838", "s420"),
                       ::testing::Values(1, 2, 7)));

TEST(Flow, HeuristicMergeNeverHurts) {
  // With the heuristic merged in, the reported optimum is at least as
  // good as the paper-pure flow's under identical budgets.
  FlowOptions pure = fast_options(1);
  pure.use_heuristic = false;
  FlowOptions hybrid = fast_options(1);
  hybrid.use_heuristic = true;
  const CircuitResult a = run_circuit("s27", pure);
  const CircuitResult b = run_circuit("s27", hybrid);
  EXPECT_LE(b.xi_nee, a.xi_nee + 1e-6);
  // xi_sim_min compares simulated values; allow a whisker of sim noise.
  EXPECT_LE(b.xi_sim_min, a.xi_sim_min * 1.03);
}

TEST(Flow, EnvOptionsParse) {
  const FlowOptions options = FlowOptions::from_env();
  EXPECT_GT(options.epsilon, 0.0);
  EXPECT_GT(options.milp_timeout_s, 0.0);
  EXPECT_GT(options.sim_cycles, 0u);
}

/// Scoped environment override; restores the previous value (or
/// unset-ness) on destruction so tests cannot leak knobs into each other.
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    const char* old = std::getenv(name);
    if (old != nullptr) saved_ = old;
    ::setenv(name, value, 1);
  }
  ~ScopedEnv() {
    if (saved_.has_value()) {
      ::setenv(name_.c_str(), saved_->c_str(), 1);
    } else {
      ::unsetenv(name_.c_str());
    }
  }

 private:
  std::string name_;
  std::optional<std::string> saved_;
};

TEST(Flow, EnvValidationAcceptsWellFormedKnobs) {
  const ScopedEnv cycles("ELRR_SIM_CYCLES", "12000");
  const ScopedEnv threads("ELRR_SIM_THREADS", "0");  // 0 = all cores
  const ScopedEnv timeout("ELRR_MILP_TIMEOUT", "2.5");
  const ScopedEnv polish("ELRR_POLISH", "1");
  const ScopedEnv cache_cap("ELRR_SIM_CACHE_CAP", "0");  // 0 = unbounded
  const FlowOptions options = FlowOptions::from_env();
  EXPECT_EQ(options.sim_cycles, 12000u);
  EXPECT_EQ(options.sim_threads, 0u);
  EXPECT_DOUBLE_EQ(options.milp_timeout_s, 2.5);
  EXPECT_TRUE(options.polish);
  EXPECT_EQ(options.sim_cache_cap, 0u);
}

TEST(Flow, EnvValidationRejectsMalformedSimCacheCap) {
  {
    const ScopedEnv guard("ELRR_SIM_CACHE_CAP", "-1");  // no negatives
    EXPECT_THROW(FlowOptions::from_env(), InvalidInputError);
  }
  {
    const ScopedEnv guard("ELRR_SIM_CACHE_CAP", "256MiB");  // bytes only
    EXPECT_THROW(FlowOptions::from_env(), InvalidInputError);
  }
}

TEST(Flow, EnvValidationRejectsMalformedSimCycles) {
  // A negative cycle count used to wrap through size_t into a
  // near-eternal run; junk text parsed as 0 and then failed deep inside
  // the simulator. Both must be immediate, named errors now.
  {
    const ScopedEnv guard("ELRR_SIM_CYCLES", "-5");
    EXPECT_THROW(FlowOptions::from_env(), InvalidInputError);
  }
  {
    const ScopedEnv guard("ELRR_SIM_CYCLES", "abc");
    EXPECT_THROW(FlowOptions::from_env(), InvalidInputError);
  }
  {
    const ScopedEnv guard("ELRR_SIM_CYCLES", "0");
    EXPECT_THROW(FlowOptions::from_env(), InvalidInputError);
  }
  {
    const ScopedEnv guard("ELRR_SIM_CYCLES", "20000x");  // trailing junk
    EXPECT_THROW(FlowOptions::from_env(), InvalidInputError);
  }
}

TEST(Flow, EnvValidationRejectsMalformedThreadsAndTimeout) {
  {
    const ScopedEnv guard("ELRR_SIM_THREADS", "-1");
    EXPECT_THROW(FlowOptions::from_env(), InvalidInputError);
  }
  {
    const ScopedEnv guard("ELRR_SIM_THREADS", "1e9");  // not an integer
    EXPECT_THROW(FlowOptions::from_env(), InvalidInputError);
  }
  {
    const ScopedEnv guard("ELRR_MILP_TIMEOUT", "0");  // must be positive
    EXPECT_THROW(FlowOptions::from_env(), InvalidInputError);
  }
  {
    const ScopedEnv guard("ELRR_MILP_TIMEOUT", "nan");
    EXPECT_THROW(FlowOptions::from_env(), InvalidInputError);
  }
  {
    const ScopedEnv guard("ELRR_EPSILON", "-0.05");
    EXPECT_THROW(FlowOptions::from_env(), InvalidInputError);
  }
  {
    const ScopedEnv guard("ELRR_HEUR", "yes");  // 0 or 1 only
    EXPECT_THROW(FlowOptions::from_env(), InvalidInputError);
  }
}

TEST(Flow, EnvValidationErrorNamesTheVariable) {
  const ScopedEnv guard("ELRR_SIM_CYCLES", "-5");
  try {
    FlowOptions::from_env();
    FAIL() << "expected InvalidInputError";
  } catch (const InvalidInputError& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("ELRR_SIM_CYCLES"), std::string::npos) << what;
    EXPECT_NE(what.find("-5"), std::string::npos) << what;
  }
}

/// The cancel hook reaches the late-evaluation baseline walk, not just
/// the early-evaluation engine after it: a hook that turns true at its
/// second poll stops the baseline after the identity and one MILP step,
/// and the flow returns the cancelled partial result before the engine
/// emits a single candidate.
TEST(Flow, CancelStopsTheBaselineWalkAtAStepBoundary) {
  int polls = 0;
  std::size_t emitted = 0;
  FlowHooks hooks;
  hooks.cancelled = [&polls] { return ++polls > 1; };
  hooks.on_progress = [&emitted](std::size_t walked) { emitted = walked; };
  const CircuitResult r = run_flow(
      "s208", bench89::make_table2_rrg(bench89::spec_by_name("s208"), 1),
      fast_options(1), hooks);
  EXPECT_TRUE(r.cancelled);
  EXPECT_EQ(polls, 2);
  EXPECT_EQ(emitted, 0u);
  EXPECT_EQ(r.candidates_walked, 0u);
  EXPECT_TRUE(r.candidates.empty());
  EXPECT_GT(r.xi_nee, 0.0);
  EXPECT_LE(r.xi_nee, r.xi_star + 1e-6);
}

TEST(Flow, CancelStopsTheBaselineMaxThrBetweenItsSolves) {
  // A MILP budget no solve can meet sends the NEE walk's first
  // MAX_THR(beta_max) past its direct attempt into the bisection. Every
  // solve of it must poll the hook first: poll 1 follows the identity
  // step, poll 2 precedes the direct attempt, poll 3 the theta = 1 probe,
  // poll 4 the first bisection probe. The hook fires at `trip` and is
  // not asked again. The fail-point hit counter (armed to fire never)
  // counts the MILP solves that ran.
  for (const int trip : {2, 3, 4}) {
    failpoint::configure("milp.solve=after:1000000");
    int polls = 0;
    FlowHooks hooks;
    hooks.cancelled = [&polls, trip] { return ++polls >= trip; };
    FlowOptions options = fast_options(1);
    options.milp_timeout_s = 1e-9;
    const CircuitResult r = run_flow(
        "s27", bench89::make_table2_rrg(bench89::spec_by_name("s27"), 1),
        options, hooks);
    const std::uint64_t solves = failpoint::hits("milp.solve");
    failpoint::reset();
    EXPECT_TRUE(r.cancelled) << trip;
    EXPECT_EQ(polls, trip) << trip;
    EXPECT_EQ(solves, static_cast<std::uint64_t>(trip - 2)) << trip;
    EXPECT_FALSE(r.all_exact) << trip;
    EXPECT_TRUE(r.candidates.empty()) << trip;
    EXPECT_GT(r.xi_nee, 0.0) << trip;
  }
}

TEST(Flow, UnknownCircuitThrows) {
  EXPECT_THROW(run_circuit("s9999", fast_options(1)), Error);
}

}  // namespace
}  // namespace elrr::flow
