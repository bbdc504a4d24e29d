/// \file engine_test.cpp
/// The pipelined flow engine's contract: with feedback pruning off, the
/// engine's Pareto front and every theta are bit-identical to the
/// sequential path (min_eff_cyc, then per candidate solo
/// simulate_throughput where the throughput bounds differ and the exact
/// theta_late where they meet) for every fleet thread count and for
/// overlap on/off -- the pipeline is purely a wall-clock change. Cancellation stops the walk at a step
/// boundary and leaves the engine (and its fleet) fully reusable.
///
/// The test circuit (s420) is small enough that every MILP solves to
/// proven optimality well inside its budget, so walks are deterministic
/// run to run -- a precondition for comparing frontiers across runs.

#include "flow/engine.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <string>
#include <thread>
#include <vector>

#include "bench89/generator.hpp"
#include "core/analysis.hpp"
#include "core/opt.hpp"
#include "core/tgmg.hpp"
#include "sim/simulator.hpp"

namespace elrr::flow {
namespace {

Rrg test_rrg() {
  return bench89::make_table2_rrg(bench89::spec_by_name("s420"), 1);
}

EngineOptions fast_options() {
  EngineOptions options;
  options.opt.epsilon = 0.05;
  options.opt.milp.time_limit_s = 30.0;  // never reached at this size
  options.sim.measure_cycles = 2000;
  options.sim.warmup_cycles = 200;
  options.sim.runs = 2;
  options.sim_threads = 1;
  return options;
}

void expect_same_frontier(const MinEffCycResult& a, const MinEffCycResult& b,
                          const char* label) {
  ASSERT_EQ(a.points.size(), b.points.size()) << label;
  EXPECT_EQ(a.best_index, b.best_index) << label;
  EXPECT_EQ(a.milp_calls, b.milp_calls) << label;
  for (std::size_t i = 0; i < a.points.size(); ++i) {
    EXPECT_EQ(a.points[i].tau, b.points[i].tau) << label << " point " << i;
    EXPECT_EQ(a.points[i].theta_lp, b.points[i].theta_lp)
        << label << " point " << i;
    EXPECT_EQ(a.points[i].xi_lp, b.points[i].xi_lp) << label << " point " << i;
    EXPECT_TRUE(a.points[i].config == b.points[i].config)
        << label << " point " << i;
  }
}

/// The walk streamed through the engine replays min_eff_cyc exactly, and
/// each scored theta equals the sequential oracle's -- at thread counts
/// 1, 2 and 4, overlapped and sequential.
TEST(FlowEngine, BitExactVsSequentialPathAtAnyThreadCount) {
  const Rrg rrg = test_rrg();
  const EngineOptions base = fast_options();

  // The sequential oracle: plain walk, then per candidate the exact
  // theta_late where it meets the dense throughput LP (a bound the
  // engine never computes), solo simulation elsewhere.
  const MinEffCycResult reference = min_eff_cyc(rrg, base.opt);
  ASSERT_TRUE(reference.all_exact)
      << "test circuit must solve exactly for determinism";
  std::vector<double> reference_thetas;
  std::vector<bool> reference_exact;
  for (const ParetoPoint& point : reference.points) {
    const Rrg candidate = apply_config(rrg, point.config);
    const double late = late_eval_throughput(candidate);
    const double lp = tgmg_throughput_bound(refined_tgmg(candidate)).theta;
    reference_exact.push_back(lp - late <= 1e-9 * lp);
    reference_thetas.push_back(
        reference_exact.back()
            ? late
            : sim::simulate_throughput(candidate, base.sim).theta);
  }
  ASSERT_GT(std::count(reference_exact.begin(), reference_exact.end(), true),
            0);
  ASSERT_GT(std::count(reference_exact.begin(), reference_exact.end(), false),
            0);

  for (const bool overlap : {true, false}) {
    for (const std::size_t threads :
         {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
      EngineOptions options = base;
      options.overlap = overlap;
      options.sim_threads = threads;
      Engine engine(rrg, options);
      const EngineResult result = engine.run();
      const std::string label = std::string(overlap ? "overlap" : "seq") +
                                " threads " + std::to_string(threads);
      EXPECT_FALSE(result.cancelled) << label;
      expect_same_frontier(result.walk, reference, label.c_str());
      ASSERT_EQ(result.scored.size(), reference.points.size()) << label;
      for (std::size_t i = 0; i < result.scored.size(); ++i) {
        EXPECT_EQ(result.scored[i].sim.theta, reference_thetas[i])
            << label << " point " << i;
        EXPECT_EQ(result.scored[i].sim.cycles == 0, reference_exact[i])
            << label << " point " << i;
      }
    }
  }
}

/// The acceptance bar for warm starts: an engine with the default warm
/// MILP session reproduces a *cold* sequential oracle bit-identically at
/// every fleet thread count -- the warm basis is a wall-clock
/// optimization only (tests/lp/session_test.cpp runs the walk-level
/// differential across circuits; this pins the engine layer).
TEST(FlowEngine, WarmEngineMatchesColdOracleAtAnyThreadCount) {
  const Rrg rrg = test_rrg();
  EngineOptions base = fast_options();
  ASSERT_TRUE(base.opt.milp_warm);  // warm is the default under test

  OptOptions cold = base.opt;
  cold.milp_warm = false;
  const MinEffCycResult reference = min_eff_cyc(rrg, cold);
  ASSERT_TRUE(reference.all_exact)
      << "test circuit must solve exactly for determinism";

  for (const std::size_t threads :
       {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
    EngineOptions options = base;
    options.sim_threads = threads;
    Engine engine(rrg, options);
    const EngineResult result = engine.run();
    const std::string label = "warm threads " + std::to_string(threads);
    EXPECT_FALSE(result.cancelled) << label;
    expect_same_frontier(result.walk, reference, label.c_str());
    EXPECT_GT(result.milp.warm_roots, 0) << label << ": ran cold, proved nothing";
  }
}

/// ParetoWalk streams the identical candidates min_eff_cyc records --
/// replaying advance() to exhaustion and finish()ing reproduces the
/// one-shot result on the walk level too (the engine-independent half of
/// the determinism story).
TEST(FlowEngine, ParetoWalkReplaysMinEffCyc) {
  const Rrg rrg = test_rrg();
  OptOptions options;
  options.epsilon = 0.05;
  options.milp.time_limit_s = 30.0;

  const MinEffCycResult oracle = min_eff_cyc(rrg, options);
  ParetoWalk walk(rrg, options);
  std::size_t emitted = 0;
  while (walk.advance().has_value()) ++emitted;
  EXPECT_TRUE(walk.done());
  EXPECT_GE(emitted, oracle.points.size());  // emissions include revisits
  expect_same_frontier(walk.finish(), oracle, "walk replay");
  EXPECT_EQ(walk.milp_calls(), oracle.milp_calls);
  EXPECT_EQ(walk.pruned_steps(), 0);  // no hint was ever set
}

/// Cancellation mid-walk: the run stops at the next step boundary,
/// returns the partial frontier with cancelled = true, and both the
/// engine and its fleet remain fully usable -- score() and a fresh run()
/// afterwards produce the same results as an untouched engine.
TEST(FlowEngine, CancellationMidWalkLeavesEngineReusable) {
  const Rrg rrg = test_rrg();
  EngineOptions options = fast_options();
  std::size_t seen = 0;
  options.on_candidate = [&](const ParetoPoint&, std::size_t) { ++seen; };
  options.cancelled = [&] { return seen == 2; };
  Engine engine(rrg, options);

  const EngineResult partial = engine.run();
  EXPECT_TRUE(partial.cancelled);
  EXPECT_EQ(partial.candidates_submitted, 2u);
  EXPECT_LE(partial.walk.points.size(), 2u);
  EXPECT_EQ(partial.scored.size(), partial.walk.points.size());

  // The fleet is quiesced and reusable: score an arbitrary configuration
  // through it and check against solo simulation.
  ParetoPoint identity;
  identity.config = initial_config(rrg);
  const RcEvaluation eval = evaluate_rrg(rrg);
  identity.tau = eval.tau;
  identity.theta_lp = eval.theta_lp;
  identity.xi_lp = eval.xi_lp;
  const std::vector<ScoredPoint> scored = engine.score({identity});
  ASSERT_EQ(scored.size(), 1u);
  const Rrg identity_rrg = apply_config(rrg, identity.config);
  EXPECT_EQ(scored[0].sim.theta,
            sim::simulate_throughput(identity_rrg, options.sim).theta);

  // A fresh run on the same engine (the predicate is polled afresh)
  // completes and matches an untouched engine's result.
  seen = 1000;  // never trips again
  const EngineResult full = engine.run();
  EXPECT_FALSE(full.cancelled);
  EngineOptions clean = fast_options();
  Engine fresh_engine(rrg, clean);
  const EngineResult fresh = fresh_engine.run();
  expect_same_frontier(full.walk, fresh.walk, "post-cancel rerun");
  ASSERT_EQ(full.scored.size(), fresh.scored.size());
  for (std::size_t i = 0; i < full.scored.size(); ++i) {
    EXPECT_EQ(full.scored[i].sim.theta, fresh.scored[i].sim.theta);
  }
}

/// score() rides the session cache: rescoring the frontier after run()
/// adds no new unique simulations and no new exact thetas, and returns
/// bit-identical thetas.
TEST(FlowEngine, ScoreHitsTheSessionCache) {
  const Rrg rrg = test_rrg();
  Engine engine(rrg, fast_options());
  const EngineResult result = engine.run();
  ASSERT_FALSE(result.scored.empty());
  const std::size_t exact_before = engine.exact_thetas();
  EXPECT_GT(exact_before, 0u);

  const std::uint64_t misses_before = engine.fleet().cache_stats().misses;
  const std::vector<ScoredPoint> rescored = engine.score(result.walk.points);
  EXPECT_EQ(engine.fleet().cache_stats().misses, misses_before)
      << "rescoring the frontier must be pure cache hits";
  EXPECT_EQ(engine.exact_thetas(), exact_before);
  ASSERT_EQ(rescored.size(), result.scored.size());
  for (std::size_t i = 0; i < rescored.size(); ++i) {
    EXPECT_EQ(rescored[i].sim.theta, result.scored[i].sim.theta);
    EXPECT_EQ(rescored[i].xi_sim, result.scored[i].xi_sim);
  }
}

/// Feedback pruning is a live, opt-in mode: the run completes, scored
/// candidates stay internally consistent, and the best simulated xi can
/// never be worse than the identity configuration's (the walk always
/// records the identity first, and pruning only skips steps that cannot
/// beat an already-observed xi).
TEST(FlowEngine, FeedbackPruningProducesAValidResult) {
  const Rrg rrg = test_rrg();
  EngineOptions options = fast_options();
  options.feedback_pruning = FeedbackPruning::kOn;
  Engine engine(rrg, options);
  const EngineResult result = engine.run();

  ASSERT_FALSE(result.scored.empty());
  EXPECT_GE(result.pruned_steps, 0);
  const double identity_xi = evaluate_rrg(rrg).tau;  // theta = 1 at identity
  EXPECT_LE(result.best_by_sim().xi_sim, identity_xi * 1.02 + 1e-6);
  for (const ScoredPoint& scored : result.scored) {
    EXPECT_GT(scored.sim.theta, 0.0);
    EXPECT_NEAR(scored.xi_sim, scored.point.tau / scored.sim.theta, 1e-9);
  }
}

/// Shared-fleet engines (the svc::Scheduler shape): two engines driven
/// from two threads over ONE multi-client fleet produce results
/// bit-identical to owned-fleet engines -- candidate dedup across
/// engines included (the second identical-circuit engine creates no
/// fresh simulations when it loses the submission race, and its thetas
/// are the shared, bit-exact ones either way).
TEST(FlowEngine, SharedFleetMatchesOwnedFleetAcrossThreads) {
  const Rrg rrg = test_rrg();
  const EngineOptions base = fast_options();
  Engine oracle_engine(rrg, base);
  const EngineResult oracle = oracle_engine.run();

  sim::SimFleet shared(2);
  EngineResult results[2];
  std::thread clients[2];
  for (int c = 0; c < 2; ++c) {
    clients[c] = std::thread([&, c] {
      Engine engine(rrg, base, shared);
      results[c] = engine.run();
    });
  }
  for (std::thread& client : clients) client.join();

  for (int c = 0; c < 2; ++c) {
    const std::string label = "shared engine " + std::to_string(c);
    expect_same_frontier(results[c].walk, oracle.walk, label.c_str());
    ASSERT_EQ(results[c].scored.size(), oracle.scored.size()) << label;
    for (std::size_t i = 0; i < oracle.scored.size(); ++i) {
      EXPECT_EQ(results[c].scored[i].sim.theta, oracle.scored[i].sim.theta)
          << label << " point " << i;
    }
  }
  // Between them the two engines created each unique simulation once.
  EXPECT_EQ(results[0].unique_simulations + results[1].unique_simulations,
            oracle.unique_simulations);
}

/// The observer sees every emitted candidate, in emission order, with
/// its index.
TEST(FlowEngine, ObserverSeesEveryEmission) {
  const Rrg rrg = test_rrg();
  EngineOptions options = fast_options();
  std::vector<std::size_t> indices;
  options.on_candidate = [&](const ParetoPoint& point, std::size_t index) {
    EXPECT_GT(point.tau, 0.0);
    indices.push_back(index);
  };
  Engine engine(rrg, options);
  const EngineResult result = engine.run();
  ASSERT_EQ(indices.size(), result.candidates_submitted);
  for (std::size_t i = 0; i < indices.size(); ++i) {
    EXPECT_EQ(indices[i], i);
  }
}

}  // namespace
}  // namespace elrr::flow
