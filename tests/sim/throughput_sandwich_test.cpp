/// \file throughput_sandwich_test.cpp
/// The sandwich the flow engine trusts instead of simulating: early
/// evaluation never fires later than late evaluation, so
/// theta_late <= theta <= Theta_lp for every live RRG without telescopic
/// nodes, and where the two bounds meet the engine scores theta_late with
/// no simulation (flow/engine.hpp). Checked against the exact Markov
/// chain (sim/markov.hpp) on the paper's figures and on random small live
/// RRGs with early nodes and anti-tokens; a telescopic RRG must always
/// simulate. In the `sim` label, so the sanitizer sweep runs it too.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "core/analysis.hpp"
#include "core/figures.hpp"
#include "core/tgmg.hpp"
#include "flow/engine.hpp"
#include "sim/fleet.hpp"
#include "sim/markov.hpp"
#include "support/rng.hpp"
#include "support/strings.hpp"

namespace elrr::sim {
namespace {

/// Random live RRG: ring backbone plus chords; early joins with random
/// gammas and anti-tokens only on their inputs; buffers up to 3 EBs deep.
Rrg random_rrg(std::uint64_t seed) {
  elrr::Rng rng(seed * 7919 + 11);
  const std::size_t n = 3 + static_cast<std::size_t>(rng.uniform_int(0, 3));
  Rrg rrg;
  for (std::size_t i = 0; i < n; ++i) rrg.add_node(indexed_name('n', i), 1.0);
  const auto random_edge = [&](NodeId u, NodeId v) {
    const int tokens = static_cast<int>(rng.uniform_int(-1, 2));
    const int buffers =
        std::max(tokens, 0) + static_cast<int>(rng.uniform_int(0, 2));
    rrg.add_edge(u, v, tokens, buffers);
  };
  for (std::size_t i = 0; i < n; ++i) {
    random_edge(static_cast<NodeId>(i), static_cast<NodeId>((i + 1) % n));
  }
  const std::size_t chords =
      1 + static_cast<std::size_t>(rng.uniform_int(0, 3));
  for (std::size_t k = 0; k < chords; ++k) {
    const auto u = static_cast<NodeId>(
        rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
    const auto v = static_cast<NodeId>(
        rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
    random_edge(u, v);
  }
  for (NodeId v = 0; v < rrg.num_nodes(); ++v) {
    if (rrg.graph().in_degree(v) >= 2 && rng.bernoulli(0.7)) {
      rrg.set_kind(v, NodeKind::kEarly);
      const auto probs = rng.simplex(rrg.graph().in_degree(v), 0.05);
      std::size_t idx = 0;
      for (EdgeId e : rrg.graph().in_edges(v)) rrg.set_gamma(e, probs[idx++]);
    }
  }
  for (EdgeId e = 0; e < rrg.num_edges(); ++e) {
    if (rrg.tokens(e) < 0 && !rrg.is_early(rrg.graph().dst(e))) {
      rrg.set_tokens(e, 0);
    }
  }
  std::vector<EdgeId> dead;
  while (!rrg.is_live(&dead)) {
    const int tokens = rrg.tokens(dead[0]) + 1;
    rrg.set_tokens(dead[0], tokens);
    rrg.set_buffers(dead[0], std::max(tokens, rrg.buffers(dead[0])));
  }
  rrg.validate();
  return rrg;
}

flow::EngineOptions small_window() {
  flow::EngineOptions options;
  options.sim.measure_cycles = 400;
  options.sim.warmup_cycles = 100;
  options.sim.runs = 2;
  return options;
}

/// The engine's verdict on an RRG's own configuration, scored on `fleet`.
struct Verdict {
  flow::ScoredPoint scored;
  std::size_t exact_thetas = 0;
};

Verdict engine_verdict(const Rrg& rrg, SimFleet& fleet) {
  flow::Engine engine(rrg, small_window(), fleet);
  ParetoPoint point;
  point.config = initial_config(rrg);
  point.tau = cycle_time(rrg).tau;
  Verdict verdict;
  verdict.scored = engine.score({point}).front();
  verdict.exact_thetas = engine.exact_thetas();
  return verdict;
}

/// Checks the sandwich against the exact chain and the engine against
/// both; returns whether the bounds met (the rule fired).
bool check_sandwich(const Rrg& rrg, double markov, SimFleet& fleet,
                    const char* label) {
  const double late = late_eval_throughput(rrg);
  // The dense LP: an evaluation path the engine does not take.
  const ThroughputBound lp = tgmg_throughput_bound(refined_tgmg(rrg));
  EXPECT_TRUE(lp.bounded) << label;
  EXPECT_LE(late, markov + 1e-9) << label;
  EXPECT_LE(markov, lp.theta + 1e-9) << label;
  const Verdict verdict = engine_verdict(rrg, fleet);
  const bool meet = lp.theta - late <= 1e-9 * lp.theta;
  const bool fired = verdict.exact_thetas == 1;
  EXPECT_EQ(fired, meet) << label << ": late " << late << " lp " << lp.theta;
  if (fired) {
    EXPECT_EQ(verdict.scored.sim.theta, late) << label;
    EXPECT_NEAR(verdict.scored.sim.theta, markov, 1e-9) << label;
    EXPECT_EQ(verdict.scored.sim.stderr_theta, 0.0) << label;
    EXPECT_EQ(verdict.scored.sim.cycles, 0u) << label;
    EXPECT_FALSE(verdict.scored.fresh) << label;
  } else {
    EXPECT_GT(verdict.scored.sim.cycles, 0u) << label;
  }
  return fired;
}

TEST(ThroughputSandwich, FigureRrgsLieBetweenTheBounds) {
  SimFleet fleet(1);
  int fired = 0;
  for (const double alpha : {0.1, 0.5, 0.9}) {
    for (const bool early : {true, false}) {
      for (const Rrg& rrg :
           {figures::figure1a(alpha, early), figures::figure1b(alpha, early),
            figures::figure2(alpha, early)}) {
        const MarkovResult exact = exact_throughput(rrg);
        ASSERT_TRUE(exact.ok);
        fired += check_sandwich(rrg, exact.theta, fleet,
                                early ? "early figure" : "late figure");
      }
    }
  }
  // Every late-evaluation figure is pinned (the bounds coincide without
  // early nodes); the early ones with alpha strictly inside (0, 1) are not.
  EXPECT_GE(fired, 9);
  EXPECT_LT(fired, 18);
}

TEST(ThroughputSandwich, RandomLiveRrgsLieBetweenTheBounds) {
  SimFleet fleet(1);
  MarkovOptions options;
  options.max_states = 20000;
  int checked = 0, with_early = 0, with_anti_tokens = 0, fired_below_one = 0,
      fired_with_early = 0;
  for (std::uint64_t seed = 0; seed < 260; ++seed) {
    const Rrg rrg = random_rrg(seed);
    const MarkovResult exact = exact_throughput(rrg, options);
    if (!exact.ok) continue;
    ++checked;
    bool early = false, anti = false;
    for (NodeId n = 0; n < rrg.num_nodes(); ++n) early |= rrg.is_early(n);
    for (EdgeId e = 0; e < rrg.num_edges(); ++e) anti |= rrg.tokens(e) < 0;
    with_early += early;
    with_anti_tokens += anti;
    std::string label = "seed ";
    label += std::to_string(seed);
    if (check_sandwich(rrg, exact.theta, fleet, label.c_str())) {
      fired_below_one += exact.theta < 1.0 - 1e-9;
      fired_with_early += early;
    }
  }
  EXPECT_GE(checked, 200);
  EXPECT_GE(with_early, 100);
  EXPECT_GE(with_anti_tokens, 30);
  // The rule must be exercised where it matters: below theta = 1, and on
  // RRGs whose early nodes the late bound ignores.
  EXPECT_GE(fired_below_one, 10);
  EXPECT_GE(fired_with_early, 10);
}

TEST(ThroughputSandwich, TelescopicRrgsAlwaysSimulate) {
  SimFleet fleet(1);
  int pinned_without = 0;
  for (std::uint64_t seed = 0; seed < 40; ++seed) {
    Rrg rrg = random_rrg(seed);
    // Only RRGs the rule would pin without their telescopic node count.
    if (engine_verdict(rrg, fleet).exact_thetas == 0) continue;
    ++pinned_without;
    rrg.set_telescopic(0, 0.5, 2);
    const Verdict verdict = engine_verdict(rrg, fleet);
    EXPECT_EQ(verdict.exact_thetas, 0u) << "seed " << seed;
    EXPECT_TRUE(verdict.scored.fresh) << "seed " << seed;
    EXPECT_GT(verdict.scored.sim.cycles, 0u) << "seed " << seed;
  }
  EXPECT_GE(pinned_without, 5);
}

}  // namespace
}  // namespace elrr::sim
