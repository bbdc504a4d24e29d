/// \file evaluator_test.cpp
/// ConfigChecker and ConfigEvaluator against reference formulations:
/// validate_config as Bellman-Ford on the doubled difference system plus
/// has_nonpositive_cycle, and evaluate_config as a materialized copy,
/// its cycle time and the policy bound of its freshly refined TGMG.
/// Verdicts, messages and bits must all agree.

#include "core/evaluator.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "bench89/generator.hpp"
#include "core/figures.hpp"
#include "core/tgmg.hpp"
#include "graph/bellman_ford.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"

namespace elrr {
namespace {

/// The reference formulation of validate_config: reachability by
/// Bellman-Ford on the doubled system delta(e) <= r(v) - r(u) <= delta(e),
/// then liveness by has_nonpositive_cycle.
bool reference_validate(const Rrg& rrg, const RrConfig& config,
                        std::string* why) {
  const auto fail = [&](const std::string& message) {
    *why = message;
    return false;
  };
  if (config.tokens.size() != rrg.num_edges() ||
      config.buffers.size() != rrg.num_edges()) {
    return fail("configuration size mismatch");
  }
  for (EdgeId e = 0; e < rrg.num_edges(); ++e) {
    if (config.buffers[e] < 0) {
      return fail("negative buffer count on edge " + std::to_string(e));
    }
    if (config.buffers[e] < config.tokens[e]) {
      return fail("R < R0 on edge " + std::to_string(e));
    }
  }
  const Digraph& g = rrg.graph();
  Digraph doubled(g.num_nodes());
  std::vector<std::int64_t> w;
  for (EdgeId e = 0; e < rrg.num_edges(); ++e) {
    const std::int64_t delta = config.tokens[e] - rrg.tokens(e);
    doubled.add_edge(g.src(e), g.dst(e));
    w.push_back(delta);
    doubled.add_edge(g.dst(e), g.src(e));
    w.push_back(-delta);
  }
  if (!graph::solve_difference_constraints(doubled, w).feasible) {
    return fail("token change is not a retiming (cycle sums not preserved)");
  }
  std::vector<std::int64_t> tokens(config.tokens.begin(), config.tokens.end());
  if (graph::has_nonpositive_cycle(g, tokens)) {
    return fail("configuration is not live");
  }
  return true;
}

/// Two disjoint token cycles, one with a self loop: a spanning forest
/// with two roots.
Rrg two_components() {
  Rrg rrg;
  const NodeId a = rrg.add_node("a", 1.0);
  const NodeId b = rrg.add_node("b", 2.0);
  const NodeId c = rrg.add_node("c", 3.0);
  const NodeId d = rrg.add_node("d", 1.5);
  rrg.add_edge(a, b, 1, 1);
  rrg.add_edge(b, a, 0, 0);
  rrg.add_edge(c, d, 0, 1);
  rrg.add_edge(d, c, 2, 2);
  rrg.add_edge(d, d, 1, 1);
  return rrg;
}

/// A generated circuit with every token removed: no configuration of it
/// reachable by retiming is live.
Rrg dead_circuit() {
  Rrg rrg = bench89::make_table2_rrg(bench89::spec_by_name("s27"), 5);
  for (EdgeId e = 0; e < rrg.num_edges(); ++e) rrg.set_tokens(e, 0);
  return rrg;
}

std::vector<std::pair<std::string, Rrg>> circuits() {
  Rrg telescopic = bench89::make_table2_rrg(bench89::spec_by_name("s27"), 2);
  telescopic.set_telescopic(1, 0.5, 2);
  return {
      {"figure1a", figures::figure1a(0.5)},
      {"figure2", figures::figure2(0.9)},
      {"s27", bench89::make_table2_rrg(bench89::spec_by_name("s27"), 3)},
      {"s208", bench89::make_table2_rrg(bench89::spec_by_name("s208"), 5)},
      {"h70", bench89::make_table2_rrg({"h", 50, 4, 70}, 1)},
      {"telescopic", telescopic},
      {"two_components", two_components()},
      {"dead", dead_circuit()},
  };
}

/// A random configuration: a retiming with random extra buffers, then,
/// by kind, left alone or broken on one edge (a token change that is no
/// retiming, R < R0, a negative buffer count).
RrConfig random_config(const Rrg& rrg, Rng& rng, int kind) {
  std::vector<int> r(rrg.num_nodes());
  for (int& x : r) x = static_cast<int>(rng.uniform_int(-2, 2));
  RrConfig config = apply_retiming(rrg, r, rng.bernoulli(0.5));
  for (int& b : config.buffers) {
    if (rng.bernoulli(0.2)) b += static_cast<int>(rng.uniform_int(1, 2));
  }
  const EdgeId e = static_cast<EdgeId>(
      rng.uniform_int(0, static_cast<std::int64_t>(rrg.num_edges()) - 1));
  switch (kind) {
    case 1:
      config.tokens[e] += rng.bernoulli(0.5) ? 1 : -1;
      config.buffers[e] = std::max({config.buffers[e], config.tokens[e], 0});
      break;
    case 2:
      config.buffers[e] = config.tokens[e] - 1;
      break;
    case 3:
      config.buffers[e] = -1;
      break;
    default:
      break;
  }
  return config;
}

/// The verdict class of a `why` message (the edge number dropped).
std::string verdict(bool ok, const std::string& why) {
  if (ok) return "valid";
  return why.substr(0, why.find(" on edge"));
}

TEST(ConfigChecker, AgreesWithBellmanFordOnRandomConfigurations) {
  Rng rng(2009);
  std::map<std::string, int> seen;
  int total = 0;
  for (const auto& [name, rrg] : circuits()) {
    SCOPED_TRACE(name);
    const ConfigChecker checker(rrg);
    for (int i = 0; i < 300; ++i) {
      const RrConfig config =
          random_config(rrg, rng, static_cast<int>(rng.uniform_int(0, 3)));
      std::string want_why, got_why, wrapper_why;
      const bool want = reference_validate(rrg, config, &want_why);
      const bool got = checker.check(config, &got_why);
      ASSERT_EQ(got, want) << "config " << i << ": " << want_why;
      EXPECT_EQ(got_why, want_why) << "config " << i;
      EXPECT_EQ(validate_config(rrg, config, &wrapper_why), want);
      EXPECT_EQ(wrapper_why, want_why);
      ++seen[verdict(want, want_why)];
      ++total;
    }
  }
  EXPECT_GE(total, 2000);
  // Every verdict was reached, so every branch was compared.
  for (const char* v :
       {"valid", "token change is not a retiming (cycle sums not preserved)",
        "configuration is not live", "R < R0", "negative buffer count"}) {
    EXPECT_GE(seen[v], 50) << v;
  }
}

TEST(ConfigChecker, RejectsASizeMismatch) {
  const Rrg rrg = figures::figure1a();
  RrConfig config = initial_config(rrg);
  config.buffers.pop_back();
  std::string why;
  EXPECT_FALSE(ConfigChecker(rrg).check(config, &why));
  EXPECT_EQ(why, "configuration size mismatch");
}

/// evaluate_config accepts exactly what apply_config accepts -- live
/// configurations within bounds, retimings or not -- and returns the
/// materialized copy's cycle time and its refined TGMG's policy bound,
/// bit for bit.
TEST(ConfigEvaluator, MatchesTheMaterializedConfiguration) {
  Rng rng(21);
  int evaluated = 0;
  for (const auto& [name, rrg] : circuits()) {
    SCOPED_TRACE(name);
    const ConfigEvaluator evaluator(rrg);
    for (int i = 0; i < 100; ++i) {
      const RrConfig config =
          random_config(rrg, rng, static_cast<int>(rng.uniform_int(0, 3)));
      bool materializes = true;
      try {
        (void)apply_config(rrg, config);
      } catch (const InvalidInputError&) {
        materializes = false;
      }
      if (!materializes) {
        EXPECT_THROW(evaluator.require_valid(config), InvalidInputError);
        EXPECT_THROW(evaluate_config(rrg, config), InvalidInputError);
        continue;
      }
      evaluator.require_valid(config);
      const RcEvaluation got = evaluator.evaluate(config);
      const Rrg copy = apply_config(rrg, config);
      EXPECT_EQ(got.tau, cycle_time(copy).tau);
      EXPECT_EQ(got.theta_lp, tgmg_policy_bound(refined_tgmg(copy)).theta);
      const RcEvaluation wrapper = evaluate_config(rrg, config);
      EXPECT_EQ(wrapper.tau, got.tau);
      EXPECT_EQ(wrapper.theta_lp, got.theta_lp);
      EXPECT_EQ(wrapper.xi_lp, got.xi_lp);
      ++evaluated;
    }
  }
  EXPECT_GE(evaluated, 200);
}

TEST(ConfigEvaluator, ThroughputBoundRejectsAnInvalidRrg) {
  Rrg rrg = figures::figure1a();
  rrg.set_buffers(figures::kBottom, -1);
  EXPECT_THROW(throughput_upper_bound(rrg), InvalidInputError);
  Rrg dead = figures::figure1a();
  for (EdgeId e = 0; e < dead.num_edges(); ++e) dead.set_tokens(e, 0);
  EXPECT_THROW(throughput_upper_bound(dead), InvalidInputError);
  EXPECT_THROW(evaluate_rrg(dead), InvalidInputError);
}

}  // namespace
}  // namespace elrr
