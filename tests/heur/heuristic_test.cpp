/// \file heuristic_test.cpp
/// The MILP-free retiming & recycling heuristic: structural invariants
/// (valid configurations, Pareto-sorted frontier, budget compliance),
/// golden results on the paper's figures, and property sweeps on the
/// synthetic Table-2 circuits.

#include "heur/heuristic.hpp"

#include <gtest/gtest.h>

#include <string>
#include <tuple>

#include "bench89/generator.hpp"
#include "core/analysis.hpp"
#include "core/figures.hpp"
#include "support/error.hpp"

namespace elrr {
namespace {

using namespace figures;

void expect_well_formed(const Rrg& rrg, const HeuristicResult& result) {
  ASSERT_FALSE(result.points.empty());
  double prev_tau = -1.0;
  double prev_theta = -1.0;
  for (const ParetoPoint& p : result.points) {
    std::string why;
    EXPECT_TRUE(validate_config(rrg, p.config, &why)) << why;
    EXPECT_FALSE(p.exact);  // heuristics never carry optimality proofs
    const RcEvaluation eval = evaluate_config(rrg, p.config);
    EXPECT_NEAR(eval.tau, p.tau, 1e-9);
    EXPECT_NEAR(eval.theta_lp, p.theta_lp, 1e-6);
    EXPECT_GT(p.tau, prev_tau);      // sorted by cycle time
    EXPECT_GT(p.theta_lp, prev_theta);  // and Pareto: theta rises too
    prev_tau = p.tau;
    prev_theta = p.theta_lp;
  }
  // Never worse than doing nothing.
  EXPECT_LE(result.best().xi_lp, evaluate_rrg(rrg).xi_lp + 1e-9);
}

TEST(Heuristic, Figure1aFindsTheLowCycleTimeRegion) {
  const Rrg rrg = figure1a(0.9);
  const HeuristicResult result = heur_eff_cyc(rrg);
  expect_well_formed(rrg, result);
  // The greedy walk must reach tau = beta_max = 1 (figure 1(b) shape);
  // the identity sits at xi = 3.0 and the walk halves it. (The exact
  // optimum 1.2 needs the coordinated multi-node retiming of figure 2,
  // outside a single-move local search's basin -- see the heuristic
  // bench for the measured gap.)
  EXPECT_NEAR(result.points.front().tau, 1.0, 1e-9);
  EXPECT_LE(result.best().xi_lp, 1.6);
}

TEST(Heuristic, Figure2IsAlreadyOptimal) {
  // Figure 2 (with anti-tokens, so the classical seed is skipped) is the
  // paper's optimum: xi_lp = 3 - 2 alpha; the heuristic must return it
  // unchanged.
  const Rrg rrg = figure2(0.9);
  const HeuristicResult result = heur_eff_cyc(rrg);
  expect_well_formed(rrg, result);
  EXPECT_NEAR(result.best().xi_lp, 1.2, 1e-6);
}

TEST(Heuristic, MatchesExactOnTheMotivationalExample) {
  // On figure 1(a) the exact optimizer reaches xi_lp = 1.2 (the figure-2
  // configuration, a coordinated 3-node retiming with anti-tokens). The
  // single-move heuristic lands on the tau = 1 shelf within ~30% of it
  // and can never beat it.
  const Rrg rrg = figure1a(0.9);
  const MinEffCycResult exact = min_eff_cyc(rrg);
  const HeuristicResult heur = heur_eff_cyc(rrg);
  EXPECT_GE(heur.best().xi_lp, exact.best().xi_lp - 1e-6);
  EXPECT_LE(heur.best().xi_lp, 1.35 * exact.best().xi_lp);
}

TEST(Heuristic, BudgetOfOneReturnsIdentity) {
  const Rrg rrg = figure1a(0.5);
  HeuristicOptions opt;
  opt.max_lp_evals = 1;
  const HeuristicResult result = heur_eff_cyc(rrg, opt);
  ASSERT_EQ(result.points.size(), 1u);
  EXPECT_EQ(result.lp_evals, 1);
  EXPECT_EQ(result.points[0].config, initial_config(rrg));
}

TEST(Heuristic, PolishNeverHurts) {
  const Rrg rrg = figure1a(0.9);
  HeuristicOptions with, without;
  without.polish = false;
  const double xi_with = heur_eff_cyc(rrg, with).best().xi_lp;
  const double xi_without = heur_eff_cyc(rrg, without).best().xi_lp;
  EXPECT_LE(xi_with, xi_without + 1e-9);
}

TEST(Heuristic, RespectsLpBudget) {
  const Rrg rrg = bench89::make_table2_rrg(bench89::spec_by_name("s27"), 3);
  HeuristicOptions opt;
  opt.max_lp_evals = 25;
  const HeuristicResult result = heur_eff_cyc(rrg, opt);
  EXPECT_LE(result.lp_evals, 25);
  expect_well_formed(rrg, result);
}

TEST(Heuristic, TelescopicCapRespected) {
  Rrg rrg = figure1a(0.9);
  rrg.set_telescopic(kF2, 0.5, 2);  // cap = 1/2
  const HeuristicResult result = heur_eff_cyc(rrg);
  expect_well_formed(rrg, result);
  for (const ParetoPoint& p : result.points) {
    EXPECT_LE(p.theta_lp, throughput_cap(rrg) + 1e-6);
  }
}

TEST(Heuristic, RejectsNonStronglyConnected) {
  Rrg rrg;
  const NodeId a = rrg.add_node("a", 1.0);
  const NodeId b = rrg.add_node("b", 1.0);
  rrg.add_edge(a, b, 1, 1);
  EXPECT_THROW(heur_eff_cyc(rrg), InvalidInputError);
}

// std::string rather than const char*: ctest names each case after
// GetParam(), and a printed pointer would differ from run to run.
class HeuristicSweep
    : public ::testing::TestWithParam<std::tuple<std::string, int>> {};

TEST_P(HeuristicSweep, WellFormedOnSyntheticCircuits) {
  const auto& [name, seed] = GetParam();
  const Rrg rrg = bench89::make_table2_rrg(
      bench89::spec_by_name(name), static_cast<std::uint64_t>(seed));
  HeuristicOptions opt;
  opt.max_lp_evals = 600;
  const HeuristicResult result = heur_eff_cyc(rrg, opt);
  expect_well_formed(rrg, result);
  // The greedy walk must always improve on the identity when the
  // critical path is longer than one node (true for every synthetic
  // circuit: delays are dense and tokens sparse).
  EXPECT_LT(result.best().xi_lp, evaluate_rrg(rrg).xi_lp);
}

INSTANTIATE_TEST_SUITE_P(
    Circuits, HeuristicSweep,
    ::testing::Combine(::testing::Values("s208", "s27", "s838", "s420",
                                         "s382"),
                       ::testing::Values(1, 2, 3)));

}  // namespace
}  // namespace elrr
