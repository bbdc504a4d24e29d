#include "core/tgmg.hpp"

#include <gtest/gtest.h>

#include "core/analysis.hpp"
#include "core/figures.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"

namespace elrr {
namespace {

using namespace figures;

// ---------------------------------------------------------------------------
// Procedure 1 on Figure 1(b) must reproduce Figure 3 of the paper.
// ---------------------------------------------------------------------------
TEST(Procedure1, Figure3Structure) {
  const Tgmg tgmg = procedure1(figure1b(0.5));
  // 5 original nodes + 2 aux nodes for the two-input mux m.
  ASSERT_EQ(tgmg.num_nodes(), 7u);
  ASSERT_EQ(tgmg.num_edges(), 8u);

  // Single-input nodes carry their input edge's buffer count as delay:
  // F1 (input m->F1, R=0) -> 0; F2 (input F1->F2, R=1) -> 1;
  // F3 (input F2->F3, R=1) -> 1; f (input F3->f, R=0) -> 0.
  EXPECT_DOUBLE_EQ(tgmg.delay(kF1), 0.0);
  EXPECT_DOUBLE_EQ(tgmg.delay(kF2), 1.0);
  EXPECT_DOUBLE_EQ(tgmg.delay(kF3), 1.0);
  EXPECT_DOUBLE_EQ(tgmg.delay(kF), 0.0);
  // The mux becomes a zero-delay early node.
  EXPECT_DOUBLE_EQ(tgmg.delay(kM), 0.0);
  EXPECT_TRUE(tgmg.is_early(kM));

  // Aux nodes n1 (top, delay 3) and n2 (bottom, delay 1), as in Figure 3.
  const NodeId n1 = 5, n2 = 6;
  EXPECT_DOUBLE_EQ(tgmg.delay(n1), 3.0);
  EXPECT_DOUBLE_EQ(tgmg.delay(n2), 1.0);

  // Tokens: one on edge e3 = (F1 -> F2) ("there is one token on the edge
  // e3"), three on (n1 -> m), zero elsewhere.
  int total_tokens = 0;
  for (EdgeId e = 0; e < tgmg.num_edges(); ++e) total_tokens += tgmg.tokens(e);
  EXPECT_EQ(total_tokens, 4);
  tgmg.validate();
}

TEST(Procedure2, Figure4Structure) {
  const Tgmg refined = procedure2(procedure1(figure1b(0.5)));
  // Figure 4: the 7 nodes of Figure 3 plus s and the two split nodes.
  ASSERT_EQ(refined.num_nodes(), 10u);
  ASSERT_EQ(refined.num_edges(), 13u);
  refined.validate();

  // The early node's self-loop through s: delta(s) = 1 and one token on
  // (m -> s).
  int unit_delay_aux = 0;
  for (NodeId n = 7; n < refined.num_nodes(); ++n) {
    if (refined.delay(n) == 1.0) ++unit_delay_aux;
  }
  EXPECT_EQ(unit_delay_aux, 1);

  // Marking is preserved: total tokens = 4 (original) + 1 (self-loop).
  int total_tokens = 0;
  for (EdgeId e = 0; e < refined.num_edges(); ++e) {
    total_tokens += refined.tokens(e);
  }
  EXPECT_EQ(total_tokens, 5);
}

TEST(Procedure2, NoOpForAllSimpleGraphs) {
  const Tgmg base = procedure1(figure1b(0.5, /*early=*/false));
  const Tgmg refined = procedure2(base);
  EXPECT_EQ(refined.num_nodes(), base.num_nodes());
  EXPECT_EQ(refined.num_edges(), base.num_edges());
}

// ---------------------------------------------------------------------------
// LP throughput bound (eq. (4)/(11)).
// ---------------------------------------------------------------------------
TEST(ThroughputBound, Figure1aIsOne) {
  EXPECT_NEAR(throughput_upper_bound(figure1a(0.5, true)), 1.0, 1e-7);
  EXPECT_NEAR(throughput_upper_bound(figure1a(0.5, false)), 1.0, 1e-7);
}

TEST(ThroughputBound, Figure1bLateIsOneThird) {
  EXPECT_NEAR(throughput_upper_bound(figure1b(0.5, false)), 1.0 / 3.0, 1e-7);
}

TEST(ThroughputBound, Figure1bEarlyBetweenExactAndOne) {
  // Exact (Markov) value is 0.491 at alpha = 0.5 and 0.719 at 0.9; the LP
  // bound must dominate it and both must beat late evaluation (1/3).
  const double b05 = throughput_upper_bound(figure1b(0.5, true));
  const double b09 = throughput_upper_bound(figure1b(0.9, true));
  EXPECT_GE(b05, 0.491 - 1e-6);
  EXPECT_LE(b05, 1.0 + 1e-9);
  EXPECT_GE(b09, 0.719 - 1e-6);
  EXPECT_GE(b09, b05 - 1e-9);  // more early hits -> no worse
}

TEST(ThroughputBound, Figure2DominatesClosedForm) {
  for (double alpha : {0.3, 0.5, 0.7, 0.9}) {
    const double bound = throughput_upper_bound(figure2(alpha));
    EXPECT_GE(bound, figure2_throughput(alpha) - 1e-6) << "alpha " << alpha;
    EXPECT_LE(bound, 1.0 + 1e-9);
  }
}

TEST(ThroughputBound, Figure2LateIsOneThird) {
  EXPECT_NEAR(throughput_upper_bound(figure2(0.9, false)), 1.0 / 3.0, 1e-7);
}

TEST(ThroughputBound, UnboundedForAcyclicTgmg) {
  Tgmg tgmg;
  const NodeId a = tgmg.add_node("a", 1.0);
  const NodeId b = tgmg.add_node("b", 1.0);
  tgmg.add_edge(a, b, 0);
  const auto bound = tgmg_throughput_bound(tgmg);
  EXPECT_FALSE(bound.bounded);
}

// Property: for graphs without early evaluation the LP bound equals the
// exact marked-graph throughput (minimum cycle ratio).
class LateLpVsMcrTest : public ::testing::TestWithParam<int> {};

TEST_P(LateLpVsMcrTest, LpEqualsMinCycleRatio) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 2711 + 13);
  const std::size_t n = 2 + static_cast<std::size_t>(rng.uniform_int(0, 6));
  Rrg rrg;
  for (std::size_t i = 0; i < n; ++i) {
    rrg.add_node("", rng.uniform(0.0, 5.0));
  }
  // Ring for liveness + strong connectivity, then random chords.
  for (std::size_t i = 0; i < n; ++i) {
    const int tokens = static_cast<int>(rng.uniform_int(0, 2));
    const int buffers = tokens + static_cast<int>(rng.uniform_int(0, 2));
    rrg.add_edge(static_cast<NodeId>(i), static_cast<NodeId>((i + 1) % n),
                 std::max(tokens, static_cast<int>(i == 0)),
                 std::max({buffers, tokens, static_cast<int>(i == 0)}));
  }
  const std::size_t extra = static_cast<std::size_t>(rng.uniform_int(0, 6));
  for (std::size_t k = 0; k < extra; ++k) {
    const auto u = static_cast<NodeId>(rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
    const auto v = static_cast<NodeId>(rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
    const int tokens = static_cast<int>(rng.uniform_int(u == v ? 1 : 0, 2));
    rrg.add_edge(u, v, tokens, tokens + static_cast<int>(rng.uniform_int(0, 2)));
  }
  if (!rrg.is_live()) GTEST_SKIP() << "random instance not live";

  // The dense LP, not throughput_upper_bound: production computes the
  // bound of a late-evaluation RRG as this very cycle ratio.
  const ThroughputBound lp = tgmg_throughput_bound(refined_tgmg(rrg));
  ASSERT_TRUE(lp.bounded);
  const double mcr = late_eval_throughput(rrg);
  EXPECT_NEAR(lp.theta, mcr, 1e-9 * mcr);
}

INSTANTIATE_TEST_SUITE_P(Seeds, LateLpVsMcrTest, ::testing::Range(0, 40));

TEST(Analysis, EvaluateFigure1a) {
  const RcEvaluation eval = evaluate_rrg(figure1a(0.5, false));
  EXPECT_DOUBLE_EQ(eval.tau, 3.0);
  EXPECT_NEAR(eval.theta_lp, 1.0, 1e-7);
  EXPECT_NEAR(eval.xi_lp, 3.0, 1e-6);
}

TEST(Analysis, LateEvalThroughputOfFigures) {
  EXPECT_NEAR(late_eval_throughput(figure1a()), 1.0, 1e-12);
  EXPECT_NEAR(late_eval_throughput(figure1b()), 1.0 / 3.0, 1e-12);
  EXPECT_NEAR(late_eval_throughput(figure2(0.9)), 1.0 / 3.0, 1e-12);
}

TEST(Analysis, AcyclicRrgHasUnitThroughput) {
  Rrg rrg;
  const NodeId a = rrg.add_node("a", 1.0);
  const NodeId b = rrg.add_node("b", 2.0);
  rrg.add_edge(a, b, 0, 1);
  EXPECT_DOUBLE_EQ(late_eval_throughput(rrg), 1.0);
}

TEST(TgmgDot, RendersDelaysAndTokens) {
  const std::string dot = procedure1(figure1b()).to_dot();
  EXPECT_NE(dot.find("d=3.00"), std::string::npos);  // aux node n1
  EXPECT_NE(dot.find("tgmg"), std::string::npos);
}

}  // namespace
}  // namespace elrr
