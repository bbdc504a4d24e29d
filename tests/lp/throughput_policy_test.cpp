/// \file throughput_policy_test.cpp
/// Differential suite of the throughput bound: the policy-iteration
/// evaluator that production uses (`tgmg_policy_bound`, and
/// `throughput_upper_bound` with its cycle-ratio path for late-evaluation
/// RRGs) against the dense LP (4) it replaces (`tgmg_throughput_bound`).
/// The two must agree within 1e-9 relative, and on every unbounded
/// verdict. On small graphs the exact Markov throughput is a third
/// oracle: it may never exceed the bound.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "bench89/generator.hpp"
#include "core/analysis.hpp"
#include "core/figures.hpp"
#include "core/opt.hpp"
#include "core/rrg.hpp"
#include "core/tgmg.hpp"
#include "graph/scc.hpp"
#include "heur/heuristic.hpp"
#include "sim/markov.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"

namespace elrr {
namespace {

constexpr double kRel = 1e-9;

/// A uniform node of an n-node graph.
NodeId any_node(Rng& rng, std::size_t n) {
  return static_cast<NodeId>(
      rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
}

int draw(Rng& rng, int lo, int hi) {
  return static_cast<int>(rng.uniform_int(lo, hi));
}

void expect_same_bound(const Tgmg& tgmg, const std::string& what) {
  const ThroughputBound lp = tgmg_throughput_bound(tgmg);
  const ThroughputBound pi = tgmg_policy_bound(tgmg);
  ASSERT_EQ(pi.bounded, lp.bounded) << what;
  if (lp.bounded) {
    EXPECT_NEAR(pi.theta, lp.theta, kRel * lp.theta) << what;
  }
}

/// throughput_upper_bound (either production path) against the LP on
/// the refined TGMG.
double expect_rrg_bound(const Rrg& rrg, const std::string& what) {
  const ThroughputBound lp = tgmg_throughput_bound(refined_tgmg(rrg));
  EXPECT_TRUE(lp.bounded) << what;
  const double theta = throughput_upper_bound(rrg);
  EXPECT_NEAR(theta, lp.theta, kRel * lp.theta) << what;
  return theta;
}

/// Random live RRG: a ring (strongly connected) plus chords; about a
/// third of the multi-input nodes early, a few telescopic nodes, integer
/// and fractional delays, some negative tokens where liveness allows.
Rrg random_rrg(std::uint64_t seed, std::size_t max_nodes) {
  Rng rng(seed * 7919 + 3);
  for (;;) {
    const int n_max = static_cast<int>(max_nodes);
    const auto n = static_cast<std::size_t>(draw(rng, 2, n_max));
    Rrg rrg;
    for (std::size_t i = 0; i < n; ++i) {
      rrg.add_node("", rng.bernoulli(0.5) ? draw(rng, 0, 9)
                                          : rng.uniform(0.0, 8.0));
    }
    const auto add = [&](NodeId u, NodeId v, int min_tokens) {
      const int tokens = std::max(min_tokens, draw(rng, -1, 2));
      rrg.add_edge(u, v, tokens, std::max(tokens, 0) + draw(rng, 0, 2));
    };
    for (std::size_t i = 0; i < n; ++i) {
      add(static_cast<NodeId>(i), static_cast<NodeId>((i + 1) % n),
          i == 0 ? 1 : 0);
    }
    const int chords = draw(rng, 0, 2 * static_cast<int>(n));
    for (int k = 0; k < chords; ++k) {
      const NodeId u = any_node(rng, n);
      const NodeId v = any_node(rng, n);
      add(u, v, u == v ? 1 : 0);
    }
    for (NodeId v = 0; v < n; ++v) {
      const auto& inputs = rrg.graph().in_edges(v);
      if (inputs.size() >= 2 && rng.bernoulli(0.4)) {
        rrg.set_kind(v, NodeKind::kEarly);
        std::vector<double> w;
        double sum = 0.0;
        for (std::size_t k = 0; k < inputs.size(); ++k) {
          w.push_back(rng.uniform(0.05, 1.0));
          sum += w.back();
        }
        for (std::size_t k = 0; k < inputs.size(); ++k) {
          rrg.set_gamma(inputs[k], w[k] / sum);
        }
      }
      if (rng.bernoulli(0.15)) {
        rrg.set_telescopic(v, rng.uniform(0.2, 0.95), draw(rng, 1, 4));
      }
    }
    if (rrg.is_live()) return rrg;
  }
}

/// Random live TGMG built directly (not through the procedures): any
/// node may be early, delays may be zero or fractional, and without the
/// ring backbone the graph may be acyclic (an unbounded LP). `extreme`
/// adds guard probabilities of 1e-6, delays up to 300 and rings of up to
/// 40 tokens.
Tgmg random_tgmg(std::uint64_t seed, bool extreme = false) {
  Rng rng(seed * 104729 + 7);
  for (;;) {
    const std::size_t n = 2 + static_cast<std::size_t>(draw(rng, 0, 8));
    const bool ring = rng.bernoulli(0.8);
    struct E {
      NodeId u, v;
      int tokens;
    };
    std::vector<E> edges;
    if (ring) {
      for (std::size_t i = 0; i < n; ++i) {
        edges.push_back({static_cast<NodeId>(i),
                         static_cast<NodeId>((i + 1) % n),
                         draw(rng, i == 0 ? 1 : 0, extreme ? 40 : 2)});
      }
    }
    const int chords = draw(rng, 0, 2 * static_cast<int>(n));
    for (int k = 0; k < chords; ++k) {
      NodeId u = any_node(rng, n);
      NodeId v = any_node(rng, n);
      if (!ring && u >= v) {
        if (u == v) continue;
        std::swap(u, v);  // forward only: acyclic
      }
      edges.push_back({u, v, draw(rng, u == v ? 1 : 0, 2)});
    }
    std::vector<int> in_degree(n, 0);
    for (const E& e : edges) ++in_degree[e.v];
    Tgmg tgmg;
    std::vector<bool> early(n);
    for (std::size_t i = 0; i < n; ++i) {
      early[i] = in_degree[i] > 0 && rng.bernoulli(0.35);
      const double roll = rng.uniform01();
      const double max_delay = extreme ? 300.0 : 3.0;
      const double delay = roll < 0.3   ? 0.0
                           : roll < 0.6 ? draw(rng, 1, 4)
                                        : rng.uniform(0.1, max_delay);
      tgmg.add_node("", delay, early[i] ? NodeKind::kEarly : NodeKind::kSimple);
    }
    std::vector<double> weight(edges.size());
    std::vector<double> total(n, 0.0);
    for (std::size_t k = 0; k < edges.size(); ++k) {
      weight[k] =
          extreme && rng.bernoulli(0.3) ? 1e-6 : rng.uniform(0.05, 1.0);
      total[edges[k].v] += weight[k];
    }
    for (std::size_t k = 0; k < edges.size(); ++k) {
      const E& e = edges[k];
      tgmg.add_edge(e.u, e.v, e.tokens,
                    early[e.v] ? weight[k] / total[e.v] : 1.0);
    }
    try {
      tgmg.validate();
      return tgmg;
    } catch (const InvalidInputError&) {
      // not live: draw again
    }
  }
}

/// Oracle independent of both the LP and policy iteration: every policy
/// of the decision process enumerated, each closed class's ratio from its
/// stationary distribution (long double). Infinity when no class has
/// positive delay.
double enumerated_min_ratio(const Tgmg& tgmg) {
  using Row = std::vector<long double>;
  const Digraph& g = tgmg.graph();
  const std::size_t n = g.num_nodes();
  std::vector<NodeId> choices;
  for (NodeId v = 0; v < n; ++v) {
    if (!tgmg.is_early(v) && g.in_degree(v) > 0) choices.push_back(v);
  }
  std::vector<std::size_t> pick(choices.size(), 0);
  double best = std::numeric_limits<double>::infinity();
  for (;;) {
    std::vector<Row> p(n, Row(n, 0.0L));
    Row tokens(n, 0.0L);
    for (NodeId v = 0; v < n; ++v) {
      if (g.in_degree(v) == 0) p[v][v] = 1.0L;  // absorbing, earns nothing
      if (!tgmg.is_early(v)) continue;
      for (EdgeId e : g.in_edges(v)) {
        p[v][g.src(e)] += tgmg.gamma(e);
        tokens[v] += tgmg.gamma(e) * tgmg.tokens(e);
      }
    }
    for (std::size_t i = 0; i < choices.size(); ++i) {
      const EdgeId e = g.in_edges(choices[i])[pick[i]];
      p[choices[i]][g.src(e)] = 1.0L;
      tokens[choices[i]] = tgmg.tokens(e);
    }
    Digraph support(n);
    for (NodeId a = 0; a < n; ++a) {
      for (NodeId b = 0; b < n; ++b) {
        if (p[a][b] > 0.0L) support.add_edge(a, b);
      }
    }
    const graph::SccResult scc = graph::strongly_connected_components(support);
    for (std::uint32_t c = 0; c < scc.num_components; ++c) {
      std::vector<NodeId> m;
      bool closed = true;
      for (NodeId a = 0; a < n; ++a) {
        if (scc.component[a] != c) continue;
        m.push_back(a);
        for (EdgeId e : support.out_edges(a)) {
          closed &= scc.component[support.dst(e)] == c;
        }
      }
      if (!closed || g.in_degree(m[0]) == 0) continue;
      // mu (I - P) = 0 with sum(mu) = 1 in place of the last equation.
      const std::size_t k = m.size();
      std::vector<Row> a(k, Row(k + 1, 0.0L));
      for (std::size_t j = 0; j + 1 < k; ++j) {
        for (std::size_t i = 0; i < k; ++i) {
          a[j][i] = (i == j ? 1.0L : 0.0L) - p[m[i]][m[j]];
        }
      }
      for (std::size_t i = 0; i < k; ++i) a[k - 1][i] = 1.0L;
      a[k - 1][k] = 1.0L;
      for (std::size_t col = 0; col < k; ++col) {
        std::size_t piv = col;
        for (std::size_t r = col + 1; r < k; ++r) {
          if (std::fabs(a[r][col]) > std::fabs(a[piv][col])) piv = r;
        }
        std::swap(a[piv], a[col]);
        for (std::size_t r = 0; r < k; ++r) {
          if (r == col) continue;
          const long double f = a[r][col] / a[col][col];
          for (std::size_t j = col; j <= k; ++j) a[r][j] -= f * a[col][j];
        }
      }
      long double sum_tokens = 0.0L;
      long double sum_delay = 0.0L;
      for (std::size_t i = 0; i < k; ++i) {
        const long double mu = a[i][k] / a[i][i];
        sum_tokens += mu * tokens[m[i]];
        sum_delay += mu * tgmg.delay(m[i]);
      }
      if (sum_delay > 0.0L) {
        best = std::min(best, static_cast<double>(sum_tokens / sum_delay));
      }
    }
    std::size_t i = 0;
    while (i < choices.size() && ++pick[i] == g.in_degree(choices[i])) {
      pick[i++] = 0;
    }
    if (i == choices.size()) return best;
  }
}

TEST(ThroughputPolicy, FigureRrgsMatchTheLp) {
  for (double alpha : {0.1, 0.25, 0.5, 0.75, 0.9}) {
    for (bool early : {true, false}) {
      const std::string what = "alpha " + std::to_string(alpha) +
                               (early ? " early" : " late");
      expect_rrg_bound(figures::figure1a(alpha, early), "1a " + what);
      expect_rrg_bound(figures::figure1b(alpha, early), "1b " + what);
      expect_rrg_bound(figures::figure2(alpha, early), "2 " + what);
      expect_same_bound(refined_tgmg(figures::figure2(alpha, early)),
                        "2 tgmg " + what);
    }
  }
}

TEST(ThroughputPolicy, Table2CircuitsMatchTheLp) {
  for (const bench89::CircuitSpec& spec : bench89::table2_specs()) {
    const Rrg rrg = bench89::make_table2_rrg(spec, 1);
    expect_rrg_bound(rrg, spec.name);
    expect_rrg_bound(as_all_simple(rrg), spec.name + " all simple");
  }
}

class RandomTgmgPolicy : public ::testing::TestWithParam<int> {};

TEST_P(RandomTgmgPolicy, MatchesTheLpIncludingUnboundedVerdicts) {
  for (int k = 0; k < 10; ++k) {
    const auto seed = static_cast<std::uint64_t>(GetParam() * 10 + k);
    expect_same_bound(random_tgmg(seed), "tgmg seed " + std::to_string(seed));
  }
}

TEST_P(RandomTgmgPolicy, RandomRrgsWithEarlyAndTelescopicNodesMatchTheLp) {
  for (int k = 0; k < 5; ++k) {
    const auto seed = static_cast<std::uint64_t>(GetParam() * 5 + k);
    const Rrg rrg = random_rrg(seed, GetParam() % 2 == 0 ? 8 : 30);
    expect_rrg_bound(rrg, "rrg seed " + std::to_string(seed));
    expect_same_bound(refined_tgmg(rrg),
                      "refined seed " + std::to_string(seed));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomTgmgPolicy, ::testing::Range(0, 40));

TEST(ThroughputPolicy, RandomTgmgsCoverBothVerdicts) {
  int bounded = 0;
  int unbounded = 0;
  for (std::uint64_t seed = 0; seed < 400; ++seed) {
    tgmg_policy_bound(random_tgmg(seed)).bounded ? ++bounded : ++unbounded;
  }
  EXPECT_GE(bounded, 100);
  EXPECT_GE(unbounded, 10);
}

TEST(ThroughputPolicy, LateEvaluationIsTheExactCycleRatio) {
  // Without early and telescopic nodes the bound is the quotient of the
  // critical cycle's integer sums: bit-identical to the Lawler search.
  for (std::uint64_t seed = 0; seed < 200; ++seed) {
    Rrg rrg = as_all_simple(random_rrg(seed, 12));
    for (NodeId n = 0; n < rrg.num_nodes(); ++n) rrg.set_telescopic(n, 1.0, 0);
    EXPECT_EQ(throughput_upper_bound(rrg), late_eval_throughput(rrg))
        << "seed " << seed;
  }
}

TEST(ThroughputPolicy, MatchesEveryPolicyEnumeratedWhereTheLpLosesDigits) {
  // Guard probabilities of 1e-6 beside O(1) ones, delays up to 300 and
  // 40-token rings cost the dense LP's tolerances up to ~1e-5 relative,
  // so the oracle here is the enumeration of every policy. Classes whose
  // expected delay is ~1e-6 are ill-conditioned in double precision: the
  // bar is the LP suite's 1e-9 relative.
  int bounded = 0;
  for (std::uint64_t seed = 0; seed < 150; ++seed) {
    const Tgmg tgmg = random_tgmg(seed, true);
    const ThroughputBound pi = tgmg_policy_bound(tgmg);
    const double brute = enumerated_min_ratio(tgmg);
    ASSERT_EQ(pi.bounded, std::isfinite(brute)) << "seed " << seed;
    if (!pi.bounded) continue;
    ++bounded;
    EXPECT_NEAR(pi.theta, brute, kRel * brute) << "seed " << seed;
  }
  EXPECT_GE(bounded, 50);
}

TEST(ThroughputPolicy, UnboundedWhereTheLpIs) {
  // Acyclic: no cycle at all.
  Tgmg chain;
  const NodeId a = chain.add_node("a", 1.0);
  const NodeId b = chain.add_node("b", 2.0, NodeKind::kEarly);
  chain.add_edge(a, b, 0);
  EXPECT_FALSE(tgmg_policy_bound(chain).bounded);
  EXPECT_FALSE(tgmg_throughput_bound(chain).bounded);
  // The only cycle has zero delay: it bounds nothing.
  Tgmg zero;
  const NodeId x = zero.add_node("x", 0.0);
  const NodeId y = zero.add_node("y", 0.0, NodeKind::kEarly);
  const NodeId s = zero.add_node("s", 3.0);
  zero.add_edge(x, y, 1, 0.5);
  zero.add_edge(s, y, 0, 0.5);
  zero.add_edge(y, x, 0);
  EXPECT_FALSE(tgmg_policy_bound(zero).bounded);
  EXPECT_FALSE(tgmg_throughput_bound(zero).bounded);
  // An acyclic late-evaluation RRG has no bound to report.
  Rrg open;
  open.add_node("u", 1.0);
  open.add_node("v", 1.0);
  open.add_edge(0, 1, 0, 1);
  EXPECT_THROW(throughput_upper_bound(open), InvalidInputError);
}

TEST(ThroughputPolicy, ZeroDelayClassesBoundNothing) {
  // z is a zero-delay loop with a token, a class that bounds nothing; c
  // may rest on z or on its own delayed self-loop, which bounds phi at
  // 1/2. The early node e drains into both and is transient.
  Tgmg tgmg;
  const NodeId z = tgmg.add_node("z", 0.0);
  const NodeId c = tgmg.add_node("c", 2.0);
  const NodeId e = tgmg.add_node("e", 1.0, NodeKind::kEarly);
  tgmg.add_edge(z, z, 1);
  tgmg.add_edge(z, c, 0);
  tgmg.add_edge(c, c, 1);
  tgmg.add_edge(z, e, 1, 0.5);
  tgmg.add_edge(c, e, 1, 0.5);
  expect_same_bound(tgmg, "zero-delay loop");
  const ThroughputBound bound = tgmg_policy_bound(tgmg);
  ASSERT_TRUE(bound.bounded);
  EXPECT_EQ(bound.theta, 0.5);
}

/// Heuristic-visited configurations of heur_walk-shaped circuits (70-73
/// edges, 4 early nodes), early and all-simple.
TEST(ThroughputPolicy, HeuristicFrontiersOfWalkShapedCircuitsMatchTheLp) {
  HeuristicOptions options;
  options.max_lp_evals = 30;
  options.max_bubble_rounds = 12;
  options.max_polish_rounds = 1;
  options.max_edges_per_round = 4;
  for (int i = 0; i < 4; ++i) {
    const Rrg rrg = bench89::make_table2_rrg({"h", 50, 4, 70 + i}, 2009 + i);
    for (const Rrg& graph : {rrg, as_all_simple(rrg)}) {
      const HeuristicResult heur = heur_eff_cyc(graph, options);
      for (const ParetoPoint& point : heur.points) {
        const double theta = expect_rrg_bound(
            apply_config(graph, point.config), std::to_string(70 + i));
        EXPECT_EQ(theta, point.theta_lp);
      }
    }
  }
}

TEST(ThroughputPolicy, ExactMarkovThroughputNeverExceedsTheBound) {
  sim::MarkovOptions options;
  options.max_states = 20000;
  int checked = 0;
  for (std::uint64_t seed = 0; seed < 60; ++seed) {
    const Rrg rrg = random_rrg(seed, 5);
    const sim::MarkovResult exact = sim::exact_throughput(rrg, options);
    if (!exact.ok) continue;
    ++checked;
    EXPECT_LE(exact.theta, throughput_upper_bound(rrg) + 1e-9)
        << "seed " << seed;
  }
  EXPECT_GE(checked, 20);
}

}  // namespace
}  // namespace elrr
