#include "sim/simulator.hpp"

#include <gtest/gtest.h>

#include "core/analysis.hpp"
#include "core/figures.hpp"
#include "sim/markov.hpp"
#include "support/rng.hpp"
#include "tests/sim/oracle.hpp"

namespace elrr::sim {
namespace {

using namespace figures;

SimOptions fast_options(std::uint64_t seed = 7) {
  SimOptions o;
  o.seed = seed;
  o.warmup_cycles = 500;
  o.measure_cycles = 20000;
  o.runs = 2;
  return o;
}

TEST(Simulator, DeterministicForFixedSeed) {
  const Rrg rrg = figure1b(0.5, true);
  const auto a = simulate_throughput(rrg, fast_options(42));
  const auto b = simulate_throughput(rrg, fast_options(42));
  EXPECT_DOUBLE_EQ(a.theta, b.theta);
}

TEST(Simulator, SeedSensitivityIsSmall) {
  const Rrg rrg = figure1b(0.5, true);
  const auto a = simulate_throughput(rrg, fast_options(1));
  const auto b = simulate_throughput(rrg, fast_options(2));
  EXPECT_NEAR(a.theta, b.theta, 0.02);
}

TEST(Simulator, MatchesSection14Numbers) {
  EXPECT_NEAR(simulate_throughput(figure1b(0.5, true), fast_options()).theta,
              0.491, 0.01);
  EXPECT_NEAR(simulate_throughput(figure1b(0.9, true), fast_options()).theta,
              0.719, 0.01);
}

TEST(Simulator, Figure2ClosedForm) {
  for (double alpha : {0.3, 0.6, 0.9}) {
    EXPECT_NEAR(simulate_throughput(figure2(alpha), fast_options()).theta,
                figure2_throughput(alpha), 0.01)
        << "alpha " << alpha;
  }
}

TEST(Simulator, LateEvaluationIsExactMcr) {
  // Deterministic dynamics: the measured rate equals the cycle ratio even
  // over a short window.
  SimOptions o = fast_options();
  o.measure_cycles = 3000;
  EXPECT_NEAR(simulate_throughput(figure1b(0.5, false), o).theta, 1.0 / 3.0,
              1e-3);
  EXPECT_NEAR(simulate_throughput(figure1a(0.5, false), o).theta, 1.0, 1e-12);
}

// Property: simulation agrees with exact Markov analysis on random small
// early-evaluation systems -- the strongest end-to-end check that both
// implement the same semantics (they share the kernel, but the drivers
// differ: i.i.d. sampling vs exhaustive branching).
class SimVsMarkovTest : public ::testing::TestWithParam<int> {};

TEST_P(SimVsMarkovTest, Agree) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 40487 + 23);
  const std::size_t n = 3 + static_cast<std::size_t>(rng.uniform_int(0, 2));
  Rrg rrg;
  for (std::size_t i = 0; i < n; ++i) {
    rrg.add_node("", 1.0);
  }
  for (std::size_t i = 0; i < n; ++i) {
    const int tokens = static_cast<int>(rng.uniform_int(0, 1));
    rrg.add_edge(static_cast<NodeId>(i), static_cast<NodeId>((i + 1) % n),
                 tokens, tokens + static_cast<int>(rng.uniform_int(0, 1)));
  }
  const std::size_t extra = 1 + static_cast<std::size_t>(rng.uniform_int(0, 2));
  for (std::size_t k = 0; k < extra; ++k) {
    const auto u = static_cast<NodeId>(rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
    auto v = static_cast<NodeId>(rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
    const int tokens = u == v ? 1 : static_cast<int>(rng.uniform_int(0, 1));
    rrg.add_edge(u, v, tokens, tokens + static_cast<int>(rng.uniform_int(0, 1)));
  }
  std::vector<EdgeId> dead;
  while (!rrg.is_live(&dead)) {
    rrg.set_tokens(dead[0], 1);
    rrg.set_buffers(dead[0], std::max(1, rrg.buffers(dead[0])));
  }
  bool any_early = false;
  for (NodeId v = 0; v < rrg.num_nodes(); ++v) {
    if (rrg.graph().in_degree(v) >= 2 && rng.bernoulli(0.6)) {
      rrg.set_kind(v, NodeKind::kEarly);
      const auto probs = rng.simplex(rrg.graph().in_degree(v), 0.1);
      std::size_t idx = 0;
      for (EdgeId e : rrg.graph().in_edges(v)) rrg.set_gamma(e, probs[idx++]);
      any_early = true;
    }
  }
  (void)any_early;

  MarkovOptions mopt;
  mopt.max_states = 40000;
  const auto exact = exact_throughput(rrg, mopt);
  if (!exact.ok) GTEST_SKIP() << "state space too large";

  SimOptions sopt;
  sopt.seed = 1234 + static_cast<std::uint64_t>(GetParam());
  sopt.warmup_cycles = 2000;
  sopt.measure_cycles = 60000;
  sopt.runs = 2;
  const auto sim = simulate_throughput(rrg, sopt);
  EXPECT_NEAR(sim.theta, exact.theta, 0.015)
      << "states=" << exact.num_states;
}

INSTANTIATE_TEST_SUITE_P(Seeds, SimVsMarkovTest, ::testing::Range(0, 20));


/// Definition 2.4 / [10]: every node of a (strongly connected, live) RRG
/// has the same steady-state throughput. Checked per node on the paper's
/// figures and on random mixed systems.
class UniformThroughput : public ::testing::TestWithParam<double> {};

TEST_P(UniformThroughput, AllNodesFireAtTheSameRate) {
  const Rrg rrg = figures::figure2(GetParam());
  const Kernel kernel(rrg);
  elrr::Rng rng(17);
  std::vector<std::vector<double>> weights(rrg.num_nodes());
  for (NodeId n : kernel.early_nodes()) {
    for (EdgeId e : rrg.graph().in_edges(n)) {
      weights[n].push_back(rrg.gamma(e));
    }
  }
  const Kernel::GuardChooser chooser = [&](NodeId n) {
    return rng.discrete(weights[n]);
  };
  SyncState state = kernel.initial_state();
  for (int t = 0; t < 2000; ++t) kernel.step(state, chooser);
  std::vector<std::uint64_t> fired(rrg.num_nodes(), 0);
  std::vector<std::uint8_t> cycle_fired(rrg.num_nodes());
  const int horizon = 40000;
  for (int t = 0; t < horizon; ++t) {
    kernel.step(state, chooser, {}, cycle_fired.data());
    for (NodeId n = 0; n < rrg.num_nodes(); ++n) fired[n] += cycle_fired[n];
  }
  const double reference =
      static_cast<double>(fired[0]) / static_cast<double>(horizon);
  for (NodeId n = 1; n < rrg.num_nodes(); ++n) {
    const double rate =
        static_cast<double>(fired[n]) / static_cast<double>(horizon);
    EXPECT_NEAR(rate, reference, 0.01) << "node " << rrg.name(n);
  }
  EXPECT_NEAR(reference, figures::figure2_throughput(GetParam()), 0.01);
}

INSTANTIATE_TEST_SUITE_P(Alphas, UniformThroughput,
                         ::testing::Values(0.3, 0.5, 0.7, 0.9));

}  // namespace
}  // namespace elrr::sim
