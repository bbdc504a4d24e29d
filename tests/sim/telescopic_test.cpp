/// \file telescopic_test.cpp
/// Variable-latency ("telescopic") nodes -- the paper's future-work
/// extension (Section 6). Covers the kernel's busy/withheld-output
/// semantics, the exact Markov closed forms, Monte-Carlo agreement and
/// the LP throughput bound with service throttles.

#include <gtest/gtest.h>

#include <cmath>
#include <ostream>

#include "core/analysis.hpp"
#include "core/figures.hpp"
#include "core/tgmg.hpp"
#include "sim/markov.hpp"
#include "sim/simulator.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"
#include "support/strings.hpp"
#include "tests/sim/oracle.hpp"

namespace elrr::sim {
namespace {

using namespace figures;

Kernel::GuardChooser guard_always(std::size_t pos) {
  return [pos](NodeId) { return pos; };
}

Kernel::LatencyChooser always_slow() {
  return [](NodeId) { return true; };
}

Kernel::LatencyChooser always_fast() {
  return [](NodeId) { return false; };
}

/// One telescopic node on a self-loop with one token in one EB: the
/// smallest system whose throughput is limited by the busy period alone.
Rrg self_loop(double fast_prob, int slow_extra) {
  Rrg rrg;
  const NodeId n = rrg.add_node("alu", 1.0);
  rrg.add_edge(n, n, 1, 1);
  rrg.set_telescopic(n, fast_prob, slow_extra);
  return rrg;
}

/// A 2-stage ring (producer -> telescopic consumer -> producer) with
/// enough tokens/buffers that only the telescopic unit throttles.
Rrg ring_with_alu(double fast_prob, int slow_extra) {
  Rrg rrg;
  const NodeId src = rrg.add_node("src", 1.0);
  const NodeId alu = rrg.add_node("alu", 1.0);
  rrg.add_edge(src, alu, 2, 2);
  rrg.add_edge(alu, src, 2, 2);
  rrg.set_telescopic(alu, fast_prob, slow_extra);
  return rrg;
}

// ------------------------------------------------------------------ model

TEST(Telescopic, DefaultsAreDisabled) {
  Rrg rrg;
  const NodeId n = rrg.add_node("n", 1.0);
  EXPECT_FALSE(rrg.is_telescopic(n));
  EXPECT_FALSE(rrg.has_telescopic());
  EXPECT_EQ(rrg.service(n), 0.0);
  EXPECT_EQ(throughput_cap(rrg), 1.0);
}

TEST(Telescopic, SetTelescopicValidatesArguments) {
  Rrg rrg;
  const NodeId n = rrg.add_node("n", 1.0);
  EXPECT_THROW(rrg.set_telescopic(n, 0.0, 1), InvalidInputError);
  EXPECT_THROW(rrg.set_telescopic(n, -0.5, 1), InvalidInputError);
  EXPECT_THROW(rrg.set_telescopic(n, 1.5, 1), InvalidInputError);
  EXPECT_THROW(rrg.set_telescopic(n, 0.5, -1), InvalidInputError);
  EXPECT_THROW(rrg.set_telescopic(n, 0.5, 201), InvalidInputError);
  rrg.set_telescopic(n, 0.5, 2);
  EXPECT_TRUE(rrg.is_telescopic(n));
  EXPECT_DOUBLE_EQ(rrg.service(n), 1.0);
}

TEST(Telescopic, FastProbOneOrZeroExtraMeansDisabled) {
  Rrg rrg;
  const NodeId n = rrg.add_node("n", 1.0);
  rrg.set_telescopic(n, 1.0, 5);
  EXPECT_FALSE(rrg.is_telescopic(n));
  rrg.set_telescopic(n, 0.5, 0);
  EXPECT_FALSE(rrg.is_telescopic(n));
}

TEST(Telescopic, ThroughputCapUsesWorstNode) {
  Rrg rrg = ring_with_alu(0.5, 2);   // service 1.0 -> cap 1/2
  EXPECT_DOUBLE_EQ(throughput_cap(rrg), 0.5);
  rrg.set_telescopic(0, 0.75, 8);    // service 2.0 -> cap 1/3
  EXPECT_DOUBLE_EQ(throughput_cap(rrg), 1.0 / 3.0);
}

TEST(Telescopic, SurvivesConfigApplication) {
  const Rrg rrg = ring_with_alu(0.8, 3);
  const Rrg out = apply_config(rrg, initial_config(rrg));
  EXPECT_TRUE(out.is_telescopic(1));
  EXPECT_EQ(out.telescopic(1), rrg.telescopic(1));
}

// ----------------------------------------------------------------- kernel

TEST(TelescopicKernel, AlwaysFastMatchesNonTelescopic) {
  const Rrg plain = []{
    Rrg r;
    const NodeId src = r.add_node("src", 1.0);
    const NodeId alu = r.add_node("alu", 1.0);
    r.add_edge(src, alu, 2, 2);
    r.add_edge(alu, src, 2, 2);
    return r;
  }();
  const Rrg tele = ring_with_alu(0.5, 3);
  const Kernel k_plain(plain);
  const Kernel k_tele(tele);
  SyncState a = k_plain.initial_state();
  SyncState b = k_tele.initial_state();
  std::vector<std::uint8_t> fired_a(plain.num_nodes());
  std::vector<std::uint8_t> fired_b(tele.num_nodes());
  for (int t = 0; t < 25; ++t) {
    k_plain.step(a, guard_always(0), {}, fired_a.data());
    k_tele.step(b, guard_always(0), always_fast(), fired_b.data());
    EXPECT_EQ(fired_a, fired_b) << "cycle " << t;
  }
}

TEST(TelescopicKernel, SlowFiringPeriodIsOnePlusExtra) {
  for (int extra : {1, 2, 5}) {
    const Rrg rrg = self_loop(0.5, extra);
    const Kernel kernel(rrg);
    SyncState s = kernel.initial_state();
    std::vector<int> fire_cycles;
    std::vector<std::uint8_t> fired(rrg.num_nodes());
    for (int t = 0; t < 6 * (extra + 1); ++t) {
      kernel.step(s, guard_always(0), always_slow(), fired.data());
      if (fired[0]) {
        fire_cycles.push_back(t);
      }
    }
    ASSERT_GE(fire_cycles.size(), 3u) << "extra=" << extra;
    for (std::size_t i = 1; i < fire_cycles.size(); ++i) {
      EXPECT_EQ(fire_cycles[i] - fire_cycles[i - 1], 1 + extra)
          << "extra=" << extra;
    }
  }
}

TEST(TelescopicKernel, BusyNodeDoesNotSampleLatency) {
  const Rrg rrg = self_loop(0.5, 3);
  const Kernel kernel(rrg);
  SyncState s = kernel.initial_state();
  int draws = 0;
  const Kernel::LatencyChooser counting = [&](NodeId) {
    ++draws;
    return true;
  };
  kernel.step(s, guard_always(0), counting);  // fires, draws once
  EXPECT_EQ(draws, 1);
  EXPECT_TRUE(kernel.latency_nodes(s).empty());  // busy
  kernel.step(s, guard_always(0), counting);  // busy: no draw
  kernel.step(s, guard_always(0), counting);
  EXPECT_EQ(draws, 1);
}

TEST(TelescopicKernel, WithheldOutputArrivesExactlyExtraCyclesLate) {
  // src fires at cycle 0; a slow consumer (extra = 2) fires at 0 and
  // again at 3; its output token reaches src after release + 1 EB.
  const Rrg rrg = ring_with_alu(0.5, 2);
  const Kernel kernel(rrg);
  SyncState s = kernel.initial_state();
  std::vector<int> alu_fires;
  std::vector<std::uint8_t> fired(rrg.num_nodes());
  for (int t = 0; t < 13; ++t) {
    kernel.step(s, guard_always(0), always_slow(), fired.data());
    if (fired[1]) {
      alu_fires.push_back(t);
    }
  }
  ASSERT_GE(alu_fires.size(), 4u);
  for (std::size_t i = 1; i < alu_fires.size(); ++i) {
    EXPECT_EQ(alu_fires[i] - alu_fires[i - 1], 3);  // 1 + extra
  }
}

TEST(TelescopicKernel, EncodeDistinguishesBusyStates) {
  const Rrg rrg = self_loop(0.5, 2);
  const Kernel kernel(rrg);
  SyncState a = kernel.initial_state();
  SyncState b = a;
  EXPECT_EQ(a.encode(), b.encode());
  b.busy[0] = 2;
  EXPECT_NE(a.encode(), b.encode());
}

TEST(TelescopicKernel, EarlyTelescopicSkipsGuardSamplingWhileBusy) {
  // Figure 2's mux made telescopic: while busy it must neither sample a
  // guard nor fire.
  Rrg rrg = figure2(0.9);
  rrg.set_telescopic(kM, 0.5, 2);
  const Kernel kernel(rrg);
  SyncState s = kernel.initial_state();
  int guard_draws = 0;
  const Kernel::GuardChooser counting_guard = [&](NodeId) {
    ++guard_draws;
    return 0u;  // top channel
  };
  // First cycle: m samples, fires slow; busy for 2 more cycles.
  std::vector<std::uint8_t> fired(rrg.num_nodes());
  kernel.step(s, counting_guard, always_slow(), fired.data());
  EXPECT_EQ(fired[kM], 1);
  EXPECT_EQ(guard_draws, 1);
  EXPECT_TRUE(kernel.sampling_nodes(s).empty());
  kernel.step(s, counting_guard, always_slow(), fired.data());
  EXPECT_EQ(fired[kM], 0);
  EXPECT_EQ(guard_draws, 1);  // no resample while busy
}

// ----------------------------------------------------------------- markov

TEST(TelescopicMarkov, SelfLoopClosedForm) {
  // Rate = 1 / (p * 1 + (1-p) * (1+e)) = 1 / (1 + (1-p) e).
  for (const auto& [p, e] : std::vector<std::pair<double, int>>{
           {0.5, 1}, {0.9, 2}, {0.25, 3}}) {
    const MarkovResult r = exact_throughput(self_loop(p, e));
    ASSERT_TRUE(r.ok);
    EXPECT_NEAR(r.theta, 1.0 / (1.0 + (1.0 - p) * e), 1e-9)
        << "p=" << p << " e=" << e;
  }
}

TEST(TelescopicMarkov, RingLimitedByBusyPeriodOnly) {
  // Tokens and buffers are plentiful; the telescopic unit is the only
  // bottleneck, so Theta = cap exactly.
  const Rrg rrg = ring_with_alu(0.5, 2);
  const MarkovResult r = exact_throughput(rrg);
  ASSERT_TRUE(r.ok);
  EXPECT_NEAR(r.theta, throughput_cap(rrg), 1e-9);
}

TEST(TelescopicMarkov, MatchesLpBoundOnServiceLimitedSystems) {
  // When the busy throttle is the binding constraint the LP bound is
  // tight; the Markov value must meet it.
  for (double p : {0.3, 0.6, 0.9}) {
    const Rrg rrg = ring_with_alu(p, 2);
    const MarkovResult mc = exact_throughput(rrg);
    ASSERT_TRUE(mc.ok);
    const double lp = throughput_upper_bound(rrg);
    EXPECT_NEAR(mc.theta, lp, 1e-9) << "p=" << p;
  }
}

TEST(TelescopicMarkov, TokenLimitedRingIgnoresIdleService) {
  // One token in a long ring: the telescopic unit is mostly idle, and
  // slow firings still delay the lone token, so Theta is below both the
  // token bound and the cap.
  Rrg rrg;
  const NodeId a = rrg.add_node("a", 1.0);
  const NodeId b = rrg.add_node("b", 1.0);
  rrg.add_edge(a, b, 1, 2);
  rrg.add_edge(b, a, 0, 2);
  rrg.set_telescopic(b, 0.5, 2);
  const MarkovResult r = exact_throughput(rrg);
  ASSERT_TRUE(r.ok);
  // Token round trip: 4 cycles fast, +2 on the slow half of b's firings
  // -> expected period 4 + 0.5 * 2 = 5, rate 1/5.
  EXPECT_NEAR(r.theta, 0.2, 1e-9);
  EXPECT_LT(r.theta, throughput_cap(rrg));
  const double lp = throughput_upper_bound(rrg);
  EXPECT_LE(r.theta, lp + 1e-9);
}

// -------------------------------------------------------------------- sim

struct TelescopicCase {
  double alpha;
  double fast_prob;
  int slow_extra;
};

/// Prints a case by value, e.g. a50_p90_e2; ctest names each case after
/// this. gtest's fallback would dump the struct's bytes, padding
/// included, which differ from run to run.
void PrintTo(const TelescopicCase& c, std::ostream* os) {
  *os << "a" << std::lround(c.alpha * 100) << "_p"
      << std::lround(c.fast_prob * 100) << "_e" << c.slow_extra;
}

class TelescopicSimVsMarkov
    : public ::testing::TestWithParam<TelescopicCase> {};

TEST_P(TelescopicSimVsMarkov, Agree) {
  const auto& c = GetParam();
  // Figure 2 with a telescopic F2: early evaluation, anti-tokens and
  // variable latency interacting in one system.
  Rrg rrg = figure2(c.alpha);
  rrg.set_telescopic(kF2, c.fast_prob, c.slow_extra);

  const MarkovResult mc = exact_throughput(rrg);
  ASSERT_TRUE(mc.ok);

  SimOptions opt;
  opt.seed = 7;
  opt.measure_cycles = 30000;
  const SimResult sim = simulate_throughput(rrg, opt);
  EXPECT_NEAR(sim.theta, mc.theta, 5.0 * sim.stderr_theta + 0.01)
      << "alpha=" << c.alpha << " p=" << c.fast_prob
      << " e=" << c.slow_extra;

  const double lp = throughput_upper_bound(rrg);
  EXPECT_LE(mc.theta, lp + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, TelescopicSimVsMarkov,
    ::testing::Values(TelescopicCase{0.5, 0.5, 1}, TelescopicCase{0.5, 0.9, 2},
                      TelescopicCase{0.9, 0.5, 1}, TelescopicCase{0.9, 0.8, 3},
                      TelescopicCase{0.7, 0.25, 2},
                      TelescopicCase{0.3, 0.6, 1}));

// ------------------------------------------------------------------- tgmg

TEST(TelescopicTgmg, Procedure1AddsThrottleForSimpleNodes) {
  const Rrg rrg = self_loop(0.5, 2);          // service = 1.0
  const Tgmg tgmg = procedure1(rrg);
  // Nodes: alu (delay = service), input aux (delay = R), throttle
  // (delay 1). The alu no longer carries the edge latency.
  ASSERT_EQ(tgmg.num_nodes(), 3u);
  EXPECT_DOUBLE_EQ(tgmg.delay(0), 1.0);       // (1-p) * extra
  EXPECT_DOUBLE_EQ(tgmg.delay(1), 1.0);       // R(e) on the aux node
  EXPECT_DOUBLE_EQ(tgmg.delay(2), 1.0);       // throttle
  EXPECT_EQ(tgmg.num_edges(), 4u);
}

TEST(TelescopicTgmg, LpBoundEqualsCapWhenServiceBound) {
  for (const auto& [p, e] : std::vector<std::pair<double, int>>{
           {0.5, 1}, {0.8, 4}, {0.1, 2}}) {
    const Rrg rrg = ring_with_alu(p, e);
    EXPECT_NEAR(throughput_upper_bound(rrg), 1.0 / (1.0 + (1.0 - p) * e),
                1e-7)
        << "p=" << p << " e=" << e;
  }
}

TEST(TelescopicTgmg, ThroughLatencyCountsOnTokenLimitedCycles) {
  // One token, ring latency 4 EBs + expected service 1 -> bound 1/5.
  Rrg rrg;
  const NodeId a = rrg.add_node("a", 1.0);
  const NodeId b = rrg.add_node("b", 1.0);
  rrg.add_edge(a, b, 1, 2);
  rrg.add_edge(b, a, 0, 2);
  rrg.set_telescopic(b, 0.5, 2);
  EXPECT_NEAR(throughput_upper_bound(rrg), 0.2, 1e-7);
}

TEST(TelescopicTgmg, EarlyTelescopicBoundThroughProcedure2) {
  // Figure 2's mux made telescopic: the cap applies on top of the
  // guard-probability bound 1/(3-2a).
  for (double alpha : {0.5, 0.9}) {
    Rrg rrg = figure2(alpha);
    rrg.set_telescopic(kM, 0.5, 2);  // service 1 -> cap 1/2
    const double lp = throughput_upper_bound(rrg);
    EXPECT_LE(lp, 0.5 + 1e-9) << "alpha=" << alpha;
    const MarkovResult mc = exact_throughput(rrg);
    ASSERT_TRUE(mc.ok);
    EXPECT_LE(mc.theta, lp + 1e-9) << "alpha=" << alpha;
  }
}

// ---------------------------------------------------- random property

/// Tiny random live RRGs mixing early and telescopic nodes: a ring
/// backbone (guaranteeing strong connectivity) with random chords,
/// tokens, buffers, one early join and one telescopic node.
Rrg random_mixed_rrg(std::uint64_t seed) {
  elrr::Rng rng(seed * 6151 + 11);
  const std::size_t n = 3 + static_cast<std::size_t>(rng.uniform_int(0, 2));
  Rrg rrg;
  for (std::size_t i = 0; i < n; ++i) {
    rrg.add_node(indexed_name('n', i), 1.0);
  }
  for (std::size_t i = 0; i < n; ++i) {
    const int tokens = static_cast<int>(rng.uniform_int(0, 1));
    rrg.add_edge(static_cast<NodeId>(i), static_cast<NodeId>((i + 1) % n),
                 tokens, tokens + static_cast<int>(rng.uniform_int(0, 1)));
  }
  // One chord creating a 2-input join; make it early half the time.
  const auto target = static_cast<NodeId>(rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
  const auto source = static_cast<NodeId>((target + n - 2) % n);
  rrg.add_edge(source, target, 1, 1);
  if (rng.bernoulli(0.5)) {
    rrg.set_kind(target, NodeKind::kEarly);
    const auto& inputs = rrg.graph().in_edges(target);
    const double alpha = rng.uniform(0.2, 0.8);
    rrg.set_gamma(inputs[0], alpha);
    for (std::size_t k = 1; k < inputs.size(); ++k) {
      rrg.set_gamma(inputs[k], (1.0 - alpha) / (static_cast<double>(inputs.size()) - 1.0));
    }
  }
  // One telescopic node.
  const auto tele = static_cast<NodeId>(rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
  rrg.set_telescopic(tele, rng.uniform(0.3, 0.9),
                     static_cast<int>(rng.uniform_int(1, 3)));
  // Ensure a token somewhere (ring sums could be 0).
  if (!rrg.is_live()) {
    rrg.set_tokens(0, 1);
    rrg.set_buffers(0, std::max(rrg.buffers(0), 1));
  }
  rrg.validate();
  return rrg;
}

class TelescopicRandom : public ::testing::TestWithParam<int> {};

TEST_P(TelescopicRandom, MarkovSimAndLpAgree) {
  const Rrg rrg = random_mixed_rrg(static_cast<std::uint64_t>(GetParam()));
  MarkovOptions mopt;
  mopt.max_states = 60000;
  const MarkovResult mc = exact_throughput(rrg, mopt);
  if (!mc.ok) GTEST_SKIP() << "state space too large";

  SimOptions sopt;
  sopt.seed = 19;
  sopt.measure_cycles = 25000;
  const SimResult sim = simulate_throughput(rrg, sopt);
  EXPECT_NEAR(sim.theta, mc.theta, 5.0 * sim.stderr_theta + 0.015);

  const double lp = throughput_upper_bound(rrg);
  EXPECT_LE(mc.theta, lp + 1e-9);
  EXPECT_LE(lp, throughput_cap(rrg) + 1e-9);
  EXPECT_GT(mc.theta, 0.0);  // live system keeps moving
}

INSTANTIATE_TEST_SUITE_P(Seeds, TelescopicRandom, ::testing::Range(0, 24));

}  // namespace
}  // namespace elrr::sim
