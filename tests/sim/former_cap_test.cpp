/// \file former_cap_test.cpp
/// Differential coverage of the shapes past the flat layout's former
/// fixed-width fields: EB chains deeper than one 64-bit ring word (with
/// preloaded anti-tokens and an early consumer on the deep edge),
/// in- and out-degrees past 8 bits, more nodes than a 16-bit index, and
/// early joins whose guard positions overflow 8 bits. FlatKernel must
/// match the oracle kernel (tests/sim/oracle.hpp) on every one: per
/// cycle, through simulate_throughput at every lane width, through one
/// mixed SimFleet wave, and through the Markov enumeration.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/figures.hpp"
#include "sim/fleet.hpp"
#include "sim/flat_kernel.hpp"
#include "sim/markov.hpp"
#include "support/rng.hpp"
#include "support/strings.hpp"
#include "tests/sim/oracle.hpp"

namespace elrr::sim {
namespace {

SimOptions cap_options(std::uint64_t seed, std::size_t cycles = 800) {
  SimOptions options;
  options.seed = seed;
  options.warmup_cycles = 50;
  options.measure_cycles = cycles;
  options.runs = 2;
  return options;
}

/// An early join `m` whose first input is an EB chain `depth` deep
/// carrying `deep_tokens` initial tokens (negative = preloaded
/// anti-tokens), fed back through short rings so the system is live.
Rrg deep_chain_rrg(int depth, int deep_tokens) {
  Rrg rrg;
  const NodeId a = rrg.add_node("a", 1.0);
  const NodeId m = rrg.add_node("m", 1.0);
  const NodeId c = rrg.add_node("c", 1.0);
  const EdgeId deep = rrg.add_edge(a, m, deep_tokens, depth);
  const int back = std::max(1, 2 - deep_tokens);
  rrg.add_edge(m, a, back, back);
  const EdgeId side = rrg.add_edge(c, m, 1, 1);
  rrg.add_edge(m, c, 1, 1);
  rrg.set_kind(m, NodeKind::kEarly);
  rrg.set_gamma(deep, 0.3);
  rrg.set_gamma(side, 0.7);
  rrg.validate();
  return rrg;
}

/// A live two-node ring whose forward edge carries a `depth`-deep chain.
Rrg deep_ring_rrg(int depth) {
  Rrg rrg;
  const NodeId a = rrg.add_node("a", 1.0);
  const NodeId b = rrg.add_node("b", 1.0);
  rrg.add_edge(a, b, 1, depth);
  rrg.add_edge(b, a, 1, 1);
  return rrg;
}

/// A live star: `width` leaves each on a hub<->leaf token ring, so the
/// hub's in-degree is `width`. With `early`, the hub is an early join
/// with uniform gammas.
Rrg wide_join_rrg(int width, bool early = false) {
  Rrg rrg;
  const NodeId hub = rrg.add_node("hub", 1.0);
  for (int i = 0; i < width; ++i) {
    const NodeId leaf = rrg.add_node(indexed_name('l', i), 1.0);
    const EdgeId in = rrg.add_edge(leaf, hub, 1, 1);
    rrg.add_edge(hub, leaf, 1, 1);
    if (early) rrg.set_gamma(in, 1.0 / width);
  }
  if (early) rrg.set_kind(hub, NodeKind::kEarly);
  rrg.validate();
  return rrg;
}

/// A live broadcast: one source fans out to `width` leaves, collected
/// back through a chain of 2-input joins.
Rrg wide_fanout_rrg(int width) {
  Rrg rrg;
  const NodeId src = rrg.add_node("src", 1.0);
  NodeId collect = rrg.add_node("c0", 1.0);
  std::vector<NodeId> leaves;
  for (int i = 0; i < width; ++i) {
    const NodeId leaf = rrg.add_node(indexed_name('f', i), 1.0);
    rrg.add_edge(src, leaf, 1, 1);
    leaves.push_back(leaf);
  }
  rrg.add_edge(leaves[0], collect, 1, 1);
  for (int i = 1; i < width; ++i) {
    const NodeId next = rrg.add_node(indexed_name('c', i), 1.0);
    rrg.add_edge(collect, next, 1, 1);
    rrg.add_edge(leaves[static_cast<std::size_t>(i)], next, 1, 1);
    collect = next;
  }
  rrg.add_edge(collect, src, 1, 1);
  return rrg;
}

/// A token ring with 65,537 nodes, one past a 16-bit node index.
Rrg huge_ring_rrg() {
  Rrg rrg;
  constexpr int kNodes = 0x10000 + 1;
  for (int i = 0; i < kNodes; ++i) rrg.add_node("", 1.0);
  for (int i = 0; i < kNodes; ++i) {
    // A token on every edge: the ring fires every node every cycle, so a
    // short differential window still moves plenty of tokens.
    rrg.add_edge(static_cast<NodeId>(i),
                 static_cast<NodeId>((i + 1) % kNodes), 1, 1);
  }
  return rrg;
}

/// Deterministic guard/latency draws shared by both kernels: a function
/// of (cycle, node) only, so iteration order cannot matter.
std::size_t guard_for(const Rrg& rrg, int cycle, NodeId n) {
  const std::uint64_t h =
      hash_name(std::to_string(cycle) + "g" + std::to_string(n));
  return static_cast<std::size_t>(h % rrg.graph().in_degree(n));
}

/// Per-cycle equality of the two kernels' full states and firing counts.
void expect_per_cycle_equal(const Rrg& rrg, int cycles) {
  const Kernel oracle(rrg);
  const FlatKernel flat(rrg);
  SyncState expected = oracle.initial_state();
  FlatState state = flat.initial_state();
  ASSERT_EQ(to_sync(flat, state), expected);
  for (int cycle = 0; cycle < cycles; ++cycle) {
    const auto guard = [&](NodeId n) { return guard_for(rrg, cycle, n); };
    const std::uint32_t want = oracle.step(expected, guard);
    ASSERT_EQ(flat.step(state, guard), want) << "cycle " << cycle;
    ASSERT_EQ(to_sync(flat, state), expected) << "cycle " << cycle;
  }
  EXPECT_EQ(flat.encode(state), expected.encode());
}

/// simulate_throughput equals the oracle driver bit for bit, at every
/// lane width the driver packs (16 runs, so widths 8 and 16 fill).
void expect_driver_equal(const Rrg& rrg, SimOptions options) {
  options.runs = 16;
  const SimResult oracle = simulate_on_oracle(rrg, options);
  for (const std::size_t width : {1, 2, 3, 4, 8, 16}) {
    options.max_batch = width;
    const SimResult result = simulate_throughput(rrg, options);
    EXPECT_EQ(result.theta, oracle.theta) << "lane width " << width;
    EXPECT_EQ(result.stderr_theta, oracle.stderr_theta)
        << "lane width " << width;
  }
}

TEST(FormerCap, DeepEbChainsMatchTheOraclePerCycle) {
  for (const int depth : {64, 65, 70, 128, 129, 200}) {
    for (const int deep_tokens : {-1, 0, 3}) {
      SCOPED_TRACE("depth " + std::to_string(depth) + " tokens " +
                   std::to_string(deep_tokens));
      expect_per_cycle_equal(deep_chain_rrg(depth, deep_tokens), 600);
    }
  }
}

TEST(FormerCap, DeepEbChainsMatchTheOracleDriver) {
  for (const int depth : {64, 65, 70, 128, 129, 200}) {
    for (const int deep_tokens : {-1, 3}) {
      SCOPED_TRACE("depth " + std::to_string(depth) + " tokens " +
                   std::to_string(deep_tokens));
      expect_driver_equal(deep_chain_rrg(depth, deep_tokens),
                          cap_options(3, 1000));
    }
  }
}

TEST(FormerCap, FanIn300MatchesTheOracle) {
  for (const bool early : {false, true}) {
    SCOPED_TRACE(early ? "early" : "simple");
    const Rrg rrg = wide_join_rrg(300, early);
    expect_per_cycle_equal(rrg, 40);
    expect_driver_equal(rrg, cap_options(5, 200));
  }
}

TEST(FormerCap, FanOut300MatchesTheOracle) {
  const Rrg rrg = wide_fanout_rrg(300);
  expect_per_cycle_equal(rrg, 40);
  expect_driver_equal(rrg, cap_options(7, 200));
}

TEST(FormerCap, Ring65537MatchesTheOracle) {
  // Keep the windows short: the point is the node index past 16 bits,
  // not theta accuracy.
  const Rrg rrg = huge_ring_rrg();
  expect_per_cycle_equal(rrg, 3);
  SimOptions options = cap_options(9, 8);
  options.warmup_cycles = 2;
  expect_driver_equal(rrg, options);
}

/// Every input of the join holds its token, so an early hub fires every
/// cycle whichever guard it draws: theta is exactly 1. Guard positions
/// of 128 and more do not fit 8 bits.
TEST(FormerCap, EarlyJoinGuardsPast127Inputs) {
  const SimOptions options = cap_options(5, 800);
  SimFleet fleet(2);
  std::vector<SimTicket> tickets;
  for (const int width : {128, 200, 255, 300}) {
    SCOPED_TRACE("width " + std::to_string(width));
    const Rrg rrg = wide_join_rrg(width, /*early=*/true);
    EXPECT_EQ(simulate_throughput(rrg, options).theta, 1.0);
    EXPECT_EQ(simulate_on_oracle(rrg, options).theta, 1.0);
    tickets.push_back(fleet.submit_async(Rrg(rrg), options));
  }
  for (const SimTicket ticket : tickets) {
    EXPECT_EQ(fleet.wait(ticket).theta, 1.0);
  }
}

/// One ticket wave mixing the ordinary and the former-cap shapes: each
/// job's theta equals its solo counterpart bit for bit, across pool
/// sizes.
TEST(FormerCap, MixedFleetMatchesSoloJobs) {
  const std::vector<Rrg> jobs = {
      figures::figure1b(0.5, true), deep_chain_rrg(70, -1),
      deep_chain_rrg(200, 3),       wide_join_rrg(300),
      wide_fanout_rrg(300),         wide_join_rrg(255, /*early=*/true)};
  const SimOptions options = cap_options(11);

  std::vector<SimResult> solo;
  for (const Rrg& rrg : jobs) solo.push_back(simulate_throughput(rrg, options));

  for (const std::size_t threads : {std::size_t{1}, std::size_t{3}}) {
    SimFleet fleet(threads);
    std::vector<SimTicket> tickets;
    for (const Rrg& rrg : jobs) {
      tickets.push_back(fleet.submit_async(Rrg(rrg), options));
    }
    for (std::size_t i = 0; i < tickets.size(); ++i) {
      const SimResult report = fleet.wait(tickets[i]);
      EXPECT_EQ(report.theta, solo[i].theta)
          << "threads " << threads << " job " << i;
      EXPECT_EQ(report.stderr_theta, solo[i].stderr_theta);
    }
  }
}

/// The exact analysis enumerates the same chain on both kernels.
TEST(FormerCap, MarkovOnADeepRingMatchesTheOracle) {
  const Rrg rrg = deep_ring_rrg(70);
  const MarkovResult flat = exact_throughput(rrg);
  const MarkovResult oracle = exact_throughput_on_oracle(rrg);
  ASSERT_TRUE(flat.ok);
  ASSERT_TRUE(oracle.ok);
  EXPECT_EQ(flat.num_states, oracle.num_states);
  EXPECT_EQ(flat.num_transitions, oracle.num_transitions);
  EXPECT_EQ(flat.iterations, oracle.iterations);
  EXPECT_EQ(flat.theta, oracle.theta);
  EXPECT_NEAR(flat.theta, 2.0 / 71.0, 1e-6);
}

}  // namespace
}  // namespace elrr::sim
