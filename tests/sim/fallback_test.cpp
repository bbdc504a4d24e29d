/// \file fallback_test.cpp
/// Differential coverage of the FlatCap fallback paths: for every cap the
/// flat layout cannot represent (EB chain deeper than the 64-bit ring,
/// node-count and degree caps), the driver must (a) classify the cap,
/// (b) route the job to the reference kernel, and (c) produce exactly the
/// theta a forced reference run produces -- through simulate_throughput
/// and through one SimFleet ticket wave that mixes fallback jobs with
/// flat-path jobs in one queue. PR 2 only *reported* these caps; this suite runs
/// them.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/figures.hpp"
#include "sim/fleet.hpp"
#include "sim/flat_kernel.hpp"
#include "support/strings.hpp"

namespace elrr::sim {
namespace {

SimOptions fallback_options(std::uint64_t seed, std::size_t cycles = 800) {
  SimOptions options;
  options.seed = seed;
  options.warmup_cycles = 50;
  options.measure_cycles = cycles;
  options.runs = 2;
  return options;
}

/// The fallback must be invisible in the numbers: auto-selected reference
/// execution == forced reference execution, bit for bit, and the report
/// names the cap.
void expect_reference_fallback(const Rrg& rrg, FlatCap expected_cap,
                               const SimOptions& options) {
  ASSERT_EQ(FlatKernel::unsupported_reason(rrg), expected_cap);
  ASSERT_FALSE(FlatKernel::supports(rrg));

  const SimReport automatic = simulate_throughput(rrg, options);
  EXPECT_EQ(automatic.path, SimPath::kReference);
  EXPECT_EQ(automatic.fallback, expected_cap);
  EXPECT_STRNE(to_string(automatic.fallback), "none");

  SimOptions forced = options;
  forced.force_reference = true;
  const SimReport reference = simulate_throughput(rrg, forced);
  EXPECT_EQ(automatic.theta, reference.theta);
  EXPECT_EQ(automatic.stderr_theta, reference.stderr_theta);
}

/// A live two-node ring whose forward edge carries an EB chain deeper
/// than the 64-bit window.
Rrg deep_chain_rrg() {
  Rrg rrg;
  const NodeId a = rrg.add_node("a", 1.0);
  const NodeId b = rrg.add_node("b", 1.0);
  rrg.add_edge(a, b, 1, 70);
  rrg.add_edge(b, a, 1, 1);
  return rrg;
}

/// A live star: `width` leaves each on a hub<->leaf token ring, driving
/// the hub's in-degree past the u8 node-program field.
Rrg wide_join_rrg(int width) {
  Rrg rrg;
  const NodeId hub = rrg.add_node("hub", 1.0);
  for (int i = 0; i < width; ++i) {
    const NodeId leaf = rrg.add_node(indexed_name('l', i), 1.0);
    rrg.add_edge(leaf, hub, 1, 1);
    rrg.add_edge(hub, leaf, 1, 1);
  }
  return rrg;
}

/// A live broadcast: one source fans out to `width` leaves (out-degree
/// past the u8 field), collected back through a chain of 2-input joins
/// so no *in*-degree exceeds its cap (the classifier must name the
/// out-degree, and the source is checked before the collector chain).
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

/// A token ring with more nodes than NodeProg::node (u16) can index.
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

TEST(FlatCapFallback, DeepEbChainRunsOnReference) {
  expect_reference_fallback(deep_chain_rrg(), FlatCap::kDeepEbChain,
                            fallback_options(3, 2000));
}

TEST(FlatCapFallback, InDegreeCapRunsOnReference) {
  expect_reference_fallback(wide_join_rrg(300), FlatCap::kInDegreeCap,
                            fallback_options(5));
}

TEST(FlatCapFallback, EarlyInDegreeCapUsesTheTighterGuardBound) {
  // Early nodes cap at 127 (the i8 guard encoding), half the simple cap.
  // Classification only: the i8 pending-guard encoding is shared by the
  // *reference* state too, so guards past 127 are out of contract for
  // every kernel -- the cap exists to reject them, not to reroute them.
  Rrg rrg = wide_join_rrg(200);
  ASSERT_EQ(FlatKernel::unsupported_reason(rrg), FlatCap::kNone);
  rrg.set_kind(0, NodeKind::kEarly);
  for (EdgeId e = 0; e < rrg.num_edges(); ++e) {
    if (rrg.graph().dst(e) == 0) rrg.set_gamma(e, 1.0 / 200.0);
  }
  EXPECT_EQ(FlatKernel::unsupported_reason(rrg), FlatCap::kInDegreeCap);
  EXPECT_FALSE(FlatKernel::supports(rrg));
}

TEST(FlatCapFallback, OutDegreeCapRunsOnReference) {
  expect_reference_fallback(wide_fanout_rrg(300), FlatCap::kOutDegreeCap,
                            fallback_options(7));
}

TEST(FlatCapFallback, NodeCountCapRunsOnReference) {
  // 65537 nodes: keep the simulated window small -- the point is the
  // classification and the bit-exact reference agreement, not theta
  // accuracy.
  expect_reference_fallback(huge_ring_rrg(), FlatCap::kTooManyNodes,
                            fallback_options(9, 30));
}

/// One ticket wave mixing flat-path and every-cap fallback jobs: per-job
/// paths are classified independently and each job's theta equals its
/// solo counterpart bit for bit, across pool sizes.
TEST(FlatCapFallback, MixedFleetMatchesSoloJobs) {
  const Rrg deep = deep_chain_rrg();
  const Rrg wide_in = wide_join_rrg(300);
  const Rrg wide_out = wide_fanout_rrg(300);
  const Rrg flat = figures::figure1b(0.5, true);
  const SimOptions options = fallback_options(11);

  std::vector<SimReport> solo;
  for (const Rrg* rrg : {&flat, &deep, &wide_in, &wide_out}) {
    solo.push_back(simulate_throughput(*rrg, options));
  }

  for (const std::size_t threads : {std::size_t{1}, std::size_t{3}}) {
    SimFleet fleet(threads);
    std::vector<SimTicket> tickets;
    for (const Rrg* rrg : {&flat, &deep, &wide_in, &wide_out}) {
      tickets.push_back(fleet.submit_async(Rrg(*rrg), options));
    }
    std::vector<SimReport> reports;
    for (const SimTicket ticket : tickets) {
      reports.push_back(fleet.wait(ticket));
    }
    ASSERT_EQ(reports.size(), 4u);
    EXPECT_EQ(reports[0].path, SimPath::kFlat);
    EXPECT_EQ(reports[1].fallback, FlatCap::kDeepEbChain);
    EXPECT_EQ(reports[2].fallback, FlatCap::kInDegreeCap);
    EXPECT_EQ(reports[3].fallback, FlatCap::kOutDegreeCap);
    for (std::size_t i = 0; i < reports.size(); ++i) {
      EXPECT_EQ(reports[i].theta, solo[i].theta)
          << "threads " << threads << " job " << i;
      EXPECT_EQ(reports[i].stderr_theta, solo[i].stderr_theta);
      EXPECT_EQ(reports[i].path, solo[i].path);
    }
  }
}

}  // namespace
}  // namespace elrr::sim
