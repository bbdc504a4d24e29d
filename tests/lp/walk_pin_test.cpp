/// \file walk_pin_test.cpp
/// Full MIN_EFF_CYC walks pinned bit for bit: the session's branch &
/// bound work (nodes, LP iterations, Farkas-certified verdicts) and every
/// frontier point's tau, theta_lp and buffer counts. The simplex engine
/// must reproduce these exactly: a change that only makes pivots cheaper
/// leaves every counter and every bit in place, and a change of pivot
/// order, tie-breaking or search order shows up here first.
///
/// The tau and theta_lp bits were recorded with the dense-tableau engine
/// (x86-64, the default non -march=native code generation). The
/// nonbasic-only tableau that replaced it performs the same
/// floating-point operations in the same order on every entry that can
/// be nonzero. A build that lets the compiler fuse `a -= c * b` into
/// fused multiply-adds rounds differently; CMakeLists.txt passes
/// -ffp-contract=off so -march=native builds match.
///
/// The work counters and buffers were re-recorded when branch & bound
/// nodes began to re-solve from their parent's tableau instead of the
/// root's (src/lp/README.md, "Node warm starts from the parent"). Every
/// tau and theta_lp held; two points (s208 #3 and x11 #1) moved to
/// another buffer placement with the same tau and theta_lp, a tie the
/// MILP breaks by the vertex the dual simplex stops at.

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "bench89/generator.hpp"
#include "core/opt.hpp"

namespace elrr {
namespace {

struct PinnedPoint {
  double tau;
  double theta_lp;
  std::vector<int> buffers;
};

struct PinnedWalk {
  const char* name;  ///< bench89::CircuitSpec {name, n_simple, n_early, n_edges}
  int n_simple;
  int n_early;
  int n_edges;
  std::uint64_t seed;
  int milp_calls;
  std::int64_t nodes;
  std::int64_t lp_iterations;
  std::int64_t infeasible_certified;
  std::vector<PinnedPoint> points;
};

const PinnedWalk kPinnedWalks[] = {
    {"s208", 7, 1, 9, 5, 13, 505, 5151, 164,
     {{0x1.958051b247aecp+3, 0x1.bb94a03ac8247p-2, {1, 1, 0, 1, 1, 0, 1, 1, 1}},
      {0x1.d73c49197e6fap+3, 0x1.0a25f9bcde7c4p-1, {1, 1, 0, 1, 1, 0, 1, 0, 1}},
      {0x1.03806567d4462p+4, 0x1.2159152b26f6cp-1, {1, 1, 0, 1, 1, 0, 1, 0, 0}},
      {0x1.3f0c2c241cfcep+4, 0x1.45a10889efd5p-1, {1, 0, 1, 0, 1, 0, 0, 1, 1}},
      {0x1.462a91b5fe27ap+4, 0x1.71be0e63ef9d6p-1, {0, 1, 0, 1, 1, 0, 0, 1, 0}},
      {0x1.79239b46443ebp+4, 0x1.8e14b6dadf414p-1, {0, 1, 0, 0, 1, 0, 0, 1, 0}},
      {0x1.c85479d2c6542p+4, 0x1p+0, {0, 1, 0, 1, 0, 0, 1, 0, 0}}}},
    {"s838", 7, 1, 9, 4, 17, 450, 3901, 156,
     {{0x1.2ae6c6db4a794p+4, 0x1.5555555555556p-3, {1, 1, 1, 1, 0, 0, 1, 1, 0}},
      {0x1.6e441baf6390ap+4, 0x1.9999999999999p-3, {1, 1, 0, 1, 0, 0, 1, 1, 0}},
      {0x1.79fb003805937p+4, 0x1.f359ddd21b147p-3, {1, 1, 0, 0, 1, 1, 0, 1, 1}},
      {0x1.a62835c8514cfp+4, 0x1.4a2e8080f2795p-2, {1, 0, 1, 0, 0, 1, 1, 0, 0}},
      {0x1.fdf7c58c0ad7p+4, 0x1.5555555555556p-2, {0, 1, 0, 0, 0, 1, 0, 1, 1}},
      {0x1.4010402e66b36p+5, 0x1.e74fdf29c995fp-2, {0, 0, 1, 0, 0, 1, 0, 1, 0}},
      {0x1.5eb300b9f4b42p+5, 0x1p-1, {1, 0, 0, 0, 1, 0, 0, 0, 1}},
      {0x1.34c05abc4a0ep+6, 0x1.d0e5341da7184p-1, {0, 0, 0, 0, 0, 1, 0, 1, 0}},
      {0x1.5728bf198cdep+6, 0x1p+0, {1, 0, 0, 0, 0, 0, 0, 0, 0}}}},
    {"x11", 7, 2, 11, 1, 25, 1939, 36904, 684,
     {{0x1.3b3b0715d00ecp+4, 0x1.8947636b1776ep-3, {1, 1, 1, 1, 1, 1, 0, 1, 0, 1, 1}},
      {0x1.63b9fa0bb4b6p+4, 0x1.cee1afd5c858p-3, {1, 1, 0, 1, 1, 1, 0, 1, 0, 1, 1}},
      {0x1.7a07265e3bc9p+4, 0x1.058b2f3a155d3p-2, {0, 1, 0, 1, 1, 1, 0, 1, 0, 1, 1}},
      {0x1.bff327cda42a6p+4, 0x1.19359b769568bp-2, {1, 0, 1, 0, 1, 1, 0, 0, 1, 0, 0}},
      {0x1.102abfba57b11p+5, 0x1.4326c03e1c22p-2, {0, 0, 1, 0, 1, 1, 0, 0, 1, 0, 0}},
      {0x1.2886a3eec7801p+5, 0x1.5f2a2554b63e2p-2, {0, 1, 1, 0, 1, 0, 1, 0, 0, 1, 0}},
      {0x1.39face22a3ad6p+5, 0x1.a2aa8e3838ee1p-2, {1, 0, 0, 1, 0, 1, 0, 0, 0, 0, 1}},
      {0x1.a2782cc7e3802p+5, 0x1.beb740e285efp-2, {0, 1, 1, 0, 0, 1, 1, 0, 0, 0, 0}},
      {0x1.a5f7a862551a3p+5, 0x1.d2ec58f480f3dp-2, {0, 1, 0, 0, 1, 0, 0, 0, 1, 0, 0}},
      {0x1.b5590b4a5fc8bp+5, 0x1.1f264747b6b8bp-1, {1, 0, 0, 0, 1, 0, 1, 0, 0, 0, 1}},
      {0x1.b9347531a4f71p+5, 0x1.292b0148988ddp-1, {1, 0, 0, 0, 1, 0, 0, 0, 0, 0, 1}},
      {0x1.8269c5ed9115ap+6, 0x1.4a199a2dbe7efp-1, {0, 1, 0, 1, 0, 0, 0, 1, 0, 0, 0}},
      {0x1.9a825bd753e39p+6, 0x1p+0, {0, 1, 0, 0, 0, 0, 1, 0, 0, 0, 1}}}},
};

TEST(WalkPin, MinEffCycWalksAreBitExact) {
  for (const PinnedWalk& pin : kPinnedWalks) {
    const char* const name = pin.name;
    const Rrg rrg = bench89::make_table2_rrg(
        {pin.name, pin.n_simple, pin.n_early, pin.n_edges}, pin.seed);
    OptOptions options;
    options.epsilon = 0.01;
    options.milp.time_limit_s = 600.0;  // never reached: every MILP exact
    ParetoWalk walk(rrg, options);
    while (walk.advance()) {
    }
    const MinEffCycResult result = walk.finish();
    const lp::SessionStats stats = walk.milp_stats();
    ASSERT_TRUE(result.all_exact) << name;
    EXPECT_EQ(result.milp_calls, pin.milp_calls) << name;
    EXPECT_EQ(stats.nodes, pin.nodes) << name;
    EXPECT_EQ(stats.lp_iterations, pin.lp_iterations) << name;
    EXPECT_EQ(stats.infeasible_certified, pin.infeasible_certified) << name;
    EXPECT_EQ(stats.infeasible_cold, 0) << name;
    EXPECT_EQ(stats.warm_fallbacks, 0) << name;
    ASSERT_EQ(result.points.size(), pin.points.size()) << name;
    for (std::size_t i = 0; i < pin.points.size(); ++i) {
      const ParetoPoint& got = result.points[i];
      EXPECT_EQ(got.tau, pin.points[i].tau) << name << " #" << i;
      EXPECT_EQ(got.theta_lp, pin.points[i].theta_lp) << name << " #" << i;
      EXPECT_EQ(got.config.buffers, pin.points[i].buffers) << name << " #" << i;
    }
  }
}

}  // namespace
}  // namespace elrr
