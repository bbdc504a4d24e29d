/// \file leiserson_saxe_diff_test.cpp
/// `min_period_retiming` against OPT as first written (one constraint
/// graph per probed period, each solved cold; tests/retime/oracles.hpp)
/// on random classical circuits: the period and the retiming must agree
/// bit for bit, and so must the error of an input both reject. Only
/// `min_period_retiming` checks liveness (NonLiveCircuits).
/// The circuits cover what the incremental solve orders and prunes
/// differently: integer delays (many tied D values, hence shared
/// candidate ranks), self loops, parallel edges, one- and two-node
/// graphs, graphs that are not strongly connected, and circuits that are
/// not live.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "retime/leiserson_saxe.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"
#include "tests/retime/oracles.hpp"

namespace elrr::retime {
namespace {

/// What one algorithm made of a circuit: a retiming, or the requirement
/// it reported (ELRR_REQUIRE's text without its source location).
struct Outcome {
  std::string error;
  std::uint64_t period_bits = 0;
  std::vector<int> r;
};

template <typename Algorithm>
Outcome run(const Algorithm& algorithm, const Rrg& rrg) {
  Outcome out;
  try {
    const RetimingResult result = algorithm(rrg);
    out.period_bits = std::bit_cast<std::uint64_t>(result.period);
    out.r = result.r;
  } catch (const Error& e) {
    const std::string what = e.what();
    out.error = what.substr(0, what.find(" ["));
  }
  return out;
}

/// Runs both algorithms; returns whether the circuit was retimed.
bool expect_same(const Rrg& rrg) {
  const Outcome want = run(reference_min_period_retiming, rrg);
  const Outcome got = run(min_period_retiming, rrg);
  EXPECT_EQ(got.error, want.error);
  EXPECT_EQ(got.period_bits, want.period_bits);
  EXPECT_EQ(got.r, want.r);
  return want.error.empty();
}

struct Shape {
  std::size_t nodes;
  bool integer_delays;  ///< delays in {0, ..., 4}: many equal D values
  bool ring;            ///< a ring through every node (strongly connected)
  bool live;            ///< repair zero-token cycles
};

/// Random extra edges on top of the optional ring: self loops come from
/// drawing u == v, parallel edges from repeating the previous pair.
Rrg random_classical(Rng& rng, const Shape& shape) {
  Rrg rrg;
  for (std::size_t i = 0; i < shape.nodes; ++i) {
    rrg.add_node("", shape.integer_delays
                         ? static_cast<double>(rng.uniform_int(0, 4))
                         : rng.uniform_open_closed(0.0, 10.0));
  }
  const auto node = [&] {
    return static_cast<NodeId>(
        rng.uniform_int(0, static_cast<std::int64_t>(shape.nodes) - 1));
  };
  const auto tokens = [&] { return static_cast<int>(rng.uniform_int(0, 2)); };
  if (shape.ring) {
    for (std::size_t i = 0; i < shape.nodes; ++i) {
      const int t = tokens();
      rrg.add_edge(static_cast<NodeId>(i),
                   static_cast<NodeId>((i + 1) % shape.nodes), t, t);
    }
  }
  const std::int64_t extra =
      rng.uniform_int(0, 2 * static_cast<std::int64_t>(shape.nodes) + 1);
  NodeId u = node(), v = node();
  for (std::int64_t k = 0; k < extra; ++k) {
    if (!rng.bernoulli(0.25)) {
      u = node();
      v = node();
    }
    const int t = tokens();
    rrg.add_edge(u, v, t, t);
  }
  std::vector<EdgeId> dead;
  while (shape.live && !rrg.is_live(&dead)) {
    rrg.set_tokens(dead[0], 1);
    rrg.set_buffers(dead[0], 1);
  }
  return rrg;
}

TEST(LeisersonSaxeDiff, RandomClassicalCircuits) {
  int retimed = 0;
  for (int seed = 0; seed < 320; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(static_cast<std::uint64_t>(seed) * 7919 + 13);
    const Shape shape{static_cast<std::size_t>(rng.uniform_int(3, 12)),
                      seed % 2 == 0, seed % 4 < 3, true};
    retimed += expect_same(random_classical(rng, shape));
  }
  EXPECT_EQ(retimed, 320);
}

TEST(LeisersonSaxeDiff, OneAndTwoNodeCircuits) {
  int retimed = 0;
  for (int seed = 0; seed < 96; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(static_cast<std::uint64_t>(seed) * 104729 + 5);
    const Shape shape{static_cast<std::size_t>(1 + seed % 2), seed % 3 != 0,
                      seed % 4 < 2, true};
    retimed += expect_same(random_classical(rng, shape));
  }
  EXPECT_EQ(retimed, 96);
}

/// Zero-token cycles are left in place. The reference does not check
/// liveness and returns a period no retiming achieves; the algorithm
/// rejects every such circuit, naming the dead cycle, and still matches
/// the reference on the live ones.
TEST(LeisersonSaxeDiff, NonLiveCircuits) {
  int non_live = 0;
  for (int seed = 0; seed < 64; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(static_cast<std::uint64_t>(seed) * 15485863 + 101);
    const Shape shape{static_cast<std::size_t>(rng.uniform_int(1, 8)),
                      seed % 2 == 0, true, false};
    const Rrg rrg = random_classical(rng, shape);
    std::vector<EdgeId> dead;
    if (rrg.is_live(&dead)) {
      expect_same(rrg);
      continue;
    }
    ++non_live;
    EXPECT_THROW(min_period_retiming(rrg), InvalidInputError);
    std::string edges;
    for (const EdgeId e : dead) {
      edges += ' ';
      edges += std::to_string(e);
    }
    EXPECT_EQ(run(min_period_retiming, rrg).error,
              "requirement failed: min-period retiming requires a live "
              "circuit (zero-token cycle through edges" + edges + ")");
  }
  EXPECT_GE(non_live, 16);
}

TEST(LeisersonSaxeDiff, RejectsTheSameInputs) {
  Rrg anti;
  const NodeId a = anti.add_node("a", 1.0);
  const NodeId b = anti.add_node("b", 2.0);
  anti.add_edge(a, b, 1, 1);
  anti.add_edge(b, a, -1, 0);
  EXPECT_FALSE(expect_same(anti));
  EXPECT_FALSE(expect_same(Rrg()));
}

}  // namespace
}  // namespace elrr::retime
