#include "graph/topo.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <vector>

namespace elrr::graph {
namespace {

const EdgeFilter kAll = [](EdgeId) { return true; };

TEST(Topo, SimpleChain) {
  Digraph g(3);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  const auto order = topological_order(g, kAll);
  ASSERT_TRUE(order.has_value());
  auto pos = [&](NodeId v) {
    return std::find(order->begin(), order->end(), v) - order->begin();
  };
  EXPECT_LT(pos(0), pos(1));
  EXPECT_LT(pos(1), pos(2));
}

TEST(Topo, CycleDetected) {
  Digraph g(2);
  g.add_edge(0, 1);
  g.add_edge(1, 0);
  EXPECT_FALSE(topological_order(g, kAll).has_value());
}

TEST(Topo, FilterCutsCycle) {
  Digraph g(2);
  g.add_edge(0, 1);
  const EdgeId back = g.add_edge(1, 0);
  const auto order =
      topological_order(g, [&](EdgeId e) { return e != back; });
  EXPECT_TRUE(order.has_value());
}

TEST(LongestPath, MatchesFigure1aCriticalPath) {
  // Figure 1(a) of the paper: F1,F2,F3 with unit delay, f and m with zero
  // delay; the edges m->F1 and the top f->m edge carry EBs (filtered out
  // of the combinational subgraph); cycle time = 3 on path F1,F2,F3,f,m.
  Digraph g(5);  // 0=m 1=F1 2=F2 3=F3 4=f
  const EdgeId m_f1 = g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(2, 3);
  g.add_edge(3, 4);
  const EdgeId top = g.add_edge(4, 0);
  g.add_edge(4, 0);  // bottom, combinational
  const std::vector<double> delay{0.0, 1.0, 1.0, 1.0, 0.0};
  const auto res = longest_path(
      g, delay, [&](EdgeId e) { return e != m_f1 && e != top; });
  ASSERT_TRUE(res.is_dag);
  EXPECT_DOUBLE_EQ(res.max_arrival, 3.0);
  // Critical path visits F1, F2, F3 and ends at f or m (both zero delay).
  ASSERT_GE(res.critical_path.size(), 3u);
  EXPECT_EQ(res.critical_path[0], 1u);
}

TEST(LongestPath, IsolatedNodeCountsItsOwnDelay) {
  // Definition 2.2: a single node is a combinational path.
  Digraph g(2);
  const std::vector<double> delay{7.0, 3.0};
  const auto res = longest_path(g, delay, kAll);
  ASSERT_TRUE(res.is_dag);
  EXPECT_DOUBLE_EQ(res.max_arrival, 7.0);
  EXPECT_EQ(res.critical_path, (std::vector<NodeId>{0}));
}

TEST(LongestPath, CyclicSubgraphFlagged) {
  Digraph g(2);
  g.add_edge(0, 1);
  g.add_edge(1, 0);
  const auto res = longest_path(g, {1.0, 1.0}, kAll);
  EXPECT_FALSE(res.is_dag);
}

TEST(LongestPath, MultiEdgeTakesMax) {
  Digraph g(3);
  g.add_edge(0, 2);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  const auto res = longest_path(g, {1.0, 5.0, 1.0}, kAll);
  ASSERT_TRUE(res.is_dag);
  EXPECT_DOUBLE_EQ(res.max_arrival, 7.0);  // 0 -> 1 -> 2
  EXPECT_EQ(res.critical_path, (std::vector<NodeId>{0, 1, 2}));
}

TEST(LongestPath, TiesGoToTheFirstInEdgeAndTheFirstSink) {
  // Two equal diamonds: node 3 reaches arrival 3 through 1 and through
  // 2, and so does node 4. The critical path takes the first in-edge of
  // maximum arrival and ends at the first node of maximum arrival.
  Digraph g(5);
  g.add_edge(0, 1);
  g.add_edge(0, 2);
  g.add_edge(2, 3);
  g.add_edge(1, 3);
  g.add_edge(1, 4);
  g.add_edge(2, 4);
  const auto res = longest_path(g, {1.0, 1.0, 1.0, 1.0, 1.0}, kAll);
  ASSERT_TRUE(res.is_dag);
  EXPECT_DOUBLE_EQ(res.max_arrival, 3.0);
  EXPECT_EQ(res.critical_path, (std::vector<NodeId>{0, 2, 3}));
}

TEST(LongestPath, ReusedScratchGivesTheSameBits) {
  // One scratch across graphs of different sizes and filters: every
  // call returns what a fresh longest_path returns.
  LongestPathScratch scratch;
  for (std::size_t n = 1; n <= 6; ++n) {
    Digraph g(n);
    std::vector<double> delay;
    for (NodeId v = 0; v < n; ++v) {
      delay.push_back(0.5 + static_cast<double>((v * 7) % 3));
      for (NodeId w = v + 1; w < n; ++w) g.add_edge(v, w);
    }
    if (n > 1) g.add_edge(static_cast<NodeId>(n - 1), 0);
    for (const bool acyclic : {true, false}) {
      const auto keep = [&](EdgeId e) { return !acyclic || g.dst(e) != 0; };
      const auto want = longest_path(g, delay, keep);
      const std::optional<NodeId> sink = longest_path(g, delay, keep, scratch);
      ASSERT_EQ(sink.has_value(), want.is_dag);
      if (!sink) continue;
      EXPECT_EQ(scratch.arrival, want.arrival);
      EXPECT_EQ(scratch.arrival[*sink], want.max_arrival);
      EXPECT_EQ(critical_path(scratch, *sink), want.critical_path);
    }
  }
}

}  // namespace
}  // namespace elrr::graph
