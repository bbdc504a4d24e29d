#include "graph/digraph.hpp"

#include <gtest/gtest.h>

#include <random>
#include <vector>

namespace elrr::graph {
namespace {

TEST(Digraph, Empty) {
  Digraph g;
  EXPECT_EQ(g.num_nodes(), 0u);
  EXPECT_EQ(g.num_edges(), 0u);
}

TEST(Digraph, AddNodesAndEdges) {
  Digraph g(3);
  const EdgeId e0 = g.add_edge(0, 1);
  const EdgeId e1 = g.add_edge(1, 2);
  const EdgeId e2 = g.add_edge(2, 0);
  EXPECT_EQ(g.num_nodes(), 3u);
  EXPECT_EQ(g.num_edges(), 3u);
  EXPECT_EQ(g.src(e0), 0u);
  EXPECT_EQ(g.dst(e0), 1u);
  EXPECT_EQ(g.out_edges(1).size(), 1u);
  EXPECT_EQ(g.in_edges(0).size(), 1u);
  EXPECT_EQ(g.out_edges(2)[0], e2);
  EXPECT_EQ(g.in_edges(2)[0], e1);
}

TEST(Digraph, ParallelEdgesAndSelfLoops) {
  Digraph g(2);
  g.add_edge(0, 1);
  g.add_edge(0, 1);  // parallel edge: RRGs are multigraphs
  g.add_edge(1, 1);  // self loop
  EXPECT_EQ(g.num_edges(), 3u);
  EXPECT_EQ(g.out_degree(0), 2u);
  EXPECT_EQ(g.in_degree(1), 3u);
  EXPECT_EQ(g.out_degree(1), 1u);
}

TEST(Digraph, RejectsOutOfRangeEndpoints) {
  Digraph g(2);
  EXPECT_THROW(g.add_edge(0, 2), elrr::Error);
  EXPECT_THROW(g.add_edge(5, 0), elrr::Error);
}

/// Edge lists share one pool: growing lists move, the last one grows in
/// place. Checked against plain per-node vectors over random insertions,
/// with nodes added midway, and on a copy that keeps growing.
TEST(Digraph, PooledEdgeListsMatchPerNodeVectors) {
  std::mt19937 rng(7);
  Digraph g(5);
  std::vector<std::vector<EdgeId>> out(5), in(5);
  const auto check = [&] {
    ASSERT_EQ(g.num_nodes(), out.size());
    for (NodeId n = 0; n < g.num_nodes(); ++n) {
      const std::span<const EdgeId> o = g.out_edges(n);
      const std::span<const EdgeId> i = g.in_edges(n);
      EXPECT_EQ(std::vector<EdgeId>(o.begin(), o.end()), out[n]) << n;
      EXPECT_EQ(std::vector<EdgeId>(i.begin(), i.end()), in[n]) << n;
      EXPECT_EQ(g.out_degree(n), out[n].size());
      EXPECT_EQ(g.in_degree(n), in[n].size());
    }
  };
  const auto add_edges = [&](int count) {
    for (int k = 0; k < count; ++k) {
      // Skewed endpoints: a few nodes collect long lists.
      std::uniform_int_distribution<NodeId> pick(0, g.num_nodes() - 1);
      const NodeId u = k % 3 == 0 ? 0 : pick(rng);
      const NodeId v = k % 5 == 0 ? g.num_nodes() - 1 : pick(rng);
      const EdgeId e = g.add_edge(u, v);
      out[u].push_back(e);
      in[v].push_back(e);
      if (k == count / 2) {
        g.add_nodes(3);
        out.resize(out.size() + 3);
        in.resize(in.size() + 3);
      }
    }
  };
  add_edges(200);
  check();
  const Digraph before = g;
  add_edges(200);
  check();
  g = before;  // the copy is independent of what was added since
  out.assign(out.size(), {});
  in.assign(in.size(), {});
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    out[g.src(e)].push_back(e);
    in[g.dst(e)].push_back(e);
  }
  out.resize(g.num_nodes());
  in.resize(g.num_nodes());
  check();
  add_edges(100);
  check();
}

}  // namespace
}  // namespace elrr::graph
