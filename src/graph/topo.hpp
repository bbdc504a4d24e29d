#pragma once

/// \file topo.hpp
/// Topological ordering and DAG longest paths over *filtered* edge sets.
/// The cycle-time computation of an RRG is a longest path over the
/// combinational subgraph (edges carrying zero elastic buffers), with node
/// weights equal to combinational delays.

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "graph/digraph.hpp"
#include "support/error.hpp"

namespace elrr::graph {

/// Predicate selecting the subgraph's edges.
using EdgeFilter = std::function<bool(EdgeId)>;

/// Kahn topological order over the filtered subgraph.
/// Returns std::nullopt if the subgraph contains a directed cycle.
std::optional<std::vector<NodeId>> topological_order(const Digraph& g,
                                                     const EdgeFilter& keep);

struct LongestPathResult {
  bool is_dag = false;          ///< false if the filtered subgraph is cyclic
  double max_arrival = 0.0;     ///< maximum path weight (cycle time)
  std::vector<double> arrival;  ///< per-node arrival times
  std::vector<NodeId> critical_path;  ///< nodes of one maximum-weight path
};

/// Longest (node-weighted) path over the filtered subgraph.
/// arrival(v) = weight(v) + max(0, max over kept edges (u,v) of arrival(u)),
/// so isolated nodes contribute their own weight — matching Definition 2.2
/// of the paper, where a single node is a combinational path.
LongestPathResult longest_path(const Digraph& g,
                               const std::vector<double>& node_weight,
                               const EdgeFilter& keep);

/// The arrays of one longest-path computation. A caller that keeps one
/// across calls allocates nothing once it has grown to the graph's size.
struct LongestPathScratch {
  std::vector<std::uint32_t> pending;  ///< kept in-edges not yet settled
  std::vector<NodeId> ready;           ///< settled, out-edges not yet seen
  std::vector<double> arrival;         ///< per-node arrival times
  std::vector<NodeId> pred;            ///< critical in-neighbour or kNoNode
};

/// longest_path into `s`, with `keep` any predicate on EdgeId (a lambda
/// is called directly, not through std::function). Returns the sink of
/// the critical path, the first node of maximum arrival (kNoNode for an
/// empty graph), or std::nullopt if the filtered subgraph is cyclic. The
/// bits of every arrival and of the critical path are longest_path's.
template <typename Keep>
std::optional<NodeId> longest_path(const Digraph& g,
                                   const std::vector<double>& node_weight,
                                   const Keep& keep, LongestPathScratch& s) {
  ELRR_REQUIRE(node_weight.size() == g.num_nodes(),
               "node weight vector size mismatch");
  const std::size_t n = g.num_nodes();
  s.pending.assign(n, 0);
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    if (keep(e)) ++s.pending[g.dst(e)];
  }
  s.ready.clear();
  for (NodeId v = 0; v < n; ++v) {
    if (s.pending[v] == 0) s.ready.push_back(v);
  }
  s.arrival.assign(n, 0.0);
  s.pred.assign(n, kNoNode);
  // Kahn's order: every kept in-neighbour of a popped node is settled.
  std::size_t settled = 0;
  while (!s.ready.empty()) {
    const NodeId v = s.ready.back();
    s.ready.pop_back();
    ++settled;
    double best_in = 0.0;
    for (EdgeId e : g.in_edges(v)) {
      if (!keep(e)) continue;
      const NodeId u = g.src(e);
      if (s.arrival[u] > best_in) {
        best_in = s.arrival[u];
        s.pred[v] = u;
      }
    }
    s.arrival[v] = node_weight[v] + best_in;
    for (EdgeId e : g.out_edges(v)) {
      if (keep(e) && --s.pending[g.dst(e)] == 0) s.ready.push_back(g.dst(e));
    }
  }
  if (settled != n) return std::nullopt;
  NodeId sink = n > 0 ? 0 : kNoNode;
  for (NodeId v = 1; v < n; ++v) {
    if (s.arrival[v] > s.arrival[sink]) sink = v;
  }
  return sink;
}

/// The nodes of the critical path that ends at `sink`, source first.
std::vector<NodeId> critical_path(const LongestPathScratch& s, NodeId sink);

}  // namespace elrr::graph
