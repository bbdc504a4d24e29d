#include "graph/topo.hpp"

#include <algorithm>

namespace elrr::graph {

std::optional<std::vector<NodeId>> topological_order(const Digraph& g,
                                                     const EdgeFilter& keep) {
  const std::size_t n = g.num_nodes();
  std::vector<std::uint32_t> pending(n, 0);
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    if (keep(e)) ++pending[g.dst(e)];
  }
  std::vector<NodeId> order;
  order.reserve(n);
  std::vector<NodeId> ready;
  for (NodeId v = 0; v < n; ++v) {
    if (pending[v] == 0) ready.push_back(v);
  }
  while (!ready.empty()) {
    const NodeId u = ready.back();
    ready.pop_back();
    order.push_back(u);
    for (EdgeId e : g.out_edges(u)) {
      if (!keep(e)) continue;
      if (--pending[g.dst(e)] == 0) ready.push_back(g.dst(e));
    }
  }
  if (order.size() != n) return std::nullopt;  // cycle in filtered subgraph
  return order;
}

LongestPathResult longest_path(const Digraph& g,
                               const std::vector<double>& node_weight,
                               const EdgeFilter& keep) {
  LongestPathScratch s;
  const std::optional<NodeId> sink = longest_path(g, node_weight, keep, s);
  LongestPathResult result;
  if (!sink) return result;  // is_dag stays false
  result.is_dag = true;
  if (*sink != kNoNode) {
    result.max_arrival = s.arrival[*sink];
    result.critical_path = critical_path(s, *sink);
  }
  result.arrival = std::move(s.arrival);
  return result;
}

std::vector<NodeId> critical_path(const LongestPathScratch& s, NodeId sink) {
  std::vector<NodeId> path;
  for (NodeId v = sink; v != kNoNode; v = s.pred[v]) path.push_back(v);
  std::reverse(path.begin(), path.end());
  return path;
}

}  // namespace elrr::graph
