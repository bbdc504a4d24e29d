#pragma once

/// \file digraph.hpp
/// Directed multigraph used as the structural backbone of RRGs, TGMGs,
/// control netlists and gate-level circuits. Nodes and edges are dense
/// 32-bit indices; payloads live in parallel arrays owned by the client
/// (e.g. elrr::Rrg keeps delay/token vectors indexed by NodeId/EdgeId).

#include <algorithm>
#include <bit>
#include <cstdint>
#include <span>
#include <vector>

#include "support/error.hpp"

namespace elrr::graph {

using NodeId = std::uint32_t;
using EdgeId = std::uint32_t;

inline constexpr NodeId kNoNode = static_cast<NodeId>(-1);
inline constexpr EdgeId kNoEdge = static_cast<EdgeId>(-1);

/// Directed multigraph (parallel edges and self-loops allowed).
class Digraph {
 public:
  Digraph() = default;
  explicit Digraph(std::size_t num_nodes) { add_nodes(num_nodes); }

  NodeId add_node() {
    add_nodes(1);
    return static_cast<NodeId>(num_nodes() - 1);
  }

  void add_nodes(std::size_t count) {
    out_.add_nodes(count);
    in_.add_nodes(count);
  }

  EdgeId add_edge(NodeId src, NodeId dst) {
    ELRR_REQUIRE(src < num_nodes() && dst < num_nodes(),
                 "edge endpoints out of range: ", src, " -> ", dst);
    const EdgeId e = static_cast<EdgeId>(edges_.size());
    edges_.push_back({src, dst});
    out_.append(src, e);
    in_.append(dst, e);
    return e;
  }

  std::size_t num_nodes() const { return out_.num_nodes(); }
  std::size_t num_edges() const { return edges_.size(); }

  NodeId src(EdgeId e) const { return edges_[e].src; }
  NodeId dst(EdgeId e) const { return edges_[e].dst; }

  /// A node's edges in insertion order. The view is invalidated by the
  /// next add_node/add_nodes/add_edge on this graph.
  std::span<const EdgeId> out_edges(NodeId n) const { return out_.list(n); }
  std::span<const EdgeId> in_edges(NodeId n) const { return in_.list(n); }

  std::size_t out_degree(NodeId n) const { return out_.degree(n); }
  std::size_t in_degree(NodeId n) const { return in_.degree(n); }

 private:
  struct Edge {
    NodeId src;
    NodeId dst;
  };

  /// Every node's edge list, packed into one pool: a list of k edges
  /// owns a run of bit_ceil(k) pool entries, moved to the pool's end when
  /// it outgrows the run (the old run stays unused). Two allocations per
  /// direction instead of one per node, which makes building and copying
  /// a graph cheap (an early-evaluation throughput bound builds two).
  class Adjacency {
   public:
    std::size_t num_nodes() const { return lists_.size(); }
    void add_nodes(std::size_t count) {
      lists_.resize(lists_.size() + count);
    }
    std::size_t degree(NodeId n) const { return lists_[n].size; }
    std::span<const EdgeId> list(NodeId n) const {
      return {pool_.data() + lists_[n].begin, lists_[n].size};
    }
    void append(NodeId n, EdgeId e) {
      List& l = lists_[n];
      if (l.size == 0 || std::has_single_bit(l.size)) {  // the run is full
        const std::size_t end = l.begin + l.size;
        if (l.size == 0 || end != pool_.size()) {
          const std::uint32_t begin = static_cast<std::uint32_t>(pool_.size());
          pool_.resize(pool_.size() + std::max<std::size_t>(1, 2 * l.size));
          std::copy_n(pool_.begin() + l.begin, l.size, pool_.begin() + begin);
          l.begin = begin;
        } else {
          pool_.resize(end + l.size);  // the last run grows in place
        }
      }
      pool_[l.begin + l.size++] = e;
    }

   private:
    struct List {
      std::uint32_t begin = 0;
      std::uint32_t size = 0;
    };
    std::vector<List> lists_;
    std::vector<EdgeId> pool_;
  };

  std::vector<Edge> edges_;
  Adjacency out_;
  Adjacency in_;
};

}  // namespace elrr::graph
