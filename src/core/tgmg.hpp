#pragma once

/// \file tgmg.hpp
/// Timed Guarded Marked Graphs (Definitions 3.1-3.3 of the paper) and the
/// two model-construction procedures:
///  * Procedure 1 maps an RRG to a TGMG: edge latencies (buffer counts)
///    become transition delays, tokens become markings; multi-input nodes
///    get one auxiliary delay node per input edge.
///  * Procedure 2 refines early-evaluation nodes with a unit-delay
///    self-loop structure so that the LP throughput bound (eq. (4)) is
///    tight w.r.t. single-firing-per-cycle semantics (Lemma 3.1).
///
/// Both procedures record *provenance*: which RRG edge each node delay
/// (a buffer count) and each marking (a token count) copies, or none for
/// the constants they add. The structure they build depends only on the
/// RRG's structure, so one refined TGMG serves every configuration of an
/// RRG: core/evaluator.hpp builds it once and rewrites only the copied
/// values per configuration, with the same node and edge ids.
///
/// The throughput bound of eq. (4)/(11) has two implementations that must
/// agree: `tgmg_policy_bound`, which production uses (policy iteration
/// on the min-ratio decision process the LP is dual to, no LP), and
/// `tgmg_throughput_bound`, the LP itself, kept as the test oracle and
/// for export.

#include <string>
#include <vector>

#include "core/rrg.hpp"
#include "graph/digraph.hpp"
#include "lp/model.hpp"

namespace elrr {

/// Timed guarded marked graph. Guards are implicit in the node kind: a
/// simple node's only guard is the full input set; an early node has one
/// singleton guard per input edge, selected with probability gamma.
class Tgmg {
 public:
  /// `delay_source`: the RRG edge whose buffer count `delay` copies.
  NodeId add_node(std::string name, double delay,
                  NodeKind kind = NodeKind::kSimple,
                  EdgeId delay_source = graph::kNoEdge);
  /// `marking_source`: the RRG edge whose token count `tokens` copies.
  EdgeId add_edge(NodeId u, NodeId v, int tokens, double gamma = 1.0,
                  EdgeId marking_source = graph::kNoEdge);

  const Digraph& graph() const { return g_; }
  std::size_t num_nodes() const { return g_.num_nodes(); }
  std::size_t num_edges() const { return g_.num_edges(); }

  const std::string& name(NodeId n) const { return names_[n]; }
  double delay(NodeId n) const { return delays_[n]; }
  NodeKind kind(NodeId n) const { return kinds_[n]; }
  bool is_early(NodeId n) const { return kinds_[n] == NodeKind::kEarly; }
  int tokens(EdgeId e) const { return tokens_[e]; }
  double gamma(EdgeId e) const { return gammas_[e]; }
  /// Provenance: the RRG edge a delay or marking copies, or kNoEdge.
  EdgeId delay_source(NodeId n) const { return delay_sources_[n]; }
  EdgeId marking_source(EdgeId e) const { return marking_sources_[e]; }

  /// Kind/probability sanity plus liveness of the marking.
  void validate() const;

  std::string to_dot() const;

 private:
  Digraph g_;
  std::vector<std::string> names_;
  std::vector<double> delays_;
  std::vector<NodeKind> kinds_;
  std::vector<int> tokens_;
  std::vector<double> gammas_;
  std::vector<EdgeId> delay_sources_;
  std::vector<EdgeId> marking_sources_;
};

/// Procedure 1: TGMG model of an RRG.
///  - single-input node n with input edge e: delta(n) = R(e), m0(e) = R0(e);
///  - multi-input node n: one auxiliary node per input edge e = (u, n) with
///    delta = R(e), m0(u, aux) = 0, m0(aux, n) = R0(e); delta(n) = 0.
Tgmg procedure1(const Rrg& rrg);

/// Procedure 2: refinement for early-evaluation nodes (self-loop through a
/// unit-delay node s with one token; every input edge split by a zero-delay
/// synchronization node fed from s).
Tgmg procedure2(const Tgmg& in);

/// procedure2(procedure1(rrg)).
Tgmg refined_tgmg(const Rrg& rrg);

/// Throughput upper bound by LP (4) (equivalently (11)):
///   max phi  s.t.  delta(n) phi <= mhat(e)            (simple n, e in *n)
///                  delta(n) phi <= sum gamma(e) mhat(e)   (early n)
///                  mhat(e) = m0(e) + sigma(u) - sigma(v)
/// solved on the dense tableau. The test oracle of `tgmg_policy_bound`;
/// no production path calls it.
struct ThroughputBound {
  bool bounded = false;   ///< false when the LP is unbounded (no cycles)
  double theta = 0.0;     ///< the bound (only when bounded)
};
ThroughputBound tgmg_throughput_bound(const Tgmg& tgmg);

/// The same bound without an LP, from the dual: a decision process that
/// walks the TGMG against its edges. A simple node picks one input edge;
/// an early node n takes input e with probability gamma(e); each step
/// earns the edge's tokens and costs the node's delay. theta is the
/// minimum, over policies and their recurrent classes of positive delay,
/// of expected tokens over expected delay (graph::min_ratio_mdp).
/// Zero-delay classes (Procedure 2's k nodes, zero-buffer auxiliary
/// nodes) bound nothing; `bounded` is false exactly when the LP is
/// unbounded.
ThroughputBound tgmg_policy_bound(const Tgmg& tgmg);

/// The LP of eq. (4) as a model (phi is column `phi_col`; maximization).
/// Exposed for export/interop (e.g. `elrr export --format mps` re-solves
/// the bound with an external solver).
struct ThroughputLp {
  lp::Model model;
  int phi_col = 0;
};
ThroughputLp build_throughput_lp(const Tgmg& tgmg);

/// The paper's Theta_lp(RC): the bound of LP (11) for an RRG, computed
/// without an LP. An RRG with no early and no telescopic node gets the
/// exact minimum cycle ratio of tokens over buffers (the quotient of the
/// critical cycle's integer sums); any other gets `tgmg_policy_bound` of
/// its refined TGMG. Throws InvalidInputError when the RRG is invalid or
/// the bound unbounded (no cycle). Computed by a one-off
/// ConfigEvaluator (core/evaluator.hpp).
double throughput_upper_bound(const Rrg& rrg);

}  // namespace elrr
