#pragma once

/// \file rrg.hpp
/// The Retiming & Recycling Graph (Definition 2.1 of the paper):
/// a multigraph whose nodes are combinational blocks (simple or
/// early-evaluation) with delays beta, and whose edges carry
///  * R0 tokens (negative = anti-tokens),
///  * R >= max(R0, 0) elastic buffers (EBs),
///  * gamma, the branch-selection probability when the target node
///    evaluates early.
///
/// An Rrg instance *is* one configuration; RrConfig is a token/buffer
/// overlay (an "RC" in the paper) produced by the optimizer, and
/// `apply_config` materializes it.

#include <memory>
#include <string>
#include <vector>

#include "graph/digraph.hpp"

namespace elrr {

using graph::Digraph;
using graph::EdgeId;
using graph::NodeId;

enum class NodeKind { kSimple, kEarly };

/// Variable-latency ("telescopic") behaviour of a node -- the extension
/// the paper lists as future work (Section 6). A telescopic unit meets
/// the clock on its *fast* path with probability `fast_prob`; otherwise
/// the operation needs `slow_extra` additional cycles during which the
/// unit is busy and its outputs are withheld. `fast_prob == 1` (the
/// default) is an ordinary fixed-latency node.
struct Telescopic {
  double fast_prob = 1.0;
  int slow_extra = 0;

  bool enabled() const { return fast_prob < 1.0 && slow_extra > 0; }
  /// Expected extra service latency per firing: (1 - p) * slow_extra.
  double expected_extra() const {
    return enabled() ? (1.0 - fast_prob) * slow_extra : 0.0;
  }

  bool operator==(const Telescopic&) const = default;
};

/// Retiming & Recycling Graph. Copies share everything but the marking
/// (tokens and buffers) until one of them changes it, so a copy costs
/// two edge-sized arrays: retiming and recycling touch only R0 and R.
class Rrg {
 public:
  Rrg() : s_(std::make_shared<Structure>()) {}
  // No move operations: a move copies, so no graph is left without a
  // structure.
  Rrg(const Rrg&) = default;
  Rrg& operator=(const Rrg&) = default;

  /// Adds a combinational block. `delay` is beta(n) >= 0.
  NodeId add_node(std::string name, double delay,
                  NodeKind kind = NodeKind::kSimple);

  /// Adds a channel u -> v carrying `tokens` (R0, may be negative) in
  /// `buffers` EBs (R). `gamma` is the selection probability of this input
  /// if v evaluates early (ignored otherwise).
  EdgeId add_edge(NodeId u, NodeId v, int tokens, int buffers,
                  double gamma = 1.0);

  const Digraph& graph() const { return s_->g; }
  std::size_t num_nodes() const { return s_->g.num_nodes(); }
  std::size_t num_edges() const { return s_->g.num_edges(); }

  const std::string& name(NodeId n) const { return s_->names[n]; }
  double delay(NodeId n) const { return s_->delays[n]; }
  NodeKind kind(NodeId n) const { return s_->kinds[n]; }
  bool is_early(NodeId n) const { return s_->kinds[n] == NodeKind::kEarly; }

  int tokens(EdgeId e) const { return tokens_[e]; }
  int buffers(EdgeId e) const { return buffers_[e]; }
  double gamma(EdgeId e) const { return s_->gammas[e]; }

  void set_tokens(EdgeId e, int tokens) { tokens_[e] = tokens; }
  void set_buffers(EdgeId e, int buffers) { buffers_[e] = buffers; }
  void set_gamma(EdgeId e, double gamma) { structure().gammas[e] = gamma; }
  void set_kind(NodeId n, NodeKind kind) { structure().kinds[n] = kind; }
  void set_delay(NodeId n, double delay) { structure().delays[n] = delay; }

  const Telescopic& telescopic(NodeId n) const { return s_->telescopic[n]; }
  bool is_telescopic(NodeId n) const { return s_->telescopic[n].enabled(); }
  /// Marks node n as telescopic: fast with probability `fast_prob`
  /// (in (0, 1]), otherwise busy for `slow_extra` further cycles.
  void set_telescopic(NodeId n, double fast_prob, int slow_extra);
  /// True if any node is telescopic.
  bool has_telescopic() const;
  /// Expected extra service latency of node n ((1-p) * slow_extra).
  double service(NodeId n) const {
    return s_->telescopic[n].expected_extra();
  }

  /// beta_max: the largest single-node delay (the absolute lower bound on
  /// any achievable cycle time, and MIN_EFF_CYC's starting tau).
  double max_delay() const;

  /// Sum of all combinational delays; used as the big-M constant tau* in
  /// the path constraints (Lemma 2.1).
  double total_delay() const;

  /// Checks Definition 2.1: non-negative finite delays; R >= 0 and
  /// R >= R0 on every edge; early nodes have >= 2 inputs and input
  /// probabilities in (0, 1] summing to 1; liveness (every directed cycle
  /// has positive token sum). Throws InvalidInputError with a message
  /// naming the offending entity.
  void validate() const;

  /// The conditions of validate() that do not depend on the marking:
  /// early nodes' inputs and their probabilities.
  void validate_structure() const;

  /// Liveness alone: no directed cycle with token sum <= 0.
  bool is_live(std::vector<EdgeId>* dead_cycle = nullptr) const;

  /// Graphviz rendering (early nodes as trapezia; EBs/tokens on edges).
  std::string to_dot() const;

  /// True while another graph shares this one's structure (everything
  /// but tokens and buffers).
  bool shares_structure() const { return s_.use_count() > 1; }

 private:
  struct Structure {
    Digraph g;
    std::vector<std::string> names;
    std::vector<double> delays;
    std::vector<NodeKind> kinds;
    std::vector<Telescopic> telescopic;
    std::vector<double> gammas;
  };

  /// The structure, writable: copied first when another graph shares it.
  Structure& structure();

  std::shared_ptr<Structure> s_;  ///< never null
  std::vector<int> tokens_;
  std::vector<int> buffers_;
};

/// A retiming & recycling configuration (Definition 2.7): per-edge token
/// and buffer counts for some base RRG.
struct RrConfig {
  std::vector<int> tokens;   ///< R0'
  std::vector<int> buffers;  ///< R'

  bool operator==(const RrConfig& other) const = default;
};

/// The identity configuration of an RRG.
RrConfig initial_config(const Rrg& rrg);

/// Copy of `rrg` with the configuration's tokens/buffers installed.
/// Validates the result.
Rrg apply_config(const Rrg& rrg, const RrConfig& config);

/// Applies a retiming vector r (Definition 2.6):
/// R0'(e) = R0(e) + r(v) - r(u); buffers are set to max(R0'(e), R(e), 0)
/// when `grow_buffers` (never drops below the original count), or to
/// max(R0'(e), 0) otherwise (minimal legal buffering).
RrConfig apply_retiming(const Rrg& rrg, const std::vector<int>& r,
                        bool grow_buffers = false);

/// Checks an RC against its base RRG without materializing it:
/// R' >= 0, R' >= R0', cycle token sums preserved & positive, i.e. the RC
/// is reachable by retiming + recycling. Returns false and fills `why`.
/// O(V + E) beyond one Bellman-Ford pass over the base RRG: a one-off
/// ConfigChecker (core/evaluator.hpp), whose liveness certificate is that
/// pass's potential, shifted by the configuration's retiming.
bool validate_config(const Rrg& rrg, const RrConfig& config,
                     std::string* why = nullptr);

/// Cycle time (Definition 2.3): maximum delay over combinational paths
/// (paths through edges with R = 0).
struct CycleTimeResult {
  bool valid = false;  ///< false if a zero-buffer cycle exists
  double tau = 0.0;
  std::vector<NodeId> critical_path;
};
CycleTimeResult cycle_time(const Rrg& rrg);

/// Effective cycle time xi = tau / theta (Definition 2.5).
double effective_cycle_time(double tau, double theta);

/// Hard ceiling on the achievable throughput imposed by telescopic nodes:
/// a unit whose expected busy period is 1 + (1-p) * slow_extra cycles per
/// firing cannot fire more often than once per that period. Returns
/// min(1, min_n 1 / (1 + service(n))); exactly 1 when nothing is
/// telescopic.
double throughput_cap(const Rrg& rrg);

}  // namespace elrr
