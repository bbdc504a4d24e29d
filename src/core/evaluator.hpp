#pragma once

/// \file evaluator.hpp
/// Legality and Table-1 metrics of many configurations of one RRG, with
/// no copy of the RRG, no graph build and no string per configuration.
/// `validate_config`, `evaluate_config`, `evaluate_rrg` and
/// `throughput_upper_bound` are one-off uses of these classes; the
/// heuristic (heur/heuristic.hpp) keeps one for its whole search.
///
/// Legality (ConfigChecker) is O(V + E) per configuration:
///  * *retiming reachability*: a potential r is propagated along a
///    spanning forest of the undirected structure, built once, and every
///    edge must satisfy tokens'(e) - tokens(e) = r(dst) - r(src). The
///    verdict is exactly that of Bellman-Ford on the doubled difference
///    system (the token change is a potential difference or it is not);
///  * *liveness*: a live configuration has no directed cycle of token
///    sum <= 0, i.e. (as graph::has_nonpositive_cycle scales them) no
///    negative cycle of weights (n+1) tokens'(e) - 1. One Bellman-Ford
///    potential pi of the base RRG's scaled tokens is computed once;
///    retiming preserves cycle token sums, and pi + (n+1) r is then a
///    feasible potential for the retimed configuration's scaled tokens,
///    checked edge by edge. A base that is not live has no live
///    retiming. A configuration that is not a retiming of the base, or
///    whose certificate fails, is decided by Bellman-Ford.
///
/// Evaluation (ConfigEvaluator) reuses one decision process per RRG:
/// the RRG itself under late evaluation, its refined TGMG (Procedures 1
/// and 2) otherwise. The procedures' provenance says which per-edge cost
/// and time copies which RRG token or buffer count; a configuration
/// rewrites only those, so graph::min_ratio_mdp sees the same graph, the
/// same edge ids and the same inputs as on a freshly refined TGMG, and
/// returns the same bits.
///
/// Neither class may be shared between threads: each keeps scratch
/// arrays. Each holds its own copy of the RRG's marking, so the RRG it
/// was built from may change afterwards.

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/analysis.hpp"
#include "core/rrg.hpp"
#include "graph/digraph.hpp"
#include "graph/topo.hpp"

namespace elrr {

/// Retiming-and-recycling legality of configurations of one RRG.
class ConfigChecker {
 public:
  explicit ConfigChecker(const Rrg& rrg);

  const Rrg& rrg() const { return rrg_; }

  /// validate_config's verdict and message: R' >= 0 and R' >= R0' on
  /// every edge (first offending edge reported), then reachability by
  /// retiming, then liveness.
  bool check(const RrConfig& config, std::string* why = nullptr) const;

  /// Throws InvalidInputError unless apply_config(rrg, config) succeeds:
  /// the marking bounds, the structure and liveness, but not
  /// reachability. The message is Rrg::validate's.
  void require_valid(const RrConfig& config) const;

 private:
  /// One step of the spanning forest: `node` gets its potential from the
  /// other end of `edge`, or 0 when `edge` is kNoEdge (a root).
  struct Link {
    NodeId node;
    EdgeId edge;
  };

  bool within_bounds(const RrConfig& config, std::string* why) const;
  /// Fills r_ and reports whether the token change is r_'s difference.
  bool is_retiming(const RrConfig& config) const;
  /// Liveness; `retimed` says r_ holds the configuration's retiming.
  bool is_live(const RrConfig& config, bool retimed) const;

  Rrg rrg_;
  std::vector<Link> forest_;
  bool base_live_ = false;
  std::int64_t scale_ = 1;         ///< n + 1
  std::vector<std::int64_t> pi_;   ///< base potential (when base_live_)
  mutable std::vector<std::int64_t> r_;
};

/// tau, theta_lp and xi_lp of configurations of one RRG (RcEvaluation).
class ConfigEvaluator {
 public:
  explicit ConfigEvaluator(const Rrg& rrg);

  bool check(const RrConfig& config, std::string* why = nullptr) const {
    return checker_.check(config, why);
  }
  void require_valid(const RrConfig& config) const {
    checker_.require_valid(config);
  }

  /// The metrics of a configuration that passed check() or
  /// require_valid(); nothing is re-checked.
  RcEvaluation evaluate(const RrConfig& config) const;

  /// Cycle time over the configuration's zero-buffer edges.
  CycleTimeResult cycle_time(const RrConfig& config) const;

  /// Theta_lp (throughput_upper_bound's bits). Throws InvalidInputError
  /// when unbounded.
  double theta_lp(const RrConfig& config) const;

 private:
  /// Longest path over the configuration's zero-buffer edges into
  /// path_: its sink, or std::nullopt for a zero-buffer cycle.
  std::optional<NodeId> longest_path(const RrConfig& config) const;

  ConfigChecker checker_;
  std::vector<double> delays_;  ///< RRG node delays (cycle time)
  mutable graph::LongestPathScratch path_;
  /// The decision process: graph, per-edge probability, random nodes.
  graph::Digraph g_;
  std::vector<double> prob_;
  std::vector<std::uint8_t> random_;
  /// {process edge, RRG edge}: cost copies the token count, time the
  /// buffer count of the RRG edge. Every other entry is a constant.
  std::vector<std::pair<EdgeId, EdgeId>> cost_copies_;
  std::vector<std::pair<EdgeId, EdgeId>> time_copies_;
  mutable std::vector<double> cost_;
  mutable std::vector<double> time_;
};

}  // namespace elrr
