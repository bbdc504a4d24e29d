#pragma once

/// \file heuristic.hpp
/// MILP-free retiming & recycling heuristic -- the direction the paper's
/// conclusions point at ("there are simple and efficient heuristics for
/// solving MILP problems; exploring such heuristics is a part of the
/// future work").
///
/// The search combines three cheap ingredients, none of which needs
/// branch & bound:
///  1. seeds: the identity configuration and (when all token counts are
///     non-negative) the classical Leiserson-Saxe min-period retiming
///     (retime/leiserson_saxe.hpp; traced as `heur.seed`). One call
///     builds the W/D matrices and one constraint system for every
///     candidate period, then binary-searches the periods with warm,
///     incremental feasibility solves;
///  2. a greedy *recycling walk*: repeatedly insert the bubble on the
///     current critical combinational path that minimizes the resulting
///     xi_lp, recording every configuration visited (this sweeps the
///     tau axis from the seed down toward beta_max, mirroring the exact
///     Pareto walk of MIN_EFF_CYC);
///  3. a local *polish* around the best configuration: single-node +-1
///     retimings (elastic buffers move with their tokens) and single-edge
///     bubble removals, first-improvement descent.
///
/// Every candidate is scored with the same throughput bound Theta_lp of
/// LP (11) the exact optimizer uses (`throughput_upper_bound`, which
/// computes it without an LP: the cycle ratio for late evaluation,
/// policy iteration otherwise), so heuristic and MILP results are
/// directly comparable; the only thing given up is the MILP's proof of
/// optimality per Pareto point.
///
/// What a probe costs: one search keeps one ConfigEvaluator
/// (core/evaluator.hpp), built once per call. A probe looks its
/// configuration up in the search's memo first (a hit was checked when
/// first seen); a new one is checked for legality in O(V + E) (bounds,
/// retiming reachability, liveness by certificate, no Bellman-Ford) and
/// then evaluated: one longest path for tau, in the evaluator's reused
/// arrays, and one policy iteration on the reused decision process for
/// theta_lp. No RRG is copied and no graph or string is built per probe.

#include <cstddef>
#include <functional>
#include <vector>

#include "core/analysis.hpp"
#include "core/opt.hpp"
#include "core/rrg.hpp"

namespace elrr {

struct HeuristicOptions {
  /// Bubble-insertion rounds (each adds one empty EB somewhere on the
  /// then-critical path).
  int max_bubble_rounds = 128;
  /// First-improvement polish sweeps around the best configuration.
  int max_polish_rounds = 8;
  /// Skip the polish entirely (ablation knob).
  bool polish = true;
  /// Hard cap on configuration evaluations (tau plus Theta_lp each; the
  /// cost driver). The name dates from when each one solved an LP.
  int max_lp_evals = 4000;
  /// Critical-path edges probed per walk round (evenly subsampled when
  /// the path is longer). Keeps a small LP budget spread over many
  /// rounds on dense circuits instead of burning out in round one.
  int max_edges_per_round = 1 << 20;
};

struct HeuristicResult {
  /// Non-dominated configurations found, sorted by increasing tau.
  std::vector<ParetoPoint> points;
  std::size_t best_index = 0;
  int lp_evals = 0;        ///< configurations evaluated
  double seconds = 0.0;

  const ParetoPoint& best() const { return points[best_index]; }
};

/// Heuristic counterpart of `min_eff_cyc` (same requirements: strongly
/// connected, live RRG). Deterministic; never returns a configuration
/// worse than the identity.
HeuristicResult heur_eff_cyc(const Rrg& rrg,
                             const HeuristicOptions& options = {});

namespace detail {
/// Sees every configuration the search evaluates, in order, with its
/// evaluation.
using ProbeObserver =
    std::function<void(const RrConfig&, const RcEvaluation&)>;
/// heur_eff_cyc reporting its probes: how tests compare every evaluation
/// of a search with the reference bound.
HeuristicResult heur_eff_cyc(const Rrg& rrg, const HeuristicOptions& options,
                             const ProbeObserver& observe);
}  // namespace detail

}  // namespace elrr
