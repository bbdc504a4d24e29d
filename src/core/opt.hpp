#pragma once

/// \file opt.hpp
/// The paper's optimization method (Section 4):
///  * MIN_CYC(x): minimum-cycle-time RC with LP throughput bound >= 1/x;
///  * MAX_THR(tau): maximum-throughput RC with cycle time <= tau;
///  * MIN_EFF_CYC: the Pareto-walk heuristic combining both, returning all
///    non-dominated configurations plus the one minimizing xi_lp.
///
/// Both primitives are *linear* MILPs. The non-convex product x * R0'(e)
/// of problem (12) disappears after substituting scaled firing counts
/// (sigma-tilde absorbs x * retiming) -- src/core/README.md, note 2;
/// consequently only the buffer counts R'(e) need integrality, and the
/// integral retiming vector is recovered afterwards with Bellman-Ford.

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "core/analysis.hpp"
#include "core/rrg.hpp"
#include "lp/milp.hpp"
#include "lp/session.hpp"
#include "support/stopwatch.hpp"

namespace elrr {

struct OptOptions {
  /// Pareto step (the paper uses 0.01).
  double epsilon = 0.01;
  /// Budgets for each MILP call (the paper ran CPLEX with a 20 min cap).
  lp::MilpOptions milp;
  /// Treat every node as simple (late evaluation); used for the xi_nee
  /// baseline of Table 2.
  bool treat_all_simple = false;
  /// Run the MAX_THR polish after each MIN_CYC step of MIN_EFF_CYC (the
  /// paper's exact recipe). Disabling it keeps only the MIN_CYC results
  /// (still Pareto-filtered) and is considerably cheaper on big circuits.
  bool polish = true;
  /// Warm-start adjacent MILP solves of the Pareto walk from the
  /// previous step's optimal basis (lp::MilpSession). Off: every step
  /// is a cold solve, bit-identical to the stateless `solve_milp` path
  /// by construction. On: results are pinned to the cold path by the
  /// differential suites (tests/lp, tests/flow) -- see src/lp/README.md.
  bool milp_warm = true;
};

/// Result of one MILP primitive.
struct RcSolveResult {
  bool feasible = false;
  bool exact = false;       ///< proven optimal (false if a budget was hit)
  RrConfig config;          ///< valid RC (when feasible)
  double objective = 0.0;   ///< tau for MIN_CYC, x = 1/theta for MAX_THR
};

/// MIN_CYC(x): minimize cycle time subject to Theta_lp >= 1/x (x >= 1).
RcSolveResult min_cyc(const Rrg& rrg, double x, const OptOptions& options = {});

/// The MIN_CYC(x) MILP exactly as one Pareto-walk step solves it: the
/// sigma-tilde form (tau + integer buffer counts + scaled firing
/// variables) at throughput bound x >= 1. For export and round-trip
/// tooling (lp::to_mps / lp::from_mps): lp::solve_milp on the returned
/// model is the same MILP a walk step at this x solves.
/// `options.treat_all_simple` applies the same rewrite min_cyc would.
lp::Model build_min_cyc_model(const Rrg& rrg, double x,
                              const OptOptions& options = {});

/// MAX_THR(tau): maximize Theta_lp subject to cycle time <= tau.
RcSolveResult max_thr(const Rrg& rrg, double tau,
                      const OptOptions& options = {});

/// One stored Pareto candidate.
struct ParetoPoint {
  RrConfig config;
  double tau = 0.0;       ///< recomputed combinationally from the RC
  double theta_lp = 0.0;  ///< recomputed: throughput_upper_bound
  double xi_lp = 0.0;
  bool exact = true;
};

/// Keeps the non-dominated points of `points` (Definition 4.1), in
/// increasing cycle time: sorted by tau ascending, then theta_lp
/// descending, a point stays only when its theta_lp exceeds every kept
/// one's by more than 1e-12. Returns the index of the xi_lp-minimal kept
/// point (the first on ties; 0 when none is kept). The one Pareto filter
/// of the exact walk, the heuristic and every merge of their frontiers.
std::size_t keep_pareto_frontier(std::vector<ParetoPoint>& points);

struct MinEffCycResult {
  /// Non-dominated configurations, sorted by increasing cycle time.
  std::vector<ParetoPoint> points;
  /// Index into `points` of the xi_lp-minimal configuration (RC^lp_min).
  std::size_t best_index = 0;
  int milp_calls = 0;
  bool all_exact = true;   ///< every MILP proven optimal
  double seconds = 0.0;

  const ParetoPoint& best() const { return points[best_index]; }
  /// Indices of the k best points by xi_lp (for simulation-based
  /// reranking, Table 1/2 flow).
  std::vector<std::size_t> k_best(std::size_t k) const;
};

/// Copy of `rrg` with every node rewritten to simple (late) evaluation --
/// the xi_nee baseline of Table 2 and the rewrite behind
/// OptOptions::treat_all_simple (the walk, the flow engine and the
/// benches must all apply the identical rewrite).
Rrg as_all_simple(const Rrg& rrg);

/// The MIN_EFF_CYC heuristic (Section 4). Requires a strongly connected,
/// live RRG. Equivalent to replaying a ParetoWalk to completion.
MinEffCycResult min_eff_cyc(const Rrg& rrg, const OptOptions& options = {});

/// Resumable, step-wise MIN_EFF_CYC: the same walk min_eff_cyc runs, but
/// surrendering control after every recorded candidate so callers can act
/// on configurations *mid-walk* (the pipelined flow engine streams each
/// one into a simulation fleet while the next MILP solves).
///
///   ParetoWalk walk(rrg, options);
///   while (auto point = walk.advance()) use(*point);
///   MinEffCycResult result = walk.finish();
///
/// Replayed to completion, finish() is bit-identical to min_eff_cyc of
/// the same (rrg, options) -- min_eff_cyc is implemented as exactly that
/// replay. advance() may emit a candidate the walk has already visited
/// (budget-hit MILPs returning the previous incumbent); finish()
/// deduplicates and Pareto-filters just like min_eff_cyc.
///
/// Feedback pruning (off unless a hint is set): set_xi_hint(xi) arms the
/// next MIN_CYC steps with MILP cutoffs derived from the best effective
/// cycle time a caller has *observed* (e.g. by simulation): a step whose
/// proven cycle-time bound cannot beat xi * theta_target is futile and is
/// skipped instead of solved to optimality, and an incumbent good enough
/// to beat it stops the branch & bound early. Pruned steps advance the
/// theta target without recording a candidate. With no hint the walk is
/// exact and deterministic; with one, frontiers may lose points that
/// cannot improve on the hint (pruned_steps() reports how many).
namespace detail {
struct WalkMilp;  ///< the walk's persistent MILP session (opt.cpp)
}  // namespace detail

class ParetoWalk {
 public:
  ParetoWalk(const Rrg& rrg, const OptOptions& options = {});
  ~ParetoWalk();

  /// Runs the walk up to its next recorded candidate: the identity
  /// configuration first, then one (budgeted) MILP step per call.
  /// Returns std::nullopt once the walk is over (then done() is true).
  std::optional<ParetoPoint> advance();
  bool done() const { return state_ == State::kDone; }

  /// Installs a cancellation predicate, polled before every MILP solve of
  /// a MAX_THR step (one step can hold dozens). When it returns true
  /// MAX_THR stops, and the step records the best configuration found
  /// so far, marked inexact. Callers poll at step boundaries through
  /// cancel_requested(); together this bounds a step's overrun to one
  /// MILP budget.
  void set_cancel(std::function<bool()> cancelled) {
    cancelled_ = std::move(cancelled);
  }
  /// Polls the predicate (false when none is installed). Sticky: once it
  /// has returned true, so does this, without asking it again.
  bool cancel_requested();

  /// Arms feedback pruning with the best observed effective cycle time
  /// (<= 0 or non-finite clears the hint). Takes effect from the next
  /// advance() on; never affects already-recorded candidates.
  void set_xi_hint(double xi_observed);

  /// Frontier, best index and bookkeeping over everything recorded so
  /// far -- the min_eff_cyc result when the walk ran to completion, a
  /// valid partial result when cancelled mid-walk.
  MinEffCycResult finish() const;

  int milp_calls() const { return milp_calls_; }
  /// MIN_CYC steps skipped because the xi hint proved them dominated.
  int pruned_steps() const { return pruned_steps_; }
  /// Counters of the walk's MILP session (warm/cold solves, simplex
  /// iterations, solve seconds); all-zero before the first MILP step.
  lp::SessionStats milp_stats() const;

 private:
  enum class State { kIdentity, kFirstMaxThr, kStep, kDone };

  /// Evaluates and stores one solved configuration (deduplicated), and
  /// tracks the exactness flag -- the record() of min_eff_cyc.
  ParetoPoint record(const RcSolveResult& solve);

  /// The MILP session shared by every MIN_CYC step and MAX_THR decision
  /// probe of this walk (they are all the same x-parameterized MIN_TAU
  /// model; adjacent solves differ only in a few row bounds). Built on
  /// the first MILP step; owns the warm basis state across advance().
  detail::WalkMilp& milp_session();

  const Rrg rrg_;          ///< all-simple rewrite already applied
  OptOptions options_;     ///< treat_all_simple already consumed
  std::unique_ptr<detail::WalkMilp> milp_;
  State state_ = State::kIdentity;
  std::vector<ParetoPoint> points_;
  ParetoPoint last_;       ///< walk position (theta monotone driver)
  double target_ = 0.0;
  double cap_ = 1.0;
  double xi_hint_ = 0.0;   ///< 0 = no hint
  std::function<bool()> cancelled_;  ///< empty = never
  bool cancel_fired_ = false;
  int iter_ = 0;
  int max_iters_ = 0;
  int milp_calls_ = 0;
  int pruned_steps_ = 0;
  bool all_exact_ = true;
  Stopwatch watch_;
};

/// Recovers an integral retiming vector r from integral buffer counts R',
/// i.e. solves r(v) - r(u) <= R'(e) - R0(e) (feasible whenever R' supports
/// any retiming); the resulting tokens are R0'(e) = R0(e) + r(v) - r(u).
/// Throws InternalError if infeasible.
std::vector<int> recover_retiming(const Rrg& rrg,
                                  const std::vector<int>& buffers);

}  // namespace elrr
