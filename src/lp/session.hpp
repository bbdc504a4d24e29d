#pragma once

/// \file session.hpp
/// Persistent MILP session: one model structure, many solves that differ
/// only in bounds, objective cutoffs and budgets.
///
/// `solve_milp` is stateless -- every call pays a full two-phase cold
/// start. The Pareto walks of the DAC'09 flow solve long chains of
/// almost-identical models (adjacent steps change a handful of row
/// right-hand sides), so `MilpSession` keeps the expensive state alive
/// across calls:
///
///  * one `SimplexSolver` engine over the fixed structure;
///  * the previous solve's optimal root basis, restored and re-optimized
///    with the dual simplex instead of a cold phase-1/phase-2 start;
///  * optionally the previous solve's integer solution, re-fixed and
///    re-priced as the initial branch-and-bound incumbent.
///
/// Every solve, warm or cold, MILP or pure LP, runs the one
/// branch-and-bound core (`detail::solve_branch_and_bound`); a model
/// without an integer column returns its root relaxation.
///
/// Exactness contract: with `set_warm(false)` a session solve is
/// bit-identical to a fresh `solve_milp` call on the same model by
/// construction (it *is* that call). With warm starts enabled the
/// session falls back to the cold path whenever the warm state is
/// missing, structurally stale, or the `milp.warm` fail point fires --
/// and the warm path itself degrades to `SimplexSolver::solve()` inside
/// `resolve()` on any dual-infeasibility or numeric trouble, and on any
/// infeasibility verdict its Farkas certificate cannot prove. The
/// remaining risk -- a warm search visiting nodes in a different order
/// and returning a different optimum among exact ties -- is pinned
/// empirically by the differential tests in tests/lp and tests/flow
/// (full ISCAS walks, warm vs cold, fleet threads 1/2/4). See
/// src/lp/README.md.

#include <cstdint>
#include <memory>
#include <vector>

#include "lp/milp.hpp"
#include "lp/simplex.hpp"

namespace elrr::lp {

namespace detail {

/// Warm-start plumbing threaded through one branch-and-bound run.
/// All pointers are borrowed and may be null (null engine = the run
/// builds its own, i.e. the stateless `solve_milp` path).
struct WarmContext {
  SimplexSolver* engine = nullptr;  ///< persistent engine to reuse
  const SimplexSolver::State* root_state = nullptr;  ///< prior root basis
  const std::vector<double>* incumbent = nullptr;    ///< prior solution
  SimplexSolver::State* root_state_out = nullptr;    ///< new root basis
  bool seed_incumbent = false;  ///< try `incumbent` as the initial bound
  // Out-fields (what the warm machinery actually did):
  bool warm_root_used = false;
  bool incumbent_seeded = false;
  bool failpoint_fallback = false;
  bool root_state_written = false;
};

/// The branch-and-bound core shared by `solve_milp` (warm == nullptr)
/// and `MilpSession`, whose cold path makes the same call: the
/// `milp.solve` fail-point trip and the input validation stay with the
/// callers, so one session solve counts as exactly one trip. Defined in
/// session.cpp.
MilpResult solve_branch_and_bound(const Model& model,
                                  const MilpOptions& options,
                                  WarmContext* warm);

}  // namespace detail

/// Cumulative counters over a session's lifetime.
struct SessionStats {
  std::int64_t solves = 0;
  std::int64_t warm_attempts = 0;   ///< solves entered with a warm state
  std::int64_t warm_roots = 0;      ///< root re-optimized from prior basis
  std::int64_t warm_seeds = 0;      ///< prior solution accepted as incumbent
  std::int64_t warm_fallbacks = 0;  ///< warm state rejected (fail point /
                                    ///< shape mismatch) -> cold solve
  std::int64_t cold_solves = 0;     ///< full stateless-path solves
  std::int64_t nodes = 0;
  std::int64_t lp_iterations = 0;
  std::int64_t infeasible_certified = 0;  ///< Farkas-proven LP verdicts
  std::int64_t infeasible_cold = 0;       ///< ... confirmed by a cold solve
  std::int64_t warm_nodes = 0;      ///< B&B nodes solved from the parent
  std::int64_t replayed_nodes = 0;  ///< ... replayed from the root
  std::int64_t peak_snapshot_bytes = 0;   ///< max over solves
  double solve_seconds = 0.0;
};

/// Persistent solver session over one model structure. Only bounds,
/// cutoffs and budgets may change between solves; rows, columns,
/// coefficients and the objective are fixed at construction.
class MilpSession {
 public:
  explicit MilpSession(Model model, MilpOptions options = {});
  MilpSession(const MilpSession&) = delete;
  MilpSession& operator=(const MilpSession&) = delete;

  /// Per-step parameterization. Mirrors Model::set_*_bounds; the change
  /// is visible to both the warm and the cold path of the next solve().
  void set_row_bounds(int row, double lo, double hi);
  void set_col_bounds(int col, double lo, double hi);

  /// Decision-problem cutoffs (NaN = disarmed), in the model's sense.
  void set_cutoffs(double target_obj, double futile_bound);

  /// Wall-clock budget of subsequent solves (<= 0: unlimited).
  void set_time_limit(double seconds);

  /// Enables/disables warm starts. Off: every solve() is bit-identical
  /// to a fresh solve_milp(model(), options()) call.
  void set_warm(bool on) { warm_ = on; }
  bool warm() const { return warm_; }

  /// Seed the next solves' incumbent from each solve's solution.
  /// Separate from set_warm because incumbent seeding can legitimately
  /// change which optimum is reported among exact ties. The Pareto walk
  /// turns it on (core/opt.cpp); its argmin stability rests on
  /// `MilpSession.WarmWalksAreBitIdenticalToColdWalks`, which checks
  /// warm walks against cold ones bit for bit (see src/lp/README.md).
  void set_seed_incumbent(bool on) { seed_incumbent_ = on; }

  /// Drops all warm state (basis + incumbent). The next solve is cold.
  void invalidate_warm();

  MilpResult solve();

  const Model& model() const { return model_; }
  const MilpOptions& options() const { return options_; }
  const SessionStats& stats() const { return stats_; }

 private:
  MilpResult search();  ///< one solve: warm when it can be, else cold

  Model model_;
  MilpOptions options_;
  bool warm_ = true;
  bool seed_incumbent_ = false;
  SessionStats stats_;

  // Warm state: the engine, the previous root basis and the last
  // solution (a pure LP's root basis is its optimal basis).
  std::unique_ptr<SimplexSolver> engine_;
  std::unique_ptr<SimplexSolver::State> root_state_;
  std::vector<double> last_x_;
  bool has_last_x_ = false;
};

}  // namespace elrr::lp
