#pragma once

/// \file simplex.hpp
/// Bounded-variable two-phase primal simplex with a dual simplex for
/// warm-started re-solves, on an explicit tableau of the nonbasic columns.
///
/// Design notes
///  * Every row i gets a slack s_i with bounds equal to the row's activity
///    range, turning the system into  A.x - s = 0  with all variables
///    bounded (possibly infinitely). The initial basis is the slack set.
///  * The engine keeps B^-1 [A | -I] for the n nonbasic columns only, one
///    slot per nonbasic variable (`slot_var_` / `slot_of_`): the m basic
///    columns are unit vectors and never stored. A pivot hands the
///    entering column's slot to the leaving variable, whose column
///    becomes e_row scaled and eliminated like every other entry, so each
///    stored entry sees the floating-point operations a full m x (n+m)
///    tableau would apply, in the same order. Every order-dependent loop
///    (pricing, ratio tests, Bland, basic-value sums) walks variables in
///    index order through `slot_of_`.
///  * Phase 1 minimizes the total bound violation of basic variables with
///    the classical composite objective; phase 2 minimizes the user
///    objective with Dantzig pricing and a Bland fallback after stalls.
///  * `save_state` / `restore_state` snapshot the m x n tableau, the slot
///    maps and the basis. Branch and bound restores a node's parent
///    snapshot, tightens the one bound the node adds, and re-optimizes
///    with the dual simplex; a node without a snapshot restores the root
///    relaxation and replays all of its bound changes (see milp.hpp).
///  * A dual-simplex "infeasible" verdict prunes a branch & bound subtree,
///    so `resolve()` certifies it before returning it: the leaving row's
///    multipliers y = e_i^T B^-1 are read off the slack columns (the
///    stored slot of a nonbasic slack, the basis of a basic one) and the
///    Farkas row r = y^T [A | -I] is recomputed from the model's sparse
///    rows, which no pivot touches. If the interval of r^T x over the
///    current bounds excludes 0 by a scaled margin, no point satisfies
///    [A | -I] x = 0 within the bounds and the verdict stands. Only an
///    inconclusive check (e.g. r touches an infinite bound) falls back to
///    a cold `solve()`. See src/lp/README.md, "Infeasibility
///    certificates".
///
/// Suitable for the medium-size MILPs of the DAC'09 flow (hundreds to a
/// few thousands of rows). Not a sparse industrial code.

#include <cstdint>
#include <vector>

#include "lp/model.hpp"
#include "support/stopwatch.hpp"

namespace elrr::lp {

enum class LpStatus {
  kOptimal,
  kInfeasible,
  kUnbounded,
  kIterLimit,
  kTimeLimit,
  kNumericError,
};

const char* to_string(LpStatus status);

struct LpResult {
  LpStatus status = LpStatus::kNumericError;
  double objective = 0.0;          ///< in the model's original sense
  std::vector<double> x;           ///< structural variable values
  std::int64_t iterations = 0;
  /// kInfeasible proven by a Farkas row off the warm basis (resolve()
  /// only); false for verdicts from a cold solve.
  bool certified = false;
};

struct SimplexOptions {
  double feas_tol = 1e-7;    ///< bound/row feasibility tolerance
  double opt_tol = 1e-7;     ///< reduced-cost optimality tolerance
  double pivot_tol = 1e-9;   ///< minimum acceptable pivot magnitude
  std::int64_t max_iters = -1;   ///< <0: automatic (scales with size)
  double time_limit_s = -1.0;    ///< <=0: no limit
};

/// Incremental simplex engine over one model. The model's structure
/// (rows/columns/coefficients/objective) is fixed at construction; only
/// column bounds may be changed afterwards.
class SimplexSolver {
 public:
  explicit SimplexSolver(const Model& model, SimplexOptions options = {});

  /// Solves from scratch (slack basis, phase 1 + phase 2).
  LpResult solve();

  /// Re-optimizes after set_col_bounds calls, starting from the current
  /// (dual-feasible) basis using the dual simplex. Falls back to a full
  /// primal solve if the basis is not dual feasible, on numeric trouble,
  /// and when a dual infeasibility verdict cannot be certified.
  LpResult resolve();

  /// Tightens/changes bounds of a structural column. Keeps the tableau
  /// consistent; call resolve() afterwards.
  void set_col_bounds(int col, double lo, double hi);

  /// Changes the activity range of a row (its slack variable's bounds).
  /// Same contract as set_col_bounds: tableau stays consistent, follow
  /// with resolve(). This is what makes a session warm-start possible
  /// for models whose steps differ only in row right-hand sides.
  void set_row_bounds(int row, double lo, double hi);

  /// Full engine snapshot (nonbasic tableau, slot maps, basis, values,
  /// reduced costs, bounds).
  struct State;
  State save_state() const;
  void restore_state(const State& state);

  /// Last computed structural solution (valid after solve/resolve).
  std::vector<double> structural_values() const;

  std::int64_t total_iterations() const { return iterations_; }

  /// Cumulative resolve() infeasibility verdicts: proven by a Farkas row
  /// vs. handed to a cold solve() because the certificate was
  /// inconclusive.
  std::int64_t infeasible_certified() const { return infeasible_certified_; }
  std::int64_t infeasible_cold() const { return infeasible_cold_; }

  /// Adjusts the wall-clock budget of subsequent solve/resolve calls
  /// (branch & bound passes the remaining global budget down).
  void set_time_limit(double seconds) { options_.time_limit_s = seconds; }

 private:
  enum class Where : std::uint8_t { kBasic, kAtLower, kAtUpper, kFree };

  // --- problem data (fixed) ---
  int n_ = 0;                   ///< structural columns
  int m_ = 0;                   ///< rows (== slack count)
  int total_ = 0;               ///< n_ + m_
  std::vector<double> cost_;    ///< minimization costs, size total_
  std::vector<double> lo_, hi_; ///< bounds, size total_
  double sense_flip_ = 1.0;     ///< -1 when the model maximizes
  SimplexOptions options_;
  // A in CSR form (the model's merged, sorted, zero-free rows); the slack
  // block -I of [A | -I] stays implicit.
  std::vector<int> a_start_;    ///< size m_ + 1
  std::vector<int> a_col_;
  std::vector<double> a_coef_;

  // --- engine state ---
  bool factorized_ = false;     ///< a basis exists (solve() ran or restored)
  std::vector<double> tab_;     ///< m_ x n_: B^-1 [A|-I] on the nonbasic slots
  std::vector<int> slot_var_;   ///< size n_, variable stored in each slot
  std::vector<int> slot_of_;    ///< size total_, slot of a nonbasic, -1 if basic
  std::vector<int> basis_;      ///< size m_, variable basic in each row
  std::vector<Where> where_;    ///< size total_
  std::vector<double> value_;   ///< size total_, current values
  std::vector<double> dj_;      ///< size total_, phase-2 reduced costs
  bool dj_valid_ = false;
  std::int64_t iterations_ = 0;       ///< cumulative across solves
  std::int64_t call_iter_base_ = 0;   ///< iterations_ at entry of this call
  std::int64_t degenerate_streak_ = 0;
  bool bland_ = false;
  std::int64_t infeasible_certified_ = 0;
  std::int64_t infeasible_cold_ = 0;
  std::vector<double> farkas_;  ///< size total_, certificate scratch
  int infeasible_row_ = -1;     ///< leaving row of the last dual verdict

  double* tab_row(int i) { return tab_.data() + static_cast<std::size_t>(i) * n_; }
  const double* tab_row(int i) const {
    return tab_.data() + static_cast<std::size_t>(i) * n_;
  }
  /// Tableau entry of row i in nonbasic variable j's column.
  double tab(int i, int j) const { return tab_row(i)[slot_of_[j]]; }

  void set_bounds_impl(int idx, double lo, double hi);
  void build_initial_basis();
  void compute_basic_values();
  void compute_reduced_costs();
  bool is_dual_feasible() const;
  void pivot(int row, int col);
  double infeasibility() const;

  // Phase drivers; return a status restricted to
  // {kOptimal = subproblem solved, kInfeasible, kUnbounded, limits}.
  LpStatus primal_phase1(const Deadline& deadline);
  LpStatus primal_phase2(const Deadline& deadline);
  LpStatus dual_phase(const Deadline& deadline);
  /// True when tableau row `row` yields a Farkas proof of infeasibility
  /// under the current bounds (see the design notes above).
  bool certify_infeasible(int row);

  LpResult finish(LpStatus status);
  std::int64_t iteration_budget() const;
};

struct SimplexSolver::State {
  bool factorized = false;
  std::vector<double> tab;       ///< m x n
  std::vector<int> slot_var;     ///< n
  std::vector<int> slot_of;      ///< n + m
  std::vector<int> basis;
  std::vector<Where> where;
  std::vector<double> value;
  std::vector<double> dj;
  std::vector<double> lo, hi;
  bool dj_valid = false;
};

}  // namespace elrr::lp
