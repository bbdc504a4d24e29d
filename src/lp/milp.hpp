#pragma once

/// \file milp.hpp
/// Branch & bound MILP solver over SimplexSolver.
///
/// Mirrors how the paper used CPLEX: solves are budgeted (the paper used a
/// 20-minute timeout) and on budget exhaustion the best incumbent plus a
/// proven bound are reported instead of failing.
///
/// Search: best-bound-first with most-fractional branching, a
/// fix-and-round primal heuristic for early incumbents, and a dual
/// re-solve per node warm-started from its parent's optimal tableau.
/// Parent snapshots live under a fixed byte budget
/// (kNodeSnapshotBudgetBytes); a node without one restores the root
/// relaxation and replays its bound changes from there.

#include <cstdint>
#include <limits>
#include <vector>

#include "lp/model.hpp"
#include "lp/simplex.hpp"

namespace elrr::lp {

enum class MilpStatus {
  kOptimal,     ///< incumbent proven optimal (within gap tolerances)
  kInfeasible,
  kUnbounded,
  kFeasible,    ///< limit or target cutoff hit; incumbent available
  kNoSolution,  ///< limit hit before any incumbent was found
  kFutile,      ///< proven: no solution as good as `futile_bound` exists
  kNumericError,
};

const char* to_string(MilpStatus status);

/// Bytes of parent-node tableau snapshots one branch & bound search may
/// hold at once. When it is full, new children get no snapshot and
/// replay from the root; nothing is evicted, so which nodes start warm
/// depends only on the search sequence, never on the clock. Without a
/// cap, the open list of a budget-hit walk MILP (thousands of nodes)
/// would hold a snapshot per node; see src/lp/README.md, "Node warm
/// starts from the parent", for how 256 KiB was chosen.
inline constexpr std::int64_t kNodeSnapshotBudgetBytes = 256 * 1024;

struct MilpOptions {
  SimplexOptions lp;
  /// Run the presolve reductions (presolve.hpp) before solving; the
  /// returned solution is lifted back to the original variable space.
  bool presolve = false;
  double int_tol = 1e-6;        ///< integrality tolerance
  double gap_abs = 1e-9;        ///< absolute optimality gap
  double gap_rel = 1e-9;        ///< relative optimality gap
  std::int64_t max_nodes = -1;  ///< <0: unlimited
  double time_limit_s = -1.0;   ///< <=0: unlimited
  bool rounding_heuristic = true;
  int rounding_period = 16;     ///< try fix-and-round every k nodes

  /// Decision-problem accelerators (both in the model's original sense,
  /// NaN = disabled). `target_obj`: stop as soon as an incumbent at least
  /// this good exists (status kFeasible). `futile_bound`: stop as soon as
  /// it is proven that no solution at least this good exists (status
  /// kFutile, with best_bound carrying the proof).
  double target_obj = std::numeric_limits<double>::quiet_NaN();
  double futile_bound = std::numeric_limits<double>::quiet_NaN();
};

struct MilpResult {
  MilpStatus status = MilpStatus::kNoSolution;
  double objective = 0.0;    ///< incumbent objective (original sense)
  std::vector<double> x;     ///< incumbent point (integers snapped)
  double best_bound = 0.0;   ///< proven bound on the optimum (original sense)
  std::int64_t nodes = 0;
  std::int64_t lp_iterations = 0;
  /// Infeasible LP re-solves proven by a Farkas row vs. confirmed by a
  /// cold solve (SimplexSolver::infeasible_certified / _cold).
  std::int64_t infeasible_certified = 0;
  std::int64_t infeasible_cold = 0;
  /// Nodes below the root re-solved from their parent's snapshot vs.
  /// from the root relaxation with every bound change replayed (the
  /// snapshot budget was full, or the `milp.node_warm` fail point fired).
  std::int64_t warm_nodes = 0;
  std::int64_t replayed_nodes = 0;
  /// Most snapshot bytes alive at once (<= kNodeSnapshotBudgetBytes).
  std::int64_t peak_snapshot_bytes = 0;
  double seconds = 0.0;

  bool has_solution() const {
    return status == MilpStatus::kOptimal || status == MilpStatus::kFeasible;
  }
  /// Relative gap between incumbent and proven bound (0 when optimal).
  double gap() const;
};

/// Solves a MILP (also accepts pure LPs, where it reduces to one solve).
MilpResult solve_milp(const Model& model, const MilpOptions& options = {});

}  // namespace elrr::lp
