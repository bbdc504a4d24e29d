#include "lp/simplex.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "obs/trace.hpp"

namespace elrr::lp {

namespace {
constexpr double kRatioEps = 1e-9;   // |alpha| below this never blocks
constexpr double kTieTol = 1e-9;     // Harris-style tie window in the ratio test
constexpr std::int64_t kBlandTrigger = 512;  // degenerate steps before Bland
// Farkas certificate: |r_j| <= kFarkasZero * max(1, max|y|) counts as
// zero (round-off on free columns), and the bound interval of r^T x must
// clear 0 by kFarkasMargin * feas_tol * max(1, max|term|) for round-off,
// plus feas_tol * sum|r_j|: the most a point whose variables each miss
// their bounds by at most feas_tol -- what solve() accepts as feasible --
// can move r^T x.
constexpr double kFarkasZero = 1e-9;
constexpr double kFarkasMargin = 64.0;
}  // namespace

const char* to_string(LpStatus status) {
  switch (status) {
    case LpStatus::kOptimal: return "optimal";
    case LpStatus::kInfeasible: return "infeasible";
    case LpStatus::kUnbounded: return "unbounded";
    case LpStatus::kIterLimit: return "iteration-limit";
    case LpStatus::kTimeLimit: return "time-limit";
    case LpStatus::kNumericError: return "numeric-error";
  }
  return "unknown";
}

SimplexSolver::SimplexSolver(const Model& model, SimplexOptions options)
    : options_(options) {
  model.validate();
  n_ = model.num_cols();
  m_ = model.num_rows();
  total_ = n_ + m_;
  sense_flip_ = model.sense() == Sense::kMaximize ? -1.0 : 1.0;

  cost_.assign(total_, 0.0);
  lo_.assign(total_, -kInf);
  hi_.assign(total_, kInf);
  for (int j = 0; j < n_; ++j) {
    cost_[j] = sense_flip_ * model.col(j).obj;
    lo_[j] = model.col(j).lo;
    hi_[j] = model.col(j).hi;
  }
  // Model::add_row merged, sorted and zero-filtered each row's entries.
  a_start_.reserve(static_cast<std::size_t>(m_) + 1);
  a_start_.push_back(0);
  for (int i = 0; i < m_; ++i) {
    const Row& row = model.row(i);
    for (const auto& entry : row.entries) {
      a_col_.push_back(entry.col);
      a_coef_.push_back(entry.coef);
    }
    a_start_.push_back(static_cast<int>(a_col_.size()));
    const int slack = n_ + i;
    lo_[slack] = row.lo;
    hi_[slack] = row.hi;
  }
  farkas_.assign(total_, 0.0);
}

std::int64_t SimplexSolver::iteration_budget() const {
  if (options_.max_iters > 0) return options_.max_iters;
  return std::max<std::int64_t>(20000, 200LL * (m_ + n_));
}

void SimplexSolver::build_initial_basis() {
  // Slack basis: B = -I, hence B^-1 [A|-I] = [-A | I]; the structural
  // columns are the nonbasic ones, slot j holding column j.
  tab_.assign(static_cast<std::size_t>(m_) * n_, 0.0);
  for (int i = 0; i < m_; ++i) {
    double* row = tab_row(i);
    for (int k = a_start_[i]; k < a_start_[i + 1]; ++k) {
      row[a_col_[k]] = -a_coef_[k];
    }
  }
  slot_var_.resize(n_);
  slot_of_.assign(total_, -1);
  for (int j = 0; j < n_; ++j) {
    slot_var_[j] = j;
    slot_of_[j] = j;
  }
  factorized_ = true;

  basis_.resize(m_);
  where_.assign(total_, Where::kAtLower);
  value_.assign(total_, 0.0);
  for (int j = 0; j < total_; ++j) {
    if (std::isfinite(lo_[j])) {
      where_[j] = Where::kAtLower;
      value_[j] = lo_[j];
    } else if (std::isfinite(hi_[j])) {
      where_[j] = Where::kAtUpper;
      value_[j] = hi_[j];
    } else {
      where_[j] = Where::kFree;
      value_[j] = 0.0;
    }
  }
  for (int i = 0; i < m_; ++i) {
    const int slack = n_ + i;
    basis_[i] = slack;
    where_[slack] = Where::kBasic;
  }
  compute_basic_values();
  dj_valid_ = false;
  bland_ = false;
  degenerate_streak_ = 0;
}

void SimplexSolver::compute_basic_values() {
  // Sum each row in variable-index order, whatever the slot order.
  std::vector<std::pair<int, double>> terms;  // (slot, value)
  for (int j = 0; j < total_; ++j) {
    if (where_[j] != Where::kBasic && value_[j] != 0.0) {
      terms.emplace_back(slot_of_[j], value_[j]);
    }
  }
  for (int i = 0; i < m_; ++i) {
    const double* row = tab_row(i);
    double acc = 0.0;
    for (const auto& [slot, v] : terms) acc += row[slot] * v;
    value_[basis_[i]] = -acc;
  }
}

void SimplexSolver::compute_reduced_costs() {
  dj_ = cost_;
  for (int i = 0; i < m_; ++i) {
    const double cb = cost_[basis_[i]];
    if (cb == 0.0) continue;
    const double* row = tab_row(i);
    for (int s = 0; s < n_; ++s) dj_[slot_var_[s]] -= cb * row[s];
  }
  for (int i = 0; i < m_; ++i) dj_[basis_[i]] = 0.0;
  dj_valid_ = true;
}

bool SimplexSolver::is_dual_feasible() const {
  if (!dj_valid_) return false;
  for (int j = 0; j < total_; ++j) {
    switch (where_[j]) {
      case Where::kBasic:
        break;
      case Where::kAtLower:
        if (dj_[j] < -options_.opt_tol) return false;
        break;
      case Where::kAtUpper:
        if (dj_[j] > options_.opt_tol) return false;
        break;
      case Where::kFree:
        if (std::abs(dj_[j]) > options_.opt_tol) return false;
        break;
    }
  }
  return true;
}

// The pivot and the three phases hold nearly all simplex time. Each
// starts on a 64-byte boundary, so the alignment of their loops does
// not depend on what the linker places before them: with identical
// object code, a shifted position alone moved perfbench's exact_walk
// makespan by ~16% (median of 10 pairs, 4-vCPU Intel Xeon VM, GCC 12).
[[gnu::aligned(64)]]
void SimplexSolver::pivot(int row, int col) {
  // The leaving variable takes over the entering column's slot. Its
  // column was the unit vector e_row: writing 1 (row `row`) and 0 (every
  // other row) into the slot before the updates below gives it exactly
  // the values a full tableau computes for it.
  const int slot = slot_of_[col];
  const int leaving = basis_[row];
  double* prow = tab_row(row);
  const double inv = 1.0 / prow[slot];
  prow[slot] = 1.0;
  for (int s = 0; s < n_; ++s) prow[s] *= inv;
  for (int i = 0; i < m_; ++i) {
    if (i == row) continue;
    double* irow = tab_row(i);
    const double factor = irow[slot];
    if (factor == 0.0) continue;
    irow[slot] = 0.0;
    for (int s = 0; s < n_; ++s) irow[s] -= factor * prow[s];
  }
  slot_var_[slot] = leaving;
  slot_of_[leaving] = slot;
  slot_of_[col] = -1;
  if (dj_valid_) {
    const double factor = dj_[col];
    if (factor != 0.0) {
      for (int s = 0; s < n_; ++s) dj_[slot_var_[s]] -= factor * prow[s];
      dj_[col] = 0.0;
    }
  }
  basis_[row] = col;
  where_[col] = Where::kBasic;
  ++iterations_;
}

double SimplexSolver::infeasibility() const {
  double total = 0.0;
  for (int i = 0; i < m_; ++i) {
    const int k = basis_[i];
    const double v = value_[k];
    if (v < lo_[k]) total += lo_[k] - v;
    if (v > hi_[k]) total += v - hi_[k];
  }
  return total;
}

[[gnu::aligned(64)]]
LpStatus SimplexSolver::primal_phase1(const Deadline& deadline) {
  const double ftol = options_.feas_tol;
  const std::int64_t budget = iteration_budget();
  std::vector<double> price(n_);  // per slot
  std::vector<int> below, above;

  while (true) {
    if (deadline.expired()) return LpStatus::kTimeLimit;
    if (iterations_ - call_iter_base_ >= budget) return LpStatus::kIterLimit;

    below.clear();
    above.clear();
    for (int i = 0; i < m_; ++i) {
      const int k = basis_[i];
      if (value_[k] < lo_[k] - ftol) below.push_back(i);
      else if (value_[k] > hi_[k] + ftol) above.push_back(i);
    }
    if (below.empty() && above.empty()) return LpStatus::kOptimal;

    // Composite phase-1 pricing: D_j = d(infeasibility)/d(x_j).
    std::fill(price.begin(), price.end(), 0.0);
    for (int i : below) {
      const double* row = tab_row(i);
      for (int s = 0; s < n_; ++s) price[s] += row[s];
    }
    for (int i : above) {
      const double* row = tab_row(i);
      for (int s = 0; s < n_; ++s) price[s] -= row[s];
    }

    int entering = -1;
    int dir = 0;
    double best_score = options_.opt_tol;
    for (int j = 0; j < total_; ++j) {
      if (where_[j] == Where::kBasic) continue;
      const double d = price[slot_of_[j]];
      const bool can_up = where_[j] == Where::kAtLower || where_[j] == Where::kFree;
      const bool can_down = where_[j] == Where::kAtUpper || where_[j] == Where::kFree;
      int cand_dir = 0;
      if (can_up && d < -best_score) cand_dir = 1;
      else if (can_down && d > best_score) cand_dir = -1;
      if (cand_dir != 0) {
        entering = j;
        dir = cand_dir;
        best_score = std::abs(d);
        if (bland_) break;  // Bland: first eligible (smallest index)
      }
    }
    if (entering == -1) return LpStatus::kInfeasible;

    // Extended ratio test: infeasible basics block at the violated bound
    // they are moving toward; feasible basics block at regular bounds; the
    // entering variable may flip to its opposite bound.
    double t_best = kInf;
    int block_row = -1;
    double block_alpha = 0.0;
    const double own_range = hi_[entering] - lo_[entering];
    if (std::isfinite(own_range)) t_best = own_range;

    for (int i = 0; i < m_; ++i) {
      const double alpha = tab(i, entering);
      if (std::abs(alpha) <= kRatioEps) continue;
      const double g = -dir * alpha;  // growth rate of basic i w.r.t. step
      const int k = basis_[i];
      const double v = value_[k];
      double limit = kInf;
      if (v < lo_[k] - ftol) {
        if (g > 0) limit = (lo_[k] - v) / g;
      } else if (v > hi_[k] + ftol) {
        if (g < 0) limit = (hi_[k] - v) / g;
      } else if (g > kRatioEps) {
        if (std::isfinite(hi_[k])) limit = std::max(0.0, (hi_[k] - v) / g);
      } else if (g < -kRatioEps) {
        if (std::isfinite(lo_[k])) limit = std::max(0.0, (lo_[k] - v) / g);
      }
      if (limit < t_best - kTieTol ||
          (limit < t_best + kTieTol && std::abs(alpha) > std::abs(block_alpha))) {
        if (limit <= t_best + kTieTol) {
          t_best = std::min(t_best, std::max(0.0, limit));
          block_row = i;
          block_alpha = alpha;
        }
      }
    }

    if (!std::isfinite(t_best)) return LpStatus::kNumericError;

    // Apply the step.
    const double step = t_best;
    if (step != 0.0) {
      for (int i = 0; i < m_; ++i) {
        const double alpha = tab(i, entering);
        if (alpha != 0.0) value_[basis_[i]] -= dir * alpha * step;
      }
      value_[entering] += dir * step;
      degenerate_streak_ = 0;
      bland_ = false;
    } else {
      if (++degenerate_streak_ > kBlandTrigger) bland_ = true;
    }

    if (block_row == -1) {
      // Bound flip of the entering variable.
      where_[entering] =
          dir > 0 ? Where::kAtUpper : Where::kAtLower;
      value_[entering] = dir > 0 ? hi_[entering] : lo_[entering];
      ++iterations_;
    } else {
      const int leaving = basis_[block_row];
      const double g = -dir * block_alpha;
      // Land exactly on the bound the leaving variable hit.
      if (g > 0) {
        const double bound = value_[leaving] >= hi_[leaving] - ftol
                                 ? hi_[leaving]
                                 : lo_[leaving];
        value_[leaving] = bound;
        where_[leaving] =
            bound == hi_[leaving] ? Where::kAtUpper : Where::kAtLower;
      } else {
        const double bound = value_[leaving] <= lo_[leaving] + ftol
                                 ? lo_[leaving]
                                 : hi_[leaving];
        value_[leaving] = bound;
        where_[leaving] =
            bound == lo_[leaving] ? Where::kAtLower : Where::kAtUpper;
      }
      pivot(block_row, entering);
    }
  }
}

[[gnu::aligned(64)]]
LpStatus SimplexSolver::primal_phase2(const Deadline& deadline) {
  if (!dj_valid_) compute_reduced_costs();
  const std::int64_t budget = iteration_budget();

  while (true) {
    if (deadline.expired()) return LpStatus::kTimeLimit;
    if (iterations_ - call_iter_base_ >= budget) return LpStatus::kIterLimit;

    int entering = -1;
    int dir = 0;
    double best_score = options_.opt_tol;
    for (int j = 0; j < total_; ++j) {
      if (where_[j] == Where::kBasic) continue;
      const double d = dj_[j];
      const bool can_up = where_[j] == Where::kAtLower || where_[j] == Where::kFree;
      const bool can_down = where_[j] == Where::kAtUpper || where_[j] == Where::kFree;
      int cand_dir = 0;
      if (can_up && d < -best_score) cand_dir = 1;
      else if (can_down && d > best_score) cand_dir = -1;
      if (cand_dir != 0) {
        entering = j;
        dir = cand_dir;
        best_score = std::abs(d);
        if (bland_) break;
      }
    }
    if (entering == -1) return LpStatus::kOptimal;

    double t_best = kInf;
    int block_row = -1;
    double block_alpha = 0.0;
    const double own_range = hi_[entering] - lo_[entering];
    if (std::isfinite(own_range)) t_best = own_range;

    for (int i = 0; i < m_; ++i) {
      const double alpha = tab(i, entering);
      if (std::abs(alpha) <= kRatioEps) continue;
      const double g = -dir * alpha;
      const int k = basis_[i];
      const double v = value_[k];
      double limit = kInf;
      if (g > kRatioEps) {
        if (std::isfinite(hi_[k])) limit = std::max(0.0, (hi_[k] - v) / g);
      } else if (g < -kRatioEps) {
        if (std::isfinite(lo_[k])) limit = std::max(0.0, (lo_[k] - v) / g);
      }
      if (limit < t_best - kTieTol ||
          (limit < t_best + kTieTol && std::abs(alpha) > std::abs(block_alpha))) {
        if (limit <= t_best + kTieTol) {
          t_best = std::min(t_best, std::max(0.0, limit));
          block_row = i;
          block_alpha = alpha;
        }
      }
    }

    if (!std::isfinite(t_best)) return LpStatus::kUnbounded;

    const double step = t_best;
    if (step != 0.0) {
      for (int i = 0; i < m_; ++i) {
        const double alpha = tab(i, entering);
        if (alpha != 0.0) value_[basis_[i]] -= dir * alpha * step;
      }
      value_[entering] += dir * step;
      degenerate_streak_ = 0;
      bland_ = false;
    } else {
      if (++degenerate_streak_ > kBlandTrigger) bland_ = true;
    }

    if (block_row == -1) {
      where_[entering] = dir > 0 ? Where::kAtUpper : Where::kAtLower;
      value_[entering] = dir > 0 ? hi_[entering] : lo_[entering];
      ++iterations_;
    } else {
      const int leaving = basis_[block_row];
      const double g = -dir * block_alpha;
      const double bound = g > 0 ? hi_[leaving] : lo_[leaving];
      value_[leaving] = bound;
      where_[leaving] = g > 0 ? Where::kAtUpper : Where::kAtLower;
      pivot(block_row, entering);
    }
  }
}

[[gnu::aligned(64)]]
LpStatus SimplexSolver::dual_phase(const Deadline& deadline) {
  if (!dj_valid_) compute_reduced_costs();
  const std::int64_t budget = iteration_budget();
  const double ftol = options_.feas_tol;

  while (true) {
    if (deadline.expired()) return LpStatus::kTimeLimit;
    if (iterations_ - call_iter_base_ >= budget) return LpStatus::kIterLimit;

    // Leaving: most primal-infeasible basic.
    int row = -1;
    double worst = ftol;
    bool below = false;
    for (int i = 0; i < m_; ++i) {
      const int k = basis_[i];
      const double v = value_[k];
      if (lo_[k] - v > worst) {
        worst = lo_[k] - v;
        row = i;
        below = true;
      }
      if (v - hi_[k] > worst) {
        worst = v - hi_[k];
        row = i;
        below = false;
      }
    }
    if (row == -1) {
      // Primal feasible and dual feasible: optimal (polish via phase 2 to
      // guard against tolerance drift).
      return primal_phase2(deadline);
    }

    const int leaving = basis_[row];
    const double* alpha = tab_row(row);

    // Dual ratio test. theta = dj_q / alpha_q must be <= 0 when the
    // leaving variable lands at its lower bound, >= 0 at its upper bound.
    int entering = -1;
    double best_ratio = kInf;
    double best_alpha = 0.0;
    for (int j = 0; j < total_; ++j) {
      if (where_[j] == Where::kBasic) continue;
      const double a = alpha[slot_of_[j]];
      if (std::abs(a) <= kRatioEps) continue;
      bool eligible = false;
      if (below) {  // leaving lands AtLower; need theta <= 0
        eligible = (where_[j] == Where::kAtLower && a < 0.0) ||
                   (where_[j] == Where::kAtUpper && a > 0.0) ||
                   (where_[j] == Where::kFree);
      } else {  // leaving lands AtUpper; need theta >= 0
        eligible = (where_[j] == Where::kAtLower && a > 0.0) ||
                   (where_[j] == Where::kAtUpper && a < 0.0) ||
                   (where_[j] == Where::kFree);
      }
      if (!eligible) continue;
      const double ratio = std::abs(dj_[j] / a);
      if (ratio < best_ratio - kTieTol ||
          (ratio < best_ratio + kTieTol && std::abs(a) > std::abs(best_alpha))) {
        best_ratio = ratio;
        best_alpha = a;
        entering = j;
      }
    }
    if (entering == -1) {
      infeasible_row_ = row;
      return LpStatus::kInfeasible;
    }

    const double target = below ? lo_[leaving] : hi_[leaving];
    const double delta_leaving = target - value_[leaving];
    const double delta_entering = -delta_leaving / alpha[slot_of_[entering]];

    for (int i = 0; i < m_; ++i) {
      if (i == row) continue;
      const double a = tab(i, entering);
      if (a != 0.0) value_[basis_[i]] -= a * delta_entering;
    }
    value_[entering] += delta_entering;
    value_[leaving] = target;
    where_[leaving] = below ? Where::kAtLower : Where::kAtUpper;
    pivot(row, entering);
  }
}

bool SimplexSolver::certify_infeasible(int row) {
  // Row `row` of B^-1 is y^T; B^-1 = -(B^-1 [A | -I]) on the slack
  // columns because the slack block of [A | -I] is -I. A basic slack's
  // column is a unit vector: y_k = -1 in its own row, 0 elsewhere.
  const double* trow = tab_row(row);
  double y_max = 0.0;
  std::fill(farkas_.begin(), farkas_.end(), 0.0);
  for (int k = 0; k < m_; ++k) {
    const int slack = n_ + k;
    const int slot = slot_of_[slack];
    const double y =
        slot >= 0 ? -trow[slot] : (basis_[row] == slack ? -1.0 : 0.0);
    if (y == 0.0) continue;
    y_max = std::max(y_max, std::abs(y));
    for (int e = a_start_[k]; e < a_start_[k + 1]; ++e) {
      farkas_[a_col_[e]] += y * a_coef_[e];
    }
    farkas_[slack] += y * -1.0;
  }
  // Every feasible point has r^T x = y^T [A | -I] x = 0. Bound r^T x over
  // the box [lo, hi]; an interval that excludes 0 proves infeasibility.
  const double zero = kFarkasZero * std::max(1.0, y_max);
  double low = 0.0, high = 0.0, max_term = 0.0, r_sum = 0.0;
  bool low_finite = true, high_finite = true;
  for (int j = 0; j < total_; ++j) {
    const double r = farkas_[j];
    if (std::abs(r) <= zero) continue;
    r_sum += std::abs(r);
    const double at_low = r > 0.0 ? lo_[j] : hi_[j];
    const double at_high = r > 0.0 ? hi_[j] : lo_[j];
    if (low_finite && std::isfinite(at_low)) {
      low += r * at_low;
      max_term = std::max(max_term, std::abs(r * at_low));
    } else {
      low_finite = false;
    }
    if (high_finite && std::isfinite(at_high)) {
      high += r * at_high;
      max_term = std::max(max_term, std::abs(r * at_high));
    } else {
      high_finite = false;
    }
    if (!low_finite && !high_finite) return false;
  }
  const double margin =
      options_.feas_tol *
      (kFarkasMargin * std::max(1.0, max_term) + r_sum);
  return (low_finite && low > margin) || (high_finite && high < -margin);
}

LpResult SimplexSolver::finish(LpStatus status) {
  LpResult result;
  result.status = status;
  result.iterations = iterations_;
  result.x = structural_values();
  double obj = 0.0;
  for (int j = 0; j < n_; ++j) obj += cost_[j] * value_[j];
  result.objective = sense_flip_ * obj;
  return result;
}

LpResult SimplexSolver::solve() {
  Deadline deadline(options_.time_limit_s);
  call_iter_base_ = iterations_;
  build_initial_basis();
  LpStatus status = primal_phase1(deadline);
  if (status == LpStatus::kOptimal) {
    compute_reduced_costs();
    status = primal_phase2(deadline);
  }
  // Phase 2 pivots may push a basic variable slightly out of bounds via
  // accumulated error (the explicit tableau drifts over thousands of
  // pivots on dense models). Repair by re-running phase 1 from the
  // current basis -- it restores feasibility in a few pivots -- and
  // re-optimizing; declare a numeric error only if two repairs fail.
  for (int repair = 0;
       repair < 2 && status == LpStatus::kOptimal &&
       infeasibility() > 64 * options_.feas_tol;
       ++repair) {
    status = primal_phase1(deadline);
    if (status == LpStatus::kOptimal) {
      compute_reduced_costs();
      status = primal_phase2(deadline);
    }
  }
  if (status == LpStatus::kOptimal &&
      infeasibility() > 64 * options_.feas_tol) {
    status = LpStatus::kNumericError;
  }
  return finish(status);
}

LpResult SimplexSolver::resolve() {
  if (!factorized_) return solve();
  if (!dj_valid_) compute_reduced_costs();
  if (!is_dual_feasible()) return solve();
  Deadline deadline(options_.time_limit_s);
  call_iter_base_ = iterations_;
  LpStatus status = dual_phase(deadline);
  if (status == LpStatus::kNumericError) return solve();
  // A dual-simplex infeasibility claim prunes a branch-and-bound subtree,
  // so it must be proven: by a Farkas row checked against the original
  // matrix, or -- when that check is inconclusive -- by a from-scratch
  // primal solve.
  if (status == LpStatus::kInfeasible) {
    if (!certify_infeasible(infeasible_row_)) {
      ++infeasible_cold_;
      obs::count("lp.infeasible.cold");
      return solve();
    }
    ++infeasible_certified_;
    obs::count("lp.infeasible.certified");
    LpResult result = finish(status);
    result.certified = true;
    return result;
  }
  if (status == LpStatus::kOptimal && infeasibility() > 64 * options_.feas_tol) {
    return solve();
  }
  return finish(status);
}

void SimplexSolver::set_col_bounds(int col, double lo, double hi) {
  ELRR_REQUIRE(col >= 0 && col < n_, "unknown structural column ", col);
  set_bounds_impl(col, lo, hi);
}

void SimplexSolver::set_row_bounds(int row, double lo, double hi) {
  ELRR_REQUIRE(row >= 0 && row < m_, "unknown row ", row);
  set_bounds_impl(n_ + row, lo, hi);
}

// Index-generic bound change: `col` is either a structural column
// (< n_) or a row's slack (n_ + row). The tableau treats both
// identically, so one body serves set_col_bounds and set_row_bounds.
void SimplexSolver::set_bounds_impl(int col, double lo, double hi) {
  ELRR_REQUIRE(!(lo > hi), "empty bounds");
  lo_[col] = lo;
  hi_[col] = hi;
  if (!factorized_) return;  // solve() will pick the bounds up

  if (where_[col] == Where::kBasic) return;  // resolve() repairs violations

  double new_value = value_[col];
  switch (where_[col]) {
    case Where::kAtLower:
      if (std::isfinite(lo)) {
        new_value = lo;
      } else if (std::isfinite(hi)) {
        where_[col] = Where::kAtUpper;
        new_value = hi;
      } else {
        where_[col] = Where::kFree;
        new_value = 0.0;
      }
      break;
    case Where::kAtUpper:
      if (std::isfinite(hi)) {
        new_value = hi;
      } else if (std::isfinite(lo)) {
        where_[col] = Where::kAtLower;
        new_value = lo;
      } else {
        where_[col] = Where::kFree;
        new_value = 0.0;
      }
      break;
    case Where::kFree:
      if (std::isfinite(lo)) {
        where_[col] = Where::kAtLower;
        new_value = lo;
      } else if (std::isfinite(hi)) {
        where_[col] = Where::kAtUpper;
        new_value = hi;
      }
      break;
    case Where::kBasic:
      break;
  }
  const double delta = new_value - value_[col];
  if (delta != 0.0) {
    for (int i = 0; i < m_; ++i) {
      const double a = tab(i, col);
      if (a != 0.0) value_[basis_[i]] -= a * delta;
    }
    value_[col] = new_value;
  }
}

SimplexSolver::State SimplexSolver::save_state() const {
  State s;
  s.factorized = factorized_;
  s.tab = tab_;
  s.slot_var = slot_var_;
  s.slot_of = slot_of_;
  s.basis = basis_;
  s.where = where_;
  s.value = value_;
  s.dj = dj_;
  s.lo = lo_;
  s.hi = hi_;
  s.dj_valid = dj_valid_;
  return s;
}

void SimplexSolver::restore_state(const State& state) {
  factorized_ = state.factorized;
  tab_ = state.tab;
  slot_var_ = state.slot_var;
  slot_of_ = state.slot_of;
  basis_ = state.basis;
  where_ = state.where;
  value_ = state.value;
  dj_ = state.dj;
  lo_ = state.lo;
  hi_ = state.hi;
  dj_valid_ = state.dj_valid;
  bland_ = false;
  degenerate_streak_ = 0;
}

std::vector<double> SimplexSolver::structural_values() const {
  return std::vector<double>(value_.begin(), value_.begin() + n_);
}

}  // namespace elrr::lp
