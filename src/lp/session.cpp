#include "lp/session.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <optional>

#include "obs/recorder.hpp"
#include "obs/trace.hpp"
#include "support/failpoint.hpp"
#include "support/stopwatch.hpp"

namespace elrr::lp {

namespace {

// Branch & bound settings every solve shares.
constexpr double kIntTol = 1e-6;            ///< integrality tolerance
constexpr double kGapAbs = 1e-9;            ///< absolute optimality gap
constexpr double kGapRel = 1e-9;            ///< relative optimality gap
constexpr bool kRoundingHeuristic = true;   ///< run fix-and-round
constexpr int kRoundingPeriod = 16;         ///< ... every k nodes

struct BoundChange {
  int col;
  double lo;
  double hi;
};

struct Node {
  double bound;  ///< parent LP objective (internal minimize sense)
  int depth;
  std::vector<BoundChange> changes;  ///< cumulative from the root
  /// The parent's optimal engine state, shared by both children: it
  /// already holds every change but the last. Null when the snapshot
  /// budget was full; the node then replays `changes` from the root.
  std::shared_ptr<const SimplexSolver::State> parent;
};

struct NodeOrder {
  bool operator()(const Node& a, const Node& b) const {
    if (a.bound != b.bound) return a.bound > b.bound;  // min-heap on bound
    return a.depth < b.depth;                          // deeper first on ties
  }
};

class BranchAndBound {
 public:
  BranchAndBound(const Model& model, const MilpOptions& options,
                 detail::WarmContext* warm)
      : model_(model),
        options_(options),
        flip_(model.sense() == Sense::kMaximize ? -1.0 : 1.0),
        deadline_(options.time_limit_s),
        warm_(warm),
        own_engine_(warm && warm->engine
                        ? std::nullopt
                        : std::optional<SimplexSolver>(std::in_place, model,
                                                       options.lp)),
        engine_(warm && warm->engine ? *warm->engine : *own_engine_) {
    for (int j = 0; j < model.num_cols(); ++j) {
      if (model.col(j).is_integer) int_cols_.push_back(j);
    }
  }

  MilpResult run() {
    Stopwatch watch;
    const std::int64_t iter_base = engine_.total_iterations();
    const std::int64_t certified_base = engine_.infeasible_certified();
    const std::int64_t cold_base = engine_.infeasible_cold();
    MilpResult result = search();
    result.seconds = watch.seconds();
    result.lp_iterations = engine_.total_iterations() - iter_base;
    result.infeasible_certified =
        engine_.infeasible_certified() - certified_base;
    result.infeasible_cold = engine_.infeasible_cold() - cold_base;
    result.peak_snapshot_bytes = peak_snapshot_bytes_;
    obs::count("lp.node.parent_warm",
               static_cast<std::uint64_t>(result.warm_nodes));
    obs::count("lp.node.root_replay",
               static_cast<std::uint64_t>(result.replayed_nodes));
    return result;
  }

 private:
  /// Objective in internal (minimize) sense.
  double inner(const LpResult& r) const { return flip_ * r.objective; }

  void sync_engine_deadline() {
    double lp_limit = options_.lp.time_limit_s;
    if (!deadline_.unlimited()) {
      const double remaining = std::max(0.05, deadline_.remaining());
      lp_limit = lp_limit > 0 ? std::min(lp_limit, remaining) : remaining;
    }
    engine_.set_time_limit(lp_limit);
  }

  /// Tightened root bounds for integer columns (ceil/floor of LP
  /// bounds). False when some integer domain is empty (e.g. bounds
  /// (0.3, 0.8) contain no integer): the MILP is trivially infeasible.
  bool tighten_integer_bounds() {
    for (int j : int_cols_) {
      const Column& c = model_.col(j);
      const double lo = std::isfinite(c.lo) ? std::ceil(c.lo - kIntTol) : c.lo;
      const double hi = std::isfinite(c.hi) ? std::floor(c.hi + kIntTol) : c.hi;
      if (lo > hi) return false;
      root_lo_.push_back(lo);
      root_hi_.push_back(hi);
      engine_.set_col_bounds(j, lo, hi);
    }
    return true;
  }

  /// Re-imposes every current bound on the engine: the model's column
  /// bounds (root-tightened for integer columns) and row ranges. A
  /// borrowed persistent engine needs this both after restore_state
  /// (which clobbers lo_/hi_ with the snapshot's) and before a cold
  /// solve (a previous run leaves node bounds behind).
  void apply_current_bounds() {
    std::size_t k = 0;
    for (int j = 0; j < model_.num_cols(); ++j) {
      double lo = model_.col(j).lo;
      double hi = model_.col(j).hi;
      if (k < int_cols_.size() && int_cols_[k] == j) {
        lo = root_lo_[k];
        hi = root_hi_[k];
        ++k;
      }
      engine_.set_col_bounds(j, lo, hi);
    }
    for (int i = 0; i < model_.num_rows(); ++i) {
      engine_.set_row_bounds(i, model_.row(i).lo, model_.row(i).hi);
    }
  }

  /// Shape check before trusting a snapshot from a previous solve: a
  /// stale/corrupt state (wrong model, truncated vectors) falls back to
  /// the cold path instead of feeding garbage to the dual simplex.
  bool state_shape_ok(const SimplexSolver::State& s) const {
    const std::size_t cols = static_cast<std::size_t>(model_.num_cols());
    const std::size_t rows = static_cast<std::size_t>(model_.num_rows());
    const std::size_t total = cols + rows;
    return s.factorized && s.tab.size() == rows * cols &&
           s.slot_var.size() == cols && s.slot_of.size() == total &&
           s.basis.size() == rows &&
           s.where.size() == total && s.value.size() == total &&
           s.dj.size() == total && s.lo.size() == total &&
           s.hi.size() == total;
  }

  int most_fractional(const std::vector<double>& x) const {
    int best = -1;
    double best_frac = kIntTol;
    for (int j : int_cols_) {
      const double v = x[static_cast<std::size_t>(j)];
      const double frac = std::abs(v - std::round(v));
      if (frac > best_frac) {
        best_frac = frac;
        best = j;
      }
    }
    return best;
  }

  void update_incumbent(const LpResult& lp) {
    const double obj = inner(lp);
    if (has_incumbent_ && obj >= incumbent_obj_ - 1e-12) return;
    has_incumbent_ = true;
    incumbent_obj_ = obj;
    incumbent_x_ = lp.x;
    for (int j : int_cols_) {
      incumbent_x_[static_cast<std::size_t>(j)] =
          std::round(incumbent_x_[static_cast<std::size_t>(j)]);
    }
  }

  /// Fix-and-round primal heuristic: fix every integer column to a
  /// rounding of the node LP point (clamped to root bounds) and re-solve
  /// the continuous rest. Tried with nearest-rounding and with ceiling
  /// (the latter matters for covering-style models such as the retiming
  /// path constraints, where more buffers never hurt feasibility).
  void try_rounding(const std::vector<double>& x,
                    const SimplexSolver::State& root_state) {
    for (const bool use_ceil : {false, true}) {
      engine_.restore_state(root_state);
      for (std::size_t k = 0; k < int_cols_.size(); ++k) {
        const int j = int_cols_[k];
        const double raw = x[static_cast<std::size_t>(j)];
        double v = use_ceil ? std::ceil(raw - kIntTol) : std::round(raw);
        v = std::min(std::max(v, root_lo_[k]), root_hi_[k]);
        engine_.set_col_bounds(j, v, v);
      }
      sync_engine_deadline();
      const LpResult lp = engine_.resolve();
      if (lp.status == LpStatus::kOptimal) update_incumbent(lp);
    }
  }

  /// Warm incumbent seed: fix the integer columns to the previous
  /// solve's solution (clamped to the current root bounds) and price
  /// the continuous rest. One dual resolve; on success the search
  /// starts with a finite cutoff instead of discovering one node by
  /// node.
  void try_seed(const std::vector<double>& x,
                const SimplexSolver::State& root_state) {
    engine_.restore_state(root_state);
    for (std::size_t k = 0; k < int_cols_.size(); ++k) {
      const int j = int_cols_[k];
      double v = std::round(x[static_cast<std::size_t>(j)]);
      v = std::min(std::max(v, root_lo_[k]), root_hi_[k]);
      engine_.set_col_bounds(j, v, v);
    }
    sync_engine_deadline();
    const LpResult lp = engine_.resolve();
    if (lp.status == LpStatus::kOptimal) {
      update_incumbent(lp);
      if (warm_) warm_->incumbent_seeded = has_incumbent_;
    }
  }

  /// Bytes one engine snapshot holds, from its vector sizes: every
  /// snapshot of this model has the same shape, so the budget check is a
  /// pure function of the search sequence.
  static std::int64_t state_bytes(const SimplexSolver::State& s) {
    const std::size_t doubles = s.tab.size() + s.value.size() + s.dj.size() +
                                s.lo.size() + s.hi.size();
    const std::size_t ints =
        s.slot_var.size() + s.slot_of.size() + s.basis.size();
    return static_cast<std::int64_t>(sizeof(s) + doubles * sizeof(double) +
                                     ints * sizeof(int) +
                                     s.where.size() * sizeof(s.where[0]));
  }

  /// Snapshot of the engine's current optimal state for a node's
  /// children, or null when it would overrun kNodeSnapshotBudgetBytes.
  /// There is no eviction: the bytes come back when the last child
  /// holding the snapshot drops it.
  std::shared_ptr<const SimplexSolver::State> snapshot_for_children() {
    if (live_snapshot_bytes_ + snapshot_bytes_ > kNodeSnapshotBudgetBytes) {
      return nullptr;
    }
    auto* state = new SimplexSolver::State(engine_.save_state());
    live_snapshot_bytes_ += snapshot_bytes_;
    peak_snapshot_bytes_ = std::max(peak_snapshot_bytes_,
                                    live_snapshot_bytes_);
    return std::shared_ptr<const SimplexSolver::State>(
        state, [this](const SimplexSolver::State* s) {
          live_snapshot_bytes_ -= snapshot_bytes_;
          delete s;
        });
  }

  /// Puts the engine at the node's LP before its re-solve: the parent's
  /// snapshot plus the node's own bound when it has one (and the
  /// `milp.node_warm` fail point holds), else the root relaxation with
  /// every change replayed. Both reach the same bounds.
  void load_node(const Node& node, const SimplexSolver::State& root_state,
                 MilpResult& result) {
    if (node.parent) {
      try {
        failpoint::trip("milp.node_warm");
        engine_.restore_state(*node.parent);
        const BoundChange& own = node.changes.back();
        engine_.set_col_bounds(own.col, own.lo, own.hi);
        ++result.warm_nodes;
        return;
      } catch (const failpoint::FailPointError&) {
        // Fall through to the root path, which any node can take.
      }
    }
    engine_.restore_state(root_state);
    for (const auto& change : node.changes) {
      engine_.set_col_bounds(change.col, change.lo, change.hi);
    }
    if (!node.changes.empty()) ++result.replayed_nodes;
  }

  bool should_prune(double bound) const {
    if (!has_incumbent_) return false;
    const double slack =
        std::max(kGapAbs, std::abs(incumbent_obj_) * kGapRel);
    return bound >= incumbent_obj_ - slack;
  }

  MilpResult search() {
    MilpResult result;
    // Decision-problem cutoffs in internal (minimize) sense.
    const double target_inner = std::isnan(options_.target_obj)
                                    ? -kInf
                                    : flip_ * options_.target_obj;
    const double futile_inner = std::isnan(options_.futile_bound)
                                    ? kInf
                                    : flip_ * options_.futile_bound;
    if (!tighten_integer_bounds()) {
      result.status = MilpStatus::kInfeasible;
      return result;
    }

    const bool borrowed = warm_ && warm_->engine;
    LpResult root;
    bool have_root = false;
    if (borrowed && warm_->root_state) {
      if (state_shape_ok(*warm_->root_state)) {
        try {
          failpoint::trip("milp.warm");
          engine_.restore_state(*warm_->root_state);
          apply_current_bounds();
          sync_engine_deadline();
          root = engine_.resolve();
          have_root = true;
          warm_->warm_root_used = true;
        } catch (const failpoint::FailPointError&) {
          warm_->failpoint_fallback = true;
        }
      } else {
        warm_->failpoint_fallback = true;
      }
    }
    if (!have_root) {
      // Cold start. build_initial_basis resets the tableau, basis and
      // pivot-rule state from the problem data alone, so this path is
      // bit-identical to a fresh engine -- but a borrowed engine still
      // carries the previous run's node bounds, which must go first.
      if (borrowed) apply_current_bounds();
      sync_engine_deadline();
      root = engine_.solve();
    }
    if (root.status == LpStatus::kInfeasible) {
      result.status = MilpStatus::kInfeasible;
      return result;
    }
    if (root.status == LpStatus::kUnbounded) {
      result.status = MilpStatus::kUnbounded;
      return result;
    }
    if (root.status != LpStatus::kOptimal) {
      result.status = root.status == LpStatus::kNumericError
                          ? MilpStatus::kNumericError
                          : MilpStatus::kNoSolution;
      return result;
    }

    if (warm_ && warm_->root_state_out) {
      *warm_->root_state_out = engine_.save_state();
      warm_->root_state_written = true;
    }
    if (int_cols_.empty()) {
      // A pure LP is its own root relaxation.
      result.status = MilpStatus::kOptimal;
      result.objective = root.objective;
      result.best_bound = root.objective;
      result.x = root.x;
      result.nodes = 1;
      return result;
    }
    const SimplexSolver::State root_state = engine_.save_state();
    if (warm_ && warm_->seed_incumbent && warm_->incumbent &&
        warm_->incumbent->size() ==
            static_cast<std::size_t>(model_.num_cols())) {
      try_seed(*warm_->incumbent, root_state);
    }
    double unresolved_bound = kInf;  // bounds of nodes we failed to process

    snapshot_bytes_ = state_bytes(root_state);
    // A binary heap under NodeOrder (what std::priority_queue keeps), held
    // in a vector so a popped node can be moved out with its snapshot.
    std::vector<Node> open;
    const auto push = [&open](Node node) {
      open.push_back(std::move(node));
      std::push_heap(open.begin(), open.end(), NodeOrder{});
    };
    push(Node{inner(root), 0, {}, nullptr});

    bool hit_limit = false;
    bool hit_target = false;
    bool proven_futile = false;
    double futile_proof = kInf;
    while (!open.empty()) {
      if (deadline_.expired() ||
          (options_.max_nodes >= 0 && result.nodes >= options_.max_nodes)) {
        hit_limit = true;
        break;
      }
      if (has_incumbent_ && incumbent_obj_ <= target_inner) {
        hit_target = true;
        break;
      }
      // Best-first order: the top node's bound is the global lower bound
      // (unresolved nodes keep their bound alive in unresolved_bound).
      const double global_bound = std::min(open.front().bound, unresolved_bound);
      if (global_bound > futile_inner &&
          (!has_incumbent_ || incumbent_obj_ > futile_inner)) {
        proven_futile = true;
        futile_proof = global_bound;
        break;
      }
      std::pop_heap(open.begin(), open.end(), NodeOrder{});
      Node node = std::move(open.back());
      open.pop_back();
      if (should_prune(node.bound)) continue;  // bound inherited from parent
      ++result.nodes;

      load_node(node, root_state, result);
      node.parent.reset();  // the last child to go frees the snapshot
      std::vector<double> eff_lo = root_lo_;
      std::vector<double> eff_hi = root_hi_;
      for (const auto& change : node.changes) {
        for (std::size_t k = 0; k < int_cols_.size(); ++k) {
          if (int_cols_[k] == change.col) {
            eff_lo[k] = change.lo;
            eff_hi[k] = change.hi;
          }
        }
      }
      sync_engine_deadline();
      LpResult lp = engine_.resolve();
      if (lp.status == LpStatus::kInfeasible) continue;
      if (lp.status != LpStatus::kOptimal) {
        // Could not resolve this node (limits / numerics): its subtree
        // remains unexplored, so its bound must survive in best_bound.
        unresolved_bound = std::min(unresolved_bound, node.bound);
        if (deadline_.expired()) {
          hit_limit = true;
          break;
        }
        continue;
      }
      const double bound = inner(lp);
      if (should_prune(bound)) continue;

      const int branch_col = most_fractional(lp.x);
      if (branch_col < 0) {
        update_incumbent(lp);
        continue;
      }

      // Taken before try_rounding, which clobbers the engine.
      std::shared_ptr<const SimplexSolver::State> snapshot =
          snapshot_for_children();
      if (kRoundingHeuristic &&
          (result.nodes == 1 || result.nodes % kRoundingPeriod == 0)) {
        const std::vector<double> x_node = lp.x;
        try_rounding(x_node, root_state);
        if (should_prune(bound)) continue;
        lp.x = x_node;
      }

      const double v = lp.x[static_cast<std::size_t>(branch_col)];
      double cur_lo = kInf, cur_hi = -kInf;
      for (std::size_t k = 0; k < int_cols_.size(); ++k) {
        if (int_cols_[k] == branch_col) {
          cur_lo = eff_lo[k];
          cur_hi = eff_hi[k];
        }
      }
      const double down_hi = std::floor(v);
      const double up_lo = std::ceil(v);
      if (down_hi >= cur_lo) {
        Node child{bound, node.depth + 1, node.changes, snapshot};
        child.changes.push_back({branch_col, cur_lo, down_hi});
        push(std::move(child));
      }
      if (up_lo <= cur_hi) {
        Node child{bound, node.depth + 1, node.changes, std::move(snapshot)};
        child.changes.push_back({branch_col, up_lo, cur_hi});
        push(std::move(child));
      }
    }

    // Assemble the final answer.
    if (proven_futile) {
      result.status = MilpStatus::kFutile;
      result.best_bound = flip_ * futile_proof;
      if (has_incumbent_) {
        result.objective = flip_ * incumbent_obj_;
        result.x = incumbent_x_;
      }
      return result;
    }
    double open_bound = unresolved_bound;
    for (const Node& node : open) {
      open_bound = std::min(open_bound, node.bound);
    }
    const bool proven = !hit_limit && !hit_target && open_bound == kInf;

    if (has_incumbent_) {
      result.objective = flip_ * incumbent_obj_;
      result.x = incumbent_x_;
      const double inner_bound =
          proven ? incumbent_obj_ : std::min(open_bound, incumbent_obj_);
      result.best_bound = flip_ * inner_bound;
      result.status = proven ? MilpStatus::kOptimal : MilpStatus::kFeasible;
    } else if (proven) {
      result.status = MilpStatus::kInfeasible;
    } else {
      result.status = MilpStatus::kNoSolution;
      result.best_bound = open_bound == kInf ? flip_ * inner(root)
                                             : flip_ * open_bound;
    }
    return result;
  }

  const Model& model_;
  MilpOptions options_;
  double flip_;
  Deadline deadline_;
  detail::WarmContext* warm_;
  std::optional<SimplexSolver> own_engine_;
  SimplexSolver& engine_;
  std::vector<int> int_cols_;
  std::vector<double> root_lo_, root_hi_;  // tightened integer bounds
  // Parent snapshots alive in the open list (kNodeSnapshotBudgetBytes).
  std::int64_t snapshot_bytes_ = 0;  ///< one snapshot of this model
  std::int64_t live_snapshot_bytes_ = 0;
  std::int64_t peak_snapshot_bytes_ = 0;

  bool has_incumbent_ = false;
  double incumbent_obj_ = kInf;
  std::vector<double> incumbent_x_;
};

}  // namespace

namespace detail {

MilpResult solve_branch_and_bound(const Model& model,
                                  const MilpOptions& options,
                                  WarmContext* warm) {
  BranchAndBound solver(model, options, warm);
  return solver.run();
}

}  // namespace detail

// ---------------------------------------------------------------- session

MilpSession::MilpSession(Model model, MilpOptions options)
    : model_(std::move(model)), options_(options) {
  model_.validate();
}

void MilpSession::set_row_bounds(int row, double lo, double hi) {
  model_.set_row_bounds(row, lo, hi);
}

void MilpSession::set_col_bounds(int col, double lo, double hi) {
  model_.set_col_bounds(col, lo, hi);
}

void MilpSession::set_cutoffs(double target_obj, double futile_bound) {
  options_.target_obj = target_obj;
  options_.futile_bound = futile_bound;
}

void MilpSession::set_time_limit(double seconds) {
  options_.time_limit_s = seconds;
}

void MilpSession::invalidate_warm() {
  root_state_.reset();
  last_x_.clear();
  has_last_x_ = false;
}

MilpResult MilpSession::solve() {
  failpoint::trip("milp.solve");
  OBS_SPAN("milp.solve");
  // Flight-recorder lifecycle mark: a postmortem of a process that died
  // inside the solver shows how deep into the session it was.
  obs::rec::event("milp.solve",
                  static_cast<std::uint64_t>(stats_.solves + 1));
  ++stats_.solves;
  const std::int64_t cold_before = stats_.cold_solves;
  Stopwatch watch;
  MilpResult result = search();
  stats_.solve_seconds += watch.seconds();
  // Warm vs cold is decided inside search(); read it back off the stats
  // delta so the trace counters agree with SessionStats.
  obs::count(stats_.cold_solves > cold_before ? "milp.solve.cold"
                                              : "milp.solve.warm");
  stats_.nodes += result.nodes;
  stats_.lp_iterations += result.lp_iterations;
  stats_.infeasible_certified += result.infeasible_certified;
  stats_.infeasible_cold += result.infeasible_cold;
  stats_.warm_nodes += result.warm_nodes;
  stats_.replayed_nodes += result.replayed_nodes;
  stats_.peak_snapshot_bytes =
      std::max(stats_.peak_snapshot_bytes, result.peak_snapshot_bytes);
  if (result.has_solution()) {
    last_x_ = result.x;
    has_last_x_ = true;
  }
  return result;
}

MilpResult MilpSession::search() {
  if (!warm_) {
    ++stats_.cold_solves;
    return detail::solve_branch_and_bound(model_, options_, nullptr);
  }
  if (!engine_) engine_ = std::make_unique<SimplexSolver>(model_, options_.lp);
  detail::WarmContext ctx;
  ctx.engine = engine_.get();
  ctx.root_state = root_state_.get();
  ctx.incumbent = has_last_x_ ? &last_x_ : nullptr;
  ctx.seed_incumbent = seed_incumbent_;
  SimplexSolver::State new_root;
  ctx.root_state_out = &new_root;
  if (ctx.root_state) ++stats_.warm_attempts;
  MilpResult result = detail::solve_branch_and_bound(model_, options_, &ctx);
  if (ctx.warm_root_used) {
    ++stats_.warm_roots;
  } else if (ctx.failpoint_fallback) {
    ++stats_.warm_fallbacks;
  } else if (!ctx.root_state) {
    ++stats_.cold_solves;
  }
  if (ctx.incumbent_seeded) ++stats_.warm_seeds;
  if (ctx.root_state_written) {
    root_state_ =
        std::make_unique<SimplexSolver::State>(std::move(new_root));
  }
  return result;
}

}  // namespace elrr::lp
