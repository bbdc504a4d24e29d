#pragma once

/// \file engine.hpp
/// Pipelined flow engine: runs the MIN_EFF_CYC Pareto walk and the
/// simulation scoring of its candidates *concurrently*.
///
/// The sequential MIN_EFF_CYC flow alternates budgeted MILP solves with
/// throughput scoring: optimize the whole frontier, then simulate every
/// candidate. After the SoA kernel and the fleet PRs the simulation side
/// is fast, but it still waits for the last MILP before the first run
/// starts -- on multi-candidate workloads the wall clock is
/// walk + simulation even though the two are independent per candidate.
///
/// flow::Engine overlaps them: the walk runs step-wise (core/opt's
/// resumable ParetoWalk), and every candidate a step emits is streamed
/// into a sim::SimFleet *asynchronously* (owning submissions -- the
/// configured Rrg moves into the fleet) while the next MILP step solves
/// on the caller's thread. The fleet's
/// session cache (canonical-key dedup, PR 3) persists across walk
/// iterations and across Engine::score calls, so revisited
/// configurations -- a routine artifact of Pareto walks -- are simulated
/// once per engine, ever.
///
/// Exact thetas: simulate only what is not known. Early evaluation
/// never fires later than late evaluation, so every candidate's
/// throughput lies in the sandwich theta_late <= theta <= Theta_lp
/// (late_eval_throughput and throughput_upper_bound of the configured
/// candidate). Where the two bounds meet -- Theta_lp - theta_late <=
/// 1e-9 Theta_lp -- theta is known exactly: the candidate gets
/// theta_late, stderr 0 and 0 cycles, and creates no fleet job and no
/// ticket (`fresh` false). Telescopic RRGs never take the rule:
/// theta_late ignores their variable latencies, so it bounds nothing
/// there. Every candidate that still simulates is checked against the
/// same bounds (obs counter `flow.bound_violations`, expected 0); the
/// rule's hits count as `flow.exact_thetas` (src/flow/README.md).
///
/// Determinism: while feedback pruning is unarmed (kOff, or kAuto on a
/// walk whose MILPs all finish -- every candidate exact), the engine's
/// Pareto front and every theta are bit-identical to the sequential
/// path (min_eff_cyc, then per candidate solo simulate_throughput where
/// the bounds differ and the exact theta_late where they meet, with the
/// same options) at *any* fleet thread count -- the walk runs
/// unmodified on one thread and the fleet's determinism contract pins
/// the simulated thetas. That holds with MILP warm-starting on or off
/// (opt.milp_warm): the walk's lp::MilpSession is pinned bit-identical
/// to the cold path by the differential suites. `overlap = false`
/// degrades gracefully to walk-then-score (same results; the honest
/// baseline the pipeline benchmarks compare against).
///
/// Feedback pruning (`feedback_pruning`): whenever a candidate's
/// simulation completes mid-walk (an exact theta counts as completed at
/// the next poll), its effective cycle time is fed back into the walk as a MILP cutoff
/// (ParetoWalk::set_xi_hint -> MilpOptions::target_obj/futile_bound):
/// MIN_CYC steps provably unable to beat the best simulated xi are
/// pruned instead of solved to optimality. This trades frontier
/// completeness for time on hard instances -- fronts may lose dominated
/// points. The default, kAuto, arms the feedback only once the walk
/// emits an *inexact* candidate (a MILP budget was hit -- the
/// budget-dominated shape of s382/s400 under tight timeouts): circuits
/// whose MILPs finish stay bit-exact, circuits already past exactness
/// stop burning budget on provably dominated steps. kOn forces the
/// hints from the first completed simulation; kOff never prunes. See
/// the data-driven retiming loop of "Application-aware Retiming of
/// Accelerators" (arXiv:1612.08163) for the measure-then-reoptimize
/// shape this makes first-class.
///
/// Cancellation: the `cancelled` predicate stops the walk at the next
/// step boundary, or before the next solve of a MAX_THR step;
/// run() still quiesces the fleet and returns the partial frontier with
/// `cancelled = true`. The engine and its fleet stay fully reusable.

#include <cstddef>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <tuple>
#include <vector>

#include "core/opt.hpp"
#include "core/rrg.hpp"
#include "sim/fleet.hpp"
#include "sim/simulator.hpp"

namespace elrr::flow {

/// When simulated thetas may prune the walk's MILP steps (file comment).
enum class FeedbackPruning {
  kOff,   ///< never: frontiers bit-exact vs the sequential path
  kOn,    ///< always: prune from the first completed simulation on
  kAuto,  ///< only after the walk emits an inexact (budget-hit) candidate
};

struct EngineOptions {
  /// Walk knobs (epsilon, per-MILP budgets, polish, treat_all_simple).
  OptOptions opt;
  /// Per-candidate simulation window (seed, cycles, runs). The
  /// per-job `threads` field is ignored -- the fleet pool below applies.
  sim::SimOptions sim;
  /// Fleet worker-pool size (0 = hardware concurrency). Purely a
  /// wall-clock knob: results are identical for every value.
  std::size_t sim_threads = 1;
  /// Byte cap of the owned fleet's session result cache (LRU past it;
  /// 0 = unbounded). Ignored when the engine runs on a shared fleet --
  /// the shared fleet's own cap applies. Results identical either way
  /// (eviction only forgets results for dedup, never corrupts them).
  std::size_t sim_cache_cap = sim::kDefaultSimCacheCapBytes;
  /// true = stream candidates into the fleet mid-walk (the pipeline);
  /// false = run the walk to completion first, then score (the
  /// sequential baseline). Results are identical; only wall clock moves.
  bool overlap = true;
  /// Feed completed simulated thetas back into the walk's MILP cutoffs
  /// (prunes dominated MIN_CYC steps; frontier no longer guaranteed
  /// complete once armed). kAuto arms only on budget-dominated walks --
  /// exact walks stay bit-identical to the sequential path.
  FeedbackPruning feedback_pruning = FeedbackPruning::kAuto;
  /// Observer called after each walk step with the emitted candidate and
  /// its index (in emission order). Runs on the engine's thread.
  std::function<void(const ParetoPoint&, std::size_t)> on_candidate;
  /// Cancellation predicate (may be empty): polled on the engine's thread
  /// after each emitted candidate and before every MILP solve of a
  /// MAX_THR step. Once it returns true the walk stops; each run() polls
  /// afresh.
  std::function<bool()> cancelled;
};

/// One frontier point with its simulation verdict.
struct ScoredPoint {
  ParetoPoint point;
  /// The fleet's report or, where the throughput bounds meet, the exact
  /// theta with stderr_theta 0 and 0 cycles (file comment).
  sim::SimResult sim;
  double xi_sim = 0.0;  ///< tau / theta_sim (effective cycle time)
  /// True when scoring this point created a new fleet simulation; false
  /// when the fleet's session cache already held the result, or when no
  /// simulation was needed (same schedule-dependence caveat as
  /// EngineResult::unique_simulations).
  bool fresh = false;
};

struct EngineResult {
  /// The walk's result -- identical to min_eff_cyc(rrg, options.opt)
  /// when feedback pruning never armed and the run was not cancelled.
  MinEffCycResult walk;
  /// One entry per walk.points entry (same order): the frontier, scored.
  std::vector<ScoredPoint> scored;
  /// Index into `scored` of the simulation-best (minimal xi_sim) point.
  std::size_t best_sim_index = 0;
  std::size_t candidates_submitted = 0;  ///< walk emissions (pre-dedup)
  /// Fleet jobs this run newly created (fresh tickets). Deterministic on
  /// an owned fleet; on a shared fleet a concurrent job may simulate a
  /// candidate first, lowering this count -- a stat, never a result.
  std::size_t unique_simulations = 0;
  int pruned_steps = 0;   ///< MIN_CYC steps the feedback hint pruned
  /// Counters of the walk's MILP session (warm vs cold solves, simplex
  /// iterations, per-solve seconds) -- the BENCH `milp` section's input.
  lp::SessionStats milp;
  bool cancelled = false;
  double walk_seconds = 0.0;      ///< time inside ParetoWalk::advance
  double sim_wait_seconds = 0.0;  ///< time blocked on the fleet afterwards
  double seconds = 0.0;           ///< wall clock of run()

  const ScoredPoint& best_by_sim() const { return scored[best_sim_index]; }
};

/// Pipelined Pareto-walk + scoring engine over one RRG. Reusable: run(),
/// score() and further run()s share one fleet (and its result cache).
/// Single-user (one thread drives the engine) -- but many engines may
/// run concurrently on one *shared* fleet (the svc::Scheduler shape): the
/// fleet's async API is multi-client, and per-engine results are
/// bit-identical to a solo run whatever the interleaving (the fleet's
/// determinism contract).
class Engine {
 public:
  /// Owned-fleet engine: spawns its own sim::SimFleet per `options`.
  explicit Engine(const Rrg& rrg, const EngineOptions& options = {});
  /// Shared-fleet engine: scores candidates on `shared_fleet`, which
  /// must outlive the engine. `sim_threads`/`sim_cache_cap` in
  /// `options` are ignored (the shared fleet's configuration
  /// applies); all result-affecting knobs (`opt`, `sim`) behave exactly
  /// as in the owned-fleet constructor.
  Engine(const Rrg& rrg, const EngineOptions& options,
         sim::SimFleet& shared_fleet);

  /// Runs the walk, streaming candidates into the fleet (overlap on) or
  /// scoring them afterwards (overlap off), and returns the scored
  /// frontier. The fleet is quiesced before returning.
  EngineResult run();

  /// Scores arbitrary configurations (e.g. a heuristic's Pareto points)
  /// through the engine's fleet and cache: points already simulated by a
  /// previous run()/score() -- canonical content + options equal -- cost
  /// nothing. Returns one ScoredPoint per input, in order.
  std::vector<ScoredPoint> score(const std::vector<ParetoPoint>& points);

  /// The underlying fleet (observability: cache_stats, pool_size;
  /// reusable after cancellation like after a normal run). The shared
  /// one when the engine was constructed onto it.
  sim::SimFleet& fleet() { return *fleet_; }
  const EngineOptions& options() const { return options_; }
  /// Distinct configurations this engine scored exactly, without a
  /// simulation, over every run() and score() so far.
  std::size_t exact_thetas() const { return exact_thetas_; }

 private:
  /// How one candidate is scored (engine.cpp): a fleet ticket or, where
  /// the throughput bounds meet, no ticket and the exact theta.
  struct Pending;
  struct ConfigLess {
    bool operator()(const RrConfig& a, const RrConfig& b) const {
      return std::tie(a.tokens, a.buffers) < std::tie(b.tokens, b.buffers);
    }
  };

  Pending submit_candidate(const ParetoPoint& point);
  /// The candidate's report: its exact theta, or the fleet's once the
  /// simulation completes (a fresh one checked against its bounds).
  sim::SimResult collect(const Pending& pending);

  /// Own copy of the input (treat_all_simple already applied): engine
  /// lifetime never depends on the caller's Rrg staying alive, and
  /// candidates are configured from exactly the graph the walk solved.
  const Rrg base_;
  EngineOptions options_;
  std::unique_ptr<sim::SimFleet> owned_fleet_;  ///< null on a shared fleet
  sim::SimFleet* fleet_;  ///< owned_fleet_.get() or the shared fleet
  /// Every configuration scored so far: its exact theta where the bounds
  /// met, nullopt where it simulates (scored again, it skips the bounds).
  std::map<RrConfig, std::optional<double>, ConfigLess> known_;
  std::size_t exact_thetas_ = 0;
};

}  // namespace elrr::flow
