#pragma once

/// \file circuit_flow.hpp
/// The full DAC'09 experiment flow for one circuit: generate -> optimize
/// late & early -> simulate the Pareto candidates -> every number the
/// paper's tables report. Library code (moved here from bench/flow.* so
/// the svc::Scheduler and the elrr CLI can run it): the table/figure
/// benches, `elrr batch` jobs and the scheduler all share this one
/// implementation.
///
/// The early-evaluation walk runs through the pipelined flow::Engine
/// (flow/engine.hpp): each Pareto candidate streams into a simulation
/// fleet while the next MILP step solves, and the fleet's session cache
/// dedups revisited configurations across the walk and the heuristic
/// merge. Results are bit-identical to the sequential walk-then-score
/// path for every thread count (EngineOptions::overlap = false runs that
/// sequential path for comparison) -- and, via FlowHooks::fleet, to a
/// run on a *shared* multi-client fleet at any job interleaving (the
/// fleet's determinism contract).
///
/// Environment knobs (all optional; FlowOptions::from_env *validates*
/// them -- a malformed, negative or out-of-range value throws
/// InvalidInputError instead of being silently coerced):
///   ELRR_SEED            benchmark seed              (default 1)
///   ELRR_EPSILON         MIN_EFF_CYC epsilon         (default 0.05; paper 0.01)
///   ELRR_MILP_TIMEOUT    seconds per MILP            (default 6; > 0)
///   ELRR_SIM_CYCLES      measured cycles per run     (default 20000; >= 1)
///   ELRR_SIM_THREADS     simulation worker threads   (default 1; 0 = all cores)
///   ELRR_SIM_CACHE_CAP   byte cap of the fleet's session result cache
///                        (default 268435456 = 256 MiB; 0 = unbounded;
///                        results identical either way)
///   ELRR_POLISH          1 = MAX_THR polish          (default 0)
///   ELRR_HEUR            0 = paper-pure flow         (default 1)
///   ELRR_EXACT_MAX_EDGES exact-MILP edge ceiling     (default 150)
///   ELRR_TABLE2_FULL     1 = all 18 circuits         (default: <= 150 edges)

#include <cstdlib>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "bench89/generator.hpp"
#include "core/analysis.hpp"
#include "core/opt.hpp"
#include "lp/session.hpp"
#include "sim/fleet.hpp"
#include "sim/simulator.hpp"

namespace elrr::flow {

struct FlowOptions {
  std::uint64_t seed = 1;
  double epsilon = 0.05;
  double milp_timeout_s = 6.0;
  std::size_t sim_cycles = 20000;
  /// Worker-pool size of the candidate-scoring SimFleet (0 = all cores);
  /// deterministic: thread count never changes the reported theta.
  std::size_t sim_threads = 1;
  /// Byte cap of the scoring fleet's session result cache (LRU past it;
  /// 0 = unbounded). Applies to the fleet this flow creates -- a shared
  /// fleet passed through FlowHooks keeps its own cap. Bit-identical
  /// results either way; env ELRR_SIM_CACHE_CAP.
  std::size_t sim_cache_cap = sim::kDefaultSimCacheCapBytes;
  std::size_t max_simulated_points = 8;
  /// Run the MAX_THR polish inside MIN_EFF_CYC (paper-exact, slower);
  /// env ELRR_POLISH=1. bench_table1 enables it by default.
  bool polish = false;
  /// Merge the MILP-free heuristic's Pareto points into the candidate
  /// set (both for the early walk and the late baseline). This is our
  /// extension beyond the paper -- it costs milliseconds and rescues
  /// circuits whose MILPs hit their budgets; env ELRR_HEUR=0 restores
  /// the paper-pure flow.
  bool use_heuristic = true;
  /// Skip the exact MILP walk entirely and rely on the heuristic alone
  /// (the scalable mode for circuits past the MILP's reach -- the paper
  /// calls graphs with > 1000 edges "difficult to solve exactly").
  bool heuristic_only = false;
  /// Edge count above which run_circuit switches to heuristic_only
  /// automatically; env ELRR_EXACT_MAX_EDGES (default 150).
  int exact_max_edges = 150;

  static FlowOptions from_env();
};

/// Service hooks for a flow run: everything the svc::Scheduler threads
/// through run_flow so many concurrent jobs share one infrastructure.
/// All fields optional; a default FlowHooks reproduces the standalone
/// flow exactly.
struct FlowHooks {
  /// Score candidates on this multi-client fleet instead of spawning a
  /// per-flow one (must outlive the call). Results are bit-identical to
  /// the owned-fleet run at any worker count and job interleaving.
  sim::SimFleet* fleet = nullptr;
  /// Polled at every step of both walks (the late-evaluation baseline
  /// and the early-evaluation engine's, after each emitted candidate);
  /// returning true stops the running walk at its next step boundary.
  /// The flow returns a partial result with `cancelled = true`; the
  /// fleet stays reusable.
  std::function<bool()> cancelled;
  /// Observer of walk progress: called with the number of candidates
  /// emitted so far (1-based, monotone), on the flow's thread.
  std::function<void(std::size_t)> on_progress;
};

/// One simulated Pareto candidate (a row of Table 1).
struct CandidateRow {
  double tau = 0.0;
  double theta_lp = 0.0;
  double theta_sim = 0.0;
  double err_percent = 0.0;  ///< (theta_lp - theta_sim) / theta_sim * 100
  double xi_lp = 0.0;        ///< tau / theta_lp
  double xi_sim = 0.0;       ///< tau / theta_sim
  int bubbles = 0;           ///< total inserted empty EBs vs the input RRG
  bool exact = true;
};

/// Everything a Table-2 row needs.
struct CircuitResult {
  std::string name;
  int n_simple = 0, n_early = 0, n_edges = 0;
  double xi_star = 0.0;     ///< original effective cycle time (theta = 1)
  double xi_nee = 0.0;      ///< late-evaluation optimum (all nodes simple)
  double xi_lp_min = 0.0;   ///< simulated xi of the xi_lp-best config
  double xi_sim_min = 0.0;  ///< best simulated xi among candidates
  double improve_percent = 0.0;  ///< (xi_nee - xi_sim_min)/xi_nee * 100
  double delta_percent = 0.0;    ///< (xi_lp_min - xi_sim_min)/xi_sim_min * 100
  std::vector<CandidateRow> candidates;  ///< all simulated Pareto points
  bool all_exact = true;
  bool cancelled = false;  ///< FlowHooks::cancelled stopped the walk
  double seconds = 0.0;
  // Structured progress/stats (the scheduler's per-job report).
  std::size_t candidates_walked = 0;   ///< walk emissions (pre-dedup)
  std::size_t sim_jobs = 0;            ///< candidates this flow scored
  std::size_t unique_simulations = 0;  ///< fresh fleet jobs (rest were cached)
  /// Distinct candidates scored exactly, with no simulation: their
  /// throughput bounds met (flow/engine.hpp).
  std::size_t exact_thetas = 0;
  double walk_seconds = 0.0;           ///< time inside ParetoWalk::advance
  double sim_wait_seconds = 0.0;       ///< time blocked on the fleet
  lp::SessionStats milp;               ///< the walk's MILP-session stats
};

/// The per-candidate simulation window the flow scores with (seed mix,
/// cycles, warmup, runs). Exposed so svc::Scheduler's score-only and
/// MIN_CYC jobs simulate with the *identical* options -- their fleet
/// submissions then dedup against flow jobs of the same circuit.
sim::SimOptions scoring_options(const FlowOptions& options);

/// Runs the full flow on an RRG (already strongly connected and live).
CircuitResult run_flow(const std::string& name, const Rrg& rrg,
                       const FlowOptions& options,
                       const FlowHooks& hooks = {});

/// Convenience: generate the named Table-2 circuit and run the flow.
CircuitResult run_circuit(const std::string& name, const FlowOptions& options,
                          const FlowHooks& hooks = {});

}  // namespace elrr::flow
