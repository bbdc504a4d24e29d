#include "flow/circuit_flow.hpp"

#include <algorithm>
#include <cctype>
#include <climits>
#include <cmath>
#include <cstring>

#include "flow/engine.hpp"
#include "heur/heuristic.hpp"
#include "support/env.hpp"
#include "support/error.hpp"
#include "support/stats.hpp"
#include "support/stopwatch.hpp"

namespace elrr::flow {

namespace {

/// Heuristic budget scaled to the instance: dense circuits get fewer
/// probes. Each probe checks one configuration in O(V + E) and evaluates
/// its cycle time and throughput bound (one policy iteration, no LP) on
/// the search's reused ConfigEvaluator; no copy is made. The tiers date
/// from when that bound was a dense LP, ~quadratic in the edge count;
/// they are kept as tuned so results do not move.
HeuristicOptions scaled_heuristic(const Rrg& rrg) {
  HeuristicOptions hopt;
  const std::size_t edges = rrg.num_edges();
  if (edges > 350) {
    hopt.max_lp_evals = 80;
    hopt.max_bubble_rounds = 32;
    hopt.max_polish_rounds = 1;
    hopt.max_edges_per_round = 8;
  } else if (edges > 150) {
    hopt.max_lp_evals = 300;
    hopt.max_bubble_rounds = 64;
    hopt.max_polish_rounds = 3;
    hopt.max_edges_per_round = 16;
  }
  return hopt;
}

}  // namespace

FlowOptions FlowOptions::from_env() {
  constexpr std::uint64_t kNoCap = ~std::uint64_t{0};
  FlowOptions options;
  options.seed = env::u64("ELRR_SEED", 1, 0, kNoCap);
  options.epsilon = env::positive_double("ELRR_EPSILON", 0.05);
  options.milp_timeout_s = env::positive_double("ELRR_MILP_TIMEOUT", 6.0);
  options.sim_cycles = static_cast<std::size_t>(
      env::u64("ELRR_SIM_CYCLES", 20000, 1, kNoCap));
  // 0 = all cores; the cap rejects typos like "10000000" that would try
  // to spawn a thread per simulated cycle.
  options.sim_threads = static_cast<std::size_t>(
      env::u64("ELRR_SIM_THREADS", 1, 0, 4096));
  // 0 = unbounded; anything else is the LRU byte cap of the scoring
  // fleet's session result cache.
  options.sim_cache_cap = static_cast<std::size_t>(env::u64(
      "ELRR_SIM_CACHE_CAP", sim::kDefaultSimCacheCapBytes, 0, kNoCap));
  options.polish = env::boolean("ELRR_POLISH", false);
  options.use_heuristic = env::boolean("ELRR_HEUR", true);
  options.exact_max_edges = static_cast<int>(
      env::u64("ELRR_EXACT_MAX_EDGES", 150, 0, INT_MAX));
  return options;
}

sim::SimOptions scoring_options(const FlowOptions& options) {
  sim::SimOptions sopt;
  sopt.seed = options.seed * 7919 + 17;
  sopt.measure_cycles = options.sim_cycles;
  sopt.warmup_cycles = std::max<std::size_t>(1000, options.sim_cycles / 10);
  sopt.runs = 2;  // threads are the fleet's, not the per-job option's
  return sopt;
}

CircuitResult run_flow(const std::string& name, const Rrg& rrg,
                       const FlowOptions& options, const FlowHooks& hooks) {
  Stopwatch watch;
  CircuitResult result;
  result.name = name;
  for (NodeId n = 0; n < rrg.num_nodes(); ++n) {
    rrg.is_early(n) ? ++result.n_early : ++result.n_simple;
  }
  result.n_edges = static_cast<int>(rrg.num_edges());

  // xi*: the unoptimized configuration. The generated RRGs have no
  // bubbles, so theta = 1 and xi* = tau.
  result.xi_star = cycle_time(rrg).tau;

  OptOptions opt;
  opt.epsilon = options.epsilon;
  opt.milp.time_limit_s = options.milp_timeout_s;
  opt.polish = options.polish;

  // Late-evaluation baseline: for all-simple graphs the throughput bound
  // is the exact throughput, so xi_nee needs no simulation. The heuristic
  // (when enabled) guards the baseline against MILP budget exhaustion.
  OptOptions late = opt;
  late.treat_all_simple = true;
  if (!options.heuristic_only) {
    // min_eff_cyc replayed step by step, so the cancel hook (user cancel
    // or job deadline) stops this walk at a step boundary, or before the
    // next MILP solve of a MAX_THR step. A cancelled baseline ends the
    // flow with the same partial shape the engine's cancel returns
    // below: no candidates scored.
    ParetoWalk nee(rrg, late);
    nee.set_cancel(hooks.cancelled);
    while (nee.advance().has_value()) {
      if (nee.cancel_requested()) {
        result.cancelled = true;
        break;
      }
    }
    const MinEffCycResult walked = nee.finish();
    result.xi_nee = walked.best().xi_lp;
    result.all_exact &= walked.all_exact;
    if (result.cancelled) {
      result.seconds = watch.seconds();
      return result;
    }
  } else {
    result.xi_nee = cycle_time(rrg).tau;  // refined by the heuristic below
    result.all_exact = false;
  }
  if (options.use_heuristic || options.heuristic_only) {
    const Rrg all_simple = as_all_simple(rrg);
    const HeuristicResult late_heur =
        heur_eff_cyc(all_simple, scaled_heuristic(all_simple));
    result.xi_nee = std::min(result.xi_nee, late_heur.best().xi_lp);
  }

  const sim::SimOptions sopt = scoring_options(options);

  // Early evaluation: the pipelined engine runs the exact walk and
  // streams every emitted candidate into its simulation fleet while the
  // next MILP step solves (flow::Engine). The engine's session cache
  // carries those mid-walk scores over to the candidate reranking below,
  // so frontier points selected for the tables cost nothing to rescore.
  // With FlowHooks::fleet the same candidates score on a *shared*
  // multi-client fleet instead -- the svc::Scheduler shape -- with
  // bit-identical results.
  EngineOptions eopt;
  eopt.opt = opt;
  eopt.sim = sopt;
  eopt.sim_threads = options.sim_threads;
  eopt.sim_cache_cap = options.sim_cache_cap;
  eopt.on_candidate = [&](const ParetoPoint&, std::size_t index) {
    if (hooks.on_progress) hooks.on_progress(index + 1);
  };
  eopt.cancelled = hooks.cancelled;
  std::optional<Engine> engine_store;  // Engine is neither copy nor movable
  if (hooks.fleet != nullptr) {
    engine_store.emplace(rrg, eopt, *hooks.fleet);
  } else {
    engine_store.emplace(rrg, eopt);
  }
  Engine& engine = *engine_store;

  MinEffCycResult early;
  if (!options.heuristic_only) {
    const EngineResult eng = engine.run();
    early = eng.walk;
    result.all_exact &= early.all_exact;
    result.candidates_walked = eng.candidates_submitted;
    result.sim_jobs += eng.candidates_submitted;
    result.unique_simulations += eng.unique_simulations;
    result.exact_thetas = engine.exact_thetas();
    result.walk_seconds = eng.walk_seconds;
    result.sim_wait_seconds = eng.sim_wait_seconds;
    result.milp = eng.milp;
    if (eng.cancelled) {
      // Cancellation stops at a step boundary: report the partial
      // frontier the engine already scored (no heuristic merge, no
      // reranking) so the caller gets a consistent -- if truncated --
      // result and the fleet is already quiesced for the next job.
      result.cancelled = true;
      for (const ScoredPoint& scored : eng.scored) {
        CandidateRow row;
        row.tau = scored.point.tau;
        row.theta_lp = scored.point.theta_lp;
        row.theta_sim = scored.sim.theta;
        row.err_percent = relative_percent(scored.point.theta_lp,
                                           scored.sim.theta);
        row.xi_lp = scored.point.xi_lp;
        row.xi_sim = scored.xi_sim;
        row.exact = scored.point.exact;
        result.candidates.push_back(row);
        if (result.xi_sim_min == 0.0 || row.xi_sim < result.xi_sim_min) {
          result.xi_sim_min = row.xi_sim;
        }
      }
      result.xi_lp_min = result.candidates.empty()
                             ? 0.0
                             : result.candidates.front().xi_sim;
      if (result.xi_sim_min > 0.0) {
        result.improve_percent =
            (result.xi_nee - result.xi_sim_min) / result.xi_nee * 100.0;
        result.delta_percent =
            relative_percent(result.xi_lp_min, result.xi_sim_min);
      }
      result.seconds = watch.seconds();
      return result;
    }
  } else {
    // Seed the frontier with the identity; the heuristic fills the rest.
    ParetoPoint identity;
    identity.config = initial_config(rrg);
    const RcEvaluation eval = evaluate_rrg(rrg);
    identity.tau = eval.tau;
    identity.theta_lp = eval.theta_lp;
    identity.xi_lp = eval.xi_lp;
    identity.exact = false;
    early.points.push_back(std::move(identity));
  }
  if (options.use_heuristic || options.heuristic_only) {
    const HeuristicResult heur = heur_eff_cyc(rrg, scaled_heuristic(rrg));
    early.points.insert(early.points.end(), heur.points.begin(),
                        heur.points.end());
    early.best_index = keep_pareto_frontier(early.points);
  }

  std::vector<std::size_t> simulate =
      early.k_best(options.max_simulated_points);
  std::sort(simulate.begin(), simulate.end());  // present in tau order

  // Rerank the selected candidates by simulation, through the engine's
  // fleet and session cache: walk candidates were already scored
  // mid-walk (cache hit, no new simulation), heuristic-merged points
  // simulate now over the same worker pool. Per candidate the result is
  // bit-identical to a solo simulate_throughput call (the fleet's
  // determinism contract), so the pipeline is purely a wall-clock change.
  std::vector<ParetoPoint> chosen;
  chosen.reserve(simulate.size());
  for (const std::size_t index : simulate) {
    chosen.push_back(early.points[index]);
  }
  const std::vector<ScoredPoint> sims = engine.score(chosen);
  result.sim_jobs += chosen.size();
  // Heuristic-merged points (and the whole frontier in heuristic-only
  // mode) simulate for the first time here -- walk candidates rescore as
  // cache hits. Count the fresh ones so unique_simulations is truthful.
  for (const ScoredPoint& scored : sims) {
    result.unique_simulations += scored.fresh ? 1 : 0;
  }
  result.exact_thetas = engine.exact_thetas();

  double best_sim_xi = 0.0;
  double lp_best_sim_xi = 0.0;
  for (std::size_t i = 0; i < simulate.size(); ++i) {
    const std::size_t index = simulate[i];
    const ParetoPoint& point = early.points[index];
    const sim::SimResult& sim = sims[i].sim;

    CandidateRow row;
    row.tau = point.tau;
    row.theta_lp = point.theta_lp;
    row.theta_sim = sim.theta;
    row.err_percent = relative_percent(point.theta_lp, sim.theta);
    row.xi_lp = point.xi_lp;
    row.xi_sim = sims[i].xi_sim;
    row.exact = point.exact;
    int buffers = 0, tokens = 0;
    for (EdgeId e = 0; e < rrg.num_edges(); ++e) {
      buffers += point.config.buffers[e];
      tokens += std::max(point.config.tokens[e], 0);
    }
    row.bubbles = buffers - tokens;
    result.candidates.push_back(row);

    if (best_sim_xi == 0.0 || row.xi_sim < best_sim_xi) {
      best_sim_xi = row.xi_sim;
    }
    if (index == early.best_index) lp_best_sim_xi = row.xi_sim;
  }
  ELRR_ASSERT(!result.candidates.empty(), "no candidates simulated");
  if (lp_best_sim_xi == 0.0) lp_best_sim_xi = result.candidates.front().xi_sim;

  result.xi_lp_min = lp_best_sim_xi;
  result.xi_sim_min = best_sim_xi;
  result.improve_percent =
      (result.xi_nee - result.xi_sim_min) / result.xi_nee * 100.0;
  result.delta_percent =
      relative_percent(result.xi_lp_min, result.xi_sim_min);
  result.seconds = watch.seconds();
  return result;
}

CircuitResult run_circuit(const std::string& name, const FlowOptions& options,
                          const FlowHooks& hooks) {
  const bench89::CircuitSpec& spec = bench89::spec_by_name(name);
  const Rrg rrg = bench89::make_table2_rrg(spec, options.seed);
  return run_flow(name, rrg, options, hooks);
}

}  // namespace elrr::flow
