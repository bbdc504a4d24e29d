/// \file bench_table2.cpp
/// Reproduces Table 2: the full experimental sweep over the 18 RRGs
/// derived from ISCAS89 SCC statistics. Columns follow the paper:
/// |N1| |N2| |E|, xi* (before optimization), xi_nee (late-evaluation
/// optimum), xi_lp_min (simulated xi of the configuration the LP metric
/// picks), xi_sim_min (best simulated xi) and the improvement
/// I = (xi_nee - xi_sim_min)/xi_nee.
///
/// Paper's headline: average I = 14.5%; zero improvement for circuits
/// whose critical cycles contain no early-evaluation nodes (s832, s1488,
/// s1494 there); biggest wins where early nodes sit on critical cycles.
///
/// All 18 circuits run by default: the exact MILP walk up to
/// ELRR_EXACT_MAX_EDGES (150) edges, the MILP-free heuristic beyond
/// (rows marked 'h') -- the regime the paper's conclusions call
/// "difficult to solve exactly" for CPLEX. ELRR_TABLE2_FULL=0 restores
/// the short exact-only sweep.
///
/// The whole table runs as ONE multi-job batch on svc::Scheduler: every
/// circuit is a MIN_EFF_CYC job, and all jobs share one sim::SimFleet
/// (worker pool + canonical-key candidate cache persist across
/// circuits) instead of tearing a fresh engine down per circuit. Rows
/// are bit-identical to the old per-circuit engine loop -- the
/// scheduler's determinism contract -- and print in submission order.
/// The ELRR_SIM_* knobs apply batch-wide.

#include <cstdio>
#include <cstdlib>
#include <vector>

#include "flow/circuit_flow.hpp"
#include "support/stats.hpp"
#include "svc/scheduler.hpp"

int main() {
  using namespace elrr;
  using namespace elrr::flow;
  FlowOptions options = FlowOptions::from_env();
  const bool full = std::getenv("ELRR_TABLE2_FULL") == nullptr ||
                    std::atoi(std::getenv("ELRR_TABLE2_FULL")) != 0;

  std::printf("==========================================================================\n");
  std::printf("ElasticRR | Table 2: retiming & recycling with early evaluation (seed %llu)\n",
              static_cast<unsigned long long>(options.seed));
  std::printf("==========================================================================\n");
  std::printf("%-7s %5s %5s %5s %9s %9s %9s %9s %7s %7s\n", "name", "|N1|",
              "|N2|", "|E|", "xi*", "xi_nee", "xi_lpmin", "xi_simmin", "I%",
              "sec");

  // One scheduler, one shared fleet, the whole table as a batch. One
  // walk worker keeps the MILP order identical to the historical
  // per-circuit loop (more workers only changes wall clock, never rows);
  // the paused submit window makes dispatch order manifest-only.
  svc::SchedulerOptions sopt;
  sopt.workers = 1;
  sopt.sim_threads = options.sim_threads;
  sopt.sim_cache_cap = options.sim_cache_cap;
  sopt.start_paused = true;
  svc::Scheduler scheduler(sopt);

  struct Row {
    const bench89::CircuitSpec* spec;
    svc::JobId id = 0;
    bool skipped = false;
    bool heuristic_only = false;
  };
  std::vector<Row> rows;
  for (const auto& spec : bench89::table2_specs()) {
    Row row;
    row.spec = &spec;
    if (!full && spec.n_edges > options.exact_max_edges) {
      row.skipped = true;
      rows.push_back(row);
      continue;
    }
    svc::JobSpec job;
    job.name = spec.name;
    job.rrg = bench89::make_table2_rrg(spec, options.seed);
    job.flow = options;
    job.flow.heuristic_only = spec.n_edges > options.exact_max_edges;
    job.mode = svc::JobMode::kMinEffCyc;
    row.heuristic_only = job.flow.heuristic_only;
    row.id = scheduler.submit(std::move(job));
    rows.push_back(row);
  }
  scheduler.resume();

  RunningStats improvements;
  RunningStats errors;
  int inexact = 0;
  for (const Row& row : rows) {
    if (row.skipped) {
      std::printf("%-7s %5d %5d %5d   (skipped; set ELRR_TABLE2_FULL=1)\n",
                  row.spec->name.c_str(), row.spec->n_simple,
                  row.spec->n_early, row.spec->n_edges);
      continue;
    }
    const svc::JobResult job = scheduler.wait(row.id);
    if (job.state != svc::JobState::kDone) {
      std::printf("%-7s %5d %5d %5d   (job %s: %s)\n", row.spec->name.c_str(),
                  row.spec->n_simple, row.spec->n_early, row.spec->n_edges,
                  svc::to_string(job.state), job.error.c_str());
      continue;
    }
    const CircuitResult& r = job.circuit;
    std::printf("%-7s %5d %5d %5d %9.2f %9.2f %9.2f %9.2f %7.1f %7.1f%s%s\n",
                r.name.c_str(), r.n_simple, r.n_early, r.n_edges, r.xi_star,
                r.xi_nee, r.xi_lp_min, r.xi_sim_min, r.improve_percent,
                r.seconds, r.all_exact ? "" : " *",
                row.heuristic_only ? " h" : "");
    improvements.add(r.improve_percent);
    for (const CandidateRow& candidate : r.candidates) {
      errors.add(candidate.err_percent);
    }
    inexact += !r.all_exact;
  }

  std::printf("--------------------------------------------------------------------------\n");
  std::printf("average improvement I = %.1f%%  (paper: 14.5%%)\n",
              improvements.mean());
  std::printf("average LP-bound error err = %.1f%%  (paper observation 3: 12.5%%)\n",
              errors.mean());
  if (inexact > 0) {
    std::printf("* %d circuits hit the %gs per-MILP budget (incumbents used, "
                "like the paper's CPLEX timeout)\n",
                inexact, options.milp_timeout_s);
  }
  if (full) {
    std::printf("h = MILP-free heuristic only (> %d edges; the paper calls "
                "these MILPs intractable)\n",
                options.exact_max_edges);
  }
  // hits counts every session-cache reuse -- mostly each circuit's own
  // frontier rerank aliasing its walk-time scores, plus any genuinely
  // cross-circuit duplicates; the cache itself does not distinguish.
  const sim::SimCacheStats cache = scheduler.fleet().cache_stats();
  std::printf("shared fleet: %llu unique simulations, %llu session-cache "
              "hits (walk rerank + cross-circuit)\n",
              static_cast<unsigned long long>(cache.misses),
              static_cast<unsigned long long>(cache.hits));
  return 0;
}
