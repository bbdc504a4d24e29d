/// \file bench_table1.cpp
/// Reproduces Table 1: all non-dominated configurations of the s526 test
/// case with cycle time, LP throughput bound, simulated throughput, the
/// bound's relative error, both effective cycle times, and the Delta%
/// between the LP-chosen configuration (RC^lp_min, bold xi_lp in the
/// paper) and the simulation-best one (RC_min, bold xi).
///
/// Structures and annotations are synthesized with the paper's published
/// statistics (src/core/README.md, "Substitutions"), so absolute numbers differ from
/// the paper's row values; the qualitative shape -- several Pareto
/// points, LP bound optimistic by a few percent to tens of percent, the
/// last row being the min-delay retiming with Theta = 1 -- must hold.
///
/// Runs as one MIN_EFF_CYC job on the svc::Scheduler (the multi-circuit
/// batch service bench_table2 drives at scale): the walk streams each
/// Pareto candidate into the scheduler's shared simulation fleet while
/// the next MILP solves (identical rows to the sequential
/// walk-then-score order).

#include <cstdio>

#include "flow/circuit_flow.hpp"
#include "svc/scheduler.hpp"

int main() {
  using namespace elrr;
  using namespace elrr::flow;
  FlowOptions options = FlowOptions::from_env();
  options.max_simulated_points = 16;  // Table 1 shows *all* candidates
  options.polish = true;              // the paper's exact MAX_THR recipe

  std::printf("=========================================================\n");
  std::printf("ElasticRR | Table 1: non-dominated RCs for s526 (seed %llu)\n",
              static_cast<unsigned long long>(options.seed));
  std::printf("=========================================================\n");
  svc::SchedulerOptions sopt;
  sopt.workers = 1;
  sopt.sim_threads = options.sim_threads;
  sopt.sim_cache_cap = options.sim_cache_cap;
  svc::Scheduler scheduler(sopt);
  svc::JobSpec job;
  job.name = "s526";
  job.rrg = bench89::make_table2_rrg(bench89::spec_by_name("s526"),
                                     options.seed);
  job.flow = options;
  job.mode = svc::JobMode::kMinEffCyc;
  const svc::JobResult done = scheduler.wait(scheduler.submit(std::move(job)));
  if (done.state != svc::JobState::kDone) {
    std::printf("job %s: %s\n", svc::to_string(done.state),
                done.error.c_str());
    return 1;
  }
  const CircuitResult& result = done.circuit;

  std::printf("%8s %9s %9s %8s %10s %10s\n", "tau", "Th_lp", "Th", "err(%)",
              "xi_lp", "xi");
  for (const CandidateRow& row : result.candidates) {
    std::printf("%8.2f %9.4f %9.4f %8.4f %10.4f %10.4f%s%s\n", row.tau,
                row.theta_lp, row.theta_sim, row.err_percent, row.xi_lp,
                row.xi_sim, row.xi_sim == result.xi_sim_min ? "  <RC_min" : "",
                row.xi_sim == result.xi_lp_min ? "  <RC_lp_min" : "");
  }
  std::printf("\nDelta(%%) between RC_lp_min and RC_min: %.1f\n",
              result.delta_percent);
  std::printf("xi* = %.2f, xi_nee = %.2f, improvement I = %.1f%%\n",
              result.xi_star, result.xi_nee, result.improve_percent);
  std::printf("(paper row: tau 19.98..74.52, err 0..17.5%%, Delta 5.4%%)\n");
  if (!result.all_exact) {
    std::printf("note: some MILPs hit the %gs budget; rows are incumbents\n",
                options.milp_timeout_s);
  }
  return 0;
}
