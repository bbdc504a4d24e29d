/// \file scheduler_test.cpp
/// The multi-circuit optimization service's contract:
///  * determinism -- every job's result is bit-exact vs a standalone
///    flow run of the same (circuit, options, mode), at any worker
///    count and any submission order (the shared fleet and cross-job
///    caches may change *wall clock*, never a number);
///  * fair-share priority dispatch (weighted round-robin 4/2/1, FIFO
///    within a class);
///  * per-job cancellation -- queued jobs dequeue immediately, running
///    walks stop at a step boundary, and the shared fleet stays fully
///    usable for the next job;
///  * the cross-job result cache -- duplicate jobs in one batch are
///    served from the first completion, bit-identically;
///  * failure isolation -- a throwing job reports kFailed and the
///    scheduler keeps serving.
///
/// Test circuits are the smallest Table-2 structures (s208/s420/s838:
/// 9 edges each, distinct name-hashed structures), so every MILP solves
/// to proven optimality instantly and
/// walks are deterministic
/// run to run -- the precondition for comparing results bit-exactly.
/// (Larger circuits like s27 hit MILP budgets: minutes of wall clock and
/// incumbent-dependent results -- wrong for a bit-exactness suite.)

#include "svc/scheduler.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "bench89/generator.hpp"
#include "core/opt.hpp"
#include "flow/circuit_flow.hpp"
#include "lp/milp.hpp"
#include "sim/simulator.hpp"
#include "support/error.hpp"
#include "support/json.hpp"

namespace elrr::svc {
namespace {

flow::FlowOptions fast_flow() {
  flow::FlowOptions options;
  options.seed = 1;
  options.epsilon = 0.05;
  options.milp_timeout_s = 30.0;  // never reached at these sizes
  options.sim_cycles = 2000;
  options.use_heuristic = false;  // pure walk: fewer LPs, same contract
  options.max_simulated_points = 4;
  return options;
}

Rrg circuit(const std::string& name, std::uint64_t seed = 1) {
  return bench89::make_table2_rrg(bench89::spec_by_name(name), seed);
}

JobSpec flow_job(const std::string& name, JobPriority priority =
                                              JobPriority::kNormal) {
  JobSpec spec;
  spec.name = name;
  spec.rrg = circuit(name);
  spec.flow = fast_flow();
  spec.mode = JobMode::kMinEffCyc;
  spec.priority = priority;
  return spec;
}

JobSpec score_job(const std::string& name, std::uint64_t seed,
                  JobPriority priority = JobPriority::kNormal) {
  JobSpec spec;
  spec.name = name;
  spec.rrg = circuit(name, seed);
  spec.flow = fast_flow();
  spec.mode = JobMode::kScoreOnly;
  spec.priority = priority;
  return spec;
}

void expect_same_circuit_result(const flow::CircuitResult& a,
                                const flow::CircuitResult& b,
                                const std::string& label) {
  EXPECT_EQ(a.xi_star, b.xi_star) << label;
  EXPECT_EQ(a.xi_nee, b.xi_nee) << label;
  EXPECT_EQ(a.xi_lp_min, b.xi_lp_min) << label;
  EXPECT_EQ(a.xi_sim_min, b.xi_sim_min) << label;
  ASSERT_EQ(a.candidates.size(), b.candidates.size()) << label;
  for (std::size_t i = 0; i < a.candidates.size(); ++i) {
    EXPECT_EQ(a.candidates[i].tau, b.candidates[i].tau)
        << label << " row " << i;
    EXPECT_EQ(a.candidates[i].theta_lp, b.candidates[i].theta_lp)
        << label << " row " << i;
    EXPECT_EQ(a.candidates[i].theta_sim, b.candidates[i].theta_sim)
        << label << " row " << i;
    EXPECT_EQ(a.candidates[i].xi_sim, b.candidates[i].xi_sim)
        << label << " row " << i;
  }
}

/// The acceptance gate: per-job frontier and thetas bit-exact vs a
/// standalone flow::Engine-backed run, at worker counts 1/2/4 and with
/// the submission order shuffled.
TEST(Scheduler, BitExactVsStandaloneAtAnyWorkerCountAndOrder) {
  const std::vector<std::string> names = {"s838", "s208", "s420"};
  std::vector<flow::CircuitResult> oracle;
  for (const std::string& name : names) {
    oracle.push_back(flow::run_flow(name, circuit(name), fast_flow()));
  }

  for (const std::size_t workers : {std::size_t{1}, std::size_t{2},
                                    std::size_t{4}}) {
    for (const bool reversed : {false, true}) {
      SchedulerOptions sopt;
      sopt.workers = workers;
      sopt.sim_threads = workers;  // exercise a wider shared fleet too
      sopt.start_paused = true;
      Scheduler scheduler(sopt);
      std::vector<std::size_t> order(names.size());
      for (std::size_t i = 0; i < names.size(); ++i) order[i] = i;
      if (reversed) std::reverse(order.begin(), order.end());
      std::vector<JobId> ids(names.size());
      for (const std::size_t i : order) {
        ids[i] = scheduler.submit(flow_job(names[i]));
      }
      scheduler.resume();
      for (std::size_t i = 0; i < names.size(); ++i) {
        const JobResult result = scheduler.wait(ids[i]);
        const std::string label = names[i] + " workers " +
                                  std::to_string(workers) +
                                  (reversed ? " reversed" : "");
        EXPECT_EQ(result.state, JobState::kDone) << label << " " << result.error;
        EXPECT_FALSE(result.stats.job_cache_hit) << label;
        expect_same_circuit_result(result.circuit, oracle[i], label);
      }
    }
  }
}

/// Score-only and MIN_CYC jobs reproduce their direct-library oracles
/// bit-exactly through the shared fleet.
TEST(Scheduler, ScoreOnlyAndMinCycModesMatchDirectCalls) {
  const Rrg rrg = circuit("s208");
  const flow::FlowOptions options = fast_flow();

  Scheduler scheduler{SchedulerOptions{}};
  JobSpec score = score_job("s208", 1);
  const JobId score_id = scheduler.submit(std::move(score));

  JobSpec mincyc;
  mincyc.name = "s208-mincyc";
  mincyc.rrg = rrg;
  mincyc.flow = options;
  mincyc.mode = JobMode::kMinCyc;
  mincyc.min_cyc_x = 1.0;
  const JobId mincyc_id = scheduler.submit(std::move(mincyc));

  const JobResult scored = scheduler.wait(score_id);
  ASSERT_EQ(scored.state, JobState::kDone) << scored.error;
  const sim::SimResult solo =
      sim::simulate_throughput(rrg, flow::scoring_options(options));
  EXPECT_EQ(scored.theta_sim, solo.theta);
  EXPECT_EQ(scored.stats.sim_jobs, 1u);
  EXPECT_GT(scored.tau, 0.0);
  EXPECT_EQ(scored.xi_sim, scored.tau / scored.theta_sim);

  const JobResult optimized = scheduler.wait(mincyc_id);
  ASSERT_EQ(optimized.state, JobState::kDone) << optimized.error;
  OptOptions opt;
  opt.epsilon = options.epsilon;
  opt.milp.time_limit_s = options.milp_timeout_s;
  const RcSolveResult solve = min_cyc(rrg, 1.0, opt);
  ASSERT_TRUE(solve.feasible);
  const Rrg tuned = apply_config(rrg, solve.config);
  const sim::SimResult tuned_solo =
      sim::simulate_throughput(tuned, flow::scoring_options(options));
  EXPECT_EQ(optimized.theta_sim, tuned_solo.theta);
  EXPECT_LE(optimized.tau, scored.tau);  // MIN_CYC can only improve tau
}

/// The anytime portfolio: the heuristic leg's answer is published in
/// the stats (bit-identical to a direct heuristic-only run), and the
/// exact leg supersedes it -- the final result is bit-identical to a
/// plain kMinEffCyc job of the same spec.
TEST(Scheduler, PortfolioPublishesAnytimeAndSupersedesWithExact) {
  const Rrg rrg = circuit("s208");
  const flow::FlowOptions options = fast_flow();
  const flow::CircuitResult exact_oracle =
      flow::run_flow("s208", rrg, options);
  flow::FlowOptions heuristic_options = options;
  heuristic_options.heuristic_only = true;
  const flow::CircuitResult anytime_oracle =
      flow::run_flow("s208", rrg, heuristic_options);

  Scheduler scheduler{SchedulerOptions{}};
  JobSpec spec = flow_job("s208");
  spec.mode = JobMode::kPortfolio;
  const JobResult result = scheduler.wait(scheduler.submit(std::move(spec)));
  ASSERT_EQ(result.state, JobState::kDone) << result.error;
  EXPECT_FALSE(result.degraded);
  expect_same_circuit_result(result.circuit, exact_oracle, "portfolio");
  EXPECT_TRUE(result.stats.anytime_ready);
  EXPECT_EQ(result.stats.anytime_xi, anytime_oracle.xi_sim_min);
  EXPECT_GT(result.stats.anytime_seconds, 0.0);
  // Both legs' work is accounted.
  EXPECT_GE(result.stats.sim_jobs,
            anytime_oracle.sim_jobs + exact_oracle.sim_jobs);
}

/// A portfolio whose deadline expires during the exact leg completes
/// with the heuristic leg's answer -- flagged degraded (so it is never
/// cached), bit-identical to a direct heuristic-only run, with the
/// anytime stats still published.
TEST(Scheduler, PortfolioDeadlineKeepsTheAnytimeAnswer) {
  const Rrg rrg = circuit("s420");
  flow::FlowOptions heuristic_options = fast_flow();
  heuristic_options.heuristic_only = true;
  const flow::CircuitResult anytime_oracle =
      flow::run_flow("s420", rrg, heuristic_options);

  SchedulerOptions sopt;
  sopt.workers = 1;
  Scheduler scheduler(sopt);
  JobSpec spec = flow_job("s420");
  spec.mode = JobMode::kPortfolio;
  spec.deadline_s = 1e-6;  // expired before the exact leg's first step
  const JobResult result = scheduler.wait(scheduler.submit(spec));
  ASSERT_EQ(result.state, JobState::kDone) << result.error;
  EXPECT_TRUE(result.degraded);
  EXPECT_NE(result.error.find("anytime"), std::string::npos) << result.error;
  expect_same_circuit_result(result.circuit, anytime_oracle,
                             "degraded portfolio");
  EXPECT_TRUE(result.stats.anytime_ready);
  EXPECT_EQ(result.stats.anytime_xi, anytime_oracle.xi_sim_min);

  // Degraded: the twin runs fresh instead of being served the
  // deadline-shaped answer.
  const JobResult twin = scheduler.wait(scheduler.submit(spec));
  ASSERT_EQ(twin.state, JobState::kDone) << twin.error;
  EXPECT_TRUE(twin.degraded);
  EXPECT_EQ(scheduler.stats().job_cache_hits, 0u);
}

/// Weighted round-robin dispatch: with one worker and a paused submit
/// window, completion order is exactly the credit schedule -- 4 high,
/// then a normal, then a low (fair share: low work cannot starve), then
/// the refilled high class again. FIFO within each class.
TEST(Scheduler, MilpStatsSayHowBranchAndBoundNodesWereSolved) {
  // The `milp` block of the stats JSON sums the node counters over jobs
  // and reports the largest snapshot footprint, never above the budget.
  SchedulerOptions options;
  options.workers = 1;
  options.sim_threads = 1;
  Scheduler scheduler(options);
  for (const char* name : {"s208", "s420"}) {
    ASSERT_EQ(scheduler.wait(scheduler.submit(flow_job(name))).state,
              JobState::kDone);
  }
  const std::string text = scheduler.stats_json();
  const json::Value stats = json::parse(text);
  const auto warm = stats.number_at("milp.warm_nodes");
  const auto replayed = stats.number_at("milp.replayed_nodes");
  const auto peak = stats.number_at("milp.peak_snapshot_bytes");
  const auto nodes = stats.number_at("milp.nodes");
  ASSERT_TRUE(warm && replayed && peak && nodes) << text;
  EXPECT_GT(*warm, 0.0) << text;
  EXPECT_LE(*warm + *replayed, *nodes) << text;
  EXPECT_GT(*peak, 0.0) << text;
  EXPECT_LE(*peak, static_cast<double>(lp::kNodeSnapshotBudgetBytes))
      << text;
}

TEST(Scheduler, PriorityClassesAreFairShared) {
  SchedulerOptions sopt;
  sopt.workers = 1;
  sopt.start_paused = true;
  Scheduler scheduler(sopt);

  std::vector<JobId> high, normal, low;
  for (int i = 0; i < 6; ++i) {
    high.push_back(
        scheduler.submit(score_job("s27", 10 + i, JobPriority::kHigh)));
  }
  normal.push_back(
      scheduler.submit(score_job("s27", 20, JobPriority::kNormal)));
  low.push_back(scheduler.submit(score_job("s27", 30, JobPriority::kLow)));
  scheduler.resume();
  (void)scheduler.wait_all();

  const std::vector<JobId> order = scheduler.completion_order();
  const std::vector<JobId> expected = {high[0],   high[1], high[2], high[3],
                                       normal[0], low[0],  high[4], high[5]};
  EXPECT_EQ(order, expected);
}

/// Duplicate jobs in one batch dedup through the cross-job result
/// cache: the repeat is served bit-identically without re-running, and
/// the stats say so.
TEST(Scheduler, DuplicateJobsDedupThroughTheResultCache) {
  SchedulerOptions sopt;
  sopt.workers = 1;
  sopt.start_paused = true;
  Scheduler scheduler(sopt);
  const JobId first = scheduler.submit(flow_job("s208"));
  const JobId repeat = scheduler.submit(flow_job("s208"));
  const JobId other = scheduler.submit(flow_job("s420"));
  scheduler.resume();

  const JobResult a = scheduler.wait(first);
  const JobResult b = scheduler.wait(repeat);
  const JobResult c = scheduler.wait(other);
  ASSERT_EQ(a.state, JobState::kDone) << a.error;
  ASSERT_EQ(b.state, JobState::kDone) << b.error;
  ASSERT_EQ(c.state, JobState::kDone) << c.error;
  EXPECT_FALSE(a.stats.job_cache_hit);
  EXPECT_TRUE(b.stats.job_cache_hit);
  EXPECT_FALSE(c.stats.job_cache_hit);
  expect_same_circuit_result(b.circuit, a.circuit, "cached repeat");
  EXPECT_EQ(scheduler.stats().job_cache_hits, 1u);

  // Changing any result-affecting option is a different job identity.
  JobSpec tweaked = flow_job("s208");
  tweaked.flow.seed = 2;
  tweaked.rrg = circuit("s208", 2);
  const JobResult d = scheduler.wait(scheduler.submit(std::move(tweaked)));
  EXPECT_FALSE(d.stats.job_cache_hit);

  // So is changing only a node delay: the simulation-level canonical
  // key ignores delays (the simulator never reads them) but tau and
  // every xi depend on them -- the job key must not collide.
  JobSpec slower = flow_job("s208");
  slower.rrg.set_delay(0, slower.rrg.delay(0) + 1000.0);  // dominates tau
  const JobResult e = scheduler.wait(scheduler.submit(std::move(slower)));
  ASSERT_EQ(e.state, JobState::kDone) << e.error;
  EXPECT_FALSE(e.stats.job_cache_hit);
  EXPECT_NE(e.circuit.xi_star, a.circuit.xi_star);
}

/// Concurrent duplicates: with two workers both copies dispatch before
/// either finishes, and the dispatch-time cache reservation makes the
/// second wait for -- and reuse -- the first instead of re-walking.
TEST(Scheduler, ConcurrentDuplicateJobsRunOnce) {
  SchedulerOptions sopt;
  sopt.workers = 2;
  sopt.start_paused = true;
  Scheduler scheduler(sopt);
  const JobId first = scheduler.submit(flow_job("s208"));
  const JobId second = scheduler.submit(flow_job("s208"));
  scheduler.resume();
  const JobResult a = scheduler.wait(first);
  const JobResult b = scheduler.wait(second);
  ASSERT_EQ(a.state, JobState::kDone) << a.error;
  ASSERT_EQ(b.state, JobState::kDone) << b.error;
  expect_same_circuit_result(a.circuit, b.circuit, "concurrent twin");
  // Exactly one of the two ran; the other is a cache hit with no work
  // of its own to report.
  EXPECT_EQ(scheduler.stats().job_cache_hits, 1u);
  EXPECT_NE(a.stats.job_cache_hit, b.stats.job_cache_hit);
  const JobStats& hit = a.stats.job_cache_hit ? a.stats : b.stats;
  EXPECT_EQ(hit.sim_jobs, 0u);
  EXPECT_EQ(hit.unique_simulations, 0u);
}

/// Cancelling a queued job dequeues it immediately; cancelling a
/// running walk stops it at a step boundary. Either way the shared
/// fleet stays fully usable: the next job's result is bit-exact.
TEST(Scheduler, CancelLeavesTheFleetReusableForTheNextJob) {
  const flow::CircuitResult oracle =
      flow::run_flow("s838", circuit("s838"), fast_flow());

  SchedulerOptions sopt;
  sopt.workers = 1;
  sopt.start_paused = true;
  Scheduler scheduler(sopt);

  // Queued cancellation: dequeued before dispatch ever sees it.
  const JobId queued = scheduler.submit(flow_job("s420"));
  EXPECT_TRUE(scheduler.cancel(queued));
  const JobResult dequeued = scheduler.wait(queued);
  EXPECT_EQ(dequeued.state, JobState::kCancelled);
  EXPECT_FALSE(scheduler.cancel(queued));  // already terminal

  // Mid-walk cancellation: let the walk emit at least one candidate,
  // then cancel. s420 with the polish walks enough steps that the
  // cancel lands mid-run; if the machine races the job to completion
  // the test still validates the next job's integrity.
  JobSpec slow = flow_job("s420");
  slow.flow.polish = true;
  slow.flow.epsilon = 0.01;
  slow.flow.sim_cycles = 20000;
  const JobId running = scheduler.submit(std::move(slow));
  scheduler.resume();
  for (int i = 0; i < 2000; ++i) {
    const JobSnapshot snapshot = scheduler.status(running);
    if (snapshot.stats.candidates_walked >= 1 ||
        snapshot.state != JobState::kQueued) {
      if (snapshot.stats.candidates_walked >= 1) break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_TRUE(scheduler.cancel(running) ||
              scheduler.status(running).state == JobState::kDone);
  const JobResult cancelled = scheduler.wait(running);
  EXPECT_TRUE(cancelled.state == JobState::kCancelled ||
              cancelled.state == JobState::kDone)
      << to_string(cancelled.state);

  // The fleet serves the next job bit-exactly.
  const JobResult next = scheduler.wait(scheduler.submit(flow_job("s838")));
  ASSERT_EQ(next.state, JobState::kDone) << next.error;
  expect_same_circuit_result(next.circuit, oracle, "post-cancel job");
}

/// A job that throws (here: MIN_CYC on a graph that is not strongly
/// connected) reports kFailed with the error text; the scheduler and
/// fleet keep serving.
TEST(Scheduler, FailedJobReportsErrorAndServiceContinues) {
  Rrg broken;
  const NodeId a = broken.add_node("a", 1.0);
  const NodeId b = broken.add_node("b", 1.0);
  broken.add_edge(a, b, 1, 1);  // no cycle: not strongly connected

  SchedulerOptions sopt;
  sopt.workers = 1;
  Scheduler scheduler(sopt);
  JobSpec bad;
  bad.name = "broken";
  bad.rrg = broken;
  bad.flow = fast_flow();
  bad.mode = JobMode::kMinCyc;
  const JobResult failed = scheduler.wait(scheduler.submit(std::move(bad)));
  EXPECT_EQ(failed.state, JobState::kFailed);
  EXPECT_FALSE(failed.error.empty());

  const JobResult ok = scheduler.wait(scheduler.submit(score_job("s27", 1)));
  EXPECT_EQ(ok.state, JobState::kDone) << ok.error;
  EXPECT_GT(ok.theta_sim, 0.0);

  const SchedulerStats stats = scheduler.stats();
  EXPECT_EQ(stats.failed, 1u);
  EXPECT_EQ(stats.completed, 1u);
}

/// Submitting invalid specs throws eagerly (never enqueues).
TEST(Scheduler, SubmitValidation) {
  Scheduler scheduler{SchedulerOptions{}};
  JobSpec empty;
  empty.flow = fast_flow();
  EXPECT_THROW(scheduler.submit(std::move(empty)), Error);

  JobSpec bad_x = score_job("s27", 1);
  bad_x.min_cyc_x = 0.5;
  EXPECT_THROW(scheduler.submit(std::move(bad_x)), Error);

  EXPECT_THROW(scheduler.status(999), Error);
  EXPECT_THROW(scheduler.wait(999), Error);
  EXPECT_THROW(scheduler.cancel(999), Error);
}

/// Cross-job candidate dedup on the shared fleet: two identical flow
/// jobs with the job-level cache *disabled* still share their
/// simulations through the fleet's canonical-key session cache.
TEST(Scheduler, SharedFleetDedupsCandidatesAcrossJobs) {
  SchedulerOptions sopt;
  sopt.workers = 1;
  sopt.job_cache = false;  // force both jobs to actually run
  sopt.start_paused = true;
  Scheduler scheduler(sopt);
  const JobId first = scheduler.submit(flow_job("s208"));
  const JobId second = scheduler.submit(flow_job("s208"));
  scheduler.resume();
  const JobResult a = scheduler.wait(first);
  const JobResult b = scheduler.wait(second);
  ASSERT_EQ(a.state, JobState::kDone) << a.error;
  ASSERT_EQ(b.state, JobState::kDone) << b.error;
  expect_same_circuit_result(a.circuit, b.circuit, "fleet-dedup twin");
  EXPECT_FALSE(b.stats.job_cache_hit);
  // The second job's candidates were all fleet cache hits: no fresh
  // simulations.
  EXPECT_GT(a.stats.unique_simulations, 0u);
  EXPECT_EQ(b.stats.unique_simulations, 0u);
  EXPECT_GT(scheduler.fleet().cache_stats().hits, 0u);
}

}  // namespace
}  // namespace elrr::svc
