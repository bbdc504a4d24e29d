/// \file chaos_test.cpp
/// The chaos harness: an ISCAS batch driven through the scheduler under
/// seeded fail-point schedules, one fault family at a time. The
/// acceptance contract per schedule:
///  * the batch TERMINATES (a polling watchdog hard-exits the process
///    if it wedges -- a hang is a failure, not a timeout);
///  * the shared fleet stays reusable -- a follow-up job on the same
///    scheduler completes;
///  * every non-faulted (and every successfully retried) job is
///    bit-identical to the fault-free baseline.
///
/// Schedules are pure data (ELRR_FAILPOINTS grammar), so every scenario
/// here reproduces from a shell with the same spec string.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bench89/generator.hpp"
#include "flow/circuit_flow.hpp"
#include "support/error.hpp"
#include "support/failpoint.hpp"
#include "svc/manifest.hpp"
#include "svc/scheduler.hpp"

namespace elrr::svc {
namespace {

namespace fs = std::filesystem;

/// Hard termination guard: chaos scenarios must finish; a wedged batch
/// must fail the suite *and* release the CI slot. _exit skips unwinding
/// on purpose -- a deadlocked scheduler would block destructors forever.
class Watchdog {
 public:
  explicit Watchdog(double seconds) {
    thread_ = std::thread([this, seconds] {
      std::unique_lock<std::mutex> lock(mutex_);
      if (!cv_.wait_for(lock, std::chrono::duration<double>(seconds),
                        [this] { return done_; })) {
        std::fprintf(stderr,
                     "chaos watchdog: batch did not terminate within "
                     "%.0f s -- aborting\n",
                     seconds);
        std::fflush(stderr);
        std::_Exit(1);
      }
    });
  }
  ~Watchdog() {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      done_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  bool done_ = false;
  std::thread thread_;
};

flow::FlowOptions fast_flow() {
  flow::FlowOptions options;
  options.seed = 1;
  options.epsilon = 0.05;
  options.milp_timeout_s = 30.0;
  options.sim_cycles = 2000;
  options.use_heuristic = false;
  options.max_simulated_points = 4;
  return options;
}

JobSpec flow_job(const std::string& name) {
  JobSpec spec;
  spec.name = name;
  spec.rrg = bench89::make_table2_rrg(bench89::spec_by_name(name), 1);
  spec.flow = fast_flow();
  spec.mode = JobMode::kMinEffCyc;
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
    EXPECT_EQ(a.candidates[i].tau, b.candidates[i].tau) << label << " " << i;
    EXPECT_EQ(a.candidates[i].theta_sim, b.candidates[i].theta_sim)
        << label << " " << i;
    EXPECT_EQ(a.candidates[i].xi_sim, b.candidates[i].xi_sim)
        << label << " " << i;
  }
}

const std::vector<std::string>& iscas_names() {
  static const std::vector<std::string> names = {"s838", "s208", "s420"};
  return names;
}

/// Fault-free oracle, computed once per process.
const std::vector<flow::CircuitResult>& baseline() {
  static const std::vector<flow::CircuitResult>* results = [] {
    auto* r = new std::vector<flow::CircuitResult>();
    for (const std::string& name : iscas_names()) {
      r->push_back(flow::run_flow(
          name, bench89::make_table2_rrg(bench89::spec_by_name(name), 1),
          fast_flow()));
    }
    return r;
  }();
  return *results;
}

class ChaosTest : public ::testing::Test {
 protected:
  void TearDown() override { failpoint::reset(); }
};

/// One single-fail-point schedule: run the ISCAS batch with retries on,
/// assert termination + all-green + bit-exactness, then prove the fleet
/// still accepts work.
void run_schedule(const std::string& schedule, bool with_disk_cache) {
  SCOPED_TRACE("ELRR_FAILPOINTS=" + schedule);
  const Watchdog watchdog(240.0);
  const fs::path dir = fs::temp_directory_path() / "elrr_chaos_disk_cache";
  if (with_disk_cache) fs::remove_all(dir);

  // The oracle runs before the schedule is armed: computed lazily under
  // it, a fault could land in the oracle's own flow, which no scheduler
  // retries.
  (void)baseline();
  failpoint::configure(schedule);
  SchedulerOptions sopt;
  sopt.workers = 2;
  sopt.sim_threads = 2;
  sopt.retry_max = 3;
  sopt.start_paused = true;
  if (with_disk_cache) sopt.disk_cache_dir = dir.string();
  Scheduler scheduler(sopt);
  std::vector<JobId> ids;
  for (const std::string& name : iscas_names()) {
    ids.push_back(scheduler.submit(flow_job(name)));
  }
  scheduler.resume();
  for (std::size_t i = 0; i < ids.size(); ++i) {
    const JobResult result = scheduler.wait(ids[i]);
    ASSERT_EQ(result.state, JobState::kDone)
        << iscas_names()[i] << ": " << result.error;
    EXPECT_FALSE(result.degraded) << iscas_names()[i];
    expect_same_circuit_result(baseline()[i], result.circuit,
                               iscas_names()[i]);
  }

  // Fleet reusability: the same scheduler takes one more job after the
  // chaos schedule has done its worst.
  failpoint::reset();
  const JobResult extra = scheduler.wait(scheduler.submit(flow_job("s208")));
  ASSERT_EQ(extra.state, JobState::kDone) << extra.error;
  if (with_disk_cache) fs::remove_all(dir);
}

TEST_F(ChaosTest, WorkerThrowIsRetriedToGreen) {
  run_schedule("fleet.worker=once", /*with_disk_cache=*/false);
}

TEST_F(ChaosTest, WorkerThrowAfterWarmupIsRetriedToGreen) {
  run_schedule("fleet.worker=after:5", /*with_disk_cache=*/false);
}

TEST_F(ChaosTest, ProbabilisticWorkerFaultsAreRetriedToGreen) {
  // P is kept small: each attempt trips the site once per slice, and the
  // retry budget must overwhelmingly outlast the fault stream.
  run_schedule("fleet.worker=prob:0.01@1234", /*with_disk_cache=*/false);
}

TEST_F(ChaosTest, MilpFaultIsRetriedToGreen) {
  run_schedule("milp.solve=once", /*with_disk_cache=*/false);
}

TEST_F(ChaosTest, WalkStepFaultIsRetriedToGreen) {
  run_schedule("walk.step=once", /*with_disk_cache=*/false);
}

TEST_F(ChaosTest, WarmStartFaultFallsBackToColdInvisibly) {
  // milp.warm is *contained* inside the MILP session: an injected
  // basis-restore corruption makes the session fall back to the
  // bit-identical cold solve -- no job-level failure, no retry burned.
  // Both a one-shot and a sustained probabilistic schedule must leave
  // every frontier untouched.
  run_schedule("milp.warm=once", /*with_disk_cache=*/false);
  run_schedule("milp.warm=prob:0.25@99", /*with_disk_cache=*/false);
}

/// The anytime portfolio under chaos: the ISCAS batch in kPortfolio
/// mode, with faults injected into the MILP, the warm-restore path and
/// the fleet, terminates, retries to green, publishes every anytime
/// answer, and every final (exact-leg) result is bit-identical to the
/// fault-free kMinEffCyc baseline.
TEST_F(ChaosTest, PortfolioBatchSurvivesChaosSchedules) {
  for (const std::string schedule :
       {"milp.solve=once", "milp.warm=once", "fleet.worker=once",
        "walk.step=once"}) {
    SCOPED_TRACE("ELRR_FAILPOINTS=" + schedule);
    const Watchdog watchdog(240.0);
    (void)baseline();  // fault-free: computed before the schedule arms
    failpoint::configure(schedule);
    SchedulerOptions sopt;
    sopt.workers = 2;
    sopt.sim_threads = 2;
    sopt.retry_max = 3;
    sopt.start_paused = true;
    Scheduler scheduler(sopt);
    std::vector<JobId> ids;
    for (const std::string& name : iscas_names()) {
      JobSpec spec = flow_job(name);
      spec.mode = JobMode::kPortfolio;
      ids.push_back(scheduler.submit(std::move(spec)));
    }
    scheduler.resume();
    for (std::size_t i = 0; i < ids.size(); ++i) {
      const JobResult result = scheduler.wait(ids[i]);
      ASSERT_EQ(result.state, JobState::kDone)
          << iscas_names()[i] << ": " << result.error;
      EXPECT_FALSE(result.degraded) << iscas_names()[i];
      EXPECT_TRUE(result.stats.anytime_ready) << iscas_names()[i];
      EXPECT_GT(result.stats.anytime_xi, 0.0) << iscas_names()[i];
      expect_same_circuit_result(baseline()[i], result.circuit,
                                 iscas_names()[i]);
    }
    failpoint::reset();
  }
}

TEST_F(ChaosTest, StuckWorkerStallIsAbsorbed) {
  // No deadline configured: the stall (bounded by the registry's 60 s
  // cap) delays the batch, never wedges it.
  run_schedule("fleet.worker=stall:250", /*with_disk_cache=*/false);
}

TEST_F(ChaosTest, DiskCacheFaultsAreContainedMissesAndDrops) {
  run_schedule("disk_cache.load=once", /*with_disk_cache=*/true);
  run_schedule("disk_cache.store=once", /*with_disk_cache=*/true);
}

/// Deadline pressure on the MILP-backed walk: the batch degrades (per
/// job, flagged, heuristic-identical) instead of failing or hanging.
TEST_F(ChaosTest, DeadlinePressureDegradesDeterministically) {
  const Watchdog watchdog(240.0);
  flow::FlowOptions heuristic = fast_flow();
  heuristic.heuristic_only = true;

  SchedulerOptions sopt;
  sopt.workers = 2;
  sopt.sim_threads = 2;
  Scheduler scheduler(sopt);
  std::vector<JobId> ids;
  for (const std::string& name : iscas_names()) {
    JobSpec spec = flow_job(name);
    spec.deadline_s = 1e-6;  // every walk degrades
    ids.push_back(scheduler.submit(spec));
  }
  for (std::size_t i = 0; i < ids.size(); ++i) {
    const JobResult result = scheduler.wait(ids[i]);
    ASSERT_EQ(result.state, JobState::kDone)
        << iscas_names()[i] << ": " << result.error;
    EXPECT_TRUE(result.degraded) << iscas_names()[i];
    const flow::CircuitResult oracle = flow::run_flow(
        iscas_names()[i],
        bench89::make_table2_rrg(bench89::spec_by_name(iscas_names()[i]), 1),
        heuristic);
    expect_same_circuit_result(oracle, result.circuit, iscas_names()[i]);
  }
  EXPECT_EQ(scheduler.stats().degraded, iscas_names().size());
}

/// A no-retry batch under a one-shot fault: exactly the faulted job
/// fails, every other job is bit-identical to baseline, and the
/// scheduler + fleet keep serving.
TEST_F(ChaosTest, NonFaultedJobsAreBitIdenticalWhenOneJobFails) {
  const Watchdog watchdog(240.0);
  failpoint::configure("milp.solve=once");
  SchedulerOptions sopt;
  sopt.workers = 1;  // deterministic dispatch: the first job eats the fault
  sopt.retry_max = 0;
  sopt.start_paused = true;
  Scheduler scheduler(sopt);
  std::vector<JobId> ids;
  for (const std::string& name : iscas_names()) {
    ids.push_back(scheduler.submit(flow_job(name)));
  }
  scheduler.resume();
  std::size_t failed = 0;
  for (std::size_t i = 0; i < ids.size(); ++i) {
    const JobResult result = scheduler.wait(ids[i]);
    if (result.state == JobState::kFailed) {
      ++failed;
      EXPECT_NE(result.error.find("injected fault"), std::string::npos)
          << result.error;
    } else {
      ASSERT_EQ(result.state, JobState::kDone) << result.error;
      expect_same_circuit_result(baseline()[i], result.circuit,
                                 iscas_names()[i]);
    }
  }
  EXPECT_EQ(failed, 1u);
  failpoint::reset();
  const JobResult extra = scheduler.wait(scheduler.submit(flow_job("s420")));
  ASSERT_EQ(extra.state, JobState::kDone) << extra.error;
}

TEST_F(ChaosTest, ManifestFaultFailsLoudlyAndOnce) {
  failpoint::configure("svc.manifest=once");
  EXPECT_THROW((void)parse_manifest("{\"circuit\": \"s27\"}"),
               failpoint::FailPointError);
  // The fault is one-shot; the retried parse succeeds.
  EXPECT_EQ(parse_manifest("{\"circuit\": \"s27\"}").size(), 1u);
}

}  // namespace
}  // namespace elrr::svc
