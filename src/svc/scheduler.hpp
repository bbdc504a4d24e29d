#pragma once

/// \file scheduler.hpp
/// Multi-circuit optimization service: one svc::Scheduler multiplexes
/// many optimization jobs -- each a circuit + FlowOptions + mode -- onto
/// **one shared sim::SimFleet** and a bounded pool of MILP/walk workers.
///
/// Why a service instead of one flow::Engine per circuit: the engine
/// made a single circuit's walk and scoring concurrent, but every
/// consumer (bench_table1/2, iscas_flow, the elrr CLI) still built one
/// engine per circuit, so fleet workers, the canonical result cache and
/// warm pool state were torn down between jobs. The scheduler keeps them
/// standing: jobs enter a priority-classed queue, walk workers pick them
/// fair-share, every job's candidates score on the one multi-client
/// fleet (cross-*job* candidate dedup via the fleet's session cache),
/// and completed whole-job results feed a cross-job canonical-key result
/// cache -- a duplicate job (same circuit content + same result-affecting
/// options + same mode) is served from it without re-walking. This is
/// the data-driven "standing re-optimization service" shape argued for
/// by application-aware retiming (arXiv:1612.08163), and the layer later
/// scaling steps (remote/sharded workers, request serving) plug into.
///
/// Scheduling policy: three FIFO classes (high/normal/low) drained by
/// weighted round-robin credits (4/2/1) -- high-priority work is
/// preferred but a stream of it cannot starve the lower classes, and
/// within a class jobs run in submission order. Job execution is
/// non-preemptive (one worker per job; a huge circuit occupies one
/// worker, never the queue); *simulation* fairness comes from the shared
/// fleet, whose work queue interleaves batch-sized run slices of every
/// job's candidates across its own pool.
///
/// Determinism contract: a job's result is bit-exact vs a standalone run
/// of the same (circuit, FlowOptions, mode) through a solo flow::Engine
/// -- at any worker count, any fleet width and any job interleaving. The
/// walk itself is single-threaded per job and never shares MILP state;
/// candidate thetas are pinned by the fleet's determinism contract
/// (cross-job dedup fans out bit-identical cached results); and the
/// cross-job result cache only ever returns results produced by that
/// same contract. Wall-clock fields and cache-hit counters are the only
/// schedule-dependent outputs.
///
/// Cancellation: cancel(id) dequeues a queued job immediately; a
/// running job observes the request at its next step boundary (walks)
/// or after its current primitive (MIN_CYC solves, score simulations --
/// they have no mid-primitive boundary) and terminates as kCancelled
/// either way. The flow releases its fleet tickets before the worker
/// moves on, so cancellation never poisons the next job.
///
/// Threading: submit/status/wait/cancel/stats are thread-safe; workers
/// are internal. wait_all() may be called by one thread at a time.

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/rrg.hpp"
#include "flow/circuit_flow.hpp"
#include "sim/fleet.hpp"
#include "support/stopwatch.hpp"

#include <atomic>
#include <condition_variable>
#include <deque>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>

namespace elrr::svc {

class DiskCache;  // svc/disk_cache.hpp (persistent result cache layer)
struct DiskCacheStats;

using JobId = std::size_t;

/// What a job computes.
enum class JobMode : std::uint8_t {
  /// Simulate the circuit as submitted (no optimization): theta + xi.
  kScoreOnly = 0,
  /// One MIN_CYC(x) solve (minimize cycle time s.t. Theta_lp >= 1/x),
  /// scored by simulation. JobSpec::min_cyc_x picks x (default 1).
  kMinCyc,
  /// The full MIN_EFF_CYC flow (Pareto walk + heuristic merge +
  /// simulation reranking) -- flow::run_flow on the shared fleet.
  kMinEffCyc,
  /// Anytime portfolio: the MILP-free heuristic flow runs first and its
  /// answer is published immediately (JobStats::anytime_* via status()),
  /// then the exact MIN_EFF_CYC flow runs and its result *supersedes*
  /// the heuristic's. A deadline expiring mid-exact keeps the heuristic
  /// answer (degraded, like the kMinEffCyc ladder -- never cached); the
  /// caches only ever store the exact result.
  kPortfolio,
};

/// Queueing class; within a class, FIFO. Weighted round-robin across
/// classes (4/2/1) keeps low-priority work from starving.
enum class JobPriority : std::uint8_t { kHigh = 0, kNormal = 1, kLow = 2 };

enum class JobState : std::uint8_t {
  kQueued = 0,
  kRunning,
  kDone,
  kCancelled,  ///< dequeued, or the walk stopped at a step boundary
  kFailed,     ///< the job threw; JobResult::error carries the message
  kRejected,   ///< admission control refused it; error carries the reason
};

const char* to_string(JobMode mode);
const char* to_string(JobState state);

/// One optimization request.
struct JobSpec {
  std::string name;  ///< display name (results, logs)
  Rrg rrg;           ///< the circuit (strongly connected + live)
  flow::FlowOptions flow;  ///< knobs; sim_threads/dedup/cache_cap are the
                           ///< *fleet's* here and ignored per job
  JobMode mode = JobMode::kMinEffCyc;
  JobPriority priority = JobPriority::kNormal;
  /// MIN_CYC throughput bound parameter x (Theta_lp >= 1/x); >= 1.
  double min_cyc_x = 1.0;
  /// Per-job wall budget in seconds, covering every retry attempt.
  /// Unset: SchedulerOptions::job_deadline_s. 0 = unlimited. A walk job
  /// whose deadline expires degrades to the heuristic flow (flagged
  /// `degraded`); score/MIN_CYC jobs fail with a deadline error.
  std::optional<double> deadline_s;
  /// Transient-failure retry budget for this job. Unset:
  /// SchedulerOptions::retry_max.
  std::optional<std::size_t> retries;
};

/// Structured per-job progress/stats. `candidates_walked` updates live
/// while the job runs (status()); the rest settle at completion.
struct JobStats {
  std::size_t candidates_walked = 0;  ///< Pareto-walk emissions so far
  std::size_t sim_jobs = 0;           ///< candidates the job scored
  std::size_t unique_simulations = 0; ///< fresh fleet jobs (rest cached)
  /// Candidates scored exactly, with no simulation: their throughput
  /// bounds met (flow/engine.hpp). Score and MIN_CYC jobs always simulate.
  std::size_t exact_thetas = 0;
  bool job_cache_hit = false;  ///< served from the cross-job result cache
  bool disk_cache_hit = false; ///< served from the persistent disk cache
  std::size_t retries = 0;     ///< transient-failure re-runs this job took
  /// Peak count of fleet workers observed busy on one slice for longer
  /// than SchedulerOptions::stall_threshold_s while this job waited on
  /// the fleet (SimFleet::stuck_workers). Nonzero means the job's wall
  /// time was shaped by a wedged or straggling worker, not by its own
  /// work. Schedule-dependent, like the wall-clock fields.
  std::size_t stalled_workers = 0;
  double wall_seconds = 0.0;   ///< queue-exit to completion
  double walk_seconds = 0.0;   ///< cpu inside ParetoWalk::advance
  double sim_wait_seconds = 0.0;  ///< blocked on the fleet
  /// kPortfolio: the heuristic leg's anytime answer, published the moment
  /// it completes (status() streams it while the exact leg still runs).
  bool anytime_ready = false;
  double anytime_xi = 0.0;       ///< heuristic best effective cycle time
  double anytime_seconds = 0.0;  ///< wall seconds until the anytime answer
};

/// A completed (or cancelled/failed) job.
struct JobResult {
  JobId id = 0;
  std::string name;
  JobMode mode = JobMode::kMinEffCyc;
  JobState state = JobState::kQueued;
  /// Failure/rejection/degradation detail: non-empty when state is
  /// kFailed or kRejected, and when `degraded` is set (the reason the
  /// degradation ladder was taken). Empty for a clean kDone.
  std::string error;
  /// kDone via the degradation ladder (deadline expired mid-walk; the
  /// heuristic flow produced this result instead of the exact walk).
  /// Degraded results are never cached -- a later identical job with a
  /// healthier budget recomputes for real.
  bool degraded = false;
  /// kMinEffCyc / kPortfolio: the full table-row result (partial when
  /// cancelled; the heuristic leg's when a portfolio degraded).
  flow::CircuitResult circuit;
  /// kScoreOnly / kMinCyc: the single scored configuration.
  double tau = 0.0;
  double theta_sim = 0.0;
  double xi_sim = 0.0;
  JobStats stats;
};

/// Live job view: state + a stats snapshot.
struct JobSnapshot {
  JobState state = JobState::kQueued;
  JobStats stats;
};

struct SchedulerOptions {
  /// MILP/walk worker threads (each runs one job at a time; >= 1).
  std::size_t workers = 1;
  /// Shared fleet worker-pool size (0 = hardware concurrency).
  std::size_t sim_threads = 1;
  /// Byte cap of the fleet's session result cache (0 = unbounded).
  std::size_t sim_cache_cap = sim::kDefaultSimCacheCapBytes;
  /// Cross-job whole-result cache: duplicate jobs (identical circuit
  /// content, result-affecting options and mode) are served from the
  /// first completion instead of re-run. Results identical either way.
  bool job_cache = true;
  /// Start with dispatch paused: submissions queue but no worker picks
  /// one until resume(). Makes multi-job pick order independent of
  /// submission timing (elrr batch submits everything first).
  bool start_paused = false;
  /// Default per-job wall budget in seconds (JobSpec::deadline_s
  /// overrides per job); 0 = unlimited. Env ELRR_JOB_DEADLINE.
  double job_deadline_s = 0.0;
  /// Default transient-failure retry budget (bounded exponential
  /// backoff between attempts); JobSpec::retries overrides per job.
  /// Env ELRR_RETRY_MAX.
  std::size_t retry_max = 2;
  /// Seconds one fleet worker may stay busy on a single slice before the
  /// scheduler's bounded waits count it as *stuck* (fed to
  /// SimFleet::stuck_workers; peak surfaced as JobStats::stalled_workers
  /// and named in deadline-expiry errors). Env ELRR_STALL_THRESHOLD;
  /// must be strictly positive.
  double stall_threshold_s = 30.0;
  /// Admission control: jobs submitted while this many are already
  /// queued are terminally kRejected with a reason instead of enqueued
  /// (bounded backlog, the first `elrr serve` building block). 0 =
  /// unbounded.
  std::size_t max_queue_depth = 0;
  /// Persistent result cache directory (layered *under* the in-memory
  /// cross-job cache; empty = disabled). Env ELRR_DISK_CACHE_DIR.
  std::string disk_cache_dir;
  /// Byte cap of the persistent cache (0 = unbounded). Env
  /// ELRR_DISK_CACHE_CAP.
  std::size_t disk_cache_cap = 0;
  /// Periodic stats snapshot: every `snapshot_period_ms` a dedicated
  /// publisher thread writes the unified stats object (queue depths,
  /// fleet utilization, cache counters, obs summary) as JSON to
  /// `snapshot_path` via atomic tmp+rename -- `elrr top` reads it. A
  /// final snapshot is written at shutdown. Empty path = disabled. Env
  /// ELRR_STATS_SNAPSHOT=path:period_ms.
  std::string snapshot_path;
  std::uint64_t snapshot_period_ms = 0;

  /// Fleet knobs from FlowOptions::from_env() plus the robustness knobs
  /// (ELRR_JOB_DEADLINE, ELRR_RETRY_MAX, ELRR_STALL_THRESHOLD,
  /// ELRR_DISK_CACHE_DIR, ELRR_DISK_CACHE_CAP) and the snapshot
  /// publisher (ELRR_STATS_SNAPSHOT), all validated strictly -- a
  /// malformed value throws InvalidInputError naming the variable.
  /// workers/start_paused stay at their defaults (caller-owned).
  static SchedulerOptions from_env();
};

struct SchedulerStats {
  std::size_t submitted = 0;
  std::size_t completed = 0;  ///< kDone (degraded included)
  std::size_t cancelled = 0;
  std::size_t failed = 0;
  std::size_t rejected = 0;   ///< refused by admission control
  std::size_t degraded = 0;   ///< kDone via the degradation ladder
  std::uint64_t job_cache_hits = 0;
  std::uint64_t disk_cache_hits = 0;
  std::uint64_t retries = 0;  ///< transient-failure re-runs, all jobs
  std::size_t queued = 0;   ///< currently waiting
  std::size_t running = 0;  ///< currently executing
};

/// The multi-job optimization scheduler. One instance serves any number
/// of jobs over its lifetime; workers and the shared fleet persist.
class Scheduler {
 public:
  explicit Scheduler(const SchedulerOptions& options = {});
  ~Scheduler();
  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  /// Enqueues one job; returns its id (dense, submission-ordered).
  /// Thread-safe.
  JobId submit(JobSpec spec);

  /// State + live stats snapshot. Thread-safe.
  JobSnapshot status(JobId id) const;

  /// Blocks until the job reaches a terminal state and returns its
  /// result (state kDone, kCancelled or kFailed -- a failed job reports
  /// its error text; wait never throws for job failures). Thread-safe.
  JobResult wait(JobId id);

  /// Waits for every job submitted so far and returns all results in
  /// job-id (submission) order. Single-client.
  std::vector<JobResult> wait_all();

  /// Queued job: dequeued immediately (state kCancelled). Running job:
  /// a walk stops at its next step boundary; MIN_CYC and score jobs
  /// finish their current primitive -- either way the job terminates as
  /// kCancelled once cancel() returned true. Returns false when the job
  /// is already terminal. Thread-safe.
  bool cancel(JobId id);

  /// Releases dispatch when the scheduler was built start_paused (or
  /// pause()d); idempotent.
  void resume();
  /// Stops picking *new* jobs (running ones finish). For deterministic
  /// multi-job submission windows.
  void pause();

  /// The shared simulation fleet (cache_stats() for cross-job candidate
  /// dedup observability).
  sim::SimFleet& fleet() { return fleet_; }
  const sim::SimFleet& fleet() const { return fleet_; }

  SchedulerStats stats() const;
  /// The unified nested "stats" JSON object -- scheduler, fleet cache,
  /// disk cache (when enabled) and the MILP session stats
  /// summed over terminal jobs. Byte-identical to the `elrr batch`
  /// summary's "stats" value (the CLI renders through this), and the
  /// body of the periodic snapshot. Thread-safe.
  std::string stats_json() const;
  /// Writes one stats snapshot document (the periodic publisher's
  /// payload: uptime, queue depths, fleet utilization, stats_json and
  /// the obs summary) to `path` via atomic tmp+rename. Throws on IO
  /// failure. Thread-safe.
  void write_stats_snapshot(const std::string& path) const;
  /// Ids of completed-so-far jobs in completion order (fair-share /
  /// priority observability; includes done, cancelled, failed and
  /// rejected).
  std::vector<JobId> completion_order() const;
  /// The persistent result cache, or nullptr when disabled
  /// (observability; see DiskCache::stats()).
  const DiskCache* disk_cache() const { return disk_cache_.get(); }

 private:
  struct JobEntry {
    JobSpec spec;
    JobState state = JobState::kQueued;
    JobResult result;
    JobStats stats;
    std::atomic<bool> cancel_requested{false};
    /// obs timeline anchor: steady_clock ns at submit (0 when tracing
    /// was disarmed at submit time); the job.queued span's start.
    std::int64_t submit_ns = 0;
  };

  void worker_main();
  /// The snapshot publisher thread body: writes write_stats_snapshot to
  /// options_.snapshot_path every snapshot_period_ms, plus one final
  /// snapshot at shutdown so the file ends in the terminal state. IO
  /// failures warn once on stderr and never kill the scheduler.
  void snapshot_main();
  /// Picks the next job id under the scheduler mutex, honoring the
  /// weighted round-robin credits; returns false when every class is
  /// empty.
  bool pick_next_locked(JobId* id);
  /// One job end to end on the calling worker thread: deadline setup,
  /// the attempt/retry loop around run_job, the degradation ladder.
  void run_job_robust(JobEntry& entry, JobStats* stats);
  /// Executes one attempt of a job, filling entry.result and the local
  /// `stats` (merged into the entry under the scheduler lock by the
  /// caller). `transient` reports whether a kFailed outcome may retry.
  void run_job(JobEntry& entry, JobStats* stats, const Deadline& deadline,
               bool* transient);
  /// Canonical identity of a job for the cross-job result cache: the
  /// circuit's simulation-visible content + mode + every result-affecting
  /// FlowOptions field (never wall-clock knobs).
  static std::string job_key(const JobSpec& spec);

  SchedulerOptions options_;
  sim::SimFleet fleet_;

  mutable std::mutex mutex_;
  std::condition_variable cv_;  ///< dispatch + completion events
  bool stop_ = false;
  bool paused_ = false;
  std::vector<std::unique_ptr<JobEntry>> jobs_;
  std::deque<JobId> queues_[3];  ///< one FIFO per priority class
  unsigned credits_[3] = {0, 0, 0};
  std::unordered_map<std::string, JobId> result_cache_;  ///< key -> done job
  std::uint64_t job_cache_hits_ = 0;
  std::uint64_t disk_cache_hits_ = 0;
  std::uint64_t total_retries_ = 0;
  std::vector<JobId> completion_order_;
  std::vector<std::thread> workers_;
  /// Snapshot publisher (joinable only when options_.snapshot_path is
  /// set); woken early by shutdown through snapshot_cv_.
  std::thread snapshot_thread_;
  std::condition_variable snapshot_cv_;
  Stopwatch uptime_;
  /// Persistent result layer (nullptr = disabled). Constructed before
  /// the workers, used by them without further locking (DiskCache has
  /// its own mutex).
  std::unique_ptr<DiskCache> disk_cache_;
};

}  // namespace elrr::svc
