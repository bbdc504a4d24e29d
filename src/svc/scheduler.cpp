#include "svc/scheduler.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <exception>
#include <utility>

#include "core/analysis.hpp"
#include "core/opt.hpp"
#include "obs/recorder.hpp"
#include "obs/trace.hpp"
#include "support/bytes.hpp"
#include "support/env.hpp"
#include "support/error.hpp"
#include "support/stopwatch.hpp"
#include "svc/disk_cache.hpp"

namespace elrr::svc {

namespace {

/// A job that outlived its wall budget. Deliberately *not* a
/// TransientError: the deadline covers every retry attempt, so an
/// immediate re-run could only expire again -- the job fails (or, for
/// walk jobs, degrades) instead of burning retries.
class DeadlineExceeded : public Error {
 public:
  explicit DeadlineExceeded(const std::string& what) : Error(what) {}
};

/// Bounded fleet wait honoring a job deadline: polls in short slices so
/// a wedged fleet worker (see SimFleet::stuck_workers) can never hold a
/// scheduler worker past the job's wall budget. Each expired slice
/// samples the fleet's stuck-worker count against the configured
/// ELRR_STALL_THRESHOLD, folding the peak into `*stalled_peak` -- the
/// per-job stall observability JobStats::stalled_workers reports -- and
/// a deadline expiry names that same threshold in its error. Unlimited
/// deadlines take the plain blocking wait -- the happy path is
/// unchanged.
sim::SimResult wait_with_deadline(sim::SimFleet& fleet, sim::SimTicket ticket,
                                  const Deadline& deadline,
                                  double stall_threshold_s,
                                  std::size_t* stalled_peak) {
  if (deadline.unlimited()) return fleet.wait(ticket);
  for (;;) {
    const double slice =
        std::min(0.05, std::max(0.001, deadline.remaining()));
    std::optional<sim::SimResult> report = fleet.wait_for(ticket, slice);
    if (report.has_value()) return *report;
    const std::size_t stuck = fleet.stuck_workers(stall_threshold_s);
    *stalled_peak = std::max(*stalled_peak, stuck);
    if (deadline.expired()) {
      obs::count("job.deadline_expired");
      throw DeadlineExceeded(detail::concat(
          "job deadline expired after ", deadline.elapsed(),
          " s waiting on the simulation fleet (", stuck,
          " worker(s) busy past the ", stall_threshold_s,
          " s stall threshold)"));
    }
  }
}

/// Weighted round-robin credits per priority class: high is preferred
/// 4:2:1 but can never starve normal/low -- once its credits are spent
/// the dispatcher moves down, and credits refill only when every class
/// with work has none left.
constexpr unsigned kClassWeights[3] = {4, 2, 1};

using bytes::append_value;

/// Releases one fleet ticket on scope exit -- success or unwind (wait()
/// rethrows simulation failures; the ticket must not outlive the job in
/// a shared fleet). The one-ticket sibling of flow::Engine's TicketGuard.
struct TicketRelease {
  sim::SimFleet* fleet;
  sim::SimTicket ticket;
  ~TicketRelease() { fleet->release(ticket); }
};

}  // namespace

const char* to_string(JobMode mode) {
  switch (mode) {
    case JobMode::kScoreOnly: return "score";
    case JobMode::kMinCyc: return "min_cyc";
    case JobMode::kMinEffCyc: return "min_eff_cyc";
    case JobMode::kPortfolio: return "portfolio";
  }
  return "?";
}

const char* to_string(JobState state) {
  switch (state) {
    case JobState::kQueued: return "queued";
    case JobState::kRunning: return "running";
    case JobState::kDone: return "done";
    case JobState::kCancelled: return "cancelled";
    case JobState::kFailed: return "failed";
    case JobState::kRejected: return "rejected";
  }
  return "?";
}

SchedulerOptions SchedulerOptions::from_env() {
  constexpr std::uint64_t kNoCap = ~std::uint64_t{0};
  const flow::FlowOptions flow = flow::FlowOptions::from_env();
  SchedulerOptions options;
  options.sim_threads = flow.sim_threads;
  options.sim_cache_cap = flow.sim_cache_cap;
  // 0 disables the deadline, so this one knob is non-negative where
  // ELRR_MILP_TIMEOUT and friends demand strictly positive.
  options.job_deadline_s = env::nonneg_double("ELRR_JOB_DEADLINE", 0.0);
  // The cap rejects typos: a retry budget past 1000 is a loop, not a
  // recovery policy.
  options.retry_max = static_cast<std::size_t>(
      env::u64("ELRR_RETRY_MAX", 2, 0, 1000));
  // Strictly positive: a zero threshold would count every busy worker
  // as stuck, which is noise, not observability.
  options.stall_threshold_s =
      env::positive_double("ELRR_STALL_THRESHOLD", 30.0);
  options.disk_cache_dir = env::str("ELRR_DISK_CACHE_DIR", "");
  options.disk_cache_cap = static_cast<std::size_t>(
      env::u64("ELRR_DISK_CACHE_CAP", 0, 0, kNoCap));
  // ELRR_STATS_SNAPSHOT=path:period_ms. The split is at the *last*
  // colon so a path containing colons still parses; the period is
  // validated strictly (integer ms in [10, 86400000]) like every other
  // knob -- malformed values throw, never silently disable.
  const std::string snapshot = env::str("ELRR_STATS_SNAPSHOT", "");
  if (!snapshot.empty()) {
    const std::size_t colon = snapshot.rfind(':');
    bool ok = colon != std::string::npos && colon > 0 &&
              colon + 1 < snapshot.size();
    std::uint64_t period = 0;
    for (std::size_t i = colon + 1; ok && i < snapshot.size(); ++i) {
      ok = snapshot[i] >= '0' && snapshot[i] <= '9';
      if (ok) period = period * 10 + static_cast<std::uint64_t>(
                                         snapshot[i] - '0');
      ok = ok && period <= 86'400'000;
    }
    ok = ok && period >= 10;
    if (!ok) {
      env::fail("ELRR_STATS_SNAPSHOT",
                "path:period_ms with period in [10, 86400000]",
                snapshot.c_str());
    }
    options.snapshot_path = snapshot.substr(0, colon);
    options.snapshot_period_ms = period;
  }
  return options;
}

std::string Scheduler::job_key(const JobSpec& spec) {
  // Everything that can change the *result*: the circuit's canonical
  // simulation-visible content, the node delays (the simulation never
  // reads them, so canonical_rrg_key omits them -- but tau, every MILP
  // solve and every xi depend on them), the mode, and the
  // result-affecting FlowOptions fields. The wall-clock knobs
  // (sim_threads, sim_cache_cap) are deliberately absent -- they never
  // move a number, per the engine/fleet determinism contracts.
  std::string key = sim::canonical_rrg_key(spec.rrg);
  for (NodeId n = 0; n < spec.rrg.num_nodes(); ++n) {
    append_value(key, spec.rrg.delay(n));
  }
  append_value(key, static_cast<std::uint8_t>(spec.mode));
  append_value(key, spec.min_cyc_x);
  append_value(key, spec.flow.seed);
  append_value(key, spec.flow.epsilon);
  append_value(key, spec.flow.milp_timeout_s);
  append_value(key, static_cast<std::uint64_t>(spec.flow.sim_cycles));
  append_value(key,
               static_cast<std::uint64_t>(spec.flow.max_simulated_points));
  append_value(key, static_cast<std::uint8_t>(spec.flow.polish));
  append_value(key, static_cast<std::uint8_t>(spec.flow.use_heuristic));
  append_value(key, static_cast<std::uint8_t>(spec.flow.heuristic_only));
  append_value(key, static_cast<std::int32_t>(spec.flow.exact_max_edges));
  return key;
}

Scheduler::Scheduler(const SchedulerOptions& options)
    : options_(options),
      fleet_(options.sim_threads, /*dedup=*/true, options.sim_cache_cap) {
  options_.workers = std::max<std::size_t>(options_.workers, 1);
  paused_ = options_.start_paused;
  // The persistent layer must stand before any worker can complete a job
  // (workers store into it without further coordination). A misconfigured
  // directory throws here, from the constructor, like any other invalid
  // option.
  if (!options_.disk_cache_dir.empty()) {
    DiskCacheOptions cache_options;
    cache_options.dir = options_.disk_cache_dir;
    cache_options.cap_bytes = options_.disk_cache_cap;
    disk_cache_ = std::make_unique<DiskCache>(cache_options);
  }
  workers_.reserve(options_.workers);
  for (std::size_t w = 0; w < options_.workers; ++w) {
    workers_.emplace_back([this] { worker_main(); });
  }
  if (!options_.snapshot_path.empty() && options_.snapshot_period_ms > 0) {
    snapshot_thread_ = std::thread([this] { snapshot_main(); });
  }
}

Scheduler::~Scheduler() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
    // Still-queued jobs are cancelled (their waiters unblock with a
    // terminal result); running jobs get a cancel request and finish at
    // their next step boundary before the join below returns.
    for (std::deque<JobId>& queue : queues_) {
      for (const JobId id : queue) {
        JobEntry& entry = *jobs_[id];
        entry.state = JobState::kCancelled;
        entry.result.id = id;
        entry.result.name = entry.spec.name;
        entry.result.mode = entry.spec.mode;
        entry.result.state = JobState::kCancelled;
        completion_order_.push_back(id);
      }
      queue.clear();
    }
    for (const std::unique_ptr<JobEntry>& entry : jobs_) {
      if (entry->state == JobState::kRunning) {
        entry->cancel_requested.store(true, std::memory_order_relaxed);
      }
    }
  }
  cv_.notify_all();
  snapshot_cv_.notify_all();
  for (std::thread& worker : workers_) worker.join();
  if (snapshot_thread_.joinable()) {
    snapshot_thread_.join();
    // One final snapshot after every worker has retired: the published
    // file ends showing the terminal state of every job, not whatever
    // the last periodic tick happened to catch.
    try {
      write_stats_snapshot(options_.snapshot_path);
    } catch (...) {
      // Shutdown is not the place to throw over a stats file.
    }
  }
}

JobId Scheduler::submit(JobSpec spec) {
  ELRR_REQUIRE(spec.rrg.num_nodes() > 0, "job '", spec.name,
               "': empty circuit");
  ELRR_REQUIRE(spec.min_cyc_x >= 1.0, "job '", spec.name,
               "': min_cyc_x must be >= 1");
  if (spec.name.empty()) spec.name = "job";
  const std::lock_guard<std::mutex> lock(mutex_);
  ELRR_REQUIRE(!stop_, "scheduler is shutting down");
  const JobId id = jobs_.size();
  jobs_.push_back(std::make_unique<JobEntry>());
  JobEntry& entry = *jobs_.back();
  entry.spec = std::move(spec);
  // Admission control: past the configured backlog the job is refused
  // *terminally* -- it gets a dense id and a reason (the caller can
  // resubmit later), but never a queue slot. Rejection is load-based,
  // not content-based, so it deliberately happens before any cache
  // probe: an overloaded service sheds work before spending on it.
  if (options_.max_queue_depth > 0) {
    std::size_t queued = 0;
    for (const std::deque<JobId>& queue : queues_) queued += queue.size();
    if (queued >= options_.max_queue_depth) {
      entry.state = JobState::kRejected;
      entry.result.id = id;
      entry.result.name = entry.spec.name;
      entry.result.mode = entry.spec.mode;
      entry.result.state = JobState::kRejected;
      entry.result.error = detail::concat(
          "rejected: queue depth limit reached (", queued, " queued, cap ",
          options_.max_queue_depth, ")");
      completion_order_.push_back(id);
      cv_.notify_all();
      return id;
    }
  }
  entry.submit_ns = obs::now_ns_if_armed();
  obs::rec::event("job.submit", id,
                  static_cast<std::uint64_t>(entry.spec.priority));
  queues_[static_cast<std::size_t>(entry.spec.priority)].push_back(id);
  cv_.notify_all();
  return id;
}

bool Scheduler::pick_next_locked(JobId* id) {
  for (int round = 0; round < 2; ++round) {
    bool any_work = false;
    for (std::size_t c = 0; c < 3; ++c) {
      if (queues_[c].empty()) continue;
      any_work = true;
      if (credits_[c] == 0) continue;
      --credits_[c];
      *id = queues_[c].front();
      queues_[c].pop_front();
      return true;
    }
    if (!any_work) return false;
    // Every class with work is out of credits: refill and go again --
    // the refill point is what makes the weights a *ratio*, not a strict
    // priority.
    for (std::size_t c = 0; c < 3; ++c) credits_[c] = kClassWeights[c];
  }
  return false;
}

void Scheduler::worker_main() {
  obs::set_thread_label("sched-worker");
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    cv_.wait(lock, [&] {
      if (stop_) return true;
      if (paused_) return false;
      for (const std::deque<JobId>& queue : queues_) {
        if (!queue.empty()) return true;
      }
      return false;
    });
    if (stop_) return;
    JobId id = 0;
    if (!pick_next_locked(&id)) continue;
    JobEntry& entry = *jobs_[id];
    entry.state = JobState::kRunning;
    entry.result.id = id;
    entry.result.name = entry.spec.name;
    entry.result.mode = entry.spec.mode;
    lock.unlock();

    // Timeline: the queue wait ended the moment this worker picked the
    // job up; everything from here to the completion bookkeeping is the
    // job.run span (cache probes included -- a cache-served job shows
    // as a short run).
    const std::int64_t run_start_ns = obs::now_ns_if_armed();
    if (obs::armed() && entry.submit_ns > 0) {
      obs::record_span("job.queued", entry.submit_ns, run_start_ns, id);
    }
    obs::rec::event("job.pick", id);
    obs::rec::set_inflight("job", id);

    // Cross-job result cache: an identical job (same circuit content,
    // result-affecting options and mode) short-circuits the whole run.
    // The key is *reserved at dispatch* -- like the fleet's two-phase
    // candidate submission -- so a duplicate dispatched concurrently
    // waits for the first copy instead of re-walking; a completed twin
    // serves instantly. The key serializes the circuit (computed
    // outside the lock); lookup/reservation is one critical section.
    Stopwatch watch;
    // The canonical key feeds both cache layers; the persistent layer
    // works with the in-memory one off (and vice versa).
    const std::string key = options_.job_cache || disk_cache_ != nullptr
                                ? job_key(entry.spec)
                                : std::string();
    JobStats stats;  // local while running; merged under the final lock
    bool served_from_cache = false;
    bool cancelled_while_waiting = false;
    if (options_.job_cache && !key.empty()) {
      std::unique_lock<std::mutex> cache_lock(mutex_);
      // Ownership loop: whoever holds result_cache_[key] runs the job;
      // everyone else waits and re-checks on every wake -- the owner may
      // complete (serve from it), fail or be cancelled (exactly ONE
      // waiter takes the identity over and runs; the rest find the new
      // owner and go back to waiting -- no stampede of redundant
      // walks), or the waiter itself may be cancelled or the scheduler
      // shut down (terminate kCancelled without running).
      for (;;) {
        if (entry.cancel_requested.load(std::memory_order_relaxed) ||
            stop_) {
          entry.result.state = JobState::kCancelled;
          cancelled_while_waiting = true;
          break;
        }
        const auto [it, inserted] = result_cache_.emplace(key, id);
        if (inserted || it->second == id) break;  // we own it: run below
        // JobEntry storage is stable (unique_ptr); `it` is re-fetched
        // every iteration because concurrent emplaces may rehash.
        JobEntry& source = *jobs_[it->second];
        if (source.state == JobState::kDone && !source.result.degraded) {
          entry.result = source.result;  // terminal results are immutable
          entry.result.id = id;
          entry.result.name = entry.spec.name;
          entry.result.circuit.name = entry.spec.name;
          // The twin did none of the work: only the cache-hit marker is
          // its own. Summing sim_jobs/unique_simulations over per-job
          // records must match the work actually performed.
          stats = JobStats{};
          stats.job_cache_hit = true;
          ++job_cache_hits_;
          obs::count("job.cache_hit");
          served_from_cache = true;
          break;
        }
        if (source.state == JobState::kCancelled ||
            source.state == JobState::kFailed ||
            source.state == JobState::kDone) {
          // kDone here means *degraded*: a deadline-shaped result must
          // never be served to a twin whose own budget might be healthy.
          // Treated like a failed owner -- take the identity over and
          // run for real.
          // The owner came to nothing: take the identity over and run
          // for real (later duplicates wait on -- or reuse -- this job).
          result_cache_[key] = id;
          break;
        }
        cv_.wait(cache_lock);  // owner still running; re-check on wake
      }
    }
    // Persistent layer, probed only by the key's *owner* (an in-memory
    // hit never touches disk). A valid entry is bit-identical to the
    // run it replaces -- the payload is the byte-exact serialized result
    // of a prior completion -- so serving it publishes this job as a
    // clean kDone owner for in-memory twins too. Torn/corrupt entries
    // read as misses and the job simply runs.
    if (!served_from_cache && !cancelled_while_waiting &&
        disk_cache_ != nullptr) {
      const std::optional<std::string> payload = disk_cache_->load(key);
      std::optional<JobResult> cached;
      if (payload.has_value()) cached = deserialize_job_result(*payload);
      if (cached.has_value() && cached->mode == entry.spec.mode) {
        entry.result = std::move(*cached);
        entry.result.id = id;
        entry.result.name = entry.spec.name;
        entry.result.circuit.name = entry.spec.name;
        stats = JobStats{};
        stats.disk_cache_hit = true;
        served_from_cache = true;
      }
    }
    if (!served_from_cache && !cancelled_while_waiting) {
      run_job_robust(entry, &stats);
      // Only clean completions persist: degraded results are
      // deadline-shaped (wall-clock leaking into a content-addressed
      // key would poison healthier twins) and cancelled/failed runs
      // carry no result worth replaying.
      if (disk_cache_ != nullptr &&
          entry.result.state == JobState::kDone && !entry.result.degraded) {
        disk_cache_->store(key, serialize_job_result(entry.result));
      }
    }
    stats.wall_seconds = watch.seconds();
    obs::record_span("job.run", run_start_ns, obs::now_ns_if_armed(), id);
    obs::rec::clear_inflight();
    obs::rec::event(entry.result.state == JobState::kDone ? "job.done"
                    : entry.result.state == JobState::kCancelled
                        ? "job.cancelled"
                        : "job.failed",
                    id);

    lock.lock();
    // Live progress (candidates_walked) streamed in through the hook;
    // everything else lands here, under the lock status() reads with.
    stats.candidates_walked =
        std::max(stats.candidates_walked, entry.stats.candidates_walked);
    stats.stalled_workers =
        std::max(stats.stalled_workers, entry.stats.stalled_workers);
    if (stats.disk_cache_hit) {
      ++disk_cache_hits_;
      obs::count("job.disk_cache_hit");
    }
    total_retries_ += stats.retries;
    entry.stats = stats;
    entry.result.stats = stats;
    entry.state = entry.result.state;
    obs::count(entry.state == JobState::kDone ? "job.done"
               : entry.state == JobState::kCancelled ? "job.cancelled"
                                                     : "job.failed");
    completion_order_.push_back(id);
    cv_.notify_all();
  }
}

void Scheduler::run_job_robust(JobEntry& entry, JobStats* stats) {
  const Deadline deadline(
      entry.spec.deadline_s.value_or(options_.job_deadline_s));
  const std::size_t retry_max =
      entry.spec.retries.value_or(options_.retry_max);
  for (std::size_t attempt = 0;; ++attempt) {
    bool transient = false;
    {
      OBS_SPAN_ID("job.attempt", attempt + 1);
      run_job(entry, stats, deadline, &transient);
    }
    if (entry.result.state != JobState::kFailed) return;
    // Permanent failures (API misuse, internal bugs, deadline expiry)
    // never retry; transients (injected faults, lost workers) get the
    // bounded budget -- but only while the job's own deadline still has
    // room, since the deadline covers all attempts.
    if (!transient || attempt >= retry_max || deadline.expired()) return;
    // Bounded exponential backoff, interruptible: a cancel() or
    // scheduler shutdown must not sit out the full sleep.
    const auto backoff =
        std::chrono::milliseconds(10) * (std::uint64_t{1} << std::min<std::size_t>(attempt, 5));
    {
      OBS_SPAN("job.backoff");
      std::unique_lock<std::mutex> lock(mutex_);
      cv_.wait_for(lock, backoff, [&] {
        return stop_ ||
               entry.cancel_requested.load(std::memory_order_relaxed);
      });
      if (stop_ ||
          entry.cancel_requested.load(std::memory_order_relaxed)) {
        entry.result.state = JobState::kCancelled;
        return;
      }
    }
    ++stats->retries;
    obs::count("job.retries");
    obs::rec::event("job.retry", entry.result.id,
                    static_cast<std::uint64_t>(attempt + 1));
    // Re-run from a clean slate: the failed attempt's partial numbers
    // must not bleed into the retry (the retried result is bit-identical
    // to a first-try run -- the determinism tests pin this).
    JobResult fresh;
    fresh.id = entry.result.id;
    fresh.name = entry.result.name;
    fresh.mode = entry.result.mode;
    entry.result = std::move(fresh);
  }
}

void Scheduler::run_job(JobEntry& entry, JobStats* stats,
                        const Deadline& deadline, bool* transient) {
  const JobSpec& spec = entry.spec;
  JobResult& result = entry.result;
  *transient = false;
  try {
    flow::FlowHooks hooks;
    hooks.fleet = &fleet_;
    // The cooperative cancellation predicate carries *both* stop
    // reasons: a user cancel() and the job's wall budget. Walks observe
    // it at every step boundary; which of the two fired is resolved
    // after the flow returns (deadline -> degradation ladder, cancel ->
    // kCancelled).
    hooks.cancelled = [&entry, &deadline] {
      return entry.cancel_requested.load(std::memory_order_relaxed) ||
             deadline.expired();
    };
    // Walk jobs never route through wait_with_deadline (the flow engine
    // owns its fleet waits), so the progress hook doubles as their stall
    // sampler: every step boundary probes the fleet against the
    // configured threshold and keeps the peak.
    hooks.on_progress = [this, &entry](std::size_t walked) {
      const std::size_t stuck =
          fleet_.stuck_workers(options_.stall_threshold_s);
      const std::lock_guard<std::mutex> lock(mutex_);
      entry.stats.candidates_walked = walked;
      entry.stats.stalled_workers =
          std::max(entry.stats.stalled_workers, stuck);
    };
    switch (spec.mode) {
      case JobMode::kMinEffCyc: {
        result.circuit = flow::run_flow(spec.name, spec.rrg, spec.flow, hooks);
        const bool user_cancel =
            entry.cancel_requested.load(std::memory_order_relaxed);
        if (result.circuit.cancelled && !user_cancel && deadline.expired()) {
          // Degradation ladder: the exact walk ran out of wall budget.
          // Fall back to the MILP-free heuristic flow -- deterministic,
          // orders of magnitude cheaper, and bit-identical to a direct
          // heuristic_only run of the same spec -- and flag the result
          // instead of failing the job. The scheduler never caches
          // degraded results (memory or disk).
          flow::FlowOptions degraded_flow = spec.flow;
          degraded_flow.heuristic_only = true;
          flow::FlowHooks degraded_hooks = hooks;
          degraded_hooks.cancelled = [&entry] {
            return entry.cancel_requested.load(std::memory_order_relaxed);
          };
          result.circuit = flow::run_flow(spec.name, spec.rrg,
                                          degraded_flow, degraded_hooks);
          result.degraded = true;
          result.error = detail::concat(
              "deadline expired after ", deadline.elapsed(),
              " s: degraded to the heuristic-only flow");
        }
        stats->candidates_walked = result.circuit.candidates_walked;
        stats->sim_jobs = result.circuit.sim_jobs;
        stats->unique_simulations = result.circuit.unique_simulations;
        stats->exact_thetas = result.circuit.exact_thetas;
        stats->walk_seconds = result.circuit.walk_seconds;
        stats->sim_wait_seconds = result.circuit.sim_wait_seconds;
        result.tau = result.circuit.candidates.empty()
                         ? 0.0
                         : result.circuit.candidates.front().tau;
        result.theta_sim = result.circuit.candidates.empty()
                               ? 0.0
                               : result.circuit.candidates.front().theta_sim;
        result.xi_sim = result.circuit.xi_sim_min;
        result.state =
            (result.circuit.cancelled && !result.degraded) ||
                    entry.cancel_requested.load(std::memory_order_relaxed)
                ? JobState::kCancelled
                : JobState::kDone;
        break;
      }
      case JobMode::kPortfolio: {
        // Anytime portfolio: race the MILP-free heuristic against the
        // exact flow, sequentially on this one worker (the fleet below
        // is shared; a second walk thread would only fight the MILPs for
        // cores). Leg 1 -- the heuristic -- is orders of magnitude
        // cheaper and deterministic; its answer is published to
        // status() the moment it lands (anytime_*), so a caller watching
        // the job has a usable configuration long before the exact walk
        // finishes. Leg 2 -- the exact flow -- then runs under the job
        // deadline and *supersedes* the heuristic on clean completion.
        // Legs share the fleet's session cache, so any candidate both
        // produce simulates once.
        Stopwatch anytime_watch;
        flow::FlowOptions heuristic_flow = spec.flow;
        heuristic_flow.heuristic_only = true;
        flow::FlowHooks heuristic_hooks = hooks;
        // The heuristic leg ignores the deadline (like the kMinEffCyc
        // degradation ladder): it IS the fallback answer, and cutting it
        // short would leave the job with nothing. User cancels still
        // stop it.
        heuristic_hooks.cancelled = [&entry] {
          return entry.cancel_requested.load(std::memory_order_relaxed);
        };
        heuristic_hooks.on_progress = nullptr;  // the exact leg owns
                                                // candidates_walked
        const flow::CircuitResult anytime = flow::run_flow(
            spec.name, spec.rrg, heuristic_flow, heuristic_hooks);
        stats->anytime_ready = !anytime.cancelled;
        stats->anytime_xi = anytime.xi_sim_min;
        stats->anytime_seconds = anytime_watch.seconds();
        {
          // Publish the anytime answer live: status() reads entry.stats
          // under this mutex while the job is still running.
          const std::lock_guard<std::mutex> lock(mutex_);
          entry.stats.anytime_ready = stats->anytime_ready;
          entry.stats.anytime_xi = stats->anytime_xi;
          entry.stats.anytime_seconds = stats->anytime_seconds;
        }
        if (entry.cancel_requested.load(std::memory_order_relaxed)) {
          result.circuit = anytime;
          stats->sim_jobs = anytime.sim_jobs;
          stats->unique_simulations = anytime.unique_simulations;
          stats->exact_thetas = anytime.exact_thetas;
          stats->walk_seconds = anytime.walk_seconds;
          stats->sim_wait_seconds = anytime.sim_wait_seconds;
          result.state = JobState::kCancelled;
          break;
        }
        flow::CircuitResult exact =
            flow::run_flow(spec.name, spec.rrg, spec.flow, hooks);
        const bool user_cancel =
            entry.cancel_requested.load(std::memory_order_relaxed);
        const bool exact_timed_out =
            exact.cancelled && !user_cancel && deadline.expired();
        stats->candidates_walked =
            anytime.candidates_walked + exact.candidates_walked;
        stats->sim_jobs = anytime.sim_jobs + exact.sim_jobs;
        stats->unique_simulations =
            anytime.unique_simulations + exact.unique_simulations;
        stats->exact_thetas = anytime.exact_thetas + exact.exact_thetas;
        stats->walk_seconds = anytime.walk_seconds + exact.walk_seconds;
        stats->sim_wait_seconds =
            anytime.sim_wait_seconds + exact.sim_wait_seconds;
        if (exact_timed_out) {
          // The exact leg ran out of wall budget: the job still
          // completes with the heuristic's answer, flagged degraded --
          // and degraded results are never cached (memory or disk), so
          // the caches only ever hold results the exact leg produced.
          result.circuit = anytime;
          result.degraded = true;
          result.error = detail::concat(
              "deadline expired after ", deadline.elapsed(),
              " s into the exact leg: kept the anytime heuristic answer");
        } else {
          result.circuit = std::move(exact);
        }
        result.tau = result.circuit.candidates.empty()
                         ? 0.0
                         : result.circuit.candidates.front().tau;
        result.theta_sim = result.circuit.candidates.empty()
                               ? 0.0
                               : result.circuit.candidates.front().theta_sim;
        result.xi_sim = result.circuit.xi_sim_min;
        result.state =
            (result.circuit.cancelled && !result.degraded) || user_cancel
                ? JobState::kCancelled
                : JobState::kDone;
        break;
      }
      case JobMode::kScoreOnly: {
        const sim::SimOptions sopt = flow::scoring_options(spec.flow);
        Stopwatch sim_watch;
        const sim::SimTicket ticket =
            fleet_.submit_async(Rrg(spec.rrg), sopt);
        // Released on unwind too: wait() rethrows simulation failures,
        // and a leaked ticket would pin its job in the shared fleet for
        // the scheduler's lifetime.
        const TicketRelease release{&fleet_, ticket};
        const sim::SimResult report =
            wait_with_deadline(fleet_, ticket, deadline,
                               options_.stall_threshold_s,
                               &stats->stalled_workers);
        stats->sim_wait_seconds = sim_watch.seconds();
        stats->sim_jobs = 1;
        stats->unique_simulations = ticket.fresh ? 1 : 0;
        result.tau = cycle_time(spec.rrg).tau;
        result.theta_sim = report.theta;
        result.xi_sim = effective_cycle_time(result.tau, report.theta);
        // Non-walk jobs have no step boundary: the primitive runs to
        // completion, but a cancel() that returned true must still be
        // observable -- the job terminates kCancelled (result fields
        // stay populated for the curious).
        result.state = entry.cancel_requested.load(std::memory_order_relaxed)
                           ? JobState::kCancelled
                           : JobState::kDone;
        break;
      }
      case JobMode::kMinCyc: {
        OptOptions opt;
        opt.epsilon = spec.flow.epsilon;
        opt.milp.time_limit_s = spec.flow.milp_timeout_s;
        Stopwatch walk_watch;
        const RcSolveResult solve = min_cyc(spec.rrg, spec.min_cyc_x, opt);
        stats->walk_seconds = walk_watch.seconds();
        ELRR_REQUIRE(solve.feasible, "MIN_CYC(", spec.min_cyc_x,
                     ") infeasible for '", spec.name, "'");
        const Rrg tuned = apply_config(spec.rrg, solve.config);
        const sim::SimOptions sopt = flow::scoring_options(spec.flow);
        Stopwatch sim_watch;
        const sim::SimTicket ticket = fleet_.submit_async(Rrg(tuned), sopt);
        const TicketRelease release{&fleet_, ticket};
        const sim::SimResult report =
            wait_with_deadline(fleet_, ticket, deadline,
                               options_.stall_threshold_s,
                               &stats->stalled_workers);
        stats->sim_wait_seconds = sim_watch.seconds();
        stats->sim_jobs = 1;
        stats->unique_simulations = ticket.fresh ? 1 : 0;
        result.tau = cycle_time(tuned).tau;
        result.theta_sim = report.theta;
        result.xi_sim = effective_cycle_time(result.tau, report.theta);
        result.state = entry.cancel_requested.load(std::memory_order_relaxed)
                           ? JobState::kCancelled
                           : JobState::kDone;
        break;
      }
    }
  } catch (const TransientError& e) {
    // The retryable class: injected faults, lost workers, torn IO. The
    // attempt loop in run_job_robust re-runs these up to the budget.
    result.state = JobState::kFailed;
    result.error = e.what();
    *transient = true;
  } catch (const std::exception& e) {
    // A failed job reports, never wedges: waiters get a terminal result
    // with the error text and the worker moves on. The flow releases its
    // fleet tickets on unwind (flow::Engine's TicketGuard); any still
    // in-flight simulations finish harmlessly into the session cache,
    // so the shared fleet keeps serving the next job. Permanent by
    // default -- only TransientError earns a retry.
    result.state = JobState::kFailed;
    result.error = e.what();
  }
}

JobSnapshot Scheduler::status(JobId id) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  ELRR_REQUIRE(id < jobs_.size(), "unknown job id ", id);
  const JobEntry& entry = *jobs_[id];
  return JobSnapshot{entry.state, entry.stats};
}

JobResult Scheduler::wait(JobId id) {
  std::unique_lock<std::mutex> lock(mutex_);
  ELRR_REQUIRE(id < jobs_.size(), "unknown job id ", id);
  JobEntry& entry = *jobs_[id];
  cv_.wait(lock, [&] {
    return entry.state == JobState::kDone ||
           entry.state == JobState::kCancelled ||
           entry.state == JobState::kFailed ||
           entry.state == JobState::kRejected;
  });
  return entry.result;
}

std::vector<JobResult> Scheduler::wait_all() {
  std::size_t count = 0;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    count = jobs_.size();
  }
  std::vector<JobResult> results;
  results.reserve(count);
  for (JobId id = 0; id < count; ++id) results.push_back(wait(id));
  return results;
}

bool Scheduler::cancel(JobId id) {
  const std::lock_guard<std::mutex> lock(mutex_);
  ELRR_REQUIRE(id < jobs_.size(), "unknown job id ", id);
  JobEntry& entry = *jobs_[id];
  if (entry.state == JobState::kQueued) {
    for (std::deque<JobId>& queue : queues_) {
      const auto it = std::find(queue.begin(), queue.end(), id);
      if (it != queue.end()) {
        queue.erase(it);
        break;
      }
    }
    entry.state = JobState::kCancelled;
    entry.result.id = id;
    entry.result.name = entry.spec.name;
    entry.result.mode = entry.spec.mode;
    entry.result.state = JobState::kCancelled;
    completion_order_.push_back(id);
    cv_.notify_all();
    return true;
  }
  if (entry.state == JobState::kRunning) {
    entry.cancel_requested.store(true, std::memory_order_relaxed);
    // A running twin may be parked in the result-cache ownership loop
    // waiting on its duplicate: wake it so the cancellation is observed
    // now, not at the twin's completion.
    cv_.notify_all();
    return true;
  }
  return false;
}

void Scheduler::resume() {
  const std::lock_guard<std::mutex> lock(mutex_);
  paused_ = false;
  cv_.notify_all();
}

void Scheduler::pause() {
  const std::lock_guard<std::mutex> lock(mutex_);
  paused_ = true;
}

SchedulerStats Scheduler::stats() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  SchedulerStats stats;
  stats.submitted = jobs_.size();
  stats.job_cache_hits = job_cache_hits_;
  stats.disk_cache_hits = disk_cache_hits_;
  stats.retries = total_retries_;
  for (const std::unique_ptr<JobEntry>& entry : jobs_) {
    switch (entry->state) {
      case JobState::kQueued: ++stats.queued; break;
      case JobState::kRunning: ++stats.running; break;
      case JobState::kDone:
        ++stats.completed;
        if (entry->result.degraded) ++stats.degraded;
        break;
      case JobState::kCancelled: ++stats.cancelled; break;
      case JobState::kFailed: ++stats.failed; break;
      case JobState::kRejected: ++stats.rejected; break;
    }
  }
  return stats;
}

std::vector<JobId> Scheduler::completion_order() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return completion_order_;
}

std::string Scheduler::stats_json() const {
  const SchedulerStats stats = this->stats();
  const sim::SimCacheStats cache = fleet_.cache_stats();
  // The MILP session stats summed over every *terminal* job (a running
  // job's result is still being written by its worker). At batch end
  // this equals the sum over wait_all()'s results, which is what keeps
  // the CLI summary byte-identical through this refactor.
  lp::SessionStats milp;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    for (const std::unique_ptr<JobEntry>& entry : jobs_) {
      if (entry->state == JobState::kQueued ||
          entry->state == JobState::kRunning) {
        continue;
      }
      const lp::SessionStats& m = entry->result.circuit.milp;
      milp.solves += m.solves;
      milp.warm_attempts += m.warm_attempts;
      milp.warm_roots += m.warm_roots;
      milp.warm_seeds += m.warm_seeds;
      milp.warm_fallbacks += m.warm_fallbacks;
      milp.cold_solves += m.cold_solves;
      milp.nodes += m.nodes;
      milp.lp_iterations += m.lp_iterations;
      milp.infeasible_certified += m.infeasible_certified;
      milp.infeasible_cold += m.infeasible_cold;
      milp.warm_nodes += m.warm_nodes;
      milp.replayed_nodes += m.replayed_nodes;
      milp.peak_snapshot_bytes =
          std::max(milp.peak_snapshot_bytes, m.peak_snapshot_bytes);
      milp.solve_seconds += m.solve_seconds;
    }
  }
  std::string out;
  char buf[768];
  std::snprintf(buf, sizeof(buf),
                "{\"scheduler\": {\"submitted\": %zu, "
                "\"completed\": %zu, \"failed\": %zu, \"rejected\": %zu, "
                "\"degraded\": %zu, \"cancelled\": %zu, \"retries\": %llu, "
                "\"job_cache_hits\": %llu, \"disk_cache_hits\": %llu}",
                stats.submitted, stats.completed, stats.failed,
                stats.rejected, stats.degraded, stats.cancelled,
                static_cast<unsigned long long>(stats.retries),
                static_cast<unsigned long long>(stats.job_cache_hits),
                static_cast<unsigned long long>(stats.disk_cache_hits));
  out += buf;
  std::snprintf(buf, sizeof(buf),
                ", \"fleet_cache\": {\"hits\": %llu, \"misses\": %llu, "
                "\"entries\": %zu, \"bytes\": %zu, \"capacity_bytes\": %zu, "
                "\"evictions\": %llu}",
                static_cast<unsigned long long>(cache.hits),
                static_cast<unsigned long long>(cache.misses), cache.entries,
                cache.bytes, cache.capacity_bytes,
                static_cast<unsigned long long>(cache.evictions));
  out += buf;
  if (disk_cache_ != nullptr) {
    const DiskCacheStats disk = disk_cache_->stats();
    std::snprintf(buf, sizeof(buf),
                  ", \"disk_cache\": {\"entries\": %zu, \"bytes\": %zu, "
                  "\"hits\": %llu, \"misses\": %llu, \"corrupt\": %llu, "
                  "\"stores\": %llu, \"store_errors\": %llu, "
                  "\"evictions\": %llu}",
                  disk.entries, disk.bytes,
                  static_cast<unsigned long long>(disk.hits),
                  static_cast<unsigned long long>(disk.misses),
                  static_cast<unsigned long long>(disk.corrupt),
                  static_cast<unsigned long long>(disk.stores),
                  static_cast<unsigned long long>(disk.store_errors),
                  static_cast<unsigned long long>(disk.evictions));
    out += buf;
  }
  std::snprintf(buf, sizeof(buf),
                ", \"milp\": {\"solves\": %lld, \"warm_attempts\": %lld, "
                "\"warm_roots\": %lld, \"warm_seeds\": %lld, "
                "\"warm_fallbacks\": %lld, \"cold_solves\": %lld, "
                "\"nodes\": %lld, \"lp_iterations\": %lld, "
                "\"infeasible_certified\": %lld, \"infeasible_cold\": %lld, "
                "\"warm_nodes\": %lld, \"replayed_nodes\": %lld, "
                "\"peak_snapshot_bytes\": %lld, "
                "\"solve_seconds\": %.4f}}",
                static_cast<long long>(milp.solves),
                static_cast<long long>(milp.warm_attempts),
                static_cast<long long>(milp.warm_roots),
                static_cast<long long>(milp.warm_seeds),
                static_cast<long long>(milp.warm_fallbacks),
                static_cast<long long>(milp.cold_solves),
                static_cast<long long>(milp.nodes),
                static_cast<long long>(milp.lp_iterations),
                static_cast<long long>(milp.infeasible_certified),
                static_cast<long long>(milp.infeasible_cold),
                static_cast<long long>(milp.warm_nodes),
                static_cast<long long>(milp.replayed_nodes),
                static_cast<long long>(milp.peak_snapshot_bytes),
                milp.solve_seconds);
  out += buf;
  return out;
}

void Scheduler::write_stats_snapshot(const std::string& path) const {
  const SchedulerStats stats = this->stats();
  std::string doc;
  char buf[160];
  std::snprintf(buf, sizeof(buf), "{\"snapshot\": true, \"uptime_s\": %.3f",
                uptime_.seconds());
  doc += buf;
  std::snprintf(buf, sizeof(buf),
                ", \"queued\": %zu, \"running\": %zu, \"workers\": %zu",
                stats.queued, stats.running, options_.workers);
  doc += buf;
  std::snprintf(buf, sizeof(buf),
                ", \"fleet\": {\"pool\": %zu, \"busy\": %zu}",
                fleet_.pool_size(), fleet_.busy_workers());
  doc += buf;
  doc += ", \"stats\": ";
  doc += stats_json();
  // The obs body rides along whenever tracing is armed: `elrr top`
  // renders its per-phase percentiles next to the queue/fleet gauges.
  doc += ", \"obs\": {";
  doc += obs::summary_json();
  doc += "}}\n";

  const std::string tmp = path + ".tmp";
  std::FILE* out = std::fopen(tmp.c_str(), "w");
  if (out == nullptr) {
    throw Error(detail::concat(
        "scheduler: cannot open stats snapshot for write: ", tmp));
  }
  std::fputs(doc.c_str(), out);
  const bool write_ok = std::ferror(out) == 0;
  const bool close_ok = std::fclose(out) == 0;
  if (!write_ok || !close_ok) {
    std::remove(tmp.c_str());
    throw Error(
        detail::concat("scheduler: short write to stats snapshot: ", tmp));
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    throw Error(detail::concat(
        "scheduler: cannot move stats snapshot into place: ", path));
  }
}

void Scheduler::snapshot_main() {
  obs::set_thread_label("sched-snapshot");
  const auto period = std::chrono::milliseconds(options_.snapshot_period_ms);
  bool warned = false;
  std::unique_lock<std::mutex> lock(mutex_);
  while (!stop_) {
    snapshot_cv_.wait_for(lock, period, [&] { return stop_; });
    if (stop_) break;  // the destructor writes the terminal snapshot
    lock.unlock();
    try {
      write_stats_snapshot(options_.snapshot_path);
    } catch (const std::exception& e) {
      // A broken snapshot path must not kill the service it observes;
      // one warning names it and the publisher keeps trying.
      if (!warned) {
        std::fprintf(stderr, "elrr scheduler: stats snapshot failed: %s\n",
                     e.what());
        warned = true;
      }
    }
    lock.lock();
  }
}

}  // namespace elrr::svc
