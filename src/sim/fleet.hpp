#pragma once

/// \file fleet.hpp
/// Cross-candidate simulation fleet: scores *many* candidate RRGs (the
/// Pareto points of a retiming/recycling walk, a telescopic parameter
/// grid, ...) through one work-queue of batch-sized run slices drained by
/// a persistent shared worker pool.
///
/// Why a fleet instead of a per-candidate loop: one candidate typically
/// carries only a handful of replications, so scoring candidates one
/// simulate_throughput call at a time leaves both lanes and cores idle --
/// with the flow's 2 runs per candidate the PR-1 driver degenerates to a
/// single work item and a single thread no matter what `threads` says.
/// The fleet interleaves each candidate's runs up to 16 lanes wide
/// through FlatKernel::step_batch (telescopic candidates included), and
/// drains work items from *different* candidates concurrently across the
/// pool.
///
/// One way in: `submit_async` moves a candidate into the fleet, queues
/// its slices on the background pool *immediately* and returns a
/// SimTicket; the caller keeps working and collects the result through
/// `poll`/`wait`/`wait_for`, then `release`s the ticket. The pipelined
/// flow engine (flow/engine.hpp) submits each Pareto candidate while the
/// next MILP step solves; simulate_throughput is a one-ticket fleet.
/// Every public method is thread-safe: any number of client threads may
/// drive one fleet concurrently (the svc::Scheduler shape, one fleet per
/// batch).
///
/// Session cache: a candidate with identical canonical content + options
/// to any earlier submission (a previous walk iteration, *another
/// client's job*) aliases that job instead of re-simulating -- duplicate
/// candidates, a routine artifact of Pareto walks revisiting
/// configurations, simulate once (the determinism contract makes the
/// shared result bit-identical to simulating each copy). The cache is
/// LRU-evicted past a byte cap (`cache_cap_bytes`; default 256 MiB, 0 =
/// unbounded). Eviction only forgets a *result for dedup purposes* --
/// outstanding tickets keep their job alive (shared ownership) and stay
/// waitable, so correctness never depends on the cap. cache_stats()
/// exposes live entries/bytes plus cumulative hits/misses/evictions; the
/// ELRR_SIM_CACHE_CAP env knob plumbs the cap through FlowOptions /
/// svc::SchedulerOptions. The worker pool persists for the fleet's
/// lifetime (workers park on a condition variable between jobs).
///
/// Determinism contract (same as the PR-1 driver, fleet-wide): each job's
/// result depends only on (rrg, options.seed, options.runs,
/// options.*_cycles). Every run draws from its own splitmix64-derived
/// per-node streams, per-run theta lands in a run-indexed slot, and each
/// job's moments accumulate in run order -- so the thread count, the lane
/// packing (options.max_batch), dedup on/off, the submission interleaving
/// and the client count can never change a reported theta.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>

#include "core/rrg.hpp"
#include "sim/simulator.hpp"

namespace elrr::sim {

namespace fleet_detail {
struct FleetCore;  // pool + queue + session state (fleet.cpp)
}  // namespace fleet_detail

/// Default byte cap of the session result cache (LRU past this).
inline constexpr std::size_t kDefaultSimCacheCapBytes =
    std::size_t{256} << 20;  // 256 MiB

/// The worker count the fleet actually spawns for `requested` threads
/// (0 = use `hardware`, itself possibly 0 when the runtime cannot tell:
/// then 1) over `work_items` queue entries (never spawn workers that
/// would find nothing to do). An explicit request never consults the
/// hardware count -- the fleet passes `hardware` only when `requested`
/// is 0. Exposed for tests pinning the under/over-spawn edge cases.
std::size_t resolve_worker_count(std::size_t requested, std::size_t hardware,
                                 std::size_t work_items);

/// Canonical byte key of one RRG's simulation-visible content (structure,
/// tokens, buffers, gammas, kinds, telescopic parameters). Two RRGs with
/// equal keys are guaranteed identical simulation semantics; the fleet's
/// dedup cache appends the stream/window-selecting SimOptions fields.
/// Exposed so the svc::Scheduler can layer its cross-job result cache on
/// the same canonical identity.
std::string canonical_rrg_key(const Rrg& rrg);

/// Handle to one submitted job. A ticket stays waitable (and
/// re-waitable) until it is release()d -- results are held by shared
/// ownership, so neither cache eviction nor other clients can
/// invalidate it.
struct SimTicket {
  static constexpr std::size_t kInvalid = static_cast<std::size_t>(-1);
  std::size_t id = kInvalid;
  /// True when this submission created a new unique simulation; false on
  /// a session-cache hit (the ticket aliases an earlier job's result).
  bool fresh = false;
  bool valid() const { return id != kInvalid; }
};

/// Live + cumulative counters of the session result cache.
struct SimCacheStats {
  std::size_t entries = 0;         ///< results currently cached
  std::size_t bytes = 0;           ///< accounted bytes of those entries
  std::size_t capacity_bytes = 0;  ///< LRU byte cap (0 = unbounded)
  std::uint64_t hits = 0;          ///< submissions served from the cache
  std::uint64_t misses = 0;        ///< unique simulations ever created
  std::uint64_t evictions = 0;     ///< entries LRU-evicted over the cap
};

/// Work-queue scheduler over all submitted simulation jobs.
class SimFleet {
 public:
  /// `threads` = worker pool size; 0 = hardware concurrency. `dedup`
  /// controls duplicate-candidate elimination (identical RRG content +
  /// identical options simulate once); results are bit-identical either
  /// way, off is for benchmarking the dedup itself. `cache_cap_bytes`
  /// bounds the session result cache (0 = unbounded).
  explicit SimFleet(std::size_t threads = 0, bool dedup = true,
                    std::size_t cache_cap_bytes = kDefaultSimCacheCapBytes);
  ~SimFleet();
  SimFleet(const SimFleet&) = delete;
  SimFleet& operator=(const SimFleet&) = delete;

  /// Moves `rrg` into the fleet, starts simulating it on the background
  /// pool immediately and returns without waiting. Validates options
  /// eagerly (throws on zero cycles/runs). With dedup on, a candidate
  /// identical to any earlier submission reuses its (possibly already
  /// finished) simulation. Thread-safe.
  SimTicket submit_async(Rrg&& rrg, const SimOptions& options);

  /// Non-blocking: has this ticket's simulation finished? Thread-safe.
  bool poll(SimTicket ticket) const;
  /// Blocks until the ticket's job completes and returns its report
  /// (rethrows the job's failure, if any). Re-waitable until released.
  /// Thread-safe.
  SimResult wait(SimTicket ticket);
  /// Bounded wait: blocks at most `seconds`, then returns nullopt if the
  /// job is still running (no side effects; wait again later). On
  /// completion behaves exactly like wait(). The scheduler's deadline
  /// loop polls through this so a stuck worker can never wedge a client
  /// past its wall budget. Thread-safe.
  std::optional<SimResult> wait_for(SimTicket ticket, double seconds);
  /// Drops the fleet's reference for this ticket: later poll/wait on it
  /// throw, and -- once every aliasing ticket is released and the cache
  /// entry evicted -- the job's memory is freed. Long-lived clients (the
  /// flow engine, the scheduler) release tickets when done so a
  /// month-long session stays bounded. Idempotent; thread-safe.
  void release(SimTicket ticket);
  /// Jobs submitted and not yet completed.
  std::size_t async_pending() const;
  /// Live + cumulative session-cache counters (entries, bytes, cap,
  /// hits/misses/evictions).
  SimCacheStats cache_stats() const;
  /// Pool workers that have been executing one slice for longer than
  /// `threshold_s` seconds (heartbeat-based). A healthy slice finishes in
  /// milliseconds; a nonzero count under a generous threshold means a
  /// worker is wedged (or an injected `stall:` fail point is active) and
  /// bounded waits should report it rather than keep waiting. Thread-safe.
  std::size_t stuck_workers(double threshold_s) const;
  /// Pool workers currently executing a slice (heartbeat-based). With
  /// pool_size() this is the fleet-utilization reading the periodic
  /// stats snapshot publishes for `elrr top`. Thread-safe.
  std::size_t busy_workers() const;

  std::size_t threads() const { return threads_; }
  bool dedup() const { return dedup_; }
  /// Persistent pool threads currently alive (0 before the first
  /// submission; the pool grows on demand up to the configured width
  /// and parks between jobs).
  std::size_t pool_size() const;

 private:
  /// Grows the persistent pool to `workers` threads (thread-safe).
  void ensure_pool(std::size_t workers);
  /// One pool thread's claim loop over the shared queue.
  void worker_main(std::size_t slot);
  std::size_t hardware_concurrency_cached();

  const std::size_t threads_;
  const bool dedup_;

  /// Mutex, condition variables, worker threads, the shared work queue
  /// and the session (job contexts, LRU dedup cache, tickets) --
  /// defined in fleet.cpp; workers and concurrent clients only ever
  /// touch this state under its mutex.
  std::unique_ptr<fleet_detail::FleetCore> core_;
};

}  // namespace elrr::sim
