#include "sim/fleet.hpp"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <exception>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "obs/recorder.hpp"
#include "obs/trace.hpp"
#include "sim/choosers.hpp"
#include "support/bytes.hpp"
#include "sim/flat_kernel.hpp"
#include "support/error.hpp"
#include "support/failpoint.hpp"
#include "support/rng.hpp"
#include "support/stats.hpp"

namespace elrr::sim {

namespace fleet_detail {

/// Default step_batch lane pack (SSE-width int32 vectors) and the widest
/// one the driver instantiates. Wider packs help hosts with wider SIMD
/// (build with -DELRR_NATIVE=ON) and workloads with many runs per
/// candidate; SimOptions::max_batch picks per job.
inline constexpr std::size_t kDefaultLane = 4;
inline constexpr std::size_t kMaxLane = 16;

/// The slice widths execute_slice can step directly (descending). A job's
/// runs are packed greedily: the widest allowed width first, remainders
/// through the narrower ones, so any (runs, lane_cap) pair partitions
/// into supported widths. The partition is fixed up front per job --
/// independent of worker scheduling -- and lane packing never changes
/// results (every run draws from run-private streams).
inline constexpr std::size_t kLaneWidths[] = {16, 8, 4, 3, 2, 1};

std::size_t next_slice_width(std::size_t lane_cap, std::size_t remaining) {
  for (const std::size_t w : kLaneWidths) {
    if (w <= lane_cap && w <= remaining) return w;
  }
  return 1;
}

/// Independent per-node streams: one master stream split once per node,
/// so adding a node does not perturb the others' select sequences.
std::vector<Rng> node_streams(std::uint64_t seed, std::size_t num_nodes) {
  Rng master(seed);
  std::vector<Rng> streams;
  streams.reserve(num_nodes);
  for (std::size_t n = 0; n < num_nodes; ++n) streams.push_back(master.split());
  return streams;
}

/// One full replication on the flat fast path: templated choosers, no
/// allocation after the stream setup.
double run_flat(const FlatKernel& kernel, const GuardTable& guards,
                const LatencyTable& latencies, std::uint64_t seed,
                const SimOptions& options) {
  const std::size_t num_nodes = kernel.num_nodes();
  std::vector<Rng> streams = node_streams(seed, num_nodes);
  const TableGuardChooser guard{&guards, streams.data()};
  const TableLatencyChooser latency{&latencies, streams.data()};

  FlatState state = kernel.initial_state();
  for (std::size_t t = 0; t < options.warmup_cycles; ++t) {
    kernel.step(state, guard, latency);
  }
  std::uint64_t firings = 0;
  for (std::size_t t = 0; t < options.measure_cycles; ++t) {
    firings += kernel.step(state, guard, latency);
  }
  return static_cast<double>(firings) /
         (static_cast<double>(options.measure_cycles) *
          static_cast<double>(num_nodes));
}

/// K replications interleaved through one FlatKernel pass. Each run
/// draws from the same streams the solo path would (RunStreams derives
/// them master-per-run, node-major), so per-run theta is bit-identical
/// to run_flat for every lane width -- telescopic graphs included (the
/// batched stepper carries per-lane busy countdowns, and each lane's
/// latency draws come from its own run-private streams).
template <std::size_t K>
void run_flat_batch(const FlatKernel& kernel, const GuardTable& guards,
                    const LatencyTable& latencies, std::uint64_t sim_seed,
                    std::size_t first_run, const SimOptions& options,
                    double* thetas) {
  const std::size_t num_nodes = kernel.num_nodes();
  std::uint64_t seeds[K];
  for (std::size_t r = 0; r < K; ++r) {
    seeds[r] = run_seed(sim_seed, first_run + r);
  }
  RunStreams streams(seeds, K, num_nodes);
  const BatchTableGuardChooser guard{&guards, streams.data(), K};
  const BatchTableLatencyChooser latency{&latencies, streams.data(), K};

  FlatBatchState state = kernel.initial_batch_state(K);
  std::uint64_t totals[K] = {};
  for (std::size_t t = 0; t < options.warmup_cycles; ++t) {
    kernel.step_batch<K>(state, guard, totals, latency);
  }
  std::fill(totals, totals + K, 0);  // discard the transient
  for (std::size_t t = 0; t < options.measure_cycles; ++t) {
    kernel.step_batch<K>(state, guard, totals, latency);
  }
  for (std::size_t r = 0; r < K; ++r) {
    thetas[r] = static_cast<double>(totals[r]) /
                (static_cast<double>(options.measure_cycles) *
                 static_cast<double>(num_nodes));
  }
}

/// Everything one unique job needs at execution time. The kernel and tables
/// are built once per unique job (on the submitting thread) and shared
/// read-only by all workers; per-run theta slots are written by exactly
/// one work slice each (disjoint ranges), so workers never contend.
/// The scheduling fields (`remaining`, `failure`) are guarded by the
/// fleet mutex. Contexts are shared-ownership: queue slices, tickets and
/// the dedup cache each hold a reference, so neither ticket release nor
/// cache eviction can free a job a worker still executes.
struct JobContext {
  /// `remaining` value of a reserved-but-not-yet-built context
  /// (two-phase submission: the cache entry is visible -- and aliasable
  /// -- while the kernels build outside the lock).
  static constexpr std::size_t kBuilding = static_cast<std::size_t>(-1);

  std::unique_ptr<Rrg> rrg;  ///< the candidate, owned until completion
  SimOptions options;
  std::size_t lane_cap = 1;  ///< batch width cap this job's slices use
  std::unique_ptr<FlatKernel> kernel;
  std::unique_ptr<GuardTable> guards;
  std::unique_ptr<LatencyTable> latencies;
  std::vector<double> per_run;  ///< run-indexed theta slots

  std::size_t remaining = 0;  ///< slices still to finish (fleet mutex)
  std::exception_ptr failure;  ///< first slice failure (fleet mutex)
  bool done() const { return remaining == 0; }

  /// Frees everything execution needed once the last slice lands: the
  /// session cache keeps only per_run (cheap) for report merging, never
  /// the candidate, kernel or tables.
  void release_execution_state() {
    kernel.reset();
    guards.reset();
    latencies.reset();
    rrg.reset();
  }
};

/// One queue entry: a contiguous slice of one unique job's runs, at most
/// lane_cap wide. Slices are fixed up front (greedy width partition per
/// job), so the partition -- and with it every run's lane assignment --
/// is independent of worker scheduling. The shared_ptr keeps the context
/// alive while the slice sits in the queue or executes, whatever happens
/// to tickets and cache entries meanwhile.
struct QueueEntry {
  std::shared_ptr<JobContext> ctx;
  std::uint32_t first = 0;
  std::uint32_t count = 0;
};

/// Runs one slice: `count` consecutive runs from `first`, solo or as one
/// step_batch lane pack.
void execute_slice(JobContext& ctx, std::uint32_t first, std::uint32_t count) {
  double* const thetas = ctx.per_run.data() + first;
  switch (count) {
    case 1:
      thetas[0] = run_flat(*ctx.kernel, *ctx.guards, *ctx.latencies,
                           run_seed(ctx.options.seed, first), ctx.options);
      break;
    case 2:
      run_flat_batch<2>(*ctx.kernel, *ctx.guards, *ctx.latencies,
                        ctx.options.seed, first, ctx.options, thetas);
      break;
    case 3:
      run_flat_batch<3>(*ctx.kernel, *ctx.guards, *ctx.latencies,
                        ctx.options.seed, first, ctx.options, thetas);
      break;
    case 4:
      run_flat_batch<4>(*ctx.kernel, *ctx.guards, *ctx.latencies,
                        ctx.options.seed, first, ctx.options, thetas);
      break;
    case 8:
      run_flat_batch<8>(*ctx.kernel, *ctx.guards, *ctx.latencies,
                        ctx.options.seed, first, ctx.options, thetas);
      break;
    case 16:
      run_flat_batch<16>(*ctx.kernel, *ctx.guards, *ctx.latencies,
                         ctx.options.seed, first, ctx.options, thetas);
      break;
    default:
      ELRR_ASSERT(false, "unsupported lane width ", count);
  }
}

namespace {

using bytes::append_value;

/// Canonical byte key of (RRG content, simulation options): two jobs with
/// equal keys are guaranteed the same per-run thetas by the determinism
/// contract, so the fleet simulates one and fans the scores out. Covers
/// everything the simulation semantics read (canonical_rrg_key) plus the
/// options fields that select streams and windows.
std::string canonical_key(const Rrg& rrg, const SimOptions& options) {
  std::string key = canonical_rrg_key(rrg);
  append_value(key, options.seed);
  append_value(key, static_cast<std::uint64_t>(options.warmup_cycles));
  append_value(key, static_cast<std::uint64_t>(options.measure_cycles));
  append_value(key, static_cast<std::uint64_t>(options.runs));
  return key;
}

/// Builds the kernel, chooser tables, result slots and the slice
/// partition for one unique job. Runs on the submitting thread, outside
/// the fleet mutex.
void build_context(JobContext& ctx, std::vector<QueueEntry>* entries,
                   const std::shared_ptr<JobContext>& self) {
  ctx.kernel = std::make_unique<FlatKernel>(*ctx.rrg);
  ctx.lane_cap = ctx.options.max_batch == 0
                     ? kDefaultLane
                     : std::min(ctx.options.max_batch, kMaxLane);
  ctx.guards = std::make_unique<GuardTable>(*ctx.rrg);
  ctx.latencies = std::make_unique<LatencyTable>(*ctx.rrg);
  ctx.per_run.assign(ctx.options.runs, 0.0);
  for (std::size_t first = 0; first < ctx.options.runs;) {
    const std::size_t width =
        next_slice_width(ctx.lane_cap, ctx.options.runs - first);
    entries->push_back(QueueEntry{self, static_cast<std::uint32_t>(first),
                                  static_cast<std::uint32_t>(width)});
    first += width;
  }
}

/// Merges one unique job's per-run thetas in run order -- neither the
/// queue interleaving, the pool size nor dedup can reach this reduction.
SimResult report_for(const JobContext& ctx) {
  RunningStats across_runs;
  for (const double theta : ctx.per_run) across_runs.add(theta);
  SimResult report;
  report.theta = across_runs.mean();
  report.stderr_theta = across_runs.stderr_mean();
  report.cycles = ctx.options.runs * ctx.options.measure_cycles;
  return report;
}

/// Bytes one cache entry is accounted at: its key, the context struct and
/// the per-run result slots (the state that survives completion; kernels
/// and tables are freed when the last slice lands).
std::size_t entry_bytes(const std::string& key, const JobContext& ctx) {
  return key.size() + sizeof(JobContext) + ctx.options.runs * sizeof(double) +
         64;  // map/list node overhead, amortized
}

}  // namespace

/// Pool, queue and session state. Workers and client threads meet only
/// here, under `mutex`:
///  * `queue` holds unclaimed slices; workers pop front, execute
///    unlocked, then land the slice (finish_slice) under the lock and
///    signal `cv_done` when a job finishes;
///  * waiters block on `cv_done` until the contexts they care about
///    complete -- a claimed slice holds a shared_ptr, so context storage
///    outlives its execution no matter what tickets or the cache do
///    meanwhile;
///  * the session -- the LRU dedup `cache` and the `tickets` table --
///    persists for the fleet's lifetime and is fully guarded by `mutex`:
///    any number of client threads may submit/poll/wait/release
///    concurrently (multi-client sharing, the svc::Scheduler shape).
struct FleetCore {
  struct CacheEntry {
    std::shared_ptr<JobContext> ctx;
    std::list<const std::string*>::iterator lru;
    std::size_t bytes = 0;
  };

  /// Heartbeat of one pool worker: set under `mutex` when a slice is
  /// claimed, cleared when it lands. A worker whose beat stays `busy`
  /// past a threshold is *stuck* (wedged kernel, injected stall) --
  /// stuck_workers() is how the scheduler's bounded waits name the
  /// culprit instead of hanging with it.
  struct WorkerBeat {
    bool busy = false;
    std::chrono::steady_clock::time_point since{};
  };

  mutable std::mutex mutex;
  std::condition_variable cv_work;
  std::condition_variable cv_done;
  std::vector<std::thread> pool;  ///< guarded by `mutex` (ensure_pool)
  std::vector<WorkerBeat> beats;  ///< one per pool slot (under `mutex`)
  bool stop = false;
  std::deque<QueueEntry> queue;

  // Session (all under `mutex`).
  std::unordered_map<std::string, CacheEntry> cache;  ///< canonical -> entry
  std::list<const std::string*> lru;  ///< front = most recently used
  std::size_t cache_bytes = 0;
  std::size_t cache_cap_bytes = kDefaultSimCacheCapBytes;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t cache_evictions = 0;
  std::size_t in_flight = 0;  ///< contexts not yet completed

  std::unordered_map<std::size_t, std::shared_ptr<JobContext>> tickets;
  std::size_t next_ticket = 0;

  /// Drops a job's dedup-cache entry (if present) under `mutex`: a
  /// failed job must not replay its failure to re-submissions, which
  /// run fresh instead. Linear scan: failure path only.
  void purge_entry(const JobContext* ctx) {
    for (auto it = cache.begin(); it != cache.end(); ++it) {
      if (it->second.ctx.get() == ctx) {
        cache_bytes -= it->second.bytes;
        lru.erase(it->second.lru);
        cache.erase(it);
        break;
      }
    }
  }

  /// Lands one claimed slice under `mutex`: clears the slot's heartbeat,
  /// records the job's first failure and, on its last slice, frees the
  /// execution state and wakes the waiters. A failed job is purged from
  /// the dedup cache: existing tickets still rethrow the failure, but a
  /// *re-submission* of the same candidate must run fresh -- that is
  /// what makes a transient fault (injected or real) recoverable by the
  /// scheduler's retry, instead of the cache replaying it forever.
  void finish_slice(std::size_t slot, JobContext& ctx,
                    std::exception_ptr failure) {
    beats[slot].busy = false;
    if (failure && !ctx.failure) ctx.failure = failure;
    if (ctx.failure) purge_entry(&ctx);
    if (--ctx.remaining == 0) {
      ctx.release_execution_state();
      ELRR_ASSERT(in_flight > 0, "in_flight underflow");
      --in_flight;
      cv_done.notify_all();
    }
  }

  /// Evicts completed LRU-tail entries until the cache fits its cap.
  /// In-flight entries are skipped (rotated to the front: they are the
  /// session's most recent work anyway); shared ownership means eviction
  /// only forgets the result for *dedup*, never invalidates tickets.
  void evict_over_cap() {
    if (cache_cap_bytes == 0) return;
    std::size_t scanned = 0;
    const std::size_t max_scan = lru.size();
    while (cache_bytes > cache_cap_bytes && cache.size() > 1 &&
           scanned++ < max_scan) {
      const std::string* key = lru.back();
      const auto it = cache.find(*key);
      ELRR_ASSERT(it != cache.end(), "LRU entry missing from cache map");
      if (!it->second.ctx->done()) {
        lru.splice(lru.begin(), lru, std::prev(lru.end()));
        it->second.lru = lru.begin();
        continue;
      }
      cache_bytes -= it->second.bytes;
      lru.pop_back();
      cache.erase(it);
      ++cache_evictions;
    }
  }
};

}  // namespace fleet_detail

using fleet_detail::FleetCore;
using fleet_detail::JobContext;
using fleet_detail::QueueEntry;

std::size_t resolve_worker_count(std::size_t requested, std::size_t hardware,
                                 std::size_t work_items) {
  // hardware_concurrency() is allowed to report 0 ("unknown"); never
  // under-spawn below one worker, never over-spawn past the queue.
  std::size_t workers = requested != 0 ? requested : hardware;
  if (workers == 0) workers = 1;
  return std::min(workers, std::max<std::size_t>(work_items, 1));
}

std::string canonical_rrg_key(const Rrg& rrg) {
  using bytes::append_value;
  std::string key;
  key.reserve(rrg.num_nodes() * 12 + rrg.num_edges() * 24 + 64);
  append_value(key, static_cast<std::uint64_t>(rrg.num_nodes()));
  append_value(key, static_cast<std::uint64_t>(rrg.num_edges()));
  for (NodeId n = 0; n < rrg.num_nodes(); ++n) {
    append_value(key, static_cast<std::uint8_t>(rrg.kind(n)));
    const Telescopic& t = rrg.telescopic(n);
    append_value(key, static_cast<std::uint8_t>(t.enabled()));
    if (t.enabled()) {
      append_value(key, t.fast_prob);
      append_value(key, static_cast<std::int32_t>(t.slow_extra));
    }
  }
  const Digraph& g = rrg.graph();
  for (EdgeId e = 0; e < rrg.num_edges(); ++e) {
    append_value(key, static_cast<std::uint32_t>(g.src(e)));
    append_value(key, static_cast<std::uint32_t>(g.dst(e)));
    append_value(key, static_cast<std::int32_t>(rrg.tokens(e)));
    append_value(key, static_cast<std::int32_t>(rrg.buffers(e)));
    append_value(key, rrg.gamma(e));
  }
  return key;
}

SimFleet::SimFleet(std::size_t threads, bool dedup,
                   std::size_t cache_cap_bytes)
    : threads_(threads),
      dedup_(dedup),
      core_(std::make_unique<FleetCore>()) {
  core_->cache_cap_bytes = cache_cap_bytes;
}

SimFleet::~SimFleet() {
  {
    const std::lock_guard<std::mutex> lock(core_->mutex);
    core_->stop = true;
    // Pending queue entries are abandoned (their contexts die with the
    // last reference); a slice a worker already claimed finishes first --
    // join below cannot return before the worker's loop exits.
    core_->queue.clear();
  }
  core_->cv_work.notify_all();
  for (std::thread& worker : core_->pool) worker.join();
}

std::size_t SimFleet::pool_size() const {
  const std::lock_guard<std::mutex> lock(core_->mutex);
  return core_->pool.size();
}

std::size_t SimFleet::hardware_concurrency_cached() {
  static const std::size_t hardware = std::thread::hardware_concurrency();
  return hardware;
}

void SimFleet::ensure_pool(std::size_t workers) {
  const std::lock_guard<std::mutex> lock(core_->mutex);
  while (core_->pool.size() < workers) {
    const std::size_t slot = core_->pool.size();
    core_->beats.emplace_back();
    core_->pool.emplace_back([this, slot] { worker_main(slot); });
  }
}

void SimFleet::worker_main(std::size_t slot) {
  FleetCore& core = *core_;
  obs::set_thread_label(("fleet-" + std::to_string(slot)).c_str());
  std::unique_lock<std::mutex> lock(core.mutex);
  for (;;) {
    core.cv_work.wait(lock, [&] { return core.stop || !core.queue.empty(); });
    if (core.stop) break;
    const QueueEntry entry = core.queue.front();
    core.queue.pop_front();
    JobContext& ctx = *entry.ctx;
    // A sibling slice already failed: skip the work, still complete the
    // slice so waiters (which rethrow the failure) unblock.
    const bool skip = ctx.failure != nullptr;
    core.beats[slot] = {true, std::chrono::steady_clock::now()};
    lock.unlock();
    // The claimed entry's shared_ptr keeps the context storage alive
    // through execution, whatever tickets/cache do concurrently.
    std::exception_ptr failure;
    if (!skip) {
      try {
        // `fleet.worker` is the whole-worker fault: a throw here fails
        // the slice's job -- the transient the scheduler's retry budget
        // exists for. Its `stall:` mode sleeps
        // with the heartbeat set, which is what stuck_workers() reads.
        failpoint::trip("fleet.worker");
        OBS_SPAN_ID("fleet.slice", entry.first);
        obs::rec::event("slice.dispatch", entry.first, entry.count);
        obs::rec::set_inflight("slice", entry.first);
        fleet_detail::execute_slice(ctx, entry.first, entry.count);
      } catch (...) {
        failure = std::current_exception();
      }
      obs::rec::clear_inflight();
    }
    lock.lock();
    core.finish_slice(slot, ctx, failure);
  }
}

SimTicket SimFleet::submit_async(Rrg&& rrg, const SimOptions& options) {
  ELRR_REQUIRE(options.measure_cycles > 0, "measure_cycles must be positive");
  ELRR_REQUIRE(options.runs > 0, "need at least one run");
  FleetCore& core = *core_;

  // The key is computed outside the lock (pure function of the inputs);
  // the lookup-or-reserve below is one critical section, so exactly one
  // of any number of concurrent identical submissions builds the job and
  // the rest alias it -- even while it is still building.
  std::string key;
  if (dedup_) key = fleet_detail::canonical_key(rrg, options);

  auto fresh = std::make_shared<JobContext>();
  const std::string* reserved_key = nullptr;
  {
    const std::lock_guard<std::mutex> lock(core.mutex);
    if (dedup_) {
      const auto it = core.cache.find(key);
      if (it != core.cache.end()) {
        // Session cache hit: an identical candidate was already
        // submitted (possibly by another client, possibly still
        // building) -- the new ticket simply aliases its context.
        core.lru.splice(core.lru.begin(), core.lru, it->second.lru);
        it->second.lru = core.lru.begin();
        ++core.cache_hits;
        obs::count("fleet.dedup_hit");
        const SimTicket ticket{core.next_ticket++, /*fresh=*/false};
        core.tickets.emplace(ticket.id, it->second.ctx);
        return ticket;
      }
    }
    fresh->remaining = JobContext::kBuilding;
    ++core.cache_misses;
    ++core.in_flight;
    if (dedup_) {
      const auto [it, inserted] =
          core.cache.emplace(std::move(key), FleetCore::CacheEntry{});
      ELRR_ASSERT(inserted, "dedup key raced past the reservation");
      core.lru.push_front(&it->first);
      it->second = FleetCore::CacheEntry{fresh, core.lru.begin(), 0};
      reserved_key = &it->first;
    }
  }

  // Build kernels/tables/slices outside the lock -- concurrent clients
  // keep submitting meanwhile. Aliasing tickets simply wait: `remaining`
  // stays at the kBuilding sentinel until the slices are queued.
  fresh->rrg = std::make_unique<Rrg>(std::move(rrg));
  fresh->options = options;
  std::vector<QueueEntry> slices;
  std::size_t backlog = 0;
  SimTicket ticket;
  try {
    fleet_detail::build_context(*fresh, &slices, fresh);
  } catch (...) {
    // The reservation must not wedge aliases or leak: fail the context
    // (aliased tickets rethrow on wait), drop it from the cache, and
    // rethrow to the submitting caller like the eager validation would.
    const std::lock_guard<std::mutex> lock(core.mutex);
    fresh->failure = std::current_exception();
    fresh->remaining = 0;
    ELRR_ASSERT(core.in_flight > 0, "in_flight underflow");
    --core.in_flight;
    if (reserved_key != nullptr) {
      const auto it = core.cache.find(*reserved_key);
      if (it != core.cache.end()) {
        core.lru.erase(it->second.lru);
        core.cache.erase(it);
      }
    }
    core.cv_done.notify_all();
    throw;
  }
  {
    const std::lock_guard<std::mutex> lock(core.mutex);
    fresh->remaining = slices.size();
    for (QueueEntry& slice : slices) core.queue.push_back(std::move(slice));
    backlog = core.queue.size();
    ticket = SimTicket{core.next_ticket++, /*fresh=*/true};
    core.tickets.emplace(ticket.id, fresh);
    if (reserved_key != nullptr) {
      const auto it = core.cache.find(*reserved_key);
      ELRR_ASSERT(it != core.cache.end(), "reserved cache entry vanished");
      it->second.bytes = fleet_detail::entry_bytes(*reserved_key, *fresh);
      core.cache_bytes += it->second.bytes;
      core.evict_over_cap();
    }
  }
  // Work always runs on the pool (that is the point: the caller's thread
  // keeps optimizing); grow it to cover the queued backlog up to the
  // configured width. 0 = hardware concurrency, queried once.
  ensure_pool(resolve_worker_count(
      threads_, threads_ == 0 ? hardware_concurrency_cached() : 0, backlog));
  core.cv_work.notify_all();
  return ticket;
}

bool SimFleet::poll(SimTicket ticket) const {
  FleetCore& core = *core_;
  const std::lock_guard<std::mutex> lock(core.mutex);
  ELRR_REQUIRE(ticket.valid(), "invalid simulation ticket");
  const auto it = core.tickets.find(ticket.id);
  ELRR_REQUIRE(it != core.tickets.end(),
               "unknown or released simulation ticket ", ticket.id);
  return it->second->done();
}

SimResult SimFleet::wait(SimTicket ticket) {
  FleetCore& core = *core_;
  std::unique_lock<std::mutex> lock(core.mutex);
  ELRR_REQUIRE(ticket.valid(), "invalid simulation ticket");
  const auto it = core.tickets.find(ticket.id);
  ELRR_REQUIRE(it != core.tickets.end(),
               "unknown or released simulation ticket ", ticket.id);
  // Hold our own reference across the wait: a concurrent release() of
  // this ticket id must not free the context out from under us.
  const std::shared_ptr<JobContext> ctx = it->second;
  core.cv_done.wait(lock, [&] { return ctx->done(); });
  if (ctx->failure) std::rethrow_exception(ctx->failure);
  return fleet_detail::report_for(*ctx);
}

std::optional<SimResult> SimFleet::wait_for(SimTicket ticket,
                                            double seconds) {
  FleetCore& core = *core_;
  std::unique_lock<std::mutex> lock(core.mutex);
  ELRR_REQUIRE(ticket.valid(), "invalid simulation ticket");
  const auto it = core.tickets.find(ticket.id);
  ELRR_REQUIRE(it != core.tickets.end(),
               "unknown or released simulation ticket ", ticket.id);
  const std::shared_ptr<JobContext> ctx = it->second;
  const auto budget = std::chrono::duration<double>(std::max(seconds, 0.0));
  if (!core.cv_done.wait_for(lock, budget, [&] { return ctx->done(); })) {
    return std::nullopt;
  }
  if (ctx->failure) std::rethrow_exception(ctx->failure);
  return fleet_detail::report_for(*ctx);
}

std::size_t SimFleet::stuck_workers(double threshold_s) const {
  FleetCore& core = *core_;
  const auto now = std::chrono::steady_clock::now();
  const std::lock_guard<std::mutex> lock(core.mutex);
  std::size_t stuck = 0;
  for (const FleetCore::WorkerBeat& beat : core.beats) {
    if (!beat.busy) continue;
    const double busy_s =
        std::chrono::duration<double>(now - beat.since).count();
    if (busy_s > threshold_s) ++stuck;
  }
  return stuck;
}

void SimFleet::release(SimTicket ticket) {
  if (!ticket.valid()) return;
  FleetCore& core = *core_;
  const std::lock_guard<std::mutex> lock(core.mutex);
  core.tickets.erase(ticket.id);
}

std::size_t SimFleet::async_pending() const {
  FleetCore& core = *core_;
  const std::lock_guard<std::mutex> lock(core.mutex);
  return core.in_flight;
}

SimCacheStats SimFleet::cache_stats() const {
  FleetCore& core = *core_;
  const std::lock_guard<std::mutex> lock(core.mutex);
  SimCacheStats stats;
  stats.entries = core.cache.size();
  stats.bytes = core.cache_bytes;
  stats.capacity_bytes = core.cache_cap_bytes;
  stats.hits = core.cache_hits;
  stats.misses = core.cache_misses;
  stats.evictions = core.cache_evictions;
  return stats;
}

std::size_t SimFleet::busy_workers() const {
  FleetCore& core = *core_;
  const std::lock_guard<std::mutex> lock(core.mutex);
  std::size_t busy = 0;
  for (const FleetCore::WorkerBeat& beat : core.beats) {
    if (beat.busy) ++busy;
  }
  return busy;
}

}  // namespace elrr::sim
