#pragma once

/// \file trace.hpp
/// Unified tracing + metrics for the whole pipeline: per-thread span
/// ring buffers over the monotonic clock, a process-wide registry of
/// named counters and log2-bucketed latency histograms, and a Chrome
/// trace-event JSON exporter (loadable in Perfetto / chrome://tracing).
///
/// Discipline (the fail-point registry's): every site is always
/// compiled in; disarmed -- the default -- a site costs one relaxed
/// atomic load and nothing else (no clock read, no allocation, no
/// counter). Armed, a span costs two steady_clock reads plus one store
/// into the recording thread's own ring buffer; counters and histograms
/// take the registry mutex (uncontended in steady state).
///
/// Arming comes from the ELRR_TRACE environment variable (a path for
/// the exported trace; `%p` expands to the pid so concurrent processes
/// never clobber each other) or from `elrr batch --trace <path>` /
/// an explicit arm() in tests and benches. ELRR_OBS_BUF sets the
/// per-thread ring capacity in spans (default 8192); a full ring wraps
/// and drops oldest-first, counted in dropped_spans().
///
/// Every timestamp is std::chrono::steady_clock nanoseconds.
///
/// Tracing never feeds back into results: seeds, schedules and every
/// simulated number are bit-exact with tracing on or off (only
/// wall-clock observability is added). The determinism differentials
/// pin identical thetas armed vs disarmed; `bench_micro`'s BM_ObsSpan*
/// measure the per-site cost, armed and disarmed.

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

namespace elrr::obs {

/// SpanRecord::arg when a span carries no argument.
inline constexpr std::uint64_t kNoArg = ~std::uint64_t{0};

/// One completed span, as stored in the ring buffers. Plain data: the
/// writer fills it with non-atomic stores between two atomic head
/// updates, and the exporter snapshots whole records.
struct SpanRecord {
  char name[44] = {0};          ///< site name, NUL-terminated (truncated)
  std::int64_t start_ns = 0;    ///< steady_clock, ns
  std::int64_t end_ns = 0;      ///< steady_clock, ns
  std::uint64_t arg = kNoArg;   ///< optional id (job, attempt); kNoArg = none
  std::uint32_t tid = 0;        ///< recording thread's track (snapshot_spans)
};

namespace detail {
extern std::atomic<bool> g_armed;
std::int64_t now_ns();
void record_span_slow(const char* name, std::int64_t start_ns,
                      std::int64_t end_ns, std::uint64_t arg);
void count_slow(const char* name, std::uint64_t delta);

/// Async-signal-safe mirror of the counter/histogram registries for the
/// flight recorder's fatal dump (obs/recorder.hpp). std::map nodes are
/// address-stable, so each view holds pointers straight into the live
/// registry: append-only fixed arrays, published by a release-stored
/// count on first insert and zeroed by configure(). A crash handler
/// reads them without the registry mutex; a value the owner is mid-way
/// through bumping can tear, which is acceptable in a crash dump.
inline constexpr std::size_t kSigHistBuckets = 64;
struct SigCounterView {
  const char* name = nullptr;
  const std::uint64_t* value = nullptr;
};
struct SigHistView {
  const char* name = nullptr;
  const std::uint64_t* buckets = nullptr;  ///< kSigHistBuckets log2 buckets
  const std::uint64_t* count = nullptr;
  const std::uint64_t* total_ns = nullptr;
  const std::uint64_t* max_ns = nullptr;  ///< largest sample so far
};
/// Points `*out` at the mirror array; returns the published entry
/// count. Async-signal-safe (two loads, no locks).
std::size_t sig_counters(const SigCounterView** out);
std::size_t sig_hists(const SigHistView** out);
}  // namespace detail

/// True while tracing is armed (one relaxed load; the only cost every
/// disarmed site pays).
inline bool armed() {
  return detail::g_armed.load(std::memory_order_relaxed);
}

/// steady_clock now in ns when armed, 0 when disarmed (no clock read).
/// For manual spans whose start predates the RAII scope (queue waits).
inline std::int64_t now_ns_if_armed() {
  return armed() ? detail::now_ns() : 0;
}

/// Records a completed span on the calling thread's track. No-op when
/// disarmed. Also feeds the site's latency histogram.
inline void record_span(const char* name, std::int64_t start_ns,
                        std::int64_t end_ns, std::uint64_t arg = kNoArg) {
  if (armed()) detail::record_span_slow(name, start_ns, end_ns, arg);
}

/// Bumps a named process-wide counter. No-op when disarmed.
inline void count(const char* name, std::uint64_t delta = 1) {
  if (armed()) detail::count_slow(name, delta);
}

/// RAII span: one relaxed load at construction when disarmed; armed, a
/// clock read at each end and one ring-buffer store.
class SpanGuard {
 public:
  explicit SpanGuard(const char* site, std::uint64_t arg = kNoArg)
      : armed_(armed()) {
    if (armed_) {
      site_ = site;
      arg_ = arg;
      start_ns_ = detail::now_ns();
    }
  }
  ~SpanGuard() {
    if (armed_) {
      detail::record_span_slow(site_, start_ns_, detail::now_ns(), arg_);
    }
  }
  SpanGuard(const SpanGuard&) = delete;
  SpanGuard& operator=(const SpanGuard&) = delete;

 private:
  bool armed_;
  const char* site_ = nullptr;
  std::uint64_t arg_ = kNoArg;
  std::int64_t start_ns_ = 0;
};

#define ELRR_OBS_CONCAT2(a, b) a##b
#define ELRR_OBS_CONCAT(a, b) ELRR_OBS_CONCAT2(a, b)
/// Scoped span over the enclosing block: OBS_SPAN("milp.solve");
#define OBS_SPAN(site) \
  ::elrr::obs::SpanGuard ELRR_OBS_CONCAT(obs_span_, __LINE__)(site)
/// Scoped span carrying a numeric id rendered as args.id in the trace.
#define OBS_SPAN_ID(site, id) \
  ::elrr::obs::SpanGuard ELRR_OBS_CONCAT(obs_span_, __LINE__)(site, (id))

/// Names the calling thread's Perfetto track ("sched-worker",
/// "fleet-0"). Cheap and always safe to call, armed or not; the label
/// sticks to every buffer the thread records into afterwards.
void set_thread_label(const char* label);

/// Installs a trace path (may be empty) and the per-thread ring
/// capacity, and arms tracing iff the path is non-empty. Resets all
/// buffers, counters and histograms. `env_name` names the knob in
/// validation errors.
void configure(const std::string& trace_path, std::size_t ring_capacity);

/// configure(ELRR_TRACE, ELRR_OBS_BUF); both validated strictly
/// (ELRR_OBS_BUF must be an integer in [16, 2^24]). A non-empty
/// ELRR_TRACE also registers an atexit hook that writes the trace when
/// the process ends -- how the gate scripts get a trace artifact out of
/// every test binary without per-test plumbing.
void configure_from_env();

/// Arms/disarms without touching the configured path or buffers (tests,
/// the bench_micro per-site cost measurement).
void arm(bool on);

/// Disarms, clears every ring buffer, counter and histogram, forgets
/// the trace path. Threads keep recording safely afterwards (their
/// stale buffers are orphaned; new ones attach on next use).
void reset();

/// The configured export path ("" = none), unexpanded.
const std::string& trace_path();

/// Per-thread ring capacity currently in force.
std::size_t ring_capacity();

/// Expands `%p` to the pid. Applied by write_trace and the atexit hook.
std::string expand_trace_path(const std::string& path);

/// Spans recorded so far, sorted by start time, each tagged with its
/// recording thread's track id (wrapped entries are gone).
std::vector<SpanRecord> snapshot_spans();

/// Total spans lost to ring wrap-around across all threads (oldest are
/// dropped first; the counter survives drains).
std::uint64_t dropped_spans();

/// One histogram row: per-site count / total / percentiles, in seconds.
/// Percentiles come from log2 ns buckets with linear interpolation
/// inside the landing bucket, clamped to the observed min and max, so
/// they are exact to within a factor-2 bracket and never exceed the
/// largest sample -- aggregate shape, not sample-exact order statistics.
struct PhaseSummary {
  std::string name;
  std::uint64_t count = 0;
  double total_s = 0.0;
  double p50_s = 0.0;
  double p95_s = 0.0;
  double p99_s = 0.0;
};

/// All histogram rows, name-sorted.
std::vector<PhaseSummary> histogram_summary();

struct CounterValue {
  std::string name;
  std::uint64_t value = 0;
};

/// All named counters, name-sorted.
std::vector<CounterValue> counters();

/// The aggregate view as a JSON key-value list (no surrounding braces):
/// `"phases": [...], "counters": {...}, "dropped_spans": N,
/// "ring_capacity": N`. Shared by the batch summary's trace_summary
/// record and the scheduler's periodic stats snapshot so the two stay
/// field-compatible.
std::string summary_json();

/// Writes everything recorded so far as Chrome trace-event JSON
/// (traceEvents of "ph":"X" spans plus process/thread name metadata;
/// `ts`/`dur` in microseconds). `%p` in the path expands to the pid.
/// Throws on IO failure.
void write_trace(const std::string& path);

}  // namespace elrr::obs
