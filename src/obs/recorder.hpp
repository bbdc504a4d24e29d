#pragma once

/// \file recorder.hpp
/// Black-box flight recorder: a per-process, fixed-capacity structured
/// event journal plus async-signal-safe fatal handlers that dump it --
/// together with the counter registry, histogram summaries and every
/// in-flight job/slice identity -- to an atomically-published
/// postmortem file when the process dies.
///
/// Discipline (shared with spans and fail points): every site is always
/// compiled in; disarmed -- the default -- a site costs one relaxed
/// atomic load and nothing else. Armed, an event costs one clock read
/// plus a wait-free slot claim (fetch_add) in the global ring; no locks
/// and no allocation on the record path, so events can be recorded from
/// any thread at any time.
///
/// Arming comes from ELRR_POSTMORTEM_DIR (a directory; each process
/// pre-opens `<dir>/postmortem-<pid>.txt.tmp` at configure time so the
/// fatal handler never has to call open(2)). ELRR_POSTMORTEM_BUF sets
/// the journal capacity in events (default 4096, [16, 2^24]); a full
/// ring wraps and drops oldest-first, counted in dropped_events().
///
/// Signal-safety contract: the fatal handlers (SIGSEGV / SIGABRT /
/// SIGBUS, plus a std::terminate hook) call only async-signal-safe
/// functions -- write(2), fsync(2), rename(2), raise(2) -- on the
/// pre-opened fd and pre-formatted static paths. No malloc, no stdio,
/// no locks. Counter and histogram values are read through the
/// registry's append-only mirror (stable std::map node addresses); a
/// value the owner is mid-way through bumping can tear, which is
/// acceptable in a crash dump. After the dump the handler restores the
/// default disposition and re-raises, so the process still dies by the
/// original signal (its parent's waitpid sees "killed by signal N").
///
/// Postmortem file format (line-oriented, version-tagged):
///   ELRR-POSTMORTEM 1
///   reason: SIGSEGV
///   pid: 12345
///   events_recorded: 87
///   events_dropped: 12
///   inflight: tid=3 slice 128
///   event: seq=80 t_ns=123456 tid=3 name=slice.dispatch a=128 b=16
///   counter: milp.solve.warm 5
///   hist: fleet.slice count=10 total_ns=12345 p50_le_ns=1024
///         p95_le_ns=4096 p99_le_ns=4000 max_ns=4000   (one line)
///   end
/// Events are oldest-first, so the journal's tail (the last lines
/// before the counters) is what the process was doing when it died.
/// The trailing `end` marks a complete dump; the tmp+rename publish
/// means a file at the final path is always complete.
///
/// The recorder never feeds back into results: armed runs are bit-exact
/// with disarmed runs (RecorderTest.ArmedFleetThetasAreBitExact);
/// `bench_micro`'s BM_RecEvent* measure the per-site cost.

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

namespace elrr::obs::rec {

/// Bytes of event name stored per record (including the NUL).
inline constexpr std::size_t kEventNameCap = 32;

namespace detail {
extern std::atomic<bool> g_rec_armed;
void event_slow(const char* name, std::uint64_t a, std::uint64_t b);
void set_inflight_slow(const char* what, std::uint64_t id);
void clear_inflight_slow();
}  // namespace detail

/// True while the recorder is armed (one relaxed load; the only cost
/// every disarmed site pays).
inline bool armed() {
  return detail::g_rec_armed.load(std::memory_order_relaxed);
}

/// Records one journal event with a monotonic timestamp and up to two
/// numeric arguments (job id, slice start, attempt...). No-op when
/// disarmed; armed, wait-free and lock-free.
inline void event(const char* name, std::uint64_t a = 0,
                  std::uint64_t b = 0) {
  if (armed()) detail::event_slow(name, a, b);
}

/// Marks the calling thread as working on `<what> <id>` ("job 7",
/// "slice 128") until clear_inflight(). The fatal dump lists every
/// live in-flight mark, so a postmortem names what each thread was
/// doing when the process died. No-op when disarmed.
inline void set_inflight(const char* what, std::uint64_t id) {
  if (armed()) detail::set_inflight_slow(what, id);
}

/// Clears the calling thread's in-flight mark.
inline void clear_inflight() {
  if (armed()) detail::clear_inflight_slow();
}

/// Arms the recorder: sizes the journal ring, pre-opens the postmortem
/// tmp file under `dir` (created if missing), installs the fatal signal
/// handlers and the std::terminate hook. Clears any previous journal.
/// Throws InvalidInputError if `dir` cannot be created or opened.
void configure(const std::string& dir, std::size_t capacity);

/// configure(ELRR_POSTMORTEM_DIR, ELRR_POSTMORTEM_BUF); the capacity is
/// validated strictly (integer in [16, 2^24], default 4096). An empty
/// or unset ELRR_POSTMORTEM_DIR leaves the recorder disarmed.
void configure_from_env();

/// Disarms, restores the previous signal dispositions and terminate
/// handler, closes and unlinks the pre-opened tmp file, clears the
/// journal. Safe to call when never configured.
void reset();

/// The configured postmortem directory ("" = disarmed).
const std::string& postmortem_dir();

/// The final postmortem path this process would publish
/// (`<dir>/postmortem-<pid>.txt`), or "" when disarmed.
std::string postmortem_path();

/// Journal ring capacity currently in force.
std::size_t ring_capacity();

/// Total events lost to ring wrap-around (oldest are dropped first).
std::uint64_t dropped_events();

/// Writes the postmortem now (the fatal handlers' path, callable from
/// normal code for tests and orderly shutdown reports). Only the first
/// call dumps: returns true iff this call published the file. Async-
/// signal-safe when `reason` is a static string.
bool write_postmortem(const char* reason);

/// One journal event as read back by snapshot_events() (tests).
struct EventView {
  std::uint64_t seq = 0;   ///< 1-based publish order
  std::int64_t t_ns = 0;   ///< steady_clock, ns
  std::uint64_t a = 0;
  std::uint64_t b = 0;
  std::uint32_t tid = 0;   ///< recording thread, 1-based
  std::string name;
};

/// Fully-published journal events, oldest-first (wrapped entries are
/// gone; slots a writer is mid-way through filling are skipped).
std::vector<EventView> snapshot_events();

}  // namespace elrr::obs::rec
