#pragma once

/// \file failpoint.hpp
/// Deterministic fail-point injection for chaos testing.
///
/// A fail point is a named site compiled into production code paths
/// (fleet worker loop, MILP solve, walk step, cache load/store, manifest
/// IO). Disabled -- the default -- a site costs one relaxed atomic load;
/// armed, a site consults its per-site schedule under a mutex and either
/// returns, throws FailPointError (a TransientError), or stalls.
///
/// Schedules come from the ELRR_FAILPOINTS environment variable (or a
/// direct configure() call in tests):
///
///   ELRR_FAILPOINTS="site=mode[,site=mode...]"
///
/// with modes
///   off           site disabled (explicit no-op, useful in sweeps)
///   once          throw on the first hit, pass afterwards
///   after:N       pass N hits, throw on hit N+1, pass afterwards
///   prob:P@seed   throw with probability P per hit, driven by a
///                 splitmix64 stream of `seed ^ hit_index` -- the same
///                 spec reproduces the same hit-by-hit decisions
///                 bit-for-bit regardless of wall clock or platform
///   stall:MS      sleep MS milliseconds on the first hit, then pass
///                 (models a stuck worker without an unbounded hang)
///
/// Site names are validated against the registry below: a typo in
/// ELRR_FAILPOINTS throws InvalidInputError naming the variable, exactly
/// like every other ELRR_* knob. Hit counters are per-site and global to
/// the process; configure() resets them, so each test scenario starts
/// from hit zero.

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "support/error.hpp"

namespace elrr::failpoint {

/// Thrown by an armed site in `once` / `after:N` / `prob:` mode. Derives
/// from TransientError: an injected fault is by definition retryable.
class FailPointError : public TransientError {
 public:
  explicit FailPointError(const std::string& what) : TransientError(what) {}
};

/// All compiled-in sites. trip() with a name outside this list throws
/// InternalError (a misspelled site in the source tree would otherwise
/// be silently untestable).
///
///   fleet.worker      sim fleet worker loop, once per dequeued slice
///   walk.step         flow::Engine, before each Pareto walk step
///   milp.solve        lp::solve_milp / lp::MilpSession::solve entry
///   milp.warm         lp::MilpSession warm-start restore (firing models
///                     a corrupt/stale basis snapshot: the session falls
///                     back to a cold solve, results unchanged)
///   milp.node_warm    branch & bound, before a node restores its
///                     parent's snapshot (firing sends the node down the
///                     root-replay path; `prob:1@0` reproduces the trees
///                     grown before nodes warm-started from their parent)
///   svc.manifest      manifest parsing, once per entry line
///   disk_cache.load   persistent cache entry read
///   disk_cache.store  persistent cache entry write, after the temp file
///                     is written but before the atomic rename (models a
///                     crash mid-store: a torn temp file is left behind)
const std::vector<std::string>& known_sites();

/// Parses a spec string (ELRR_FAILPOINTS grammar above) and installs it,
/// resetting all hit counters. Empty spec disarms everything. Throws
/// InvalidInputError on unknown sites or malformed modes; `env_name` is
/// the knob named in that error ("ELRR_FAILPOINTS" from the CLI path,
/// "configure()" from tests).
void configure(const std::string& spec,
               const char* env_name = "configure()");

/// configure(getenv("ELRR_FAILPOINTS")); absent variable disarms.
void configure_from_env();

/// Disarms every site and resets hit counters.
void reset();

/// Total hits recorded for a site since the last configure()/reset(),
/// armed or not... except entirely-disarmed processes skip counting to
/// keep the fast path free; counters are only maintained while at least
/// one site is armed.
std::uint64_t hits(const std::string& site);

/// Number of times a site actually fired (threw or stalled).
std::uint64_t fired(const std::string& site);

namespace detail {
extern std::atomic<bool> g_armed;
void trip_slow(const char* site);
}  // namespace detail

/// Injection site. Free when nothing is armed: one relaxed load, no
/// branch taken, no counter maintenance (BENCH-neutral by construction).
inline void trip(const char* site) {
  if (detail::g_armed.load(std::memory_order_relaxed)) {
    detail::trip_slow(site);
  }
}

}  // namespace elrr::failpoint
