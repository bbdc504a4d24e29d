#include "flow/engine.hpp"

#include <algorithm>
#include <cmath>
#include <optional>
#include <utility>

#include "core/analysis.hpp"
#include "core/tgmg.hpp"
#include "obs/trace.hpp"
#include "support/error.hpp"
#include "support/failpoint.hpp"
#include "support/stopwatch.hpp"

namespace elrr::flow {

struct Engine::Pending {
  sim::SimTicket ticket;  ///< invalid when `theta` is exact
  double theta = 0.0;     ///< the exact theta (no ticket)
  /// The bounds a fresh simulation is checked against; theta_lp is 0
  /// where they were not computed (telescopic, unbounded, or a
  /// configuration this engine scored before).
  double theta_late = 0.0;
  double theta_lp = 0.0;
};

namespace {

/// Relative gap under which theta_late and Theta_lp meet.
constexpr double kBoundsMeet = 1e-9;
/// A simulated theta may stray outside [theta_late, Theta_lp] by this
/// many of its standard errors, and by 1/sqrt(measured cycles) at least,
/// before it counts as a bound violation. A window of C cycles resolves a
/// firing rate to about 1/sqrt(C), and with two runs stderr_theta is a
/// single sample of the spread, sometimes far below it.
constexpr double kViolationSigmas = 4.0;

/// Releases every ticket on scope exit -- success or unwind. A
/// simulation failure rethrown by fleet.wait() (or a throwing walk
/// step) must not leave this run's ticket entries behind in a shared
/// fleet: the svc::Scheduler catches job failures and keeps the fleet
/// serving, so a leak here would accumulate forever. Releasing an
/// in-flight ticket is safe -- the queued slices own their context and
/// simply finish into the session cache. Exact candidates hold none.
template <class Pending>
struct TicketGuard {
  sim::SimFleet* fleet;
  std::vector<Pending>* pending;
  ~TicketGuard() {
    for (const Pending& p : *pending) {
      if (p.ticket.valid()) fleet->release(p.ticket);
    }
  }
};

}  // namespace

Engine::Engine(const Rrg& rrg, const EngineOptions& options)
    : base_(options.opt.treat_all_simple ? as_all_simple(rrg) : rrg),
      options_(options),
      owned_fleet_(std::make_unique<sim::SimFleet>(
          options.sim_threads, /*dedup=*/true, options.sim_cache_cap)),
      fleet_(owned_fleet_.get()) {
  // The rewrite is baked into base_; the walk and apply_config below must
  // both see the rewritten graph, never re-apply the flag.
  options_.opt.treat_all_simple = false;
}

Engine::Engine(const Rrg& rrg, const EngineOptions& options,
               sim::SimFleet& shared_fleet)
    : base_(options.opt.treat_all_simple ? as_all_simple(rrg) : rrg),
      options_(options),
      fleet_(&shared_fleet) {
  options_.opt.treat_all_simple = false;
}

Engine::Pending Engine::submit_candidate(const ParetoPoint& point) {
  Pending pending;
  const auto [known, first] = known_.try_emplace(point.config);
  if (!first && known->second.has_value()) {
    pending.theta = *known->second;
    return pending;
  }
  Rrg configured = apply_config(base_, point.config);
  if (first && !configured.has_telescopic()) {
    // The sandwich theta_late <= theta <= Theta_lp (file comment). An
    // acyclic candidate has no Theta_lp; it simulates unchecked.
    pending.theta_late = late_eval_throughput(configured);
    try {
      pending.theta_lp = throughput_upper_bound(configured);
    } catch (const InvalidInputError&) {
      // Unbounded: theta_lp stays 0, and the candidate simulates.
    }
    if (pending.theta_lp > 0.0 && pending.theta_lp - pending.theta_late <=
                                      kBoundsMeet * pending.theta_lp) {
      known->second = pending.theta_late;
      ++exact_thetas_;
      obs::count("flow.exact_thetas");
      pending.theta = pending.theta_late;
      return pending;
    }
  }
  // Owning submission: the configured candidate moves into the fleet,
  // which keeps it alive until its simulation completes -- no borrow to
  // get wrong while the walk races ahead.
  pending.ticket = fleet_->submit_async(std::move(configured), options_.sim);
  return pending;
}

sim::SimResult Engine::collect(const Pending& pending) {
  if (!pending.ticket.valid()) {
    sim::SimResult exact;
    exact.theta = pending.theta;
    return exact;
  }
  const sim::SimResult report = fleet_->wait(pending.ticket);
  if (pending.ticket.fresh && pending.theta_lp > 0.0) {
    const double slack =
        std::max(kViolationSigmas * report.stderr_theta,
                 1.0 / std::sqrt(static_cast<double>(report.cycles)));
    if (report.theta < pending.theta_late - slack ||
        report.theta > pending.theta_lp + slack) {
      obs::count("flow.bound_violations");
    }
  }
  return report;
}

EngineResult Engine::run() {
  Stopwatch total;
  EngineResult result;
  ParetoWalk walk(base_, options_.opt);
  walk.set_cancel(options_.cancelled);

  std::vector<ParetoPoint> emitted;        // walk emissions, in order
  std::vector<Pending> pending;            // aligned with emitted
  const TicketGuard<Pending> guard{fleet_, &pending};
  std::vector<bool> folded;                // feedback: already in best_xi
  double best_xi = 0.0;
  // kOn arms the feedback up front; kAuto waits for evidence the
  // instance is budget-dominated (an inexact candidate below) so walks
  // whose MILPs all finish stay bit-exact vs the sequential path.
  bool feedback_armed =
      options_.feedback_pruning == FeedbackPruning::kOn;

  // Feedback pruning: fold every *completed* simulation, and every
  // exact theta, into the best observed effective cycle time and hand
  // it to the walk as a MILP cutoff. Only meaningful when candidates
  // stream mid-walk (overlap); completed results are free to read (the
  // fleet caches them).
  const auto poll_feedback = [&] {
    if (!feedback_armed) return;
    bool updated = false;
    for (std::size_t i = 0; i < pending.size(); ++i) {
      const sim::SimTicket ticket = pending[i].ticket;
      if (folded[i] || (ticket.valid() && !fleet_->poll(ticket))) continue;
      folded[i] = true;
      const double theta =
          ticket.valid() ? fleet_->wait(ticket).theta : pending[i].theta;
      if (theta <= 0.0) continue;
      const double xi = emitted[i].tau / theta;
      if (best_xi == 0.0 || xi < best_xi) {
        best_xi = xi;
        updated = true;
      }
    }
    if (updated) walk.set_xi_hint(best_xi);
  };

  for (;;) {
    poll_feedback();
    // Injection site at the step boundary -- the same boundary
    // cooperative cancellation uses, so a `walk.step` fault leaves the
    // walk in the identical state a cancel would (tickets released by
    // TicketGuard on unwind, fleet reusable).
    failpoint::trip("walk.step");
    Stopwatch step;
    std::optional<ParetoPoint> point;
    {
      OBS_SPAN("walk.step");
      point = walk.advance();
    }
    result.walk_seconds += step.seconds();
    if (!point.has_value()) break;
    emitted.push_back(*point);
    if (options_.feedback_pruning == FeedbackPruning::kAuto &&
        !point->exact) {
      // A budget was hit: from here on simulated thetas may prune
      // provably dominated MIN_CYC steps (the s382/s400 shape).
      feedback_armed = true;
    }
    if (options_.overlap) {
      // The pipeline: this candidate simulates on the fleet's pool while
      // the next MILP step solves right here.
      pending.push_back(submit_candidate(*point));
      folded.push_back(false);
    }
    if (options_.on_candidate) {
      options_.on_candidate(*point, emitted.size() - 1);
    }
    if (walk.cancel_requested()) {
      result.cancelled = true;
      break;
    }
  }
  if (!options_.overlap) {
    // Sequential baseline: same submissions, issued only after the walk
    // finished -- the wall-clock difference to overlap is the pipeline.
    pending.reserve(emitted.size());
    for (const ParetoPoint& point : emitted) {
      pending.push_back(submit_candidate(point));
    }
  }

  result.walk = walk.finish();
  result.pruned_steps = walk.pruned_steps();
  result.milp = walk.milp_stats();
  result.candidates_submitted = emitted.size();
  for (const Pending& p : pending) {
    result.unique_simulations += p.ticket.fresh ? 1 : 0;
  }

  // Quiesce: every outstanding ticket -- frontier or dominated --
  // completes before run() returns, so this engine's share of the fleet
  // is idle and the engine reusable (also after cancellation). Reports
  // are kept locally: tickets are released below, so a long-lived shared
  // fleet never accumulates this run's handles.
  Stopwatch wait_watch;
  std::vector<sim::SimResult> reports;
  reports.reserve(pending.size());
  {
    OBS_SPAN("engine.sim_wait");
    for (const Pending& p : pending) reports.push_back(collect(p));
  }
  result.sim_wait_seconds = wait_watch.seconds();

  // Score the frontier: every frontier point was emitted (finish() only
  // filters), so its report exists in `reports`.
  result.scored.reserve(result.walk.points.size());
  for (const ParetoPoint& point : result.walk.points) {
    std::size_t index = emitted.size();
    for (std::size_t i = 0; i < emitted.size(); ++i) {
      if (emitted[i].config == point.config) {
        index = i;
        break;
      }
    }
    ELRR_ASSERT(index < emitted.size(),
                "frontier point was never emitted by the walk");
    ScoredPoint scored;
    scored.point = point;
    scored.sim = reports[index];
    scored.xi_sim = effective_cycle_time(point.tau, scored.sim.theta);
    scored.fresh = pending[index].ticket.fresh;
    result.scored.push_back(std::move(scored));
  }
  result.best_sim_index = 0;
  for (std::size_t i = 1; i < result.scored.size(); ++i) {
    if (result.scored[i].xi_sim < result.scored[result.best_sim_index].xi_sim) {
      result.best_sim_index = i;
    }
  }
  result.seconds = total.seconds();
  return result;
}

std::vector<ScoredPoint> Engine::score(const std::vector<ParetoPoint>& points) {
  OBS_SPAN("engine.score");
  std::vector<Pending> pending;
  const TicketGuard<Pending> guard{fleet_, &pending};
  pending.reserve(points.size());
  for (const ParetoPoint& point : points) {
    pending.push_back(submit_candidate(point));
  }
  std::vector<ScoredPoint> out;
  out.reserve(points.size());
  for (std::size_t i = 0; i < points.size(); ++i) {
    ScoredPoint scored;
    scored.point = points[i];
    scored.sim = collect(pending[i]);
    scored.xi_sim = effective_cycle_time(points[i].tau, scored.sim.theta);
    scored.fresh = pending[i].ticket.fresh;
    out.push_back(std::move(scored));
  }
  return out;
}

}  // namespace elrr::flow
