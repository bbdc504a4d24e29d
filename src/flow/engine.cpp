#include "flow/engine.hpp"

#include <optional>
#include <utility>

#include "core/analysis.hpp"
#include "obs/trace.hpp"
#include "support/error.hpp"
#include "support/failpoint.hpp"
#include "support/stopwatch.hpp"

namespace elrr::flow {

namespace {

/// Releases every ticket on scope exit -- success or unwind. A
/// simulation failure rethrown by fleet.wait() (or a throwing walk
/// step) must not leave this run's ticket entries behind in a shared
/// fleet: the svc::Scheduler catches job failures and keeps the fleet
/// serving, so a leak here would accumulate forever. Releasing an
/// in-flight ticket is safe -- the queued slices own their context and
/// simply finish into the session cache.
struct TicketGuard {
  sim::SimFleet* fleet;
  std::vector<sim::SimTicket>* tickets;
  ~TicketGuard() {
    for (const sim::SimTicket ticket : *tickets) fleet->release(ticket);
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

sim::SimTicket Engine::submit_candidate(const ParetoPoint& point) {
  // Owning submission: the configured candidate moves into the fleet,
  // which keeps it alive until its simulation completes -- no borrow to
  // get wrong while the walk races ahead.
  return fleet_->submit_async(apply_config(base_, point.config), options_.sim);
}

EngineResult Engine::run() {
  Stopwatch total;
  EngineResult result;
  ParetoWalk walk(base_, options_.opt);
  walk.set_cancel(options_.cancelled);

  std::vector<ParetoPoint> emitted;        // walk emissions, in order
  std::vector<sim::SimTicket> tickets;     // aligned with emitted
  const TicketGuard guard{fleet_, &tickets};
  std::vector<bool> folded;                // feedback: already in best_xi
  double best_xi = 0.0;
  // kOn arms the feedback up front; kAuto waits for evidence the
  // instance is budget-dominated (an inexact candidate below) so walks
  // whose MILPs all finish stay bit-exact vs the sequential path.
  bool feedback_armed =
      options_.feedback_pruning == FeedbackPruning::kOn;

  // Feedback pruning: fold every *completed* simulation into the best
  // observed effective cycle time and hand it to the walk as a MILP
  // cutoff. Only meaningful when candidates stream mid-walk (overlap);
  // completed results are free to read (the fleet caches them).
  const auto poll_feedback = [&] {
    if (!feedback_armed) return;
    bool updated = false;
    for (std::size_t i = 0; i < tickets.size(); ++i) {
      if (folded[i] || !fleet_->poll(tickets[i])) continue;
      folded[i] = true;
      const sim::SimReport report = fleet_->wait(tickets[i]);
      if (report.theta <= 0.0) continue;
      const double xi = emitted[i].tau / report.theta;
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
      tickets.push_back(submit_candidate(*point));
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
    tickets.reserve(emitted.size());
    for (const ParetoPoint& point : emitted) {
      tickets.push_back(submit_candidate(point));
    }
  }

  result.walk = walk.finish();
  result.pruned_steps = walk.pruned_steps();
  result.milp = walk.milp_stats();
  result.candidates_submitted = emitted.size();
  for (const sim::SimTicket ticket : tickets) {
    result.unique_simulations += ticket.fresh ? 1 : 0;
  }

  // Quiesce: every outstanding ticket -- frontier or dominated --
  // completes before run() returns, so this engine's share of the fleet
  // is idle and the engine reusable (also after cancellation). Reports
  // are kept locally: tickets are released below, so a long-lived shared
  // fleet never accumulates this run's handles.
  Stopwatch wait_watch;
  std::vector<sim::SimReport> reports;
  reports.reserve(tickets.size());
  {
    OBS_SPAN("engine.sim_wait");
    for (const sim::SimTicket ticket : tickets) {
      reports.push_back(fleet_->wait(ticket));
    }
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
    scored.fresh = tickets[index].fresh;
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
  std::vector<sim::SimTicket> tickets;
  const TicketGuard guard{fleet_, &tickets};
  tickets.reserve(points.size());
  for (const ParetoPoint& point : points) {
    tickets.push_back(submit_candidate(point));
  }
  std::vector<ScoredPoint> out;
  out.reserve(points.size());
  for (std::size_t i = 0; i < points.size(); ++i) {
    ScoredPoint scored;
    scored.point = points[i];
    scored.sim = fleet_->wait(tickets[i]);
    scored.xi_sim = effective_cycle_time(points[i].tau, scored.sim.theta);
    scored.fresh = tickets[i].fresh;
    out.push_back(std::move(scored));
  }
  return out;
}

}  // namespace elrr::flow
