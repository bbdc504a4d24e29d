/// \file perf_smoke.cpp
/// Perf trajectory for the simulation fast path: measures single-thread
/// token-simulation throughput (simulated cycles/sec) on a small, a
/// medium, a large and a telescopic RRG, for both the FlatKernel fast
/// path and the reference Kernel, plus two cross-candidate fleet
/// workloads (sim::SimFleet): the Pareto-style candidate set against the
/// PR-1 per-candidate loop, and a duplicate-heavy set with candidate
/// dedup on vs off. The `pipeline` section runs the full pipelined flow
/// engine (flow::Engine) on a multi-candidate Pareto walk twice --
/// sequential walk-then-score vs overlapped streaming -- and gates on
/// both runs producing bit-identical frontiers and thetas. The `batch`
/// section runs a multi-circuit manifest through the svc::Scheduler
/// (one shared fleet for the whole batch) against the historical
/// per-circuit engine loop, bit-exactness gated the same way. The `proc`
/// section scores the fleet workload through real process-isolated
/// `elrr work` workers and reports the isolation overhead, with the same
/// bit-exactness gate.
///
///   perf_smoke [output.json] [--quick] [--baseline <file.json>]
///
/// Writes the JSON to output.json (default BENCH_sim.json in the working
/// directory; `cmake --build build --target run_perf_smoke` refreshes the
/// committed copy at the repo root). With --baseline, the previous
/// trajectory file is read first and per-section before/after ratios are
/// embedded in the output (and printed) -- the baseline may be the output
/// path itself. --quick shrinks the workloads for the `perf`-labelled
/// ctest entry, which only gates on the deterministic bit-exactness
/// checks: the exit code is non-zero iff any section reports a mismatch.
/// Numbers are machine-dependent; compare trajectories on one machine,
/// not absolutes across machines.
///
/// The per-kernel workload is the standard Monte-Carlo driver (4
/// replications, interleaved by the batched stepper on the fast path --
/// telescopic graphs included since the fleet PR). The fleet workload is
/// the table/figure shape: many candidate configurations, a few
/// replications each, scored in one ticket wave (run_wave).

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "bench89/generator.hpp"
#include "core/opt.hpp"
#include "flow/circuit_flow.hpp"
#include "flow/engine.hpp"
#include "io/rrg_format.hpp"
#include "lp/session.hpp"
#include "obs/recorder.hpp"
#include "obs/trace.hpp"
#include "sim/fleet.hpp"
#include "support/bench_json.hpp"
#include "svc/scheduler.hpp"

namespace {

using Clock = std::chrono::steady_clock;

bool quick = false;  ///< --quick: shrunken workloads, same checks

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Marks every 7th node telescopic (fast with probability 0.85, two
/// extra busy cycles when slow) -- the Section 6 extension shape.
elrr::Rrg make_candidate(const char* circuit, std::uint64_t seed,
                         bool telescopic) {
  elrr::Rrg rrg = elrr::bench89::make_table2_rrg(
      elrr::bench89::spec_by_name(circuit), seed);
  if (telescopic) {
    for (elrr::NodeId n = 0; n < rrg.num_nodes(); n += 7) {
      rrg.set_telescopic(n, 0.85, 2);
    }
  }
  return rrg;
}

struct Case {
  const char* label;
  const char* circuit;
  std::size_t measure_cycles;
  bool telescopic;
};

struct Row {
  double flat_cps = 0.0;  ///< simulated cycles/sec, fast path
  double ref_cps = 0.0;   ///< simulated cycles/sec, reference kernel
  double theta = 0.0;
  bool bit_exact = false;
};

Row measure(const Case& c) {
  const elrr::Rrg rrg = make_candidate(c.circuit, 1, c.telescopic);
  elrr::sim::SimOptions options;
  options.warmup_cycles = 200;
  options.measure_cycles = quick ? c.measure_cycles / 10 : c.measure_cycles;
  options.runs = 4;
  options.threads = 1;

  const double total_cycles = static_cast<double>(
      (options.warmup_cycles + options.measure_cycles) * options.runs);
  Row row;
  double best_flat = 1e300, best_ref = 1e300;
  double ref_theta = 0.0;
  for (int rep = 0; rep < (quick ? 1 : 3); ++rep) {
    options.force_reference = false;
    auto t0 = Clock::now();
    row.theta = elrr::sim::simulate_throughput(rrg, options).theta;
    best_flat = std::min(best_flat, seconds_since(t0));
    options.force_reference = true;
    t0 = Clock::now();
    ref_theta = elrr::sim::simulate_throughput(rrg, options).theta;
    best_ref = std::min(best_ref, seconds_since(t0));
  }
  row.flat_cps = total_cycles / best_flat;
  row.ref_cps = total_cycles / best_ref;
  row.bit_exact = row.theta == ref_theta;
  return row;
}

struct FleetRow {
  double loop_s = 0.0;   ///< PR-1 per-candidate loop, best of reps
  double fleet_s = 0.0;  ///< one SimFleet ticket wave, best of reps
  std::size_t candidates = 0;
  std::size_t workers = 0;
  bool bit_exact = false;
};

std::vector<elrr::Rrg> fleet_candidates() {
  std::vector<elrr::Rrg> candidates;
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    candidates.push_back(make_candidate("s526", seed, false));
  }
  for (std::uint64_t seed = 5; seed <= 8; ++seed) {
    candidates.push_back(make_candidate("s526", seed, true));
  }
  return candidates;
}

/// Scores `candidates` on `fleet` as one ticket wave: submits a copy of
/// each in order, then waits and releases the tickets in order. Returns
/// the thetas in submission order; `fresh` (optional) counts the
/// submissions that started a new simulation instead of hitting the
/// fleet's session cache.
std::vector<double> run_wave(elrr::sim::SimFleet& fleet,
                             const std::vector<elrr::Rrg>& candidates,
                             const elrr::sim::SimOptions& options,
                             std::size_t* fresh = nullptr) {
  std::vector<elrr::sim::SimTicket> tickets;
  tickets.reserve(candidates.size());
  for (const elrr::Rrg& candidate : candidates) {
    tickets.push_back(fleet.submit_async(elrr::Rrg(candidate), options));
  }
  std::vector<double> thetas;
  thetas.reserve(tickets.size());
  for (const elrr::sim::SimTicket ticket : tickets) {
    thetas.push_back(fleet.wait(ticket).theta);
    fleet.release(ticket);
    if (fresh != nullptr && ticket.fresh) ++*fresh;
  }
  return thetas;
}

elrr::sim::SimOptions fleet_sim_options() {
  elrr::sim::SimOptions options;
  options.warmup_cycles = 200;
  options.measure_cycles = quick ? 2000 : 20000;
  options.runs = 4;
  return options;
}

/// A Pareto-walk-shaped workload: several candidate configurations of one
/// circuit (half of them telescopic), a few replications each. Baseline
/// is PR 1's per-candidate loop: sequential simulate_throughput calls,
/// and -- as in PR 1, where step_batch refused telescopic graphs --
/// max_batch = 1 (solo stepping) for the telescopic candidates. The fleet
/// scores the identical jobs through one batched work queue. Each timed
/// rep builds a fresh fleet: the session cache outlives a wave, so a
/// reused fleet would serve reps 2-3 from memory.
FleetRow measure_fleet() {
  const std::vector<elrr::Rrg> candidates = fleet_candidates();
  const elrr::sim::SimOptions options = fleet_sim_options();

  FleetRow row;
  row.candidates = candidates.size();

  std::vector<double> loop_thetas(candidates.size());
  std::vector<double> fleet_thetas;
  double best_loop = 1e300, best_fleet = 1e300;
  for (int rep = 0; rep < (quick ? 1 : 3); ++rep) {
    auto t0 = Clock::now();
    for (std::size_t i = 0; i < candidates.size(); ++i) {
      elrr::sim::SimOptions solo = options;
      solo.threads = 1;
      if (candidates[i].has_telescopic()) solo.max_batch = 1;  // PR-1 path
      loop_thetas[i] =
          elrr::sim::simulate_throughput(candidates[i], solo).theta;
    }
    best_loop = std::min(best_loop, seconds_since(t0));

    t0 = Clock::now();
    elrr::sim::SimFleet fleet(0);  // all cores
    fleet_thetas = run_wave(fleet, candidates, options);
    best_fleet = std::min(best_fleet, seconds_since(t0));
    row.workers = fleet.pool_size();
  }
  row.loop_s = best_loop;
  row.fleet_s = best_fleet;
  row.bit_exact = loop_thetas == fleet_thetas;
  return row;
}

struct DedupRow {
  double off_s = 0.0;  ///< dedup disabled: every duplicate simulated
  double on_s = 0.0;   ///< dedup enabled: unique candidates only
  std::size_t jobs = 0;
  std::size_t unique = 0;
  bool bit_exact = false;  ///< dedup on == dedup off, per job
};

/// The dedup workload: the same candidate set submitted three times over
/// -- the shape of a Pareto walk that revisits configurations (and of
/// sweeps rescoring a frontier). With dedup the fleet simulates each
/// distinct candidate once and fans the scores out.
DedupRow measure_dedup() {
  const std::vector<elrr::Rrg> candidates = fleet_candidates();
  const elrr::sim::SimOptions options = fleet_sim_options();
  constexpr int kCopies = 3;

  DedupRow row;
  row.jobs = candidates.size() * kCopies;

  std::vector<elrr::Rrg> jobs;
  for (int copy = 0; copy < kCopies; ++copy) {
    jobs.insert(jobs.end(), candidates.begin(), candidates.end());
  }

  std::vector<double> off_thetas, on_thetas;
  double best_off = 1e300, best_on = 1e300;
  for (int rep = 0; rep < (quick ? 1 : 3); ++rep) {
    for (const bool dedup : {false, true}) {
      std::size_t fresh = 0;
      const auto t0 = Clock::now();
      elrr::sim::SimFleet fleet(0, dedup);
      std::vector<double> thetas = run_wave(fleet, jobs, options, &fresh);
      const double s = seconds_since(t0);
      if (dedup) {
        on_thetas = std::move(thetas);
        best_on = std::min(best_on, s);
        row.unique = fresh;
      } else {
        off_thetas = std::move(thetas);
        best_off = std::min(best_off, s);
      }
    }
  }
  row.off_s = best_off;
  row.on_s = best_on;
  row.bit_exact = off_thetas == on_thetas;
  return row;
}

struct ProcRow {
  double inproc_s = 0.0;  ///< in-process pool (1 thread), best of reps
  double proc_s = 0.0;    ///< 2 `elrr work` worker processes, best of reps
  std::size_t candidates = 0;
  bool bit_exact = false;  ///< proc-tier thetas == in-process thetas
};

/// The process-isolation overhead: the fleet workload scored through the
/// in-process pool vs through real `elrr work` worker processes (spawn +
/// serialize + pipe round-trips). ELRR_PROC_WORKERS is read at fleet
/// construction, and each timed rep builds a fresh fleet (the session
/// cache would otherwise serve later reps from memory), so the proc
/// number includes one worker spawn per slot per rep. The bit_exact gate
/// is the isolation tier's whole contract: identical thetas at any
/// worker count.
ProcRow measure_proc() {
  const std::vector<elrr::Rrg> candidates = fleet_candidates();
  const elrr::sim::SimOptions options = fleet_sim_options();

  ProcRow row;
  row.candidates = candidates.size();

  std::vector<double> inproc_thetas, proc_thetas;
  double best_inproc = 1e300, best_proc = 1e300;
  for (int rep = 0; rep < (quick ? 1 : 3); ++rep) {
    const auto t0 = Clock::now();
    elrr::sim::SimFleet fleet(1);
    inproc_thetas = run_wave(fleet, candidates, options);
    best_inproc = std::min(best_inproc, seconds_since(t0));
  }
  ::setenv("ELRR_PROC_WORKERS", "2", 1);
  ::setenv("ELRR_WORK_BIN", ELRR_CLI_BIN, 1);
  for (int rep = 0; rep < (quick ? 1 : 3); ++rep) {
    const auto t0 = Clock::now();
    elrr::sim::SimFleet fleet(1);
    proc_thetas = run_wave(fleet, candidates, options);
    best_proc = std::min(best_proc, seconds_since(t0));
  }
  ::unsetenv("ELRR_PROC_WORKERS");
  ::unsetenv("ELRR_WORK_BIN");

  row.inproc_s = best_inproc;
  row.proc_s = best_proc;
  row.bit_exact = inproc_thetas == proc_thetas;
  return row;
}

struct ObsRow {
  double disarmed_s = 0.0;   ///< fleet workload, tracing compiled in but off
  double armed_s = 0.0;      ///< same workload with tracing armed
  double recorder_s = 0.0;   ///< same workload with the flight recorder armed
  std::size_t candidates = 0;
  std::size_t spans = 0;     ///< spans recorded during the last armed rep
  std::size_t events = 0;    ///< recorder events during the last armed rep
  bool bit_exact = false;    ///< armed thetas == disarmed thetas
  bool recorder_bit_exact = false;  ///< recorder-armed thetas == disarmed
};

/// The tracing layer's cost on the fleet workload (obs/trace.hpp). The
/// *disarmed* time is the gated number: every OBS_SPAN site compiled
/// into the fleet/worker paths costs one relaxed atomic load when
/// tracing is off, and the bench-diff `obs` section pins that at <= 2%
/// against the committed baseline's fleet_seconds -- a tighter ceiling
/// than the global 10% gate, because "near-zero when off" is the
/// layer's core promise. The armed time is reported for context (two
/// clock reads + a ring store per span). Bit-exactness armed vs
/// disarmed is the no-feedback contract: tracing observes wall-clock,
/// never results.
ObsRow measure_obs() {
  const std::vector<elrr::Rrg> candidates = fleet_candidates();
  const elrr::sim::SimOptions options = fleet_sim_options();

  ObsRow row;
  row.candidates = candidates.size();
  std::vector<double> disarmed_thetas, armed_thetas;
  double best_disarmed = 1e300, best_armed = 1e300;

  elrr::obs::reset();  // tracing off: the disarmed fast path
  for (int rep = 0; rep < (quick ? 1 : 3); ++rep) {
    const auto t0 = Clock::now();
    elrr::sim::SimFleet fleet(0);
    disarmed_thetas = run_wave(fleet, candidates, options);
    best_disarmed = std::min(best_disarmed, seconds_since(t0));
  }

  elrr::obs::configure("", 1 << 16);  // big rings; still disarmed (no path)
  elrr::obs::arm(true);
  for (int rep = 0; rep < (quick ? 1 : 3); ++rep) {
    const auto t0 = Clock::now();
    elrr::sim::SimFleet fleet(0);
    armed_thetas = run_wave(fleet, candidates, options);
    best_armed = std::min(best_armed, seconds_since(t0));
  }
  row.spans = elrr::obs::snapshot_spans().size();
  elrr::obs::reset();

  // The flight recorder (obs/recorder.hpp) on the same workload: armed
  // it costs one journal event per slice dispatch (a relaxed ring claim
  // + a few plain stores), disarmed one relaxed load per site -- the
  // bench-diff `obs`/`recorder_seconds` row pins the armed time at
  // <= 2% regression, and bit-exactness is the same no-feedback
  // contract tracing honors. The dump dir is cwd; the pre-opened temp
  // file is unlinked by reset() below, so a crash-free run leaves
  // nothing behind.
  std::vector<double> recorder_thetas;
  double best_recorder = 1e300;
  elrr::obs::rec::configure(".", 1 << 16);
  for (int rep = 0; rep < (quick ? 1 : 3); ++rep) {
    const auto t0 = Clock::now();
    elrr::sim::SimFleet fleet(0);
    recorder_thetas = run_wave(fleet, candidates, options);
    best_recorder = std::min(best_recorder, seconds_since(t0));
  }
  row.events = elrr::obs::rec::snapshot_events().size() +
               static_cast<std::size_t>(elrr::obs::rec::dropped_events());
  elrr::obs::rec::reset();

  row.disarmed_s = best_disarmed;
  row.armed_s = best_armed;
  row.recorder_s = best_recorder;
  row.bit_exact = disarmed_thetas == armed_thetas;
  row.recorder_bit_exact = disarmed_thetas == recorder_thetas;
  return row;
}

struct PipelineRow {
  double sequential_s = 0.0;  ///< walk-then-score, best of reps
  double overlapped_s = 0.0;  ///< streaming engine, best of reps
  std::size_t candidates = 0;
  std::size_t unique = 0;
  bool bit_exact = false;  ///< frontiers + thetas identical between modes
};

/// The pipelined flow engine on a real multi-candidate Pareto walk:
/// sequential (overlap off: every candidate scores only after the last
/// MILP) vs overlapped (each candidate streams into the fleet while the
/// next MILP solves). The circuit is small enough that every MILP solves
/// to proven optimality well inside the budget (s420 with the MAX_THR
/// polish: ~24 exact MILPs), so both modes walk the identical step
/// sequence and the run is deterministic -- the bit_exact gate compares
/// the full frontier and every simulated theta; it must hold on every
/// host. The speedup is the host's concurrency to hide simulation behind
/// MILP time: ~1.0 on a single-core host (the walk and the fleet worker
/// timeshare one CPU; the pipeline is wall-neutral there), rising toward
/// (walk + sim) / max(walk, sim) with a second core. One background
/// fleet worker: the measured overlap is the pipeline itself, not pool
/// scaling. A fresh engine per run keeps the session cache from leaking
/// scores across measurements.
PipelineRow measure_pipeline() {
  const elrr::Rrg rrg = make_candidate("s420", 1, false);
  elrr::flow::EngineOptions options;
  options.opt.epsilon = 0.01;
  options.opt.polish = true;
  options.opt.milp.time_limit_s = 30.0;  // never reached at this size
  options.sim.warmup_cycles = 1000;
  options.sim.measure_cycles = quick ? 20000 : 200000;
  options.sim.runs = 4;
  options.sim_threads = 1;

  PipelineRow row;
  double best_seq = 1e300, best_ovl = 1e300;
  std::vector<double> seq_thetas, ovl_thetas;
  bool frontiers_match = true;
  for (int rep = 0; rep < (quick ? 1 : 3); ++rep) {
    options.overlap = false;
    elrr::flow::Engine sequential(rrg, options);
    auto t0 = Clock::now();
    const elrr::flow::EngineResult seq = sequential.run();
    best_seq = std::min(best_seq, seconds_since(t0));

    options.overlap = true;
    elrr::flow::Engine overlapped(rrg, options);
    t0 = Clock::now();
    const elrr::flow::EngineResult ovl = overlapped.run();
    best_ovl = std::min(best_ovl, seconds_since(t0));

    row.candidates = ovl.candidates_submitted;
    row.unique = ovl.unique_simulations;
    seq_thetas.clear();
    ovl_thetas.clear();
    for (const auto& s : seq.scored) seq_thetas.push_back(s.sim.theta);
    for (const auto& s : ovl.scored) ovl_thetas.push_back(s.sim.theta);
    frontiers_match &= seq.walk.points.size() == ovl.walk.points.size();
    for (std::size_t i = 0;
         frontiers_match && i < seq.walk.points.size(); ++i) {
      frontiers_match &=
          seq.walk.points[i].tau == ovl.walk.points[i].tau &&
          seq.walk.points[i].theta_lp == ovl.walk.points[i].theta_lp &&
          seq.walk.points[i].config == ovl.walk.points[i].config;
    }
    frontiers_match &= seq_thetas == ovl_thetas;
  }
  row.sequential_s = best_seq;
  row.overlapped_s = best_ovl;
  row.bit_exact = frontiers_match;
  return row;
}

struct BatchRow {
  double loop_s = 0.0;       ///< per-circuit engine loop, best of reps
  double scheduler_s = 0.0;  ///< one shared-fleet scheduler batch
  std::size_t jobs = 0;
  std::size_t unique_sims = 0;  ///< fleet misses across the whole batch
  bool bit_exact = false;       ///< scheduler rows == per-circuit rows
};

/// The multi-circuit batch workload (the bench_table2 / CI-manifest
/// shape): small MIN_EFF_CYC flow jobs -- three tiny Table-2
/// structures, two seeds each, plus two repeated jobs (manifests
/// re-submit circuits routinely; re-runs are the service's bread and
/// butter) -- run (a) as the historical per-circuit loop, a fresh
/// engine+fleet per circuit with no memory between jobs, and (b) as ONE
/// svc::Scheduler batch sharing one fleet (persistent pool, cross-job
/// candidate cache, cross-job result cache). One walk worker on both
/// sides: the measured difference is the standing service vs
/// per-circuit teardown, not parallelism. Every MILP solves exactly at
/// these sizes, so both sides must produce bit-identical rows on every
/// host -- the gate.
BatchRow measure_batch() {
  struct JobDef {
    const char* circuit;
    std::uint64_t seed;
  };
  const JobDef defs[] = {{"s208", 1}, {"s420", 1}, {"s838", 1},
                         {"s208", 2}, {"s420", 2}, {"s838", 2},
                         {"s420", 1}, {"s838", 2}};  // manifest repeats
  elrr::flow::FlowOptions options;
  options.epsilon = 0.05;
  options.milp_timeout_s = 30.0;  // never reached at these sizes
  options.sim_cycles = quick ? 2000 : 20000;
  options.use_heuristic = false;  // pure walk: deterministic + cheap
  options.max_simulated_points = 4;

  BatchRow row;
  row.jobs = std::size(defs);
  double best_loop = 1e300, best_sched = 1e300;
  std::vector<double> loop_xi, sched_xi;
  bool exact = true;
  for (int rep = 0; rep < (quick ? 1 : 3); ++rep) {
    // (a) the per-circuit loop: fresh engine + fleet per job.
    loop_xi.clear();
    auto t0 = Clock::now();
    for (const JobDef& def : defs) {
      elrr::flow::FlowOptions job_options = options;
      job_options.seed = def.seed;
      const elrr::flow::CircuitResult r = elrr::flow::run_flow(
          def.circuit,
          elrr::bench89::make_table2_rrg(
              elrr::bench89::spec_by_name(def.circuit), def.seed),
          job_options);
      loop_xi.push_back(r.xi_sim_min);
      for (const auto& candidate : r.candidates) {
        loop_xi.push_back(candidate.theta_sim);
      }
      exact &= r.all_exact;
    }
    best_loop = std::min(best_loop, seconds_since(t0));

    // (b) the scheduler: one shared fleet, the whole manifest queued
    // before dispatch.
    sched_xi.clear();
    t0 = Clock::now();
    {
      elrr::svc::SchedulerOptions sopt;
      sopt.workers = 1;
      sopt.sim_threads = 1;
      sopt.start_paused = true;
      elrr::svc::Scheduler scheduler(sopt);
      for (const JobDef& def : defs) {
        elrr::svc::JobSpec job;
        job.name = def.circuit;
        job.rrg = elrr::bench89::make_table2_rrg(
            elrr::bench89::spec_by_name(def.circuit), def.seed);
        job.flow = options;
        job.flow.seed = def.seed;
        job.mode = elrr::svc::JobMode::kMinEffCyc;
        scheduler.submit(std::move(job));
      }
      scheduler.resume();
      for (const elrr::svc::JobResult& done : scheduler.wait_all()) {
        sched_xi.push_back(done.circuit.xi_sim_min);
        for (const auto& candidate : done.circuit.candidates) {
          sched_xi.push_back(candidate.theta_sim);
        }
        exact &= done.state == elrr::svc::JobState::kDone;
      }
      row.unique_sims = scheduler.fleet().cache_stats().misses;
    }
    best_sched = std::min(best_sched, seconds_since(t0));
  }
  row.loop_s = best_loop;
  row.scheduler_s = best_sched;
  row.bit_exact = exact && loop_xi == sched_xi;
  return row;
}

struct MilpRow {
  double cold_step_ms = 0.0;  ///< per-solve seconds x 1e3, warm starts off
  double warm_step_ms = 0.0;  ///< same sweep through the warm session
  double warm_seconds = 0.0;  ///< total warm-side solve seconds (gate key)
  std::int64_t cold_iterations = 0;
  std::int64_t warm_iterations = 0;
  std::size_t solves = 0;
  int circuits_at_1_3x = 0;  ///< sweep circuits with >= 1.3x step speedup
  std::string detail;        ///< per-circuit "name": speedup JSON fields
  bool bit_exact = false;
};

/// The warm-started MILP session (lp::MilpSession, the Pareto walk's
/// core since the incremental-MILP PR) against the stateless cold path.
///
/// Two measurements:
///  * Step timing on the walk-shaped bound sweep: the MIN_CYC(x) model
///    of a mid-size circuit re-targeted through eight adjacent x steps,
///    solved via the session warm vs cold. The LP relaxation isolates
///    the exact cost the warm basis removes -- the root re-optimization
///    (a cold phase-1/phase-2 start vs a dual-simplex resolve); the full
///    MILPs of these circuits are budget-bound at any setting, which
///    would put wall-clock noise, not the session, in the numbers.
///  * The exactness gate: full warm walks on two small circuits (every
///    MILP proven optimal) must reproduce the cold frontier bit for bit
///    -- config, tau, theta, xi, argmin -- the same contract the lp and
///    flow ctest differentials pin.
MilpRow measure_milp() {
  // Strips integrality: the root relaxation of a walk-step model.
  const auto relax = [](const elrr::lp::Model& m) {
    elrr::lp::Model r;
    r.set_sense(m.sense());
    for (int j = 0; j < m.num_cols(); ++j) {
      const elrr::lp::Column& c = m.col(j);
      r.add_col(c.lo, c.hi, c.obj, false, c.name);
    }
    for (int i = 0; i < m.num_rows(); ++i) {
      const elrr::lp::Row& row = m.row(i);
      r.add_row(row.lo, row.hi, row.entries, row.name);
    }
    return r;
  };

  MilpRow row;
  row.bit_exact = true;
  char buf[96];

  const double xs[] = {1.0, 1.03, 1.06, 1.1, 1.14, 1.19, 1.25, 1.31};
  const std::size_t steps = quick ? 4 : std::size(xs);
  const std::vector<const char*> sweep_circuits =
      quick ? std::vector<const char*>{"s526"}
            : std::vector<const char*>{"s526", "s641"};
  for (const char* circuit : sweep_circuits) {
    const elrr::Rrg rrg = make_candidate(circuit, 1, false);
    elrr::lp::Model base = elrr::build_min_cyc_model(rrg, xs[0]);
    elrr::lp::SessionStats stats[2];
    std::vector<double> objectives[2];
    for (const int warm : {0, 1}) {
      elrr::lp::MilpSession session(
          relax(elrr::build_min_cyc_model(rrg, xs[0])), {});
      session.set_warm(warm == 1);
      for (std::size_t k = 0; k < steps; ++k) {
        const elrr::lp::Model next = elrr::build_min_cyc_model(rrg, xs[k]);
        for (int i = 0; i < next.num_rows(); ++i) {
          if (next.row(i).lo != base.row(i).lo ||
              next.row(i).hi != base.row(i).hi) {
            session.set_row_bounds(i, next.row(i).lo, next.row(i).hi);
          }
        }
        const elrr::lp::MilpResult solved = session.solve();
        row.bit_exact &= solved.status == elrr::lp::MilpStatus::kOptimal;
        objectives[warm].push_back(solved.objective);
      }
      stats[warm] = session.stats();
    }
    // Warm re-optimization may land on a different vertex among exact
    // ties; the optimum *value* itself must agree at solver tolerance.
    for (std::size_t k = 0; k < steps; ++k) {
      row.bit_exact &= std::abs(objectives[0][k] - objectives[1][k]) <=
                       1e-9 * (1.0 + std::abs(objectives[0][k]));
    }
    const double cold_step = stats[0].solve_seconds /
                             static_cast<double>(stats[0].solves);
    const double warm_step = stats[1].solve_seconds /
                             static_cast<double>(stats[1].solves);
    row.cold_step_ms += cold_step * 1e3;
    row.warm_step_ms += warm_step * 1e3;
    row.warm_seconds += stats[1].solve_seconds;
    row.cold_iterations += stats[0].lp_iterations;
    row.warm_iterations += stats[1].lp_iterations;
    row.solves += static_cast<std::size_t>(stats[1].solves);
    const double speedup = cold_step / warm_step;
    if (speedup >= 1.3) ++row.circuits_at_1_3x;
    std::snprintf(buf, sizeof(buf), "%s\"%s_step_speedup\": %.2f",
                  row.detail.empty() ? "" : ", ", circuit, speedup);
    row.detail += buf;
  }
  row.cold_step_ms /= static_cast<double>(sweep_circuits.size());
  row.warm_step_ms /= static_cast<double>(sweep_circuits.size());

  // The exactness gate: warm and cold walks, frontier for frontier.
  for (const char* circuit : {"s208", "s838"}) {
    const elrr::Rrg rrg = make_candidate(circuit, 1, false);
    elrr::OptOptions opt;
    opt.epsilon = 0.05;
    opt.milp.time_limit_s = 30.0;  // never reached at these sizes
    elrr::MinEffCycResult results[2];
    for (const int warm : {0, 1}) {
      opt.milp_warm = warm == 1;
      results[warm] = elrr::min_eff_cyc(rrg, opt);
      row.bit_exact &= results[warm].all_exact;
    }
    const elrr::MinEffCycResult& cold = results[0];
    const elrr::MinEffCycResult& warm = results[1];
    bool same = cold.points.size() == warm.points.size() &&
                cold.best_index == warm.best_index &&
                cold.milp_calls == warm.milp_calls;
    for (std::size_t i = 0; same && i < cold.points.size(); ++i) {
      same = cold.points[i].tau == warm.points[i].tau &&
             cold.points[i].theta_lp == warm.points[i].theta_lp &&
             cold.points[i].xi_lp == warm.points[i].xi_lp &&
             cold.points[i].config == warm.points[i].config;
    }
    row.bit_exact &= same;
  }
  return row;
}

/// Baseline trajectory (the previously committed BENCH_sim.json), for
/// the embedded before/after ratios. Loaded fully before the output file
/// is opened, so baseline and output may be the same path.
struct Baseline {
  std::string text;
  std::optional<double> cps(const char* section) const {
    return elrr::bench_json::find_number(text, section, "cycles_per_sec");
  }
  std::optional<double> fleet_seconds(const char* section) const {
    return elrr::bench_json::find_number(text, section, "fleet_seconds");
  }
};

}  // namespace

int main(int argc, char** argv) {
  std::string path = "BENCH_sim.json";
  std::string baseline_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else if (std::strcmp(argv[i], "--baseline") == 0) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "--baseline needs a file argument\n");
        return 2;
      }
      baseline_path = argv[++i];
    } else if (argv[i][0] == '-') {
      // A typo'd flag must not silently become the output path.
      std::fprintf(stderr,
                   "unknown flag %s\nusage: perf_smoke [output.json] "
                   "[--quick] [--baseline <file.json>]\n",
                   argv[i]);
      return 2;
    } else {
      path = argv[i];
    }
  }
  std::optional<Baseline> baseline;
  if (!baseline_path.empty()) {
    try {
      baseline = Baseline{elrr::io::load_text_file(baseline_path)};
    } catch (const std::exception& e) {
      std::fprintf(stderr, "baseline %s not readable (%s); skipping ratios\n",
                   baseline_path.c_str(), e.what());
    }
  }

  const Case cases[] = {
      {"small", "s27", 100000, false},
      {"medium", "s526", 50000, false},
      {"large", "s1488", 10000, false},
      {"telescopic", "s526", 20000, true},
  };

  // Write through a temp file and rename on success: the output may be
  // the committed baseline itself (run_perf_smoke points both at the
  // repo-root BENCH_sim.json), and an interrupted multi-minute run must
  // not leave it truncated.
  const std::string tmp_path = path + ".tmp";
  std::FILE* out = std::fopen(tmp_path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", tmp_path.c_str());
    return 1;
  }
  bool all_bit_exact = true;
  std::string ratios;  // accumulated "key": value lines for the footer
  char ratio_buf[128];
  std::fprintf(out, "{\n  \"benchmark\": \"token_simulation\",\n"
                    "  \"unit\": \"simulated_cycles_per_second\",\n"
                    "  \"threads\": 1,\n  \"runs\": 4,\n  \"cases\": {\n");
  bool first = true;
  for (const Case& c : cases) {
    const Row row = measure(c);
    all_bit_exact &= row.bit_exact;
    std::fprintf(out,
                 "%s    \"%s\": {\"circuit\": \"%s\", "
                 "\"cycles_per_sec\": %.0f, "
                 "\"cycles_per_sec_reference\": %.0f, "
                 "\"speedup_vs_reference\": %.2f, "
                 "\"theta\": %.6f, \"bit_exact\": %s}",
                 first ? "" : ",\n", c.label, c.circuit, row.flat_cps,
                 row.ref_cps, row.flat_cps / row.ref_cps, row.theta,
                 row.bit_exact ? "true" : "false");
    std::printf("%-10s (%s): flat %.2fM cyc/s, reference %.2fM cyc/s, "
                "speedup %.2fx, %s",
                c.label, c.circuit, row.flat_cps / 1e6, row.ref_cps / 1e6,
                row.flat_cps / row.ref_cps,
                row.bit_exact ? "bit-exact" : "MISMATCH");
    if (baseline) {
      if (const auto prev = baseline->cps(c.label)) {
        const double ratio = row.flat_cps / *prev;
        std::printf(", %.2fx vs baseline", ratio);
        std::snprintf(ratio_buf, sizeof(ratio_buf), "%s\"%s\": %.2f",
                      ratios.empty() ? "" : ", ", c.label, ratio);
        ratios += ratio_buf;
      }
    }
    std::printf("\n");
    first = false;
  }

  const FleetRow fleet = measure_fleet();
  all_bit_exact &= fleet.bit_exact;
  std::fprintf(out,
               ",\n    \"fleet\": {\"workload\": "
               "\"8 s526 candidates (4 telescopic) x 4 runs\", "
               "\"candidates\": %zu, \"fleet_workers\": %zu, "
               "\"per_candidate_loop_seconds\": %.4f, "
               "\"fleet_seconds\": %.4f, "
               "\"speedup_vs_loop\": %.2f, \"bit_exact\": %s}",
               fleet.candidates, fleet.workers, fleet.loop_s, fleet.fleet_s,
               fleet.loop_s / fleet.fleet_s,
               fleet.bit_exact ? "true" : "false");
  std::printf("fleet      (%zu candidates, %zu workers): loop %.2fs, "
              "fleet %.2fs, speedup %.2fx, %s",
              fleet.candidates, fleet.workers, fleet.loop_s, fleet.fleet_s,
              fleet.loop_s / fleet.fleet_s,
              fleet.bit_exact ? "bit-exact" : "MISMATCH");
  if (baseline) {
    if (const auto prev = baseline->fleet_seconds("fleet")) {
      // Seconds of the identical workload: ratio > 1 = this PR is faster.
      const double ratio = *prev / fleet.fleet_s;
      std::printf(", %.2fx vs baseline", ratio);
      std::snprintf(ratio_buf, sizeof(ratio_buf), "%s\"fleet\": %.2f",
                    ratios.empty() ? "" : ", ", ratio);
      ratios += ratio_buf;
    }
  }
  std::printf("\n");

  const DedupRow dedup = measure_dedup();
  all_bit_exact &= dedup.bit_exact;
  std::fprintf(out,
               ",\n    \"fleet_dedup\": {\"workload\": "
               "\"8 s526 candidates x 3 duplicate submissions x 4 runs\", "
               "\"jobs\": %zu, \"unique_simulations\": %zu, "
               "\"dedup_off_seconds\": %.4f, \"fleet_seconds\": %.4f, "
               "\"speedup_vs_no_dedup\": %.2f, \"bit_exact\": %s}",
               dedup.jobs, dedup.unique, dedup.off_s, dedup.on_s,
               dedup.off_s / dedup.on_s, dedup.bit_exact ? "true" : "false");
  std::printf("dedup      (%zu jobs, %zu unique): off %.2fs, on %.2fs, "
              "speedup %.2fx, %s\n",
              dedup.jobs, dedup.unique, dedup.off_s, dedup.on_s,
              dedup.off_s / dedup.on_s,
              dedup.bit_exact ? "bit-exact" : "MISMATCH");

  const PipelineRow pipeline = measure_pipeline();
  all_bit_exact &= pipeline.bit_exact;
  std::fprintf(out,
               ",\n    \"pipeline\": {\"workload\": "
               "\"s420 polished Pareto walk (eps 0.01), 4 runs per "
               "candidate, 1 fleet worker (overlap ~1.0x on 1-core "
               "hosts)\", "
               "\"candidates\": %zu, \"unique_simulations\": %zu, "
               "\"sequential_seconds\": %.4f, \"overlapped_seconds\": %.4f, "
               "\"speedup_vs_sequential\": %.2f, \"bit_exact\": %s}",
               pipeline.candidates, pipeline.unique, pipeline.sequential_s,
               pipeline.overlapped_s,
               pipeline.sequential_s / pipeline.overlapped_s,
               pipeline.bit_exact ? "true" : "false");
  std::printf("pipeline   (%zu candidates, %zu unique): sequential %.2fs, "
              "overlapped %.2fs, speedup %.2fx, %s",
              pipeline.candidates, pipeline.unique, pipeline.sequential_s,
              pipeline.overlapped_s,
              pipeline.sequential_s / pipeline.overlapped_s,
              pipeline.bit_exact ? "bit-exact" : "MISMATCH");
  if (baseline) {
    if (const auto prev = elrr::bench_json::find_number(
            baseline->text, "pipeline", "overlapped_seconds")) {
      const double ratio = *prev / pipeline.overlapped_s;
      std::printf(", %.2fx vs baseline", ratio);
      std::snprintf(ratio_buf, sizeof(ratio_buf), "%s\"pipeline\": %.2f",
                    ratios.empty() ? "" : ", ", ratio);
      ratios += ratio_buf;
    }
  }
  std::printf("\n");

  const BatchRow batch = measure_batch();
  all_bit_exact &= batch.bit_exact;
  std::fprintf(out,
               ",\n    \"batch\": {\"workload\": "
               "\"8 MIN_EFF_CYC flow jobs (s208/s420/s838 x 2 seeds + 2 "
               "manifest repeats), one walk worker, scheduler shared "
               "fleet vs per-circuit engine loop\", "
               "\"jobs\": %zu, \"unique_simulations\": %zu, "
               "\"per_circuit_loop_seconds\": %.4f, "
               "\"scheduler_seconds\": %.4f, "
               "\"speedup_vs_loop\": %.2f, \"bit_exact\": %s}",
               batch.jobs, batch.unique_sims, batch.loop_s, batch.scheduler_s,
               batch.loop_s / batch.scheduler_s,
               batch.bit_exact ? "true" : "false");
  std::printf("batch      (%zu jobs, %zu unique sims): loop %.2fs, "
              "scheduler %.2fs, speedup %.2fx, %s",
              batch.jobs, batch.unique_sims, batch.loop_s, batch.scheduler_s,
              batch.loop_s / batch.scheduler_s,
              batch.bit_exact ? "bit-exact" : "MISMATCH");
  if (baseline) {
    if (const auto prev = elrr::bench_json::find_number(
            baseline->text, "batch", "scheduler_seconds")) {
      const double ratio = *prev / batch.scheduler_s;
      std::printf(", %.2fx vs baseline", ratio);
      std::snprintf(ratio_buf, sizeof(ratio_buf), "%s\"batch\": %.2f",
                    ratios.empty() ? "" : ", ", ratio);
      ratios += ratio_buf;
    }
  }
  std::printf("\n");

  const MilpRow milp = measure_milp();
  all_bit_exact &= milp.bit_exact;
  std::fprintf(out,
               ",\n    \"milp\": {\"workload\": "
               "\"MIN_CYC(x) root relaxations re-targeted across 8 "
               "adjacent walk steps, session warm vs cold, plus warm-vs-"
               "cold full-walk frontier identity on s208/s838\", "
               "\"solves\": %zu, \"cold_step_ms\": %.3f, "
               "\"warm_step_ms\": %.3f, \"warm_speedup\": %.2f, "
               "\"circuits_at_1.3x\": %d, "
               "\"lp_iterations_cold\": %lld, \"lp_iterations_warm\": %lld, "
               "%s, \"warm_seconds\": %.4f, \"bit_exact\": %s}",
               milp.solves, milp.cold_step_ms, milp.warm_step_ms,
               milp.cold_step_ms / milp.warm_step_ms, milp.circuits_at_1_3x,
               static_cast<long long>(milp.cold_iterations),
               static_cast<long long>(milp.warm_iterations),
               milp.detail.c_str(), milp.warm_seconds,
               milp.bit_exact ? "true" : "false");
  std::printf("milp       (%zu session solves): cold %.2fms/step, "
              "warm %.2fms/step, speedup %.2fx (%d circuits >= 1.3x), %s",
              milp.solves, milp.cold_step_ms, milp.warm_step_ms,
              milp.cold_step_ms / milp.warm_step_ms, milp.circuits_at_1_3x,
              milp.bit_exact ? "bit-exact" : "MISMATCH");
  if (baseline) {
    if (const auto prev = elrr::bench_json::find_number(
            baseline->text, "milp", "warm_seconds")) {
      const double ratio = *prev / milp.warm_seconds;
      std::printf(", %.2fx vs baseline", ratio);
      std::snprintf(ratio_buf, sizeof(ratio_buf), "%s\"milp\": %.2f",
                    ratios.empty() ? "" : ", ", ratio);
      ratios += ratio_buf;
    }
  }
  std::printf("\n");

  const ProcRow proc = measure_proc();
  all_bit_exact &= proc.bit_exact;
  std::fprintf(out,
               ",\n    \"proc\": {\"workload\": "
               "\"the fleet candidate set drained through the in-process "
               "pool vs 2 process-isolated elrr-work workers\", "
               "\"candidates\": %zu, \"inproc_seconds\": %.4f, "
               "\"proc_seconds\": %.4f, \"overhead\": %.2f, "
               "\"bit_exact\": %s}",
               proc.candidates, proc.inproc_s, proc.proc_s,
               proc.proc_s / proc.inproc_s,
               proc.bit_exact ? "true" : "false");
  std::printf("proc       (%zu candidates): in-process %.3fs, "
              "2 worker processes %.3fs, isolation overhead %.2fx, %s",
              proc.candidates, proc.inproc_s, proc.proc_s,
              proc.proc_s / proc.inproc_s,
              proc.bit_exact ? "bit-exact" : "MISMATCH");
  if (baseline) {
    if (const auto prev = elrr::bench_json::find_number(
            baseline->text, "proc", "proc_seconds")) {
      const double ratio = *prev / proc.proc_s;
      std::printf(", %.2fx vs baseline", ratio);
      std::snprintf(ratio_buf, sizeof(ratio_buf), "%s\"proc\": %.2f",
                    ratios.empty() ? "" : ", ", ratio);
      ratios += ratio_buf;
    }
  }
  std::printf("\n");

  const ObsRow obs = measure_obs();
  all_bit_exact &= obs.bit_exact;
  all_bit_exact &= obs.recorder_bit_exact;
  std::fprintf(out,
               ",\n    \"obs\": {\"workload\": "
               "\"the fleet candidate set with tracing disarmed (gated: "
               "one relaxed load per site) vs armed vs the flight "
               "recorder armed\", "
               "\"candidates\": %zu, \"fleet_seconds\": %.4f, "
               "\"armed_seconds\": %.4f, \"armed_overhead\": %.2f, "
               "\"spans_recorded\": %zu, "
               "\"recorder_seconds\": %.4f, \"recorder_overhead\": %.2f, "
               "\"events_recorded\": %zu, \"bit_exact\": %s}",
               obs.candidates, obs.disarmed_s, obs.armed_s,
               obs.armed_s / obs.disarmed_s, obs.spans, obs.recorder_s,
               obs.recorder_s / obs.disarmed_s, obs.events,
               obs.bit_exact && obs.recorder_bit_exact ? "true" : "false");
  std::printf("obs        (%zu candidates): disarmed %.3fs, armed %.3fs "
              "(%zu spans), armed overhead %.2fx, recorder %.3fs "
              "(%zu events, %.2fx), %s",
              obs.candidates, obs.disarmed_s, obs.armed_s, obs.spans,
              obs.armed_s / obs.disarmed_s, obs.recorder_s, obs.events,
              obs.recorder_s / obs.disarmed_s,
              obs.bit_exact && obs.recorder_bit_exact ? "bit-exact"
                                                      : "MISMATCH");
  if (baseline) {
    if (const auto prev = elrr::bench_json::find_number(
            baseline->text, "obs", "fleet_seconds")) {
      const double ratio = *prev / obs.disarmed_s;
      std::printf(", %.2fx vs baseline", ratio);
      std::snprintf(ratio_buf, sizeof(ratio_buf), "%s\"obs\": %.2f",
                    ratios.empty() ? "" : ", ", ratio);
      ratios += ratio_buf;
    }
  }
  std::printf("\n");

  std::fprintf(out, "\n  },\n  \"vs_baseline\": {%s}\n}\n", ratios.c_str());
  std::fclose(out);
  if (std::rename(tmp_path.c_str(), path.c_str()) != 0) {
    std::fprintf(stderr, "cannot rename %s to %s\n", tmp_path.c_str(),
                 path.c_str());
    return 1;
  }
  std::printf("wrote %s\n", path.c_str());
  if (!all_bit_exact) {
    std::fprintf(stderr, "perf_smoke: bit-exactness violated (see above)\n");
    return 1;
  }
  return 0;
}
