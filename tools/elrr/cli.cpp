#include "tools/elrr/cli.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <optional>
#include <ostream>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "bench89/bench_format.hpp"
#include "bench89/generator.hpp"
#include "core/analysis.hpp"
#include "core/opt.hpp"
#include "core/tgmg.hpp"
#include "elastic/control_sim.hpp"
#include "elastic/fifo_sizing.hpp"
#include "elastic/verilog.hpp"
#include "flow/circuit_flow.hpp"
#include "flow/engine.hpp"
#include "heur/heuristic.hpp"
#include "io/rrg_format.hpp"
#include "lp/mps.hpp"
#include "obs/recorder.hpp"
#include "obs/trace.hpp"
#include "retime/leiserson_saxe.hpp"
#include "retime/min_area.hpp"
#include "sim/markov.hpp"
#include "sim/simulator.hpp"
#include "support/args.hpp"
#include "support/env.hpp"
#include "support/error.hpp"
#include "support/failpoint.hpp"
#include "support/json.hpp"
#include "support/stats.hpp"
#include "support/strings.hpp"
#include "svc/disk_cache.hpp"
#include "svc/manifest.hpp"
#include "svc/scheduler.hpp"

namespace elrr::cli {

namespace {

constexpr const char* kUsage = R"(elrr -- retiming & recycling for elastic systems with early evaluation
(DAC'09 reproduction; see README.md)

usage: elrr <command> [flags]

input (most commands): --input <file.rrg>  |  --circuit <name> [--seed N]
  <name> is one of the Table-2 test cases (s27, s208, ..., s1494).

commands:
  analyze     cycle time, LP throughput bound, late-eval MCR, exact Markov
              (small systems), Monte-Carlo throughput, effective cycle time
  optimize    retiming & recycling: --method exact|heur|hybrid (default
              hybrid), --epsilon E, --timeout S (per MILP), --simulate,
              --k N (candidates shown)
  flow        pipelined engine: the Pareto walk streams each candidate
              into an async simulation fleet while the next MILP solves;
              --epsilon E, --timeout S, --threads T (fleet pool; 0 = all
              cores), --cycles N, --runs R, --k N (rows shown),
              --sequential (walk-then-score baseline, same results),
              --feedback / --no-feedback (prune MILP steps with
              simulated thetas; default auto: armed only once a MILP
              budget is hit), --cold-milp (disable warm-started MILP
              steps; same results, slower), --polish
  batch       multi-circuit optimization service: one scheduler, one
              shared simulation fleet, many jobs. elrr batch
              <manifest.jsonl> [--jobs N] [--threads T] [--output file]
              [--resume] -- one JSON object per manifest line ({"circuit":
              "s526", "mode": "min_eff_cyc|min_cyc|score", "priority":
              "high|normal|low", ...}; strict RFC 8259: standard
              escapes, JSON numbers; see src/svc/manifest.hpp), JSONL
              results out (last line = batch summary). ELRR_* env knobs
              are the batch-wide defaults; per-line keys override.
              --resume re-runs a crashed/interrupted batch's manifest
              against the persistent cache (requires
              ELRR_DISK_CACHE_DIR): already-completed jobs are served
              bit-identically from disk and counted as "resumed" in the
              summary; the rest run for real. --trace <out.json> arms
              the obs layer (same as ELRR_TRACE) and writes a Perfetto-
              loadable Chrome trace of the whole batch -- scheduler,
              walk, MILP and fleet tracks on one timeline; the summary
              stream gains a trace_summary record. When both are set
              the flag wins: the trace goes to the --trace path.
  simulate    --cycles N, --runs R, --threads T (0 = all cores),
              --control (SELF network), --capacity C
  generate    --circuit <name> [--seed N] --output <file.rrg>
  export      --format rrg|json|dot|tgmg-dot|mps|verilog [--output <file>]
  size-fifos  --tolerance T, --max-capacity C
  min-area    minimum-buffer retiming meeting --period P (default: the
              min-period retiming's period); classical registers only
  from-bench  --input <file.bench> [--output <file.rrg>]  (largest SCC,
              unit delays; --annotate re-randomizes per the paper, --seed N)
  trace-summary  <trace.json> [--json]  -- aggregate per-phase latency
              table (count / total / p50 / p95 / p99) from a trace
              written by --trace / ELRR_TRACE; exact percentiles from
              the recorded span durations. The footer reports spans
              dropped to ring wrap + the ring capacity (raise
              ELRR_OBS_BUF if nonzero), then the trace's named
              counters. --json emits the same rows machine-readable
  postmortem  <file>  -- render a flight-recorder crash dump (written
              to ELRR_POSTMORTEM_DIR by a crashing elrr process) as a
              human report: crash reason, in-flight job/slice
              identities, the last recorded events, counters and phase
              latencies; see src/obs/README.md
  top         <snapshot.json>  -- one-shot dashboard over the periodic
              stats snapshot (ELRR_STATS_SNAPSHOT=path:period_ms):
              queue depths, fleet utilization, cache hit rates,
              per-phase latency percentiles. `watch -n1 elrr top <f>`
              approximates a live view
  help        this text
)";

struct LoadedInput {
  std::string name;
  Rrg rrg;
};

LoadedInput load_input(Args& args) {
  const auto input = args.get("input");
  const auto circuit = args.get("circuit");
  ELRR_REQUIRE(input.has_value() != circuit.has_value(),
               "provide exactly one of --input or --circuit");
  if (input.has_value()) {
    io::NamedRrg named = io::load_rrg_file(*input);
    if (named.name.empty()) named.name = *input;
    return {named.name, std::move(named.rrg)};
  }
  const std::uint64_t seed = args.get_u64("seed", 1);
  const bench89::CircuitSpec& spec = bench89::spec_by_name(*circuit);
  return {spec.name, bench89::make_table2_rrg(spec, seed)};
}

void print_points(std::ostream& out, const std::vector<ParetoPoint>& points,
                  std::size_t best_index, std::size_t limit) {
  out << "   #      tau   Theta_lp      xi_lp  exact\n";
  for (std::size_t i = 0; i < points.size() && i < limit; ++i) {
    const ParetoPoint& p = points[i];
    out << format_fixed(static_cast<double>(i), 0) << "    "
        << format_fixed(p.tau, 3) << "   " << format_fixed(p.theta_lp, 4)
        << "     " << format_fixed(p.xi_lp, 4) << "  "
        << (p.exact ? "yes" : "no ")
        << (i == best_index ? "   <== best" : "") << "\n";
  }
}

int cmd_analyze(Args& args, std::ostream& out) {
  const LoadedInput in = load_input(args);
  const std::size_t cycles =
      static_cast<std::size_t>(args.get_int("cycles", 20000));
  args.finish();

  out << "rrg " << in.name << ": " << in.rrg.num_nodes() << " nodes, "
      << in.rrg.num_edges() << " edges\n";
  const RcEvaluation eval = evaluate_rrg(in.rrg);
  out << "cycle time tau        = " << format_fixed(eval.tau, 4) << "\n";
  out << "Theta upper bound (LP)= " << format_fixed(eval.theta_lp, 4) << "\n";
  out << "late-eval Theta (MCR) = "
      << format_fixed(late_eval_throughput(in.rrg), 4) << "\n";
  if (in.rrg.has_telescopic()) {
    out << "telescopic cap        = "
        << format_fixed(throughput_cap(in.rrg), 4) << "\n";
  }
  sim::MarkovOptions mopt;
  mopt.max_states = 20000;
  const sim::MarkovResult mc = sim::exact_throughput(in.rrg, mopt);
  if (mc.ok) {
    out << "exact Theta (Markov)  = " << format_fixed(mc.theta, 4) << "  ("
        << mc.num_states << " states)\n";
  } else {
    out << "exact Theta (Markov)  = (state space too large)\n";
  }
  sim::SimOptions sopt;
  sopt.measure_cycles = cycles;
  const sim::SimResult sim = sim::simulate_throughput(in.rrg, sopt);
  out << "simulated Theta       = " << format_fixed(sim.theta, 4) << " +- "
      << format_fixed(sim.stderr_theta, 4) << "\n";
  out << "effective cycle time  = " << format_fixed(eval.tau / sim.theta, 4)
      << "  (xi_lp " << format_fixed(eval.xi_lp, 4) << ")\n";
  return 0;
}

int cmd_optimize(Args& args, std::ostream& out) {
  const LoadedInput in = load_input(args);
  const std::string method = args.get_or("method", "hybrid");
  OptOptions oopt;
  oopt.epsilon = args.get_double("epsilon", 0.05);
  oopt.milp.time_limit_s = args.get_double("timeout", 6.0);
  const bool simulate = args.get_flag("simulate");
  const std::size_t k = static_cast<std::size_t>(args.get_int("k", 8));
  const auto save = args.get("save-best");
  args.finish();

  std::vector<ParetoPoint> points;
  if (method == "exact" || method == "hybrid") {
    const MinEffCycResult exact = min_eff_cyc(in.rrg, oopt);
    out << "exact walk: " << exact.points.size() << " Pareto points, "
        << exact.milp_calls << " MILPs"
        << (exact.all_exact ? "" : " (some budgets hit)") << ", "
        << format_fixed(exact.seconds, 1) << "s\n";
    points.insert(points.end(), exact.points.begin(), exact.points.end());
  }
  if (method == "heur" || method == "hybrid") {
    const HeuristicResult heur = heur_eff_cyc(in.rrg);
    out << "heuristic:  " << heur.points.size() << " Pareto points, "
        << heur.lp_evals << " LPs, " << format_fixed(heur.seconds, 1)
        << "s\n";
    points.insert(points.end(), heur.points.begin(), heur.points.end());
  }
  ELRR_REQUIRE(!points.empty(), "unknown --method '", method,
               "' (exact|heur|hybrid)");

  // Merge: keep the Pareto frontier of both.
  const std::size_t best = keep_pareto_frontier(points);
  print_points(out, points, best, k);

  if (simulate) {
    out << "\nsimulated candidates:\n";
    out << "   #   Theta_sim     xi_sim\n";
    std::size_t best_sim = 0;
    double best_xi = 0.0;
    for (std::size_t i = 0; i < points.size() && i < k; ++i) {
      const Rrg tuned = apply_config(in.rrg, points[i].config);
      const sim::SimResult sim = sim::simulate_throughput(tuned);
      const double xi = points[i].tau / sim.theta;
      if (i == 0 || xi < best_xi) {
        best_xi = xi;
        best_sim = i;
      }
      out << format_fixed(static_cast<double>(i), 0) << "   "
          << format_fixed(sim.theta, 4) << "     " << format_fixed(xi, 4)
          << "\n";
    }
    out << "best by simulation: #" << best_sim << " (xi = "
        << format_fixed(best_xi, 4) << ")\n";
  }
  if (save.has_value()) {
    const Rrg tuned = apply_config(in.rrg, points[best].config);
    io::save_text_file(*save, io::write_rrg(tuned, in.name + "_optimized"));
    out << "saved best configuration to " << *save << "\n";
  }
  return 0;
}

int cmd_flow(Args& args, std::ostream& out) {
  const LoadedInput in = load_input(args);
  flow::EngineOptions eopt;
  eopt.opt.epsilon = args.get_double("epsilon", 0.05);
  eopt.opt.milp.time_limit_s = args.get_double("timeout", 6.0);
  eopt.opt.polish = args.get_flag("polish");
  eopt.sim.measure_cycles =
      static_cast<std::size_t>(args.get_int("cycles", 20000));
  eopt.sim.runs = static_cast<std::size_t>(args.get_int("runs", 3));
  eopt.sim.seed = args.get_u64("sim-seed", 1);
  eopt.sim_threads = static_cast<std::size_t>(args.get_int("threads", 0));
  eopt.overlap = !args.get_flag("sequential");
  // --feedback forces the pruning on from the first completed
  // simulation; --no-feedback pins it off. Default: auto (armed only on
  // budget-dominated walks).
  if (args.get_flag("feedback")) {
    eopt.feedback_pruning = flow::FeedbackPruning::kOn;
  } else if (args.get_flag("no-feedback")) {
    eopt.feedback_pruning = flow::FeedbackPruning::kOff;
  }
  eopt.opt.milp_warm = !args.get_flag("cold-milp");
  const std::size_t k = static_cast<std::size_t>(args.get_int("k", 16));
  args.finish();

  flow::Engine engine(in.rrg, eopt);
  const flow::EngineResult r = engine.run();
  out << "walk: " << r.walk.points.size() << " Pareto points, "
      << r.walk.milp_calls << " MILPs"
      << (r.walk.all_exact ? "" : " (some budgets hit)");
  if (r.pruned_steps > 0) out << ", " << r.pruned_steps << " steps pruned";
  out << "\n";
  out << "fleet: " << r.candidates_submitted << " candidates streamed, "
      << r.unique_simulations << " unique simulations, "
      << engine.exact_thetas() << " exact thetas\n";
  out << "   #      tau   Theta_lp   Theta_sim     xi_sim\n";
  std::size_t shown = 0;
  for (std::size_t i = 0; i < r.scored.size() && shown < k; ++i, ++shown) {
    const flow::ScoredPoint& s = r.scored[i];
    out << format_fixed(static_cast<double>(i), 0) << "    "
        << format_fixed(s.point.tau, 3) << "   "
        << format_fixed(s.point.theta_lp, 4) << "      "
        << format_fixed(s.sim.theta, 4) << "    " << format_fixed(s.xi_sim, 4)
        << (i == r.best_sim_index ? "   <== best by simulation" : "")
        << (i == r.walk.best_index ? "   <== best by xi_lp" : "") << "\n";
  }
  out << "pipeline: walk " << format_fixed(r.walk_seconds, 2)
      << "s, residual sim wait " << format_fixed(r.sim_wait_seconds, 2)
      << "s, wall " << format_fixed(r.seconds, 2) << "s ("
      << (eopt.overlap ? "overlapped" : "sequential") << ")\n";
  return 0;
}

int cmd_simulate(Args& args, std::ostream& out) {
  const LoadedInput in = load_input(args);
  const std::size_t cycles =
      static_cast<std::size_t>(args.get_int("cycles", 20000));
  const std::size_t runs = static_cast<std::size_t>(args.get_int("runs", 3));
  const std::uint64_t sim_seed = args.get_u64("sim-seed", 1);
  const std::size_t threads =
      static_cast<std::size_t>(args.get_int("threads", 1));
  const bool control = args.get_flag("control");
  const int capacity = args.get_int("capacity", 2);
  args.finish();

  if (control) {
    elastic::ControlSimOptions copt;
    copt.capacity = capacity;
    copt.measure_cycles = cycles;
    copt.runs = runs;
    copt.seed = sim_seed;
    const sim::SimResult r = elastic::simulate_control_throughput(in.rrg, copt);
    out << "SELF control network (capacity " << capacity << "): Theta = "
        << format_fixed(r.theta, 4) << " +- "
        << format_fixed(r.stderr_theta, 4) << " over " << r.cycles
        << " cycles\n";
  } else {
    sim::SimOptions sopt;
    sopt.measure_cycles = cycles;
    sopt.runs = runs;
    sopt.seed = sim_seed;
    sopt.threads = threads;
    const sim::SimResult r = sim::simulate_throughput(in.rrg, sopt);
    out << "token-level kernel: Theta = " << format_fixed(r.theta, 4)
        << " +- " << format_fixed(r.stderr_theta, 4) << " over " << r.cycles
        << " cycles\n";
  }
  return 0;
}

int cmd_generate(Args& args, std::ostream& out) {
  const std::string name = args.require("circuit");
  const std::uint64_t seed = args.get_u64("seed", 1);
  const std::string output = args.require("output");
  args.finish();

  const Rrg rrg = bench89::make_table2_rrg(bench89::spec_by_name(name), seed);
  io::save_text_file(output, io::write_rrg(rrg, name));
  out << "wrote " << name << " (seed " << seed << "): " << rrg.num_nodes()
      << " nodes, " << rrg.num_edges() << " edges -> " << output << "\n";
  return 0;
}

int cmd_export(Args& args, std::ostream& out) {
  const LoadedInput in = load_input(args);
  const std::string format = args.get_or("format", "rrg");
  const auto output = args.get("output");
  args.finish();

  std::string text;
  if (format == "rrg") {
    text = io::write_rrg(in.rrg, in.name);
  } else if (format == "json") {
    text = io::write_json(in.rrg, in.name);
  } else if (format == "dot") {
    text = in.rrg.to_dot();
  } else if (format == "tgmg-dot") {
    text = refined_tgmg(in.rrg).to_dot();
  } else if (format == "mps") {
    // The throughput-bound LP (eq. 4/11) of the refined TGMG, for
    // cross-checking Theta_lp with an external solver.
    text = lp::to_mps(build_throughput_lp(refined_tgmg(in.rrg)).model,
                      in.name);
  } else if (format == "verilog") {
    elastic::VerilogOptions vopt;
    text = elastic::emit_verilog(in.rrg, vopt);
  } else {
    throw InvalidInputError("unknown --format '" + format +
                            "' (rrg|json|dot|tgmg-dot|verilog)");
  }
  if (output.has_value()) {
    io::save_text_file(*output, text);
    out << "wrote " << text.size() << " bytes to " << *output << "\n";
  } else {
    out << text;
  }
  return 0;
}

int cmd_size_fifos(Args& args, std::ostream& out) {
  const LoadedInput in = load_input(args);
  elastic::FifoSizingOptions fopt;
  fopt.tolerance = args.get_double("tolerance", 0.02);
  fopt.max_capacity = args.get_int("max-capacity", 32);
  fopt.sim.measure_cycles =
      static_cast<std::size_t>(args.get_int("cycles", 8000));
  args.finish();

  const elastic::FifoSizingResult r = elastic::size_fifos(in.rrg, fopt);
  out << "reference Theta (capacity " << fopt.max_capacity << ") = "
      << format_fixed(r.theta_reference, 4) << "\n";
  out << "smallest uniform capacity = " << r.uniform_capacity
      << "  (Theta " << format_fixed(r.theta_uniform, 4) << ")\n";
  int trimmed = 0, stages = 0;
  for (EdgeId e = 0; e < in.rrg.num_edges(); ++e) {
    if (in.rrg.buffers(e) == 0) continue;
    ++stages;
    if (r.capacity[e] < r.uniform_capacity) ++trimmed;
  }
  out << "per-edge trim: " << trimmed << "/" << stages
      << " channels reduced to capacity 1 (final Theta "
      << format_fixed(r.theta_final, 4) << ", " << r.sim_evals
      << " simulations)\n";
  return 0;
}

int cmd_min_area(Args& args, std::ostream& out) {
  const LoadedInput in = load_input(args);
  const double requested = args.get_double("period", -1.0);
  const double timeout = args.get_double("timeout", 10.0);
  args.finish();

  const retime::RetimingResult ls = retime::min_period_retiming(in.rrg);
  const double period = requested > 0 ? requested : ls.period;
  out << "min period by retiming = " << format_fixed(ls.period, 4)
      << "; sizing for period " << format_fixed(period, 4) << "\n";

  int before = 0;
  for (EdgeId e = 0; e < in.rrg.num_edges(); ++e) {
    before += in.rrg.buffers(e);
  }
  lp::MilpOptions mopt;
  mopt.time_limit_s = timeout;
  const retime::MinAreaResult result =
      retime::min_area_retiming(in.rrg, period, mopt);
  if (!result.feasible) {
    out << "infeasible: no retiming meets that period"
        << (result.exact ? "" : " within the budget") << "\n";
    return 1;
  }
  out << "buffers: " << before << " -> " << result.total_buffers
      << (result.exact ? " (optimal)" : " (budget hit; best found)")
      << "\n";
  return 0;
}

int cmd_from_bench(Args& args, std::ostream& out) {
  const std::string input = args.require("input");
  const auto output = args.get("output");
  const bool annotate = args.get_flag("annotate");
  const std::uint64_t seed = args.get_u64("seed", 1);
  args.finish();

  const bench89::BenchCircuit circuit =
      bench89::parse_bench(io::load_text_file(input), input);
  Rrg rrg = bench89::largest_scc_rrg(bench89::circuit_to_rrg(circuit));
  out << circuit.name << ": " << circuit.gates.size() << " gates -> largest "
      << "SCC " << rrg.num_nodes() << " nodes, " << rrg.num_edges()
      << " edges\n";
  if (annotate) {
    // Re-randomize per the paper's Section 5 protocol, keeping the
    // structure: tokens p=0.25 + liveness repair, delays U(0,20],
    // early-eval probability 0.4 among multi-input nodes.
    int multi_in = 0;
    for (NodeId n = 0; n < rrg.num_nodes(); ++n) {
      if (rrg.graph().in_degree(n) >= 2) ++multi_in;
    }
    const int n_early = static_cast<int>(0.4 * multi_in + 0.5);
    rrg = bench89::annotate(rrg.graph(), n_early, {}, seed);
    out << "annotated: " << n_early << " early nodes, seed " << seed << "\n";
  }
  if (output.has_value()) {
    io::save_text_file(*output, io::write_rrg(rrg, circuit.name));
    out << "wrote " << *output << "\n";
  }
  return 0;
}

/// One JSONL result line per batch job (strings go through the shared
/// json::escape). Numeric fields use %.10g: enough
/// digits that two runs of a deterministic batch diff clean.
/// One-word outcome for scripts: jq 'select(.status != "ok")' finds
/// everything that needs a human, whatever the failure flavour.
const char* batch_status(const svc::JobResult& result) {
  switch (result.state) {
    case svc::JobState::kDone:
      return result.degraded ? "degraded" : "ok";
    case svc::JobState::kFailed: return "failed";
    case svc::JobState::kRejected: return "rejected";
    case svc::JobState::kCancelled: return "cancelled";
    default: return "unknown";
  }
}

void print_batch_result(std::ostream& out, const svc::JobResult& result) {
  char buf[320];
  out << "{\"job\": " << result.id << ", \"name\": \""
      << json::escape(result.name) << "\", \"mode\": \""
      << svc::to_string(result.mode) << "\", \"state\": \""
      << svc::to_string(result.state) << "\", \"status\": \""
      << batch_status(result) << "\"";
  // The error field travels with every non-clean outcome: the failure
  // reason, the rejection reason, or the degradation reason.
  if (!result.error.empty()) {
    out << ", \"error\": \"" << json::escape(result.error) << "\"";
  }
  // Metrics are emitted only for completed jobs: a cancelled job's
  // zero-initialized xi fields would read as measured values. A
  // degraded job's metrics are real (heuristic-flow) numbers and stay.
  if (result.state == svc::JobState::kFailed ||
      result.state == svc::JobState::kRejected) {
    // no metrics
  } else if ((result.mode == svc::JobMode::kMinEffCyc ||
              result.mode == svc::JobMode::kPortfolio) &&
             result.state == svc::JobState::kDone) {
    const flow::CircuitResult& circuit = result.circuit;
    std::snprintf(buf, sizeof(buf),
                  ", \"xi_star\": %.10g, \"xi_nee\": %.10g, "
                  "\"xi_lp_min\": %.10g, \"xi_sim_min\": %.10g, "
                  "\"improve_percent\": %.10g, \"candidates\": %zu, "
                  "\"all_exact\": %s",
                  circuit.xi_star, circuit.xi_nee, circuit.xi_lp_min,
                  circuit.xi_sim_min, circuit.improve_percent,
                  circuit.candidates.size(),
                  circuit.all_exact ? "true" : "false");
    out << buf;
    // The portfolio's anytime leg: when the heuristic answer landed and
    // how good it was, next to the exact numbers it raced.
    if (result.mode == svc::JobMode::kPortfolio &&
        result.stats.anytime_ready) {
      std::snprintf(buf, sizeof(buf),
                    ", \"anytime_xi\": %.10g, \"anytime_s\": %.4f",
                    result.stats.anytime_xi, result.stats.anytime_seconds);
      out << buf;
    }
  } else if (result.state == svc::JobState::kDone) {
    std::snprintf(buf, sizeof(buf),
                  ", \"tau\": %.10g, \"theta_sim\": %.10g, \"xi_sim\": %.10g",
                  result.tau, result.theta_sim, result.xi_sim);
    out << buf;
  }
  const svc::JobStats& stats = result.stats;
  std::snprintf(buf, sizeof(buf),
                ", \"cache_hit\": %s, \"disk_cache_hit\": %s, "
                "\"retries\": %zu, \"stalled_workers\": %zu, "
                "\"candidates_walked\": %zu, "
                "\"sim_jobs\": %zu, \"unique_sims\": %zu, "
                "\"exact_thetas\": %zu, \"wall_s\": %.4f}",
                stats.job_cache_hit ? "true" : "false",
                stats.disk_cache_hit ? "true" : "false", stats.retries,
                stats.stalled_workers, stats.candidates_walked,
                stats.sim_jobs, stats.unique_simulations,
                stats.exact_thetas, stats.wall_seconds);
  out << buf << "\n";
}

/// The `{"trace_summary": true, ...}` JSONL record: per-phase latency
/// aggregates from the obs histograms plus the named counters and the
/// ring-wrap drop count. The batch summary stream carries it whenever
/// tracing is armed. The body is obs::summary_json(), shared with the
/// periodic stats snapshot so `elrr top` and the batch stream agree.
std::string trace_summary_record() {
  return "{\"trace_summary\": true, " + obs::summary_json() + "}\n";
}

/// Nonzero ring-wrap drops mean the summary under-counts: say so once,
/// on stderr, with the knob that fixes it. Shared by `elrr batch` and
/// `elrr trace-summary`.
void warn_dropped_spans(std::ostream& err, std::uint64_t dropped,
                        std::size_t capacity) {
  if (dropped == 0) return;
  err << "warning: " << dropped << " span(s) dropped (per-thread ring "
      << "capacity " << capacity
      << "); totals under-count -- raise ELRR_OBS_BUF\n";
}

int cmd_batch(Args& args, std::ostream& out, std::ostream& err) {
  // Manifest path: positional (elrr batch jobs.jsonl) or --manifest.
  std::string manifest_path = args.get_or("manifest", "");
  if (manifest_path.empty() && !args.positional().empty()) {
    manifest_path = args.positional().front();
  }
  ELRR_REQUIRE(!manifest_path.empty(),
               "usage: elrr batch <manifest.jsonl> [--jobs N] [--threads T] "
               "[--output <file.jsonl>]");
  // Knob validation mirrors FlowOptions::from_env: malformed or
  // out-of-range values throw instead of being silently coerced (the
  // same 4096 caps as ELRR_SIM_THREADS).
  flow::FlowOptions base = flow::FlowOptions::from_env();
  const std::uint64_t jobs = args.get_u64("jobs", 1);
  ELRR_REQUIRE(jobs >= 1 && jobs <= 4096, "--jobs must be in [1, 4096], got ",
               jobs);
  const std::uint64_t threads =
      args.get_u64("threads", static_cast<std::uint64_t>(base.sim_threads));
  ELRR_REQUIRE(threads <= 4096, "--threads must be in [0, 4096], got ",
               threads);
  const auto output = args.get("output");
  const bool resume = args.get_flag("resume");
  const auto trace = args.get("trace");
  args.finish();
  if (trace.has_value()) {
    ELRR_REQUIRE(!trace->empty(), "--trace needs a non-empty path");
    // --trace is ELRR_TRACE spelled as a flag: arm the obs layer here.
    obs::configure(*trace, obs::ring_capacity());
  }

  const std::vector<svc::ManifestEntry> entries =
      svc::parse_manifest(io::load_text_file(manifest_path));
  base.sim_threads = static_cast<std::size_t>(threads);

  // from_env layers the robustness knobs (ELRR_JOB_DEADLINE,
  // ELRR_RETRY_MAX, ELRR_DISK_CACHE_DIR, ELRR_DISK_CACHE_CAP) on top of
  // the fleet knobs; --threads then overrides the fleet pool size.
  svc::SchedulerOptions sopt = svc::SchedulerOptions::from_env();
  // --resume is the crash-recovery path: re-run the same manifest after
  // an interrupt and let the persistent cache serve every job the dead
  // run completed -- bit-identically, per the disk-cache contract -- so
  // only the unfinished tail costs anything. Without a disk cache there
  // is nothing to resume *from*, which is a usage error, not a silent
  // full re-run.
  ELRR_REQUIRE(!resume || !sopt.disk_cache_dir.empty(),
               "--resume requires ELRR_DISK_CACHE_DIR (the persistent "
               "cache is what a resumed batch restores from)");
  sopt.workers = static_cast<std::size_t>(jobs);
  sopt.sim_threads = base.sim_threads;
  // Submit the whole manifest before dispatch starts: the pick order --
  // and with it the priority/fair-share policy -- then depends only on
  // the manifest, not on submission timing.
  sopt.start_paused = true;
  svc::Scheduler scheduler(sopt);
  // ELRR_PORTFOLIO=1 flips the batch-wide *default* mode to the anytime
  // portfolio; lines with an explicit "mode" keep it.
  const svc::JobMode default_mode = env::boolean("ELRR_PORTFOLIO", false)
                                        ? svc::JobMode::kPortfolio
                                        : svc::JobMode::kMinEffCyc;
  for (const svc::ManifestEntry& entry : entries) {
    scheduler.submit(svc::materialize(entry, base, default_mode));
  }
  err << "batch: " << entries.size() << " jobs from " << manifest_path
      << ", " << jobs << " worker(s), fleet threads "
      << (threads == 0 ? std::string("auto") : std::to_string(threads))
      << "\n";
  scheduler.resume();
  const std::vector<svc::JobResult> results = scheduler.wait_all();

  std::ostringstream lines;
  // Exit-code policy: anything that did not produce a result the caller
  // asked for -- a failed job *or* an admission rejection -- fails the
  // batch. Degraded jobs completed (flagged) and do not.
  std::size_t failed = 0;
  std::size_t resumed = 0;
  for (const svc::JobResult& result : results) {
    print_batch_result(lines, result);
    failed += result.state == svc::JobState::kFailed ||
                      result.state == svc::JobState::kRejected
                  ? 1
                  : 0;
    resumed += result.stats.disk_cache_hit ? 1 : 0;
  }
  // Trailing summary record keeps the stream pure JSONL while still
  // reporting batch-wide stats. Every layer's counters ride one nested
  // "stats" object -- scheduler, shared fleet cache, disk
  // cache (when enabled) and the MILP session stats summed over the
  // jobs. The object itself is Scheduler::stats_json(), shared with the
  // periodic stats snapshot; after wait_all() every job is terminal, so
  // its MILP aggregation equals the old sum over `results`.
  const svc::SchedulerStats stats = scheduler.stats();
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "{\"summary\": true, \"jobs\": %zu, \"done\": %zu, "
                "\"failed\": %zu, \"rejected\": %zu",
                stats.submitted, stats.completed, stats.failed,
                stats.rejected);
  lines << buf;
  // The resumed count only exists on --resume runs: it answers "how much
  // of the dead batch survived", a question a fresh batch never asks.
  if (resume) lines << ", \"resumed\": " << resumed;
  lines << ", \"stats\": " << scheduler.stats_json() << "}\n";
  // The machine-readable twin of `elrr trace-summary`: per-phase
  // latency aggregates from the obs histograms, in the same stream.
  if (obs::armed()) lines << trace_summary_record();

  if (output.has_value()) {
    io::save_text_file(*output, lines.str());
    err << "batch: wrote " << results.size() << " result(s) + summary to "
        << *output << "\n";
  } else {
    out << lines.str();
  }
  if (resume) {
    err << "batch: resumed " << resumed << "/" << results.size()
        << " job(s) from the persistent cache\n";
  }
  if (obs::armed() && !obs::trace_path().empty()) {
    obs::write_trace(obs::trace_path());
    err << "batch: wrote trace to "
        << obs::expand_trace_path(obs::trace_path()) << "\n";
  }
  if (obs::armed()) {
    warn_dropped_spans(err, obs::dropped_spans(), obs::ring_capacity());
  }
  return failed > 0 ? 1 : 0;
}

/// Parses the JSON file at `path`; a parse error names the file.
json::Value read_json_file(const std::string& path) {
  const std::string text = io::load_text_file(path);
  try {
    return json::parse(text);
  } catch (const InvalidInputError& error) {
    throw InvalidInputError(detail::concat(path, ": ", error.what()));
  }
}

/// One row of a per-phase latency table (`trace-summary`, `top`).
struct PhaseRow {
  std::string name;
  std::size_t count = 0;
  double total_s = 0.0, p50_s = 0.0, p95_s = 0.0, p99_s = 0.0;
};

/// The phase table `trace-summary` and `top` both print, every line
/// prefixed by `indent`.
void print_phase_table(std::ostream& out, const std::vector<PhaseRow>& rows,
                       const char* indent) {
  out << indent
      << "phase                    count      total_s       p50_s       "
         "p95_s       p99_s\n";
  char line[200];
  for (const PhaseRow& r : rows) {
    std::snprintf(line, sizeof(line),
                  "%s%-22s %8zu %12.6f %11.6f %11.6f %11.6f\n", indent,
                  r.name.c_str(), r.count, r.total_s, r.p50_s, r.p95_s,
                  r.p99_s);
    out << line;
  }
}

/// `elrr trace-summary <trace.json>`: aggregate per-phase latency table
/// from a Chrome trace written by --trace / ELRR_TRACE. Percentiles
/// here are *exact* order statistics over the recorded span durations
/// (the batch-stream trace_summary record interpolates from log2
/// histogram buckets; the two agree to within one bucket bracket).
int cmd_trace_summary(Args& args, std::ostream& out, std::ostream& err) {
  std::string path = args.get_or("input", "");
  if (path.empty() && !args.positional().empty()) {
    path = args.positional().front();
  }
  ELRR_REQUIRE(!path.empty(),
               "usage: elrr trace-summary <trace.json> [--json]");
  const bool json = args.get_flag("json");
  args.finish();
  const json::Value trace = read_json_file(path);

  // Complete-span events ("ph": "X") carry a name and a duration in us.
  std::map<std::string, std::vector<double>> durations_us;
  const json::Value* events = trace.find("traceEvents");
  if (events != nullptr && events->type() == json::Value::Type::kArray) {
    for (const json::Value& event : events->items()) {
      const json::Value* ph = event.find("ph");
      const json::Value* name = event.find("name");
      const std::optional<double> dur = event.number_at("dur");
      if (ph == nullptr || !ph->is_string() || ph->as_string() != "X" ||
          name == nullptr || !name->is_string() || !dur.has_value()) {
        continue;
      }
      durations_us[name->as_string()].push_back(*dur);
    }
  }
  ELRR_REQUIRE(!durations_us.empty(), "no complete-span events in ", path,
               " (expected a trace written by `elrr batch --trace` or "
               "ELRR_TRACE)");

  // The exporter records its ring health in otherData; surface it here
  // so a wrapped ring (under-counted totals) is visible from the
  // summary alone. Missing keys (older traces) render as absent.
  const std::optional<double> dropped =
      trace.number_at("otherData.dropped_spans");
  const std::optional<double> capacity =
      trace.number_at("otherData.ring_capacity");
  // Every other otherData member is a named obs counter (the certificate
  // counters among them), rendered in name order whatever the layout.
  std::map<std::string, std::uint64_t> counters;
  if (const json::Value* other = trace.find("otherData");
      other != nullptr && other->is_object()) {
    for (const json::Value::Member& member : other->members()) {
      if (member.key == "dropped_spans" || member.key == "ring_capacity" ||
          !member.value.is_number()) {
        continue;
      }
      counters[member.key] =
          static_cast<std::uint64_t>(member.value.as_number());
    }
  }

  // One row per phase, in name order; both output formats only render
  // these.
  std::vector<PhaseRow> rows;
  for (auto& [name, durs] : durations_us) {
    std::sort(durs.begin(), durs.end());
    double total = 0.0;
    for (const double d : durs) total += d;
    rows.push_back({name, durs.size(), total * 1e-6,
                    sorted_percentile(durs, 0.50) * 1e-6,
                    sorted_percentile(durs, 0.95) * 1e-6,
                    sorted_percentile(durs, 0.99) * 1e-6});
  }

  if (json) {
    // Machine-readable twin of the table: one top-level object,
    // per-phase rows in an array, then ring health and the counters.
    // Exit code unchanged.
    char buf[256];
    out << "{\n  \"input\": \"" << json::escape(path)
        << "\",\n  \"phases\": [\n";
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const PhaseRow& r = rows[i];
      std::snprintf(buf, sizeof(buf),
                    "    {\"name\": \"%s\", \"count\": %zu, "
                    "\"total_s\": %.6f, \"p50_s\": %.9f, \"p95_s\": %.9f, "
                    "\"p99_s\": %.9f}%s\n",
                    json::escape(r.name).c_str(), r.count, r.total_s, r.p50_s,
                    r.p95_s, r.p99_s, i + 1 < rows.size() ? "," : "");
      out << buf;
    }
    out << "  ]";
    if (dropped.has_value()) {
      out << ",\n  \"dropped_spans\": "
          << static_cast<std::uint64_t>(*dropped);
    }
    if (capacity.has_value()) {
      out << ",\n  \"ring_capacity\": "
          << static_cast<std::uint64_t>(*capacity);
    }
    out << ",\n  \"counters\": {";
    const char* sep = "";
    for (const auto& [name, value] : counters) {
      out << sep << "\"" << json::escape(name) << "\": " << value;
      sep = ", ";
    }
    out << "}\n}\n";
  } else {
    print_phase_table(out, rows, "");
    if (dropped.has_value() && capacity.has_value()) {
      out << "spans dropped: " << static_cast<std::uint64_t>(*dropped)
          << " (per-thread ring capacity "
          << static_cast<std::uint64_t>(*capacity) << ")\n";
    }
    if (!counters.empty()) {
      out << "counters:\n";
      for (const auto& [name, value] : counters) {
        out << "  " << name << " " << value << "\n";
      }
    }
  }
  if (dropped.has_value() && capacity.has_value()) {
    warn_dropped_spans(err, static_cast<std::uint64_t>(*dropped),
                       static_cast<std::size_t>(*capacity));
  }
  return 0;
}

/// `elrr postmortem <file>`: render a flight-recorder crash dump (the
/// line-oriented `ELRR-POSTMORTEM 1` format written by the fatal-signal
/// handlers; see src/obs/recorder.hpp) as a human postmortem report:
/// reason and pid, ring health, the identities that were in flight when
/// the process died, the last recorded events with timestamps rebased
/// to the first shown event, and the counter/histogram registry mirror.
int cmd_postmortem(Args& args, std::ostream& out) {
  std::string path = args.get_or("input", "");
  if (path.empty() && !args.positional().empty()) {
    path = args.positional().front();
  }
  ELRR_REQUIRE(!path.empty(), "usage: elrr postmortem <postmortem.txt>");
  args.finish();
  const std::string text = io::load_text_file(path);

  // One space-separated `key=` field out of a dump line; the writer
  // (LineBuf in the signal handler) never emits spaces inside a value.
  const auto field = [](const std::string& line,
                        const char* tag) -> std::string {
    const std::size_t at = line.find(tag);
    if (at == std::string::npos) return "";
    const std::size_t from = at + std::strlen(tag);
    return line.substr(from, line.find(' ', from) - from);
  };
  const auto num = [](const std::string& s) -> long long {
    return s.empty() ? 0 : std::strtoll(s.c_str(), nullptr, 10);
  };

  struct Event {
    long long seq = 0, t_ns = 0, tid = 0, a = 0, b = 0;
    std::string name;
  };
  std::string reason, pid;
  long long recorded = 0, dropped = 0;
  std::vector<std::string> inflight;
  std::vector<Event> events;
  std::vector<std::string> counters, hists;
  bool header = false, complete = false;
  std::istringstream stream(text);
  std::string line;
  while (std::getline(stream, line)) {
    if (line == "ELRR-POSTMORTEM 1") {
      header = true;
    } else if (line.rfind("reason: ", 0) == 0) {
      reason = line.substr(8);
    } else if (line.rfind("pid: ", 0) == 0) {
      pid = line.substr(5);
    } else if (line.rfind("events_recorded: ", 0) == 0) {
      recorded = num(line.substr(17));
    } else if (line.rfind("events_dropped: ", 0) == 0) {
      dropped = num(line.substr(16));
    } else if (line.rfind("inflight: ", 0) == 0) {
      inflight.push_back(line.substr(10));
    } else if (line.rfind("event: ", 0) == 0) {
      Event ev;
      ev.seq = num(field(line, "seq="));
      ev.t_ns = num(field(line, "t_ns="));
      ev.tid = num(field(line, "tid="));
      ev.name = field(line, "name=");
      ev.a = num(field(line, "a="));
      ev.b = num(field(line, "b="));
      events.push_back(std::move(ev));
    } else if (line.rfind("counter: ", 0) == 0) {
      counters.push_back(line.substr(9));
    } else if (line.rfind("hist: ", 0) == 0) {
      hists.push_back(line.substr(6));
    } else if (line == "end") {
      complete = true;
    }
  }
  ELRR_REQUIRE(header, path,
               " is not a flight-recorder postmortem (missing "
               "'ELRR-POSTMORTEM 1' header; expected a file written to "
               "ELRR_POSTMORTEM_DIR by a crashing elrr process)");

  out << "postmortem: " << path << "\n";
  out << "  reason: " << (reason.empty() ? "(unknown)" : reason)
      << "    pid: " << (pid.empty() ? "?" : pid) << "\n";
  out << "  events: " << recorded << " recorded, " << dropped
      << " dropped" << (dropped > 0 ? " (ring wrapped; oldest lost)" : "")
      << "\n";
  if (!complete) {
    out << "  WARNING: no 'end' marker -- dump is truncated\n";
  }
  if (!inflight.empty()) {
    out << "  in flight when the process died:\n";
    for (const std::string& row : inflight) out << "    " << row << "\n";
  } else {
    out << "  in flight when the process died: (nothing recorded)\n";
  }
  if (!events.empty()) {
    out << "  last " << events.size()
        << " event(s), oldest first (t rebased to the first shown):\n";
    out << "        seq      t(+ms)   tid  event                   "
           "a            b\n";
    const long long t0 = events.front().t_ns;
    char row[160];
    for (const Event& ev : events) {
      std::snprintf(row, sizeof(row),
                    "    %7lld %11.3f %5lld  %-22s %-12lld %lld\n", ev.seq,
                    static_cast<double>(ev.t_ns - t0) * 1e-6, ev.tid,
                    ev.name.c_str(), ev.a, ev.b);
      out << row;
    }
  }
  if (!counters.empty()) {
    out << "  counters:\n";
    for (const std::string& row : counters) out << "    " << row << "\n";
  }
  if (!hists.empty()) {
    out << "  phase latencies (log2-bucket upper bounds, ns):\n";
    for (const std::string& row : hists) out << "    " << row << "\n";
  }
  return 0;
}

/// `elrr top <snapshot.json>`: a one-shot text dashboard over the
/// periodic stats snapshot published by ELRR_STATS_SNAPSHOT (see
/// svc::Scheduler::write_stats_snapshot): queue depths, fleet
/// utilization, cache hit rates and -- when tracing is armed -- the
/// per-phase latency percentiles. Pair with watch(1) for a live view:
/// `watch -n1 elrr top /tmp/elrr-stats.json`.
int cmd_top(Args& args, std::ostream& out) {
  std::string path = args.get_or("input", "");
  if (path.empty() && !args.positional().empty()) {
    path = args.positional().front();
  }
  ELRR_REQUIRE(!path.empty(), "usage: elrr top <snapshot.json>");
  args.finish();
  const json::Value snapshot = read_json_file(path);
  // The snapshot's gauges sit at its root, the scheduler's stats under
  // "stats" (see svc::Scheduler::write_stats_snapshot).
  const std::optional<double> uptime = snapshot.number_at("uptime_s");
  ELRR_REQUIRE(uptime.has_value(), path,
               " is not a stats snapshot (expected the JSON published "
               "by ELRR_STATS_SNAPSHOT=path:period_ms)");
  const auto n = [&snapshot](const char* key) -> long long {
    return static_cast<long long>(snapshot.number_at(key).value_or(0.0));
  };
  char row[256];
  std::snprintf(row, sizeof(row),
                "elrr top -- %s\nuptime %.1fs   queued %lld   running %lld"
                "   scheduler workers %lld\n",
                path.c_str(), *uptime, n("queued"), n("running"),
                n("workers"));
  out << row;
  const long long pool = n("fleet.pool");
  const long long busy = n("fleet.busy");
  std::snprintf(row, sizeof(row),
                "fleet: pool %lld, busy %lld (%.0f%%)\n", pool, busy,
                pool > 0 ? 100.0 * static_cast<double>(busy) /
                               static_cast<double>(pool)
                         : 0.0);
  out << row;
  std::snprintf(row, sizeof(row),
                "jobs:  submitted %lld, completed %lld, failed %lld, "
                "rejected %lld, retries %lld\n",
                n("stats.scheduler.submitted"), n("stats.scheduler.completed"),
                n("stats.scheduler.failed"), n("stats.scheduler.rejected"),
                n("stats.scheduler.retries"));
  out << row;
  const long long hits = n("stats.fleet_cache.hits");
  const long long misses = n("stats.fleet_cache.misses");
  std::snprintf(row, sizeof(row),
                "cache: fleet %.1f%% hit (%lld/%lld), job hits %lld",
                hits + misses > 0 ? 100.0 * static_cast<double>(hits) /
                                        static_cast<double>(hits + misses)
                                  : 0.0,
                hits, hits + misses, n("stats.scheduler.job_cache_hits"));
  out << row;
  if (snapshot.number_at("stats.disk_cache.hits").has_value()) {
    const long long dh = n("stats.disk_cache.hits");
    const long long dm = n("stats.disk_cache.misses");
    std::snprintf(row, sizeof(row), ", disk %.1f%% hit (%lld/%lld)",
                  dh + dm > 0 ? 100.0 * static_cast<double>(dh) /
                                    static_cast<double>(dh + dm)
                              : 0.0,
                  dh, dh + dm);
    out << row;
  }
  out << "\n";
  std::snprintf(row, sizeof(row), "milp:  solves %lld, %.2fs total\n",
                n("stats.milp.solves"),
                snapshot.number_at("stats.milp.solve_seconds").value_or(0.0));
  out << row;

  // Per-phase percentiles from the embedded obs summary.
  std::vector<PhaseRow> phases;
  const json::Value* rows = snapshot.find_path("obs.phases");
  if (rows != nullptr && rows->type() == json::Value::Type::kArray) {
    for (const json::Value& row : rows->items()) {
      const json::Value* name = row.find("name");
      if (name == nullptr || !name->is_string()) continue;
      const auto num = [&row](const char* key) {
        return row.number_at(key).value_or(0.0);
      };
      phases.push_back({name->as_string(),
                        static_cast<std::size_t>(num("count")),
                        num("total_s"), num("p50_s"), num("p95_s"),
                        num("p99_s")});
    }
  }
  if (!phases.empty()) {
    out << "phases:\n";
    print_phase_table(out, phases, "  ");
  }
  return 0;
}

}  // namespace

int run(int argc, const char* const* argv, std::ostream& out,
        std::ostream& err) {
  try {
    // Arm fail-point injection, tracing and the flight recorder before
    // any command logic: a malformed ELRR_FAILPOINTS / ELRR_TRACE /
    // ELRR_OBS_BUF / ELRR_POSTMORTEM_DIR / ELRR_POSTMORTEM_BUF throws
    // here, naming the variable, before any work starts.
    failpoint::configure_from_env();
    obs::configure_from_env();
    obs::rec::configure_from_env();
    Args args(argc, argv);
    const std::string& cmd = args.command();
    if (cmd.empty() || cmd == "help") {
      out << kUsage;
      return cmd.empty() ? 2 : 0;
    }
    if (cmd == "analyze") return cmd_analyze(args, out);
    if (cmd == "optimize") return cmd_optimize(args, out);
    if (cmd == "flow") return cmd_flow(args, out);
    if (cmd == "simulate") return cmd_simulate(args, out);
    if (cmd == "generate") return cmd_generate(args, out);
    if (cmd == "export") return cmd_export(args, out);
    if (cmd == "size-fifos") return cmd_size_fifos(args, out);
    if (cmd == "min-area") return cmd_min_area(args, out);
    if (cmd == "from-bench") return cmd_from_bench(args, out);
    if (cmd == "batch") return cmd_batch(args, out, err);
    if (cmd == "trace-summary") return cmd_trace_summary(args, out, err);
    if (cmd == "postmortem") return cmd_postmortem(args, out);
    if (cmd == "top") return cmd_top(args, out);
    err << "elrr: unknown command '" << cmd << "' (try `elrr help`)\n";
    return 2;
  } catch (const Error& e) {
    err << "elrr: " << e.what() << "\n";
    return 1;
  } catch (const std::exception& e) {
    err << "elrr: internal error: " << e.what() << "\n";
    return 3;
  }
}

}  // namespace elrr::cli
