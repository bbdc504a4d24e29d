/// \file bench_micro.cpp
/// google-benchmark microbenchmarks of the substrates: simplex/MILP
/// solves (random LPs, the golden walk-step MILPs, warm re-solve
/// sweeps), minimum cycle ratio, SCC, token-level simulation, Markov
/// analysis, the full MILP primitives on generated circuits, and the
/// per-site cost of the obs layer (`--benchmark_filter='Obs|Rec'`).

#include <benchmark/benchmark.h>

#include <cstdint>
#include <filesystem>

#include "bench89/generator.hpp"
#include "core/figures.hpp"
#include "core/opt.hpp"
#include "core/tgmg.hpp"
#include "graph/cycle_ratio.hpp"
#include "graph/howard.hpp"
#include "graph/karp.hpp"
#include "graph/scc.hpp"
#include "heur/heuristic.hpp"
#include "io/rrg_format.hpp"
#include "lp/milp.hpp"
#include "lp/mps.hpp"
#include "lp/simplex.hpp"
#include "obs/recorder.hpp"
#include "obs/trace.hpp"
#include "sim/choosers.hpp"
#include "sim/flat_kernel.hpp"
#include "sim/markov.hpp"
#include "sim/simulator.hpp"
#include "support/rng.hpp"

namespace {

using namespace elrr;

lp::Model random_lp(int cols, int rows, std::uint64_t seed) {
  Rng rng(seed);
  lp::Model model;
  for (int j = 0; j < cols; ++j) {
    model.add_col(0.0, rng.uniform(1.0, 10.0), rng.uniform(-1.0, 1.0));
  }
  for (int i = 0; i < rows; ++i) {
    std::vector<lp::ColEntry> entries;
    for (int j = 0; j < cols; ++j) {
      if (rng.bernoulli(0.3)) entries.push_back({j, rng.uniform(-2.0, 2.0)});
    }
    model.add_row(-lp::kInf, rng.uniform(1.0, 8.0), std::move(entries));
  }
  return model;
}

void BM_SimplexSolve(benchmark::State& state) {
  const auto model = random_lp(static_cast<int>(state.range(0)),
                               static_cast<int>(state.range(0)) * 2, 42);
  for (auto _ : state) {
    lp::SimplexSolver solver(model);
    benchmark::DoNotOptimize(solver.solve().objective);
  }
}
BENCHMARK(BM_SimplexSolve)->Arg(20)->Arg(60)->Arg(150);

void BM_MilpKnapsack(benchmark::State& state) {
  Rng rng(7);
  lp::Model model;
  model.set_sense(lp::Sense::kMaximize);
  std::vector<lp::ColEntry> weights;
  for (int j = 0; j < state.range(0); ++j) {
    const int c = model.add_col(0, 1, rng.uniform(1.0, 10.0), true);
    weights.push_back({c, rng.uniform(1.0, 10.0)});
  }
  model.add_row(-lp::kInf, static_cast<double>(state.range(0)) * 2.0,
                weights);
  for (auto _ : state) {
    benchmark::DoNotOptimize(lp::solve_milp(model).objective);
  }
}
BENCHMARK(BM_MilpKnapsack)->Arg(10)->Arg(16);

// solve_milp on the golden walk-step dumps of tests/lp/golden (0: s208 at
// x = 1, 1: s420 at x = 1.25): branch & bound over warm node re-solves,
// the path that sets perfbench's exact_walk. The counters are per solve
// and pinned by Mps.GoldenBranchAndBoundTreeIsPinned.
void BM_MilpGolden(benchmark::State& state) {
  const char* files[] = {"s208_min_cyc_x1.mps", "s420_min_cyc_x1.25.mps"};
  const lp::Model model = lp::from_mps(io::load_text_file(
      std::string(ELRR_LP_GOLDEN_DIR) + "/" + files[state.range(0)]));
  lp::MilpOptions options;
  options.time_limit_s = 60.0;
  lp::MilpResult result;
  for (auto _ : state) {
    result = lp::solve_milp(model, options);
    benchmark::DoNotOptimize(result.objective);
  }
  state.counters["nodes"] = static_cast<double>(result.nodes);
  state.counters["lp_iters"] = static_cast<double>(result.lp_iterations);
}
BENCHMARK(BM_MilpGolden)->Arg(0)->Arg(1);

// Warm resolve() of the s526 MIN_CYC(x) root relaxation (139 rows x 111
// columns; the engine ignores integrality) across eight adjacent x, the
// re-targeting a walk's session does at each step's root. One iteration
// is one sweep: restore the x = 1 optimum, then re-target the
// x-dependent rows and resolve(), eight times.
void BM_SimplexResolveSweep(benchmark::State& state) {
  const Rrg rrg = bench89::make_table2_rrg(bench89::spec_by_name("s526"), 1);
  std::vector<lp::Model> steps;
  for (const double x : {1.0, 1.03, 1.06, 1.1, 1.14, 1.19, 1.25, 1.31}) {
    steps.push_back(build_min_cyc_model(rrg, x));
  }
  std::vector<int> moving;  // rows whose bounds differ between steps
  for (int i = 0; i < steps[0].num_rows(); ++i) {
    for (const lp::Model& step : steps) {
      if (step.row(i).lo != steps[0].row(i).lo ||
          step.row(i).hi != steps[0].row(i).hi) {
        moving.push_back(i);
        break;
      }
    }
  }
  lp::SimplexSolver solver(steps[0]);
  solver.solve();
  const lp::SimplexSolver::State root = solver.save_state();
  const std::int64_t base = solver.total_iterations();
  for (auto _ : state) {
    solver.restore_state(root);
    for (const lp::Model& step : steps) {
      for (const int i : moving) {
        solver.set_row_bounds(i, step.row(i).lo, step.row(i).hi);
      }
      benchmark::DoNotOptimize(solver.resolve().objective);
    }
  }
  state.counters["lp_iters"] = benchmark::Counter(
      static_cast<double>(solver.total_iterations() - base),
      benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_SimplexResolveSweep);

void BM_MinCycleRatio(benchmark::State& state) {
  Rng rng(11);
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  graph::Digraph g(n);
  std::vector<std::int64_t> cost, time;
  for (std::size_t i = 0; i < n; ++i) {
    g.add_edge(static_cast<graph::NodeId>(i),
               static_cast<graph::NodeId>((i + 1) % n));
    cost.push_back(rng.uniform_int(0, 3));
    time.push_back(rng.uniform_int(1, 3));
  }
  for (std::size_t i = 0; i < n; ++i) {
    g.add_edge(static_cast<graph::NodeId>(rng.uniform_int(0, static_cast<std::int64_t>(n) - 1)),
               static_cast<graph::NodeId>(rng.uniform_int(0, static_cast<std::int64_t>(n) - 1)));
    cost.push_back(rng.uniform_int(1, 3));
    time.push_back(rng.uniform_int(1, 3));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(graph::min_cycle_ratio(g, cost, time).ratio);
  }
}
BENCHMARK(BM_MinCycleRatio)->Arg(50)->Arg(200);

void BM_Scc(benchmark::State& state) {
  Rng rng(13);
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  graph::Digraph g(n);
  for (std::size_t i = 0; i < 4 * n; ++i) {
    g.add_edge(static_cast<graph::NodeId>(rng.uniform_int(0, static_cast<std::int64_t>(n) - 1)),
               static_cast<graph::NodeId>(rng.uniform_int(0, static_cast<std::int64_t>(n) - 1)));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        graph::strongly_connected_components(g).num_components);
  }
}
BENCHMARK(BM_Scc)->Arg(1000)->Arg(10000);

void BM_TokenSimulation(benchmark::State& state) {
  const Rrg rrg = bench89::make_table2_rrg(bench89::spec_by_name("s526"), 1);
  sim::SimOptions options;
  options.warmup_cycles = 100;
  options.measure_cycles = static_cast<std::size_t>(state.range(0));
  options.runs = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim::simulate_throughput(rrg, options).theta);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_TokenSimulation)->Arg(1000)->Arg(10000);

// The standard multi-run workload (every table/figure flow simulates each
// candidate with >= 2 replications): the batched stepper interleaves the
// runs through one pass, so cycles/sec here is the fast path's headline
// number. items == total simulated cycles across runs.
void BM_TokenSimulationMultiRun(benchmark::State& state) {
  const Rrg rrg = bench89::make_table2_rrg(bench89::spec_by_name("s526"), 1);
  sim::SimOptions options;
  options.warmup_cycles = 100;
  options.measure_cycles = static_cast<std::size_t>(state.range(0));
  options.runs = 4;
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim::simulate_throughput(rrg, options).theta);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 4 *
                          state.range(0));
}
BENCHMARK(BM_TokenSimulationMultiRun)->Arg(10000);

void BM_MarkovFigure1b(benchmark::State& state) {
  const Rrg rrg = figures::figure1b(0.5, true);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim::exact_throughput(rrg).theta);
  }
}
BENCHMARK(BM_MarkovFigure1b);

/// The throughput benches' circuits: 0 = s526 (71 edges, 7 early
/// nodes), 1 = a heur_walk-shaped circuit (70 edges, 4 early nodes),
/// 2 = that circuit with every node simple (the late-evaluation path).
Rrg throughput_circuit(std::int64_t which) {
  if (which == 0) {
    return bench89::make_table2_rrg(bench89::spec_by_name("s526"), 1);
  }
  const Rrg rrg = bench89::make_table2_rrg({"h", 50, 4, 70}, 2009);
  return which == 1 ? rrg : as_all_simple(rrg);
}

// Theta_lp as production computes it: policy iteration, or the cycle
// ratio for late evaluation (the name predates the LP's retirement).
void BM_ThroughputLp(benchmark::State& state) {
  const Rrg rrg = throughput_circuit(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(throughput_upper_bound(rrg));
  }
}
BENCHMARK(BM_ThroughputLp)->Arg(0)->Arg(1)->Arg(2);

// The same bound by the dense LP (4), the test oracle.
void BM_ThroughputLpOracle(benchmark::State& state) {
  const Rrg rrg = throughput_circuit(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(tgmg_throughput_bound(refined_tgmg(rrg)).theta);
  }
}
BENCHMARK(BM_ThroughputLpOracle)->Arg(0)->Arg(1)->Arg(2);

void BM_MaxThr(benchmark::State& state) {
  const Rrg rrg = bench89::make_table2_rrg(bench89::spec_by_name("s27"), 1);
  OptOptions options;
  options.milp.time_limit_s = 30.0;
  const double tau = rrg.max_delay();
  for (auto _ : state) {
    benchmark::DoNotOptimize(max_thr(rrg, tau, options).objective);
  }
}
BENCHMARK(BM_MaxThr);

void BM_McrLawler(benchmark::State& state) {
  const Rrg rrg = bench89::make_table2_rrg(
      bench89::spec_by_name(state.range(0) == 0 ? "s526" : "s1488"), 1);
  std::vector<std::int64_t> cost, time;
  for (EdgeId e = 0; e < rrg.num_edges(); ++e) {
    cost.push_back(rrg.tokens(e));
    time.push_back(rrg.buffers(e) + 1);  // avoid zero-time cycles
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        graph::min_cycle_ratio(rrg.graph(), cost, time).ratio);
  }
}
BENCHMARK(BM_McrLawler)->Arg(0)->Arg(1);

void BM_McrHoward(benchmark::State& state) {
  const Rrg rrg = bench89::make_table2_rrg(
      bench89::spec_by_name(state.range(0) == 0 ? "s526" : "s1488"), 1);
  std::vector<std::int64_t> cost, time;
  for (EdgeId e = 0; e < rrg.num_edges(); ++e) {
    cost.push_back(rrg.tokens(e));
    time.push_back(rrg.buffers(e) + 1);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        graph::howard_min_cycle_ratio(rrg.graph(), cost, time).ratio);
  }
}
BENCHMARK(BM_McrHoward)->Arg(0)->Arg(1);

void BM_MmcKarp(benchmark::State& state) {
  const Rrg rrg = bench89::make_table2_rrg(
      bench89::spec_by_name(state.range(0) == 0 ? "s526" : "s1488"), 1);
  std::vector<std::int64_t> cost;
  for (EdgeId e = 0; e < rrg.num_edges(); ++e) {
    cost.push_back(rrg.tokens(e));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        graph::karp_min_mean_cycle(rrg.graph(), cost).mean);
  }
}
BENCHMARK(BM_MmcKarp)->Arg(0)->Arg(1);

void BM_HeuristicWalk(benchmark::State& state) {
  const Rrg rrg = bench89::make_table2_rrg(bench89::spec_by_name("s526"), 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(heur_eff_cyc(rrg).best().xi_lp);
  }
}
BENCHMARK(BM_HeuristicWalk);

void BM_RrgFormatRoundTrip(benchmark::State& state) {
  const Rrg rrg = bench89::make_table2_rrg(bench89::spec_by_name("s1488"), 1);
  const std::string text = io::write_rrg(rrg, "s1488");
  for (auto _ : state) {
    benchmark::DoNotOptimize(io::read_rrg(text).rrg.num_edges());
  }
}
BENCHMARK(BM_RrgFormatRoundTrip);

// One solo kernel step on s526 with a fifth of the nodes telescopic (fast
// with probability 0.8, two extra cycles when slow), which stresses the
// busy machinery: SoA state, bit-ring channels, table choosers inlined
// through the step template.
void BM_TelescopicFlatKernelStep(benchmark::State& state) {
  Rrg rrg = bench89::make_table2_rrg(bench89::spec_by_name("s526"), 1);
  for (NodeId n = 0; n < rrg.num_nodes(); n += 5) {
    rrg.set_telescopic(n, 0.8, 2);
  }
  const sim::FlatKernel kernel(rrg);
  const sim::GuardTable guards(rrg);
  const sim::LatencyTable latencies(rrg);
  Rng master(3);
  std::vector<Rng> streams;
  for (std::size_t n = 0; n < rrg.num_nodes(); ++n) {
    streams.push_back(master.split());
  }
  const sim::TableGuardChooser guard{&guards, streams.data()};
  const sim::TableLatencyChooser latency{&latencies, streams.data()};
  sim::FlatState st = kernel.initial_state();
  for (auto _ : state) {
    benchmark::DoNotOptimize(kernel.step(st, guard, latency));
  }
}
BENCHMARK(BM_TelescopicFlatKernelStep);

// Multi-run driver scaling: same total cycles, split across workers.
void BM_TokenSimulationThreads(benchmark::State& state) {
  const Rrg rrg = bench89::make_table2_rrg(bench89::spec_by_name("s526"), 1);
  sim::SimOptions options;
  options.warmup_cycles = 100;
  options.measure_cycles = 5000;
  options.runs = 4;
  options.threads = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim::simulate_throughput(rrg, options).theta);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(options.runs) * 5000);
}
BENCHMARK(BM_TokenSimulationThreads)->Arg(1)->Arg(2)->Arg(4);

// Per-site cost of the obs layer: one OBS_SPAN or rec::event per
// iteration, 10^7 iterations. Disarmed, a site is one relaxed atomic
// load -- the "near-zero when off" promise every instrumented hot path
// relies on. Armed, a span costs two clock reads plus a ring store and
// an event one clock read plus a ring-slot claim; the rings wrap, so
// the armed numbers are steady-state.
constexpr std::int64_t kObsIterations = 10'000'000;

void BM_ObsSpanDisarmed(benchmark::State& state) {
  obs::reset();
  for (auto _ : state) {
    OBS_SPAN("bench.span");
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_ObsSpanDisarmed)->Iterations(kObsIterations);

void BM_ObsSpanArmed(benchmark::State& state) {
  obs::configure("", 1 << 16);  // no trace path: nothing is written
  obs::arm(true);
  for (auto _ : state) {
    OBS_SPAN("bench.span");
    benchmark::ClobberMemory();
  }
  obs::reset();
}
BENCHMARK(BM_ObsSpanArmed)->Iterations(kObsIterations);

void BM_RecEventDisarmed(benchmark::State& state) {
  obs::rec::reset();
  std::uint64_t i = 0;
  for (auto _ : state) {
    obs::rec::event("bench.event", i++);
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_RecEventDisarmed)->Iterations(kObsIterations);

void BM_RecEventArmed(benchmark::State& state) {
  // Arming pre-opens a postmortem tmp file; reset() unlinks it.
  obs::rec::configure(std::filesystem::temp_directory_path().string(),
                      1 << 16);
  std::uint64_t i = 0;
  for (auto _ : state) {
    obs::rec::event("bench.event", i++);
    benchmark::ClobberMemory();
  }
  obs::rec::reset();
}
BENCHMARK(BM_RecEventArmed)->Iterations(kObsIterations);

}  // namespace

BENCHMARK_MAIN();
