#pragma once

/// \file simulator.hpp
/// Monte-Carlo throughput estimation of an elastic system with early
/// evaluation -- the stand-in for the paper's "intensive simulations" of
/// generated Verilog controllers (src/core/README.md, "Substitutions").
///
/// The driver runs on the allocation-free FlatKernel with precomputed
/// chooser tables, interleaves replications through the batched stepper
/// -- telescopic graphs included -- and can spread runs across worker
/// threads. Results are deterministic in
/// (rrg, options.seed, options.runs) alone: every run draws from its own
/// splitmix64-derived stream and results are merged in run order, so
/// neither `threads` nor `max_batch` ever changes theta.
///
/// simulate_throughput is the one-candidate convenience wrapper around
/// sim::SimFleet (fleet.hpp), which scores many candidate RRGs through
/// one worker pool -- the shape the Pareto-walk benches use.

#include <cstdint>

#include "core/rrg.hpp"

namespace elrr::sim {

struct SimOptions {
  std::uint64_t seed = 1;
  std::size_t warmup_cycles = 2000;    ///< discarded transient
  std::size_t measure_cycles = 20000;  ///< measured window per run
  std::size_t runs = 3;                ///< independent replications
  /// Worker threads for independent runs; 0 = hardware concurrency.
  /// Purely a wall-clock knob: theta is identical for every value.
  std::size_t threads = 1;
  /// Lane cap for the interleaved batched stepper: runs are packed
  /// greedily into step_batch slices of the driver's supported widths
  /// (16/8/4/3/2/1) no wider than min(max_batch, 16); 0 = the driver
  /// default (4, one SSE int32 vector), 1 = solo stepping. Widths of 8
  /// and 16 pay on hosts with wider SIMD (build with -DELRR_NATIVE=ON)
  /// when a job carries that many runs. Purely a wall-clock knob: theta
  /// is identical for every value (lane-packing invariance is tested).
  std::size_t max_batch = 0;
};

struct SimResult {
  double theta = 0.0;        ///< mean firings/cycle/node over all runs
  double stderr_theta = 0.0; ///< standard error across runs
  std::size_t cycles = 0;    ///< total measured cycles
};

/// Long-run throughput Theta(RRG) by simulation. Guards are sampled i.i.d.
/// with the RRG's gamma probabilities (per-node independent streams).
/// Equivalent to one SimFleet ticket (submit_async, then wait) on a fleet
/// of options.threads workers.
SimResult simulate_throughput(const Rrg& rrg, const SimOptions& options = {});

/// The per-run RNG seed: run `run` of a simulation seeded with `seed`.
/// splitmix64 over state seed + run * golden-gamma -- nearby user seeds
/// and consecutive runs land in decorrelated regions of the stream space
/// (the old `seed + 0x9e37 * run` mix made run r of seed s collide with
/// run r+1 of seed s - 0x9e37). Exposed for tests pinning reproducibility.
std::uint64_t run_seed(std::uint64_t seed, std::size_t run);

}  // namespace elrr::sim
