#pragma once

/// \file control_sim.hpp
/// Cycle-accurate simulation of the SELF control network implementing an
/// RRG configuration: every edge is a chain of R(e) elastic-buffer stages
/// of finite capacity with *registered* backpressure (a stage learns only
/// next cycle that its successor had room), joins are lazy, early joins
/// carry anti-token counters (DAC'07 controllers).
///
/// Relationship to sim/ (token-level kernel):
///  * capacity >= 2 and the kernel's unbounded-FIFO assumption coincide on
///    bubble-free streaming; as capacity grows the control network's
///    throughput converges to the kernel's (footnote 1 of the paper) --
///    property-tested;
///  * capacity 1 halves the streaming rate (the classical reason SELF EBs
///    hold two tokens) -- the capacity ablation bench quantifies this.
///
/// Zero-latency edges (R = 0) are wires; their backlog is modeled at the
/// consumer (justified by the same FIFO-sizing assumption; see
/// src/core/README.md, "Substitutions").
///
/// Telescopic (variable-latency) nodes are supported with hardware
/// semantics: a slow operation keeps the unit busy, withholds its
/// outputs, and the completion itself stalls on output backpressure;
/// cross-validated against the token-level kernel.

#include <cstdint>
#include <vector>

#include "core/rrg.hpp"
#include "sim/simulator.hpp"

namespace elrr::elastic {

struct ControlSimOptions {
  int capacity = 2;  ///< tokens per EB stage (SELF EBs hold 2)
  /// Per-edge stage capacities overriding `capacity` (empty = uniform).
  /// Entries for zero-latency edges (wires) are ignored. Used by the
  /// FIFO sizing pass (fifo_sizing.hpp).
  std::vector<int> per_edge_capacity;
  std::uint64_t seed = 1;
  std::size_t warmup_cycles = 2000;
  std::size_t measure_cycles = 20000;
  std::size_t runs = 3;
};

/// Long-run throughput of the control network.
sim::SimResult simulate_control_throughput(const Rrg& rrg,
                                           const ControlSimOptions& options = {});

}  // namespace elrr::elastic
