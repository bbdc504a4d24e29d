#pragma once

/// \file markov.hpp
/// Exact throughput of small elastic systems with early evaluation by
/// Markov-chain analysis (the method the paper uses for its motivational
/// example in Section 1.4: Theta(fig 1b) = 0.491 at alpha = 0.5, and
/// Theta(fig 2) = 1/(3 - 2 alpha)).
///
/// The chain's states are the reachable FlatStates of the simulation kernel;
/// transitions branch over the guard choices of early nodes whose previous
/// firing has completed, weighted by the product of their probabilities.
/// The long-run firing rate is computed by damped power iteration from the
/// initial state (correct for periodic chains and multiple recurrent
/// classes alike, since damping preserves per-class stationarity and
/// absorption probabilities).

#include <cstddef>
#include <optional>

#include "core/rrg.hpp"

namespace elrr::sim {

struct MarkovOptions {
  std::size_t max_states = 200000;   ///< enumeration cap
  double damping = 0.05;             ///< self-loop weight for aperiodicity
  double tolerance = 1e-11;          ///< L1 convergence threshold
  std::size_t max_iterations = 200000;
};

struct MarkovResult {
  bool ok = false;          ///< false if max_states was exceeded
  double theta = 0.0;       ///< exact long-run firings/cycle/node
  std::size_t num_states = 0;
  std::size_t num_transitions = 0;
  std::size_t iterations = 0;
};

/// Exact throughput; `ok == false` if the reachable state space exceeds
/// `options.max_states` (use the simulator instead).
MarkovResult exact_throughput(const Rrg& rrg,
                              const MarkovOptions& options = {});

}  // namespace elrr::sim
