#pragma once

/// \file analysis.hpp
/// Configuration-level performance metrics:
///  * exact late-evaluation throughput (marked-graph minimum cycle ratio),
///  * the throughput bound Theta_lp of LP (11) (tgmg.hpp; computed
///    without an LP),
///  * combined tau / theta_lp / xi_lp evaluation of an RC.

#include "core/rrg.hpp"

namespace elrr {

/// Exact steady-state throughput of the RRG *ignoring early evaluation*
/// (all nodes late): min(1, min cycle ratio of tokens/buffers).
/// For an acyclic RRG nothing limits the token rate and the result is 1.
double late_eval_throughput(const Rrg& rrg);

/// tau, theta_lp and xi_lp of one configuration (Table 1's columns).
struct RcEvaluation {
  double tau = 0.0;
  double theta_lp = 0.0;
  double xi_lp = 0.0;
};

/// Evaluates `config` against `rrg` (validates it first).
RcEvaluation evaluate_config(const Rrg& rrg, const RrConfig& config);

/// Evaluates the RRG's own configuration.
RcEvaluation evaluate_rrg(const Rrg& rrg);

}  // namespace elrr
