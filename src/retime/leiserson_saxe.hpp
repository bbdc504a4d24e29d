#pragma once

/// \file leiserson_saxe.hpp
/// Classical min-period retiming (Leiserson & Saxe, Algorithmica 1991),
/// operating on an RRG whose tokens play the role of registers.
///
/// Used as
///  * the min-delay retiming baseline of the paper (tau_nee often equals
///    it; MIN_CYC(1) must agree with it -- tested),
///  * the classical seed of the heuristic (heur/heuristic.hpp), and
///  * an independent combinatorial oracle for the MILP path constraints.
///
/// The algorithm is OPT: W/D matrices (lexicographic Floyd-Warshall),
/// then a binary search over the candidate periods (the distinct D
/// values) with a difference-constraint feasibility test. One call
/// builds one constraint system for all periods, sorted once by D, and
/// solves it incrementally: each probe warm-starts Bellman-Ford-Moore
/// from the potential of the latest feasible probe and stops at the
/// first negative cycle of its predecessor links. The retiming returned
/// is the unique vector of shortest distances of the optimum period's
/// system, the one a cold Bellman-Ford solve of that system returns.
///
/// The tests cross-check it against FEAS, the iterative clock-period
/// relaxation algorithm, and against OPT with one cold solve per period
/// (tests/retime/oracles.hpp).
///
/// Restrictions: token counts must be non-negative (classical registers;
/// anti-tokens are an elastic-only concept), the graph must have at
/// least one node, and every cycle must carry a token (the liveness
/// `Rrg::validate` checks). A circuit that breaks one is rejected with
/// InvalidInputError, a zero-token cycle with its edges named.

#include <vector>

#include "core/rrg.hpp"

namespace elrr::retime {

struct RetimingResult {
  double period = 0.0;     ///< optimal clock period
  std::vector<int> r;      ///< a retiming achieving it
};

/// Minimum achievable clock period over all retimings, with a witness
/// retiming vector.
RetimingResult min_period_retiming(const Rrg& rrg);

}  // namespace elrr::retime
