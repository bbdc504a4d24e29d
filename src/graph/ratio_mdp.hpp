#pragma once

/// \file ratio_mdp.hpp
/// Minimum cost-to-time ratio of a Markov decision process on a digraph,
/// by multichain policy iteration: the stochastic generalization of
/// howard.hpp, and the evaluator behind the TGMG throughput bound
/// (core/tgmg.hpp), whose LP (4) is this problem's dual.
///
/// The process walks *against* the edges: from node v it leaves through
/// one in-edge e of v, to src(e), and collects cost(e) and time(e).
///  * a choice node picks its in-edge (the decision);
///  * a random node takes in-edge e with probability prob(e);
///  * a node without in-edges absorbs at zero cost and time.
/// A stationary policy fixes every choice. Each recurrent class of the
/// resulting chain has a ratio: expected cost per step over expected time
/// per step, under its stationary distribution. The result is the
/// minimum ratio over all policies and all classes of positive time.
/// Zero-time classes bound nothing and are skipped. When no class of any
/// policy has positive time, the result is unbounded.
///
/// Method: Dinkelbach's parametric search around multichain policy
/// iteration (Puterman, *Markov Decision Processes*, ch. 8-9; Cochet-
/// Terrasson et al. 1998 for the deterministic case). At the current
/// ratio phi the step reward is cost - phi * time. A policy is evaluated
/// to a gain and a bias per node, then improved on gain first and on
/// bias second; phi drops to the smallest class ratio each evaluation
/// finds. Iteration stops when no choice improves. Then no class of any
/// policy has negative reward at phi, so phi is the minimum.
///
/// Evaluation is sparse. Under a policy a choice node has one successor,
/// so runs of choice nodes collapse into segments that end at a random
/// node, an absorbing node or a deterministic cycle. Only the random
/// nodes stay unknowns: one small dense solve per strongly connected
/// component of the chain between them. Without random nodes this is
/// Howard's algorithm, and the ratio is the exact quotient of the
/// critical cycle's cost and time sums.
///
/// Requirements (not checked here): time(e) >= 0; the in-edge
/// probabilities of each random node sum to 1; every directed cycle has
/// positive total cost, as a live marking's tokens do.

#include <cstdint>
#include <vector>

#include "graph/digraph.hpp"

namespace elrr::graph {

struct RatioMdpResult {
  bool bounded = false;  ///< false: no class of any policy has time > 0
  double ratio = 0.0;    ///< the minimum ratio (when bounded)
};

/// `cost`, `time`, `prob` are per edge; `random` is per node (non-zero:
/// random node). `prob` is read only on random nodes' in-edges.
RatioMdpResult min_ratio_mdp(const Digraph& g, const std::vector<double>& cost,
                             const std::vector<double>& time,
                             const std::vector<double>& prob,
                             const std::vector<std::uint8_t>& random);

}  // namespace elrr::graph
