#include "tests/retime/oracles.hpp"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <optional>

#include "graph/bellman_ford.hpp"
#include "graph/topo.hpp"
#include "support/error.hpp"

namespace elrr::retime {

namespace {

constexpr std::int64_t kInfW = std::numeric_limits<std::int64_t>::max() / 4;

struct WdMatrices {
  std::size_t n = 0;
  std::vector<std::int64_t> w;  // min path registers (kInfW = unreachable)
  std::vector<double> d;        // max delay among min-register paths

  std::int64_t& W(std::size_t u, std::size_t v) { return w[u * n + v]; }
  double& D(std::size_t u, std::size_t v) { return d[u * n + v]; }
  std::int64_t W(std::size_t u, std::size_t v) const { return w[u * n + v]; }
  double D(std::size_t u, std::size_t v) const { return d[u * n + v]; }
};

void check_preconditions(const Rrg& rrg) {
  ELRR_REQUIRE(rrg.num_nodes() > 0, "empty RRG");
  for (EdgeId e = 0; e < rrg.num_edges(); ++e) {
    ELRR_REQUIRE(rrg.tokens(e) >= 0,
                 "classical retiming requires non-negative tokens (edge ", e,
                 " has ", rrg.tokens(e), ")");
  }
}

/// Lexicographic (min registers, then max delay) all-pairs paths.
WdMatrices compute_wd(const Rrg& rrg) {
  const std::size_t n = rrg.num_nodes();
  WdMatrices wd;
  wd.n = n;
  wd.w.assign(n * n, kInfW);
  wd.d.assign(n * n, -1.0);

  // Trivial paths: a node alone (w = 0, d = beta(v)). This also encodes
  // the "period >= max node delay" constraint naturally.
  for (std::size_t v = 0; v < n; ++v) {
    wd.W(v, v) = 0;
    wd.D(v, v) = rrg.delay(static_cast<NodeId>(v));
  }
  // Single edges: d covers both endpoints.
  const Digraph& g = rrg.graph();
  for (EdgeId e = 0; e < rrg.num_edges(); ++e) {
    const std::size_t u = g.src(e);
    const std::size_t v = g.dst(e);
    if (u == v) continue;  // self-loop paths add nothing beyond trivial
    const std::int64_t w = rrg.tokens(e);
    const double d = rrg.delay(static_cast<NodeId>(u)) +
                     rrg.delay(static_cast<NodeId>(v));
    if (w < wd.W(u, v) || (w == wd.W(u, v) && d > wd.D(u, v))) {
      wd.W(u, v) = w;
      wd.D(u, v) = d;
    }
  }
  // Floyd-Warshall with (w, -d) lexicographic minimization; the midpoint
  // node's delay is double counted when concatenating.
  for (std::size_t k = 0; k < n; ++k) {
    const double beta_k = rrg.delay(static_cast<NodeId>(k));
    for (std::size_t u = 0; u < n; ++u) {
      if (wd.W(u, k) >= kInfW) continue;
      for (std::size_t v = 0; v < n; ++v) {
        if (wd.W(k, v) >= kInfW) continue;
        const std::int64_t w = wd.W(u, k) + wd.W(k, v);
        const double d = wd.D(u, k) + wd.D(k, v) - beta_k;
        if (w < wd.W(u, v) || (w == wd.W(u, v) && d > wd.D(u, v))) {
          wd.W(u, v) = w;
          wd.D(u, v) = d;
        }
      }
    }
  }
  return wd;
}

/// Bellman-Ford feasibility of the L&S constraint system for period P.
std::optional<std::vector<int>> ls_feasible(const Rrg& rrg,
                                            const WdMatrices& wd, double period) {
  const std::size_t n = rrg.num_nodes();
  // In graph::solve_difference_constraints' convention,
  // x(dst) - x(src) <= w, r(u) - r(v) <= c is the edge v -> u of weight c.
  Digraph cg(n);
  std::vector<std::int64_t> weights;
  const Digraph& g = rrg.graph();
  for (EdgeId e = 0; e < rrg.num_edges(); ++e) {
    // r(u) - r(v) <= tokens(e)
    cg.add_edge(g.dst(e), g.src(e));
    weights.push_back(rrg.tokens(e));
  }
  for (std::size_t u = 0; u < n; ++u) {
    for (std::size_t v = 0; v < n; ++v) {
      if (wd.W(u, v) >= kInfW) continue;
      if (wd.D(u, v) > period) {
        // r(u) - r(v) <= W(u, v) - 1
        cg.add_edge(static_cast<NodeId>(v), static_cast<NodeId>(u));
        weights.push_back(wd.W(u, v) - 1);
      }
    }
  }
  const auto sol = graph::solve_difference_constraints(cg, weights);
  if (!sol.feasible) return std::nullopt;
  std::vector<int> r(n);
  for (std::size_t v = 0; v < n; ++v) {
    r[v] = static_cast<int>(sol.potential[v]);
  }
  return r;
}

}  // namespace

Rrg correlator() {
  Rrg rrg;
  const NodeId host = rrg.add_node("host", 0.0);
  const NodeId d1 = rrg.add_node("d1", 3.0);
  const NodeId d2 = rrg.add_node("d2", 3.0);
  const NodeId d3 = rrg.add_node("d3", 3.0);
  const NodeId p1 = rrg.add_node("p1", 7.0);
  const NodeId p2 = rrg.add_node("p2", 7.0);
  const NodeId p3 = rrg.add_node("p3", 7.0);
  rrg.add_edge(host, d1, 1, 1);
  rrg.add_edge(d1, d2, 1, 1);
  rrg.add_edge(d2, d3, 1, 1);
  rrg.add_edge(d1, p1, 0, 0);
  rrg.add_edge(d2, p2, 0, 0);
  rrg.add_edge(d3, p3, 0, 0);
  rrg.add_edge(p3, p2, 0, 0);
  rrg.add_edge(p2, p1, 0, 0);
  rrg.add_edge(p1, host, 0, 0);
  rrg.validate();
  return rrg;
}

double retimed_cycle_time(const Rrg& rrg, const std::vector<int>& r) {
  const RrConfig config = apply_retiming(rrg, r);
  std::string why;
  ELRR_REQUIRE(validate_config(rrg, config, &why), "invalid retiming: ", why);
  return cycle_time(apply_config(rrg, config)).tau;
}

RetimingResult reference_min_period_retiming(const Rrg& rrg) {
  check_preconditions(rrg);
  const WdMatrices wd = compute_wd(rrg);

  // Candidate periods: the distinct D values (the optimum is one of them).
  std::vector<double> candidates;
  candidates.reserve(wd.d.size());
  for (std::size_t i = 0; i < wd.d.size(); ++i) {
    if (wd.w[i] < kInfW) candidates.push_back(wd.d[i]);
  }
  std::sort(candidates.begin(), candidates.end());
  candidates.erase(std::unique(candidates.begin(), candidates.end()),
                   candidates.end());
  ELRR_ASSERT(!candidates.empty(), "no candidate periods");

  // Binary search for the smallest feasible candidate.
  std::size_t lo = 0, hi = candidates.size() - 1;
  ELRR_REQUIRE(ls_feasible(rrg, wd, candidates[hi]).has_value(),
               "retiming infeasible even at the largest candidate period -- "
               "is the RRG live?");
  while (lo < hi) {
    const std::size_t mid = (lo + hi) / 2;
    if (ls_feasible(rrg, wd, candidates[mid]).has_value()) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  RetimingResult result;
  result.period = candidates[lo];
  result.r = *ls_feasible(rrg, wd, candidates[lo]);
  return result;
}

bool feasible_period(const Rrg& rrg, double period, std::vector<int>* r_out) {
  check_preconditions(rrg);
  const std::size_t n = rrg.num_nodes();
  const Digraph& g = rrg.graph();

  // FEAS: iteratively increment r(v) for nodes whose arrival exceeds P.
  std::vector<int> r(n, 0);
  for (std::size_t round = 0; round + 1 < n || round == 0; ++round) {
    // Arrival times in the retimed graph.
    const RrConfig config = apply_retiming(rrg, r);
    for (EdgeId e = 0; e < rrg.num_edges(); ++e) {
      if (config.tokens[e] < 0) return false;  // left the classical domain
    }
    const Rrg retimed = apply_config(rrg, config);
    const CycleTimeResult ct = cycle_time(retimed);
    if (!ct.valid) return false;
    if (ct.tau <= period + 1e-12) {
      if (r_out != nullptr) *r_out = r;
      return true;
    }
    // Increment the lagging nodes.
    std::vector<double> delays;
    delays.reserve(n);
    for (NodeId v = 0; v < n; ++v) delays.push_back(rrg.delay(v));
    const auto arrivals = graph::longest_path(
        g, delays, [&](EdgeId e) { return config.tokens[e] == 0; });
    ELRR_ASSERT(arrivals.is_dag, "retimed graph has a register-free cycle");
    for (std::size_t v = 0; v < n; ++v) {
      if (arrivals.arrival[v] > period + 1e-12) ++r[v];
    }
  }
  // One final check after |V| - 1 rounds.
  const RrConfig config = apply_retiming(rrg, r);
  for (EdgeId e = 0; e < rrg.num_edges(); ++e) {
    if (config.tokens[e] < 0) return false;
  }
  const CycleTimeResult ct = cycle_time(apply_config(rrg, config));
  if (ct.valid && ct.tau <= period + 1e-12) {
    if (r_out != nullptr) *r_out = r;
    return true;
  }
  return false;
}

}  // namespace elrr::retime
