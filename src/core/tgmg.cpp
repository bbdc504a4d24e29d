#include "core/tgmg.hpp"

#include <cmath>
#include <sstream>

#include "core/evaluator.hpp"
#include "graph/bellman_ford.hpp"
#include "graph/dot.hpp"
#include "graph/ratio_mdp.hpp"
#include "lp/milp.hpp"
#include "support/error.hpp"
#include "support/strings.hpp"

namespace elrr {

NodeId Tgmg::add_node(std::string name, double delay, NodeKind kind,
                      EdgeId delay_source) {
  ELRR_REQUIRE(std::isfinite(delay) && delay >= 0.0,
               "TGMG node delay must be finite and non-negative");
  const NodeId n = g_.add_node();
  if (name.empty()) name = indexed_name('t', n);
  names_.push_back(std::move(name));
  delays_.push_back(delay);
  kinds_.push_back(kind);
  delay_sources_.push_back(delay_source);
  return n;
}

EdgeId Tgmg::add_edge(NodeId u, NodeId v, int tokens, double gamma,
                      EdgeId marking_source) {
  const EdgeId e = g_.add_edge(u, v);
  tokens_.push_back(tokens);
  gammas_.push_back(gamma);
  marking_sources_.push_back(marking_source);
  return e;
}

void Tgmg::validate() const {
  for (NodeId n = 0; n < num_nodes(); ++n) {
    if (!is_early(n)) continue;
    ELRR_REQUIRE(g_.in_degree(n) >= 1, "early TGMG node ", name(n),
                 " has no inputs");
    double sum = 0.0;
    for (EdgeId e : g_.in_edges(n)) {
      ELRR_REQUIRE(gammas_[e] > 0.0 && gammas_[e] <= 1.0,
                   "bad guard probability on edge ", e);
      sum += gammas_[e];
    }
    ELRR_REQUIRE(std::abs(sum - 1.0) <= 1e-9,
                 "guard probabilities of ", name(n), " sum to ", sum);
  }
  std::vector<std::int64_t> weights(tokens_.begin(), tokens_.end());
  ELRR_REQUIRE(!graph::has_nonpositive_cycle(g_, weights),
               "TGMG marking is not live");
}

std::string Tgmg::to_dot() const {
  graph::DotStyle style;
  style.graph_name = "tgmg";
  style.node_label = [this](NodeId n) {
    std::ostringstream os;
    os << name(n) << "\\nd=" << format_fixed(delay(n), 2);
    return os.str();
  };
  style.node_attrs = [this](NodeId n) {
    return is_early(n) ? std::string("shape=trapezium") : std::string();
  };
  style.edge_label = [this](EdgeId e) {
    std::ostringstream os;
    os << tokens(e);
    if (is_early(g_.dst(e))) os << " g=" << format_fixed(gamma(e), 2);
    return os.str();
  };
  return graph::to_dot(g_, style);
}

Tgmg procedure1(const Rrg& rrg) {
  Tgmg out;
  const Digraph& g = rrg.graph();
  // Original nodes first (same ids as the RRG). A telescopic node keeps
  // its expected extra service latency (1-p) * slow_extra as its own
  // delay (pipelined through-latency); its input-edge buffer latencies
  // must then live on auxiliary nodes even for a single input, or the
  // busy-throttle loop added below would wrongly serialize the EB chain.
  for (NodeId n = 0; n < rrg.num_nodes(); ++n) {
    if (g.in_degree(n) == 1 && !rrg.is_telescopic(n)) {
      const EdgeId e = g.in_edges(n)[0];
      out.add_node(rrg.name(n), static_cast<double>(rrg.buffers(e)),
                   rrg.kind(n), e);
    } else {
      out.add_node(rrg.name(n), rrg.service(n), rrg.kind(n));
    }
  }
  for (NodeId n = 0; n < rrg.num_nodes(); ++n) {
    if (g.in_degree(n) == 1 && !rrg.is_telescopic(n)) {
      // Single input: direct edge with the original marking; the buffer
      // latency lives on the node itself (step 3 of Procedure 1).
      const EdgeId e = g.in_edges(n)[0];
      out.add_edge(g.src(e), n, rrg.tokens(e), rrg.gamma(e), e);
    } else {
      // Multi input: one delay node per input edge (step 4).
      for (EdgeId e : g.in_edges(n)) {
        const NodeId aux = out.add_node(
            rrg.name(n) + "/in" + std::to_string(e),
            static_cast<double>(rrg.buffers(e)), NodeKind::kSimple, e);
        out.add_edge(g.src(e), aux, 0);
        out.add_edge(aux, n, rrg.tokens(e), rrg.gamma(e), e);
      }
    }
  }
  // Busy throttle for telescopic *simple* nodes: a unit-delay loop
  // holding one token bounds the firing rate by 1 / (1 + service(n)).
  // Early telescopic nodes get the equivalent throttle from Procedure
  // 2's unit-delay s-node, so nothing is added here for them.
  for (NodeId n = 0; n < rrg.num_nodes(); ++n) {
    if (!rrg.is_telescopic(n) || rrg.is_early(n)) continue;
    const NodeId throttle =
        out.add_node(rrg.name(n) + "/tl", 1.0, NodeKind::kSimple);
    out.add_edge(n, throttle, 0);
    out.add_edge(throttle, n, 1);
  }
  return out;
}

Tgmg procedure2(const Tgmg& in) {
  Tgmg out;
  const Digraph& g = in.graph();
  for (NodeId n = 0; n < in.num_nodes(); ++n) {
    out.add_node(in.name(n), in.delay(n), in.kind(n), in.delay_source(n));
  }
  // Copy edges into nodes that are not early; early-node inputs are split.
  for (EdgeId e = 0; e < in.num_edges(); ++e) {
    if (in.is_early(g.dst(e))) continue;
    out.add_edge(g.src(e), g.dst(e), in.tokens(e), in.gamma(e),
                 in.marking_source(e));
  }
  for (NodeId n = 0; n < in.num_nodes(); ++n) {
    if (!in.is_early(n)) continue;
    const NodeId s =
        out.add_node(in.name(n) + "/s", 1.0, NodeKind::kSimple);
    out.add_edge(n, s, 1);
    for (EdgeId e : g.in_edges(n)) {
      const NodeId k = out.add_node(
          in.name(n) + "/k" + std::to_string(e), 0.0, NodeKind::kSimple);
      out.add_edge(g.src(e), k, in.tokens(e), 1.0, in.marking_source(e));
      out.add_edge(k, n, 0, in.gamma(e));
      out.add_edge(s, k, 0);
    }
  }
  return out;
}

Tgmg refined_tgmg(const Rrg& rrg) { return procedure2(procedure1(rrg)); }

ThroughputLp build_throughput_lp(const Tgmg& tgmg) {
  tgmg.validate();
  const Digraph& g = tgmg.graph();

  ThroughputLp out;
  lp::Model& model = out.model;
  model.set_sense(lp::Sense::kMaximize);
  const int phi = model.add_col(0.0, lp::kInf, 1.0, false, "phi");
  out.phi_col = phi;
  std::vector<int> sigma(tgmg.num_nodes());
  for (NodeId n = 0; n < tgmg.num_nodes(); ++n) {
    sigma[n] = model.add_col(-lp::kInf, lp::kInf, 0.0, false,
                             "sigma_" + tgmg.name(n));
  }
  if (!sigma.empty()) {
    // Pin the translation freedom of the firing counts.
    model.set_col_bounds(sigma[0], 0.0, 0.0);
  }

  for (NodeId n = 0; n < tgmg.num_nodes(); ++n) {
    if (g.in_degree(n) == 0) continue;
    if (!tgmg.is_early(n)) {
      // delta(n) phi - sigma(u) + sigma(n) <= m0(e) for each input edge.
      for (EdgeId e : g.in_edges(n)) {
        model.add_row(-lp::kInf, static_cast<double>(tgmg.tokens(e)),
                      {{phi, tgmg.delay(n)},
                       {sigma[g.src(e)], -1.0},
                       {sigma[n], 1.0}},
                      "mg_" + std::to_string(e));
      }
    } else {
      // delta(n) phi <= sum_e gamma(e) (m0(e) + sigma(u) - sigma(n)).
      std::vector<lp::ColEntry> entries{{phi, tgmg.delay(n)}};
      double rhs = 0.0;
      for (EdgeId e : g.in_edges(n)) {
        rhs += tgmg.gamma(e) * static_cast<double>(tgmg.tokens(e));
        entries.push_back({sigma[g.src(e)], -tgmg.gamma(e)});
        entries.push_back({sigma[n], tgmg.gamma(e)});
      }
      model.add_row(-lp::kInf, rhs, std::move(entries),
                    "ee_" + tgmg.name(n));
    }
  }

  return out;
}

ThroughputBound tgmg_throughput_bound(const Tgmg& tgmg) {
  const lp::Model model = build_throughput_lp(tgmg).model;
  lp::MilpResult result = lp::solve_milp(model);
  if (result.status == lp::MilpStatus::kNumericError) {
    // Dense models occasionally defeat the default tolerances after
    // thousands of tableau pivots; one retry with a coarser feasibility
    // tolerance and a stricter pivot threshold clears them in practice.
    lp::MilpOptions retry;
    retry.lp.feas_tol = 1e-6;
    retry.lp.pivot_tol = 1e-8;
    result = lp::solve_milp(model, retry);
  }
  ThroughputBound bound;
  if (result.status == lp::MilpStatus::kUnbounded) {
    bound.bounded = false;
    return bound;
  }
  ELRR_ASSERT(result.status == lp::MilpStatus::kOptimal,
              "throughput LP failed: ", lp::to_string(result.status));
  bound.bounded = true;
  bound.theta = result.objective;
  return bound;
}

ThroughputBound tgmg_policy_bound(const Tgmg& tgmg) {
  tgmg.validate();
  // The decision process: node n leaves through input edge e at cost
  // tokens(e) and time delay(n); early nodes pick e with probability
  // gamma(e).
  const Digraph& g = tgmg.graph();
  std::vector<double> cost(g.num_edges()), time(g.num_edges()),
      prob(g.num_edges());
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    cost[e] = tgmg.tokens(e);
    time[e] = tgmg.delay(g.dst(e));
    prob[e] = tgmg.gamma(e);
  }
  std::vector<std::uint8_t> early(g.num_nodes());
  for (NodeId n = 0; n < g.num_nodes(); ++n) early[n] = tgmg.is_early(n);
  const graph::RatioMdpResult mdp =
      graph::min_ratio_mdp(g, cost, time, prob, early);
  return {mdp.bounded, mdp.ratio};
}

double throughput_upper_bound(const Rrg& rrg) {
  const ConfigEvaluator evaluator(rrg);
  const RrConfig config = initial_config(rrg);
  evaluator.require_valid(config);
  return evaluator.theta_lp(config);
}

}  // namespace elrr
