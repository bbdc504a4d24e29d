#include "core/evaluator.hpp"

#include "core/tgmg.hpp"
#include "graph/bellman_ford.hpp"
#include "graph/ratio_mdp.hpp"
#include "graph/topo.hpp"
#include "support/error.hpp"

namespace elrr {

namespace {

bool is_late_evaluation(const Rrg& rrg) {
  for (NodeId n = 0; n < rrg.num_nodes(); ++n) {
    if (rrg.is_early(n) || rrg.is_telescopic(n)) return false;
  }
  return true;
}

}  // namespace

ConfigChecker::ConfigChecker(const Rrg& rrg)
    : rrg_(rrg),
      scale_(static_cast<std::int64_t>(rrg.num_nodes()) + 1),
      r_(rrg.num_nodes()) {
  // Breadth-first spanning forest of the undirected structure.
  const Digraph& g = rrg.graph();
  std::vector<std::uint8_t> reached(g.num_nodes(), 0);
  forest_.reserve(g.num_nodes());
  for (NodeId root = 0; root < g.num_nodes(); ++root) {
    if (reached[root]) continue;
    reached[root] = 1;
    forest_.push_back({root, graph::kNoEdge});
    for (std::size_t next = forest_.size() - 1; next < forest_.size();
         ++next) {
      const NodeId u = forest_[next].node;
      const auto reach = [&](NodeId v, EdgeId e) {
        if (reached[v]) return;
        reached[v] = 1;
        forest_.push_back({v, e});
      };
      for (EdgeId e : g.out_edges(u)) reach(g.dst(e), e);
      for (EdgeId e : g.in_edges(u)) reach(g.src(e), e);
    }
  }
  // The liveness certificate: a potential of the base's scaled tokens.
  std::vector<std::int64_t> scaled(rrg.num_edges());
  for (EdgeId e = 0; e < rrg.num_edges(); ++e) {
    scaled[e] = rrg.tokens(e) * scale_ - 1;
  }
  graph::DifferenceSolution base =
      graph::solve_difference_constraints(g, scaled);
  base_live_ = base.feasible;
  pi_ = std::move(base.potential);
}

bool ConfigChecker::within_bounds(const RrConfig& config,
                                  std::string* why) const {
  const auto fail = [&](const std::string& message) {
    if (why != nullptr) *why = message;
    return false;
  };
  if (config.tokens.size() != rrg_.num_edges() ||
      config.buffers.size() != rrg_.num_edges()) {
    return fail("configuration size mismatch");
  }
  for (EdgeId e = 0; e < rrg_.num_edges(); ++e) {
    if (config.buffers[e] < 0) {
      return fail("negative buffer count on edge " + std::to_string(e));
    }
    if (config.buffers[e] < config.tokens[e]) {
      return fail("R < R0 on edge " + std::to_string(e));
    }
  }
  return true;
}

bool ConfigChecker::is_retiming(const RrConfig& config) const {
  const Digraph& g = rrg_.graph();
  const auto delta = [&](EdgeId e) {
    return static_cast<std::int64_t>(config.tokens[e]) - rrg_.tokens(e);
  };
  for (const Link& link : forest_) {
    if (link.edge == graph::kNoEdge) {
      r_[link.node] = 0;
    } else if (g.dst(link.edge) == link.node) {
      r_[link.node] = r_[g.src(link.edge)] + delta(link.edge);
    } else {
      r_[link.node] = r_[g.dst(link.edge)] - delta(link.edge);
    }
  }
  for (EdgeId e = 0; e < rrg_.num_edges(); ++e) {
    if (r_[g.dst(e)] - r_[g.src(e)] != delta(e)) return false;
  }
  return true;
}

bool ConfigChecker::is_live(const RrConfig& config, bool retimed) const {
  const Digraph& g = rrg_.graph();
  if (retimed) {
    if (!base_live_) return false;  // retiming keeps every cycle's sum
    bool certified = true;
    for (EdgeId e = 0; e < rrg_.num_edges() && certified; ++e) {
      const NodeId u = g.src(e);
      const NodeId v = g.dst(e);
      certified = pi_[v] + scale_ * r_[v] - pi_[u] - scale_ * r_[u] <=
                  config.tokens[e] * scale_ - 1;
    }
    if (certified) return true;
  }
  const std::vector<std::int64_t> tokens(config.tokens.begin(),
                                         config.tokens.end());
  return !graph::has_nonpositive_cycle(g, tokens);
}

bool ConfigChecker::check(const RrConfig& config, std::string* why) const {
  if (!within_bounds(config, why)) return false;
  if (!is_retiming(config)) {
    if (why != nullptr) {
      *why = "token change is not a retiming (cycle sums not preserved)";
    }
    return false;
  }
  if (!is_live(config, true)) {
    if (why != nullptr) *why = "configuration is not live";
    return false;
  }
  return true;
}

void ConfigChecker::require_valid(const RrConfig& config) const {
  if (!within_bounds(config, nullptr) ||
      !is_live(config, is_retiming(config))) {
    (void)apply_config(rrg_, config);  // throws, naming the offender
    ELRR_ASSERT(false, "apply_config accepted an invalid configuration");
  }
  rrg_.validate_structure();
}

ConfigEvaluator::ConfigEvaluator(const Rrg& rrg) : checker_(rrg) {
  delays_.reserve(rrg.num_nodes());
  for (NodeId n = 0; n < rrg.num_nodes(); ++n) delays_.push_back(rrg.delay(n));
  if (is_late_evaluation(rrg)) {
    // The refined TGMG is the RRG with its buffer latencies moved onto
    // nodes: the bound is the minimum cycle ratio of tokens over
    // buffers, found on the RRG itself.
    g_ = rrg.graph();
    prob_.assign(g_.num_edges(), 1.0);
    random_.assign(g_.num_nodes(), 0);
    for (EdgeId e = 0; e < g_.num_edges(); ++e) {
      cost_copies_.push_back({e, e});
      time_copies_.push_back({e, e});
    }
    cost_.resize(g_.num_edges());
    time_.resize(g_.num_edges());
    return;
  }
  // The process of tgmg_policy_bound: node n leaves through input edge
  // e at cost tokens(e) and time delay(n); early nodes pick e with
  // probability gamma(e). A valid RRG refines to a valid TGMG (the
  // procedures copy its guard probabilities and add only cycles that
  // carry a token), so the TGMG needs no validation of its own.
  const Tgmg tgmg = refined_tgmg(rrg);
  g_ = tgmg.graph();
  for (EdgeId e = 0; e < g_.num_edges(); ++e) {
    const NodeId n = g_.dst(e);
    cost_.push_back(tgmg.tokens(e));
    time_.push_back(tgmg.delay(n));
    prob_.push_back(tgmg.gamma(e));
    if (tgmg.marking_source(e) != graph::kNoEdge) {
      cost_copies_.push_back({e, tgmg.marking_source(e)});
    }
    if (tgmg.delay_source(n) != graph::kNoEdge) {
      time_copies_.push_back({e, tgmg.delay_source(n)});
    }
  }
  for (NodeId n = 0; n < g_.num_nodes(); ++n) {
    random_.push_back(tgmg.is_early(n));
  }
}

std::optional<NodeId> ConfigEvaluator::longest_path(
    const RrConfig& config) const {
  return graph::longest_path(
      checker_.rrg().graph(), delays_,
      [&](EdgeId e) { return config.buffers[e] == 0; }, path_);
}

CycleTimeResult ConfigEvaluator::cycle_time(const RrConfig& config) const {
  const std::optional<NodeId> sink = longest_path(config);
  CycleTimeResult out;
  out.valid = sink.has_value();
  if (out.valid && *sink != graph::kNoNode) {
    out.tau = path_.arrival[*sink];
    out.critical_path = graph::critical_path(path_, *sink);
  }
  return out;
}

double ConfigEvaluator::theta_lp(const RrConfig& config) const {
  for (const auto& [to, from] : cost_copies_) cost_[to] = config.tokens[from];
  for (const auto& [to, from] : time_copies_) time_[to] = config.buffers[from];
  const graph::RatioMdpResult mdp =
      graph::min_ratio_mdp(g_, cost_, time_, prob_, random_);
  ELRR_REQUIRE(mdp.bounded,
               "throughput unbounded: the RRG has no token-limited cycle");
  return mdp.ratio;
}

RcEvaluation ConfigEvaluator::evaluate(const RrConfig& config) const {
  RcEvaluation eval;
  const std::optional<NodeId> sink = longest_path(config);
  ELRR_ASSERT(sink.has_value(), "live RRG cannot have a zero-buffer cycle");
  eval.tau = *sink != graph::kNoNode ? path_.arrival[*sink] : 0.0;
  eval.theta_lp = theta_lp(config);
  eval.xi_lp = effective_cycle_time(eval.tau, eval.theta_lp);
  return eval;
}

}  // namespace elrr
