#include "core/rrg.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <sstream>

#include "core/evaluator.hpp"
#include "graph/bellman_ford.hpp"
#include "graph/dot.hpp"
#include "graph/topo.hpp"
#include "support/error.hpp"
#include "support/strings.hpp"

namespace elrr {

Rrg::Structure& Rrg::structure() {
  if (s_.use_count() != 1) {
    s_ = std::make_shared<Structure>(*s_);
  } else {
    // The graph that shared it last may have let go on another thread:
    // order its reads before these writes.
    std::atomic_thread_fence(std::memory_order_acquire);
  }
  return *s_;
}

NodeId Rrg::add_node(std::string name, double delay, NodeKind kind) {
  ELRR_REQUIRE(std::isfinite(delay) && delay >= 0.0,
               "node delay must be finite and non-negative, got ", delay);
  Structure& s = structure();
  const NodeId n = s.g.add_node();
  if (name.empty()) name = indexed_name('n', n);
  s.names.push_back(std::move(name));
  s.delays.push_back(delay);
  s.kinds.push_back(kind);
  s.telescopic.push_back(Telescopic{});
  return n;
}

void Rrg::set_telescopic(NodeId n, double fast_prob, int slow_extra) {
  ELRR_REQUIRE(std::isfinite(fast_prob) && fast_prob > 0.0 && fast_prob <= 1.0,
               "telescopic fast probability of ", name(n),
               " must be in (0, 1], got ", fast_prob);
  ELRR_REQUIRE(slow_extra >= 0 && slow_extra <= 200,
               "telescopic slow_extra of ", name(n),
               " must be in [0, 200], got ", slow_extra);
  structure().telescopic[n] = Telescopic{fast_prob, slow_extra};
}


bool Rrg::has_telescopic() const {
  return std::any_of(s_->telescopic.begin(), s_->telescopic.end(),
                     [](const Telescopic& t) { return t.enabled(); });
}

EdgeId Rrg::add_edge(NodeId u, NodeId v, int tokens, int buffers,
                     double gamma) {
  ELRR_REQUIRE(std::isfinite(gamma), "gamma must be finite");
  Structure& s = structure();
  const EdgeId e = s.g.add_edge(u, v);
  s.gammas.push_back(gamma);
  tokens_.push_back(tokens);
  buffers_.push_back(buffers);
  return e;
}

double Rrg::max_delay() const {
  double best = 0.0;
  for (double d : s_->delays) best = std::max(best, d);
  return best;
}

double Rrg::total_delay() const {
  double total = 0.0;
  for (double d : s_->delays) total += d;
  return total;
}

void Rrg::validate() const {
  const Digraph& g = graph();
  for (EdgeId e = 0; e < num_edges(); ++e) {
    ELRR_REQUIRE(buffers_[e] >= 0, "edge ", e, " (", name(g.src(e)), " -> ",
                 name(g.dst(e)), ") has negative buffer count ", buffers_[e]);
    ELRR_REQUIRE(buffers_[e] >= tokens_[e], "edge ", e, " (", name(g.src(e)),
                 " -> ", name(g.dst(e)), ") violates R >= R0: R=", buffers_[e],
                 " R0=", tokens_[e]);
  }
  validate_structure();
  std::vector<EdgeId> dead;
  if (!is_live(&dead)) {
    std::ostringstream os;
    os << "RRG is not live: cycle with non-positive token sum through edges";
    for (EdgeId e : dead) os << " " << e;
    throw InvalidInputError(os.str());
  }
}

void Rrg::validate_structure() const {
  const Digraph& g = graph();
  for (NodeId n = 0; n < num_nodes(); ++n) {
    if (!is_early(n)) continue;
    ELRR_REQUIRE(g.in_degree(n) >= 2, "early-evaluation node ", name(n),
                 " must have at least two inputs");
    double sum = 0.0;
    for (EdgeId e : g.in_edges(n)) {
      ELRR_REQUIRE(gamma(e) > 0.0 && gamma(e) <= 1.0,
                   "gamma of input edge ", e, " of early node ", name(n),
                   " must be in (0, 1], got ", gamma(e));
      sum += gamma(e);
    }
    ELRR_REQUIRE(std::abs(sum - 1.0) <= 1e-9,
                 "input probabilities of early node ", name(n),
                 " must sum to 1, got ", sum);
  }
}

bool Rrg::is_live(std::vector<EdgeId>* dead_cycle) const {
  std::vector<std::int64_t> weights(tokens_.begin(), tokens_.end());
  return !graph::has_nonpositive_cycle(graph(), weights, dead_cycle);
}

std::string Rrg::to_dot() const {
  graph::DotStyle style;
  style.graph_name = "rrg";
  style.node_label = [this](NodeId n) {
    std::ostringstream os;
    os << name(n) << "\\n" << format_fixed(delay(n), 2);
    if (is_telescopic(n)) {
      os << "\\np=" << format_fixed(telescopic(n).fast_prob, 2) << "+"
         << telescopic(n).slow_extra;
    }
    return os.str();
  };
  style.node_attrs = [this](NodeId n) {
    return is_early(n) ? std::string("shape=trapezium") : std::string();
  };
  style.edge_label = [this](EdgeId e) {
    std::ostringstream os;
    os << "R0=" << tokens(e) << " R=" << buffers(e);
    if (is_early(graph().dst(e))) os << " g=" << format_fixed(gamma(e), 2);
    return os.str();
  };
  return graph::to_dot(graph(), style);
}

RrConfig initial_config(const Rrg& rrg) {
  RrConfig config;
  config.tokens.reserve(rrg.num_edges());
  config.buffers.reserve(rrg.num_edges());
  for (EdgeId e = 0; e < rrg.num_edges(); ++e) {
    config.tokens.push_back(rrg.tokens(e));
    config.buffers.push_back(rrg.buffers(e));
  }
  return config;
}

Rrg apply_config(const Rrg& rrg, const RrConfig& config) {
  ELRR_REQUIRE(config.tokens.size() == rrg.num_edges() &&
                   config.buffers.size() == rrg.num_edges(),
               "configuration size mismatch");
  Rrg out = rrg;
  for (EdgeId e = 0; e < rrg.num_edges(); ++e) {
    out.set_tokens(e, config.tokens[e]);
    out.set_buffers(e, config.buffers[e]);
  }
  out.validate();
  return out;
}

RrConfig apply_retiming(const Rrg& rrg, const std::vector<int>& r,
                        bool grow_buffers) {
  ELRR_REQUIRE(r.size() == rrg.num_nodes(), "retiming vector size mismatch");
  RrConfig config;
  config.tokens.resize(rrg.num_edges());
  config.buffers.resize(rrg.num_edges());
  const Digraph& g = rrg.graph();
  for (EdgeId e = 0; e < rrg.num_edges(); ++e) {
    const int moved = rrg.tokens(e) + r[g.dst(e)] - r[g.src(e)];
    config.tokens[e] = moved;
    config.buffers[e] = grow_buffers ? std::max({moved, rrg.buffers(e), 0})
                                     : std::max(moved, 0);
  }
  return config;
}

bool validate_config(const Rrg& rrg, const RrConfig& config,
                     std::string* why) {
  return ConfigChecker(rrg).check(config, why);
}

CycleTimeResult cycle_time(const Rrg& rrg) {
  std::vector<double> delays;
  delays.reserve(rrg.num_nodes());
  for (NodeId n = 0; n < rrg.num_nodes(); ++n) delays.push_back(rrg.delay(n));
  const auto res = graph::longest_path(
      rrg.graph(), delays, [&](EdgeId e) { return rrg.buffers(e) == 0; });
  CycleTimeResult out;
  out.valid = res.is_dag;
  out.tau = res.max_arrival;
  out.critical_path = res.critical_path;
  return out;
}

double effective_cycle_time(double tau, double theta) {
  ELRR_REQUIRE(theta > 0.0, "throughput must be positive, got ", theta);
  return tau / theta;
}

double throughput_cap(const Rrg& rrg) {
  double cap = 1.0;
  for (NodeId n = 0; n < rrg.num_nodes(); ++n) {
    if (rrg.is_telescopic(n)) {
      cap = std::min(cap, 1.0 / (1.0 + rrg.service(n)));
    }
  }
  return cap;
}

}  // namespace elrr
