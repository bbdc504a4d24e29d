#include "graph/ratio_mdp.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "graph/scc.hpp"
#include "support/error.hpp"

namespace elrr::graph {

namespace {

constexpr std::uint32_t kUnset = static_cast<std::uint32_t>(-1);
constexpr double kInf = std::numeric_limits<double>::infinity();

/// Relative tolerance of the gain and bias comparisons: far above the
/// rounding noise of an evaluation, far below any real difference.
constexpr double kTol = 1e-11;

/// The cost and time parts of a gain or a bias. The step reward at
/// weights (a, b) is a * cost - b * time, so every value an evaluation
/// computes is linear in the two parts, and one evaluation serves any phi.
struct Pair {
  double c = 0.0;
  double t = 0.0;
  double at(double a, double b) const { return a * c - b * t; }
};

enum Kind : std::uint8_t { kAbsorbing, kRandom, kChoice };

/// A move of a random node in the chain between random nodes: with
/// probability p, through a segment of choice nodes, to `target`.
struct Arc {
  NodeId target;  ///< a random node, an absorbing node or a cycle anchor
  double p;
  Pair seg;       ///< the segment's cost and time sums (0 when direct)
  double len;     ///< the segment's steps
};

/// Gaussian elimination with partial pivoting: solves the k x k
/// row-major system `m` for both parts of `rhs`, in place.
void solve_dense(std::vector<double>& m, std::vector<Pair>& rhs,
                 std::size_t k) {
  for (std::size_t col = 0; col < k; ++col) {
    std::size_t piv = col;
    for (std::size_t r = col + 1; r < k; ++r) {
      if (std::abs(m[r * k + col]) > std::abs(m[piv * k + col])) piv = r;
    }
    ELRR_ASSERT(m[piv * k + col] != 0.0, "singular policy evaluation");
    if (piv != col) {
      std::swap_ranges(m.begin() + piv * k, m.begin() + piv * k + k,
                       m.begin() + col * k);
      std::swap(rhs[piv], rhs[col]);
    }
    for (std::size_t r = col + 1; r < k; ++r) {
      const double f = m[r * k + col] / m[col * k + col];
      if (f == 0.0) continue;
      for (std::size_t j = col; j < k; ++j) m[r * k + j] -= f * m[col * k + j];
      rhs[r].c -= f * rhs[col].c;
      rhs[r].t -= f * rhs[col].t;
    }
  }
  for (std::size_t i = k; i-- > 0;) {
    Pair x = rhs[i];
    for (std::size_t j = i + 1; j < k; ++j) {
      x.c -= m[i * k + j] * rhs[j].c;
      x.t -= m[i * k + j] * rhs[j].t;
    }
    rhs[i] = {x.c / m[i * k + i], x.t / m[i * k + i]};
  }
}

class Solver {
 public:
  Solver(const Digraph& g, const std::vector<double>& cost,
         const std::vector<double>& time, const std::vector<double>& prob,
         const std::vector<std::uint8_t>& random)
      : g_(g), cost_(cost), time_(time), prob_(prob) {
    const std::size_t n = g.num_nodes();
    kind_.resize(n);
    policy_.assign(n, kNoEdge);
    rank_.assign(n, kUnset);
    for (NodeId v = 0; v < n; ++v) {
      if (g.in_degree(v) == 0) {
        kind_[v] = kAbsorbing;
      } else if (random[v] != 0) {
        kind_[v] = kRandom;
        rank_[v] = static_cast<std::uint32_t>(randoms_.size());
        randoms_.push_back(v);
      } else {
        kind_[v] = kChoice;
        choices_.push_back(v);
        // Start from the cheapest input: low-cost cycles first.
        for (EdgeId e : g.in_edges(v)) {
          if (policy_[v] == kNoEdge || cost[e] < cost[policy_[v]]) {
            policy_[v] = e;
          }
        }
      }
    }
    state_.resize(n);
    term_.resize(n);
    seg_.resize(n);
    len_.resize(n);
    gain_.resize(n);  // absorbing nodes keep gain 0 and bias 0
    bias_.resize(n);
    const std::size_t m = randoms_.size();
    own_.resize(m);
    arc_begin_.resize(m + 1);
    local_.resize(m);
  }

  RatioMdpResult run() {
    RatioMdpResult result;
    const int cap = 64 + 8 * static_cast<int>(g_.num_nodes());
    const auto next = [&] {
      evaluate();
      ELRR_ASSERT(evaluations_ <= cap,
                  "policy iteration did not converge in ", cap, " rounds");
    };
    next();
    double phi = min_class_ratio_;
    // Phase 1, only while no class has positive time: maximize the mean
    // time per step until such a class appears or none can.
    while (phi == kInf) {
      if (!improve(0.0, 1.0)) return result;  // unbounded
      next();
      phi = min_class_ratio_;
    }
    // Phase 2: Dinkelbach. Every class found caps phi at its ratio.
    while (improve(1.0, phi)) {
      next();
      phi = std::min(phi, min_class_ratio_);
    }
    result.bounded = true;
    result.ratio = phi;
    return result;
  }

 private:
  /// Gain and bias of every node under the current policy, both parts.
  /// Normalization: bias 0 at each class's anchor, its smallest node id,
  /// so a class that survives an improvement keeps its biases.
  void evaluate() {
    ++evaluations_;
    min_class_ratio_ = kInf;
    std::fill(state_.begin(), state_.end(), std::uint8_t{0});
    for (NodeId v : choices_) {
      if (state_[v] == 0) walk(v);
    }
    if (!randoms_.empty()) solve_random_chain();
    for (NodeId v : choices_) {
      const NodeId t = term_[v];
      if (t == v) continue;  // a cycle anchor
      gain_[v] = gain_[t];
      bias_[v] = {seg_[v].c - len_[v] * gain_[t].c + bias_[t].c,
                  seg_[v].t - len_[v] * gain_[t].t + bias_[t].t};
    }
  }

  /// A recurrent class with these cost and time totals (or means): only
  /// a class of positive time bounds the ratio.
  void add_class(double cost, double time) {
    if (time > 0.0) min_class_ratio_ = std::min(min_class_ratio_, cost / time);
  }

  /// Follows the policy from choice node `start` until a resolved node,
  /// and resolves the path: each node's segment to its terminal. A path
  /// that closes on itself is a deterministic cycle, a class of its own.
  void walk(NodeId start) {
    path_.clear();
    NodeId v = start;
    while (kind_[v] == kChoice && state_[v] == 0) {
      state_[v] = 1;
      path_.push_back(v);
      v = g_.src(policy_[v]);
    }
    std::size_t tail = path_.size();
    if (kind_[v] == kChoice && state_[v] == 1) {
      std::size_t k = tail;
      while (path_[--k] != v) {
      }
      const std::size_t len = tail - k;
      std::size_t anchor = k;
      Pair sum;
      for (std::size_t i = k; i < tail; ++i) {
        sum.c += cost_[policy_[path_[i]]];
        sum.t += time_[policy_[path_[i]]];
        if (path_[i] < path_[anchor]) anchor = i;
      }
      const NodeId a = path_[anchor];
      state_[a] = 2;
      term_[a] = a;
      seg_[a] = {};
      len_[a] = 0.0;
      gain_[a] = {sum.c / static_cast<double>(len),
                  sum.t / static_cast<double>(len)};
      bias_[a] = {};
      // The exact quotient of the cycle's sums, not of the mean gains.
      add_class(sum.c, sum.t);
      for (std::size_t j = 1; j < len; ++j) {
        link(path_[k + (anchor - k + len - j) % len]);
      }
      tail = k;
    }
    for (std::size_t i = tail; i-- > 0;) link(path_[i]);
  }

  /// Resolves choice node v from its (resolved) policy successor.
  void link(NodeId v) {
    const EdgeId e = policy_[v];
    const NodeId u = g_.src(e);
    if (kind_[u] == kChoice) {
      term_[v] = term_[u];
      seg_[v] = {cost_[e] + seg_[u].c, time_[e] + seg_[u].t};
      len_[v] = 1.0 + len_[u];
    } else {
      term_[v] = u;
      seg_[v] = {cost_[e], time_[e]};
      len_[v] = 1.0;
    }
    state_[v] = 2;
  }

  /// The chain between random nodes: its arcs, then its strongly
  /// connected components, solved sinks first -- every component a
  /// component leaks to is solved before it.
  void solve_random_chain() {
    const std::size_t m = randoms_.size();
    arcs_.clear();
    Digraph chain(m);
    for (std::size_t r = 0; r < m; ++r) {
      arc_begin_[r] = static_cast<std::uint32_t>(arcs_.size());
      Pair own;
      for (EdgeId e : g_.in_edges(randoms_[r])) {
        const double p = prob_[e];
        own.c += p * cost_[e];
        own.t += p * time_[e];
        const NodeId u = g_.src(e);
        if (kind_[u] == kChoice) {
          arcs_.push_back({term_[u], p, seg_[u], len_[u]});
        } else {
          arcs_.push_back({u, p, {}, 0.0});
        }
        if (kind_[arcs_.back().target] == kRandom) {
          chain.add_edge(static_cast<NodeId>(r), rank_[arcs_.back().target]);
        }
      }
      own_[r] = own;
    }
    arc_begin_[m] = static_cast<std::uint32_t>(arcs_.size());

    // Reverse topological numbering: component 0 is a sink.
    const SccResult scc = strongly_connected_components(chain);
    comp_ = scc.component;
    members_.resize(m);
    for (std::uint32_t r = 0; r < m; ++r) members_[r] = r;
    std::stable_sort(members_.begin(), members_.end(),
                     [&](std::uint32_t a, std::uint32_t b) {
                       return comp_[a] < comp_[b];
                     });
    for (std::size_t i = 0; i < m;) {
      std::size_t j = i;
      while (j < m && comp_[members_[j]] == comp_[members_[i]]) ++j;
      solve_component(&members_[i], j - i);
      i = j;
    }
  }

  /// Gains and biases of one component of the random chain: `members`
  /// holds its k ranks, ascending, so the anchor is its smallest node id.
  /// A closed component is a recurrent class: one shared gain plus biases
  /// anchored at 0. An open one is transient: its gains average those it
  /// leaks to, its biases follow.
  void solve_component(const std::uint32_t* members, std::size_t k) {
    const std::uint32_t id = comp_[members[0]];
    for (std::size_t i = 0; i < k; ++i) local_[members[i]] = i;
    const auto inside = [&](NodeId t) {
      return kind_[t] == kRandom && comp_[rank_[t]] == id;
    };
    // I - P over the component.
    bool closed = true;
    mat_.assign(k * k, 0.0);
    for (std::size_t i = 0; i < k; ++i) {
      mat_[i * k + i] += 1.0;
      const std::uint32_t r = members[i];
      for (std::uint32_t a = arc_begin_[r]; a < arc_begin_[r + 1]; ++a) {
        const Arc& arc = arcs_[a];
        if (inside(arc.target)) {
          mat_[i * k + local_[rank_[arc.target]]] -= arc.p;
        } else {
          closed = false;
        }
      }
    }
    rhs_.assign(k, Pair{});
    if (closed) {
      // h(i) - sum_j P(i,j) h(j) + g * steps(i) = reward(i), with the
      // anchor's bias fixed at 0: its column carries the gain instead.
      for (std::size_t i = 0; i < k; ++i) {
        const std::uint32_t r = members[i];
        double steps = 1.0;
        Pair reward = own_[r];
        for (std::uint32_t a = arc_begin_[r]; a < arc_begin_[r + 1]; ++a) {
          const Arc& arc = arcs_[a];
          steps += arc.p * arc.len;
          reward.c += arc.p * arc.seg.c;
          reward.t += arc.p * arc.seg.t;
        }
        mat_[i * k] = steps;
        rhs_[i] = reward;
      }
      solve_dense(mat_, rhs_, k);
      const Pair gain = rhs_[0];
      for (std::size_t i = 0; i < k; ++i) {
        const NodeId v = randoms_[members[i]];
        gain_[v] = gain;
        bias_[v] = i == 0 ? Pair{} : rhs_[i];
      }
      add_class(gain.c, gain.t);
      return;
    }
    // Gains: g(i) - sum_j P(i,j) g(j) = sum over leaving arcs of p g(t).
    mat2_ = mat_;
    for (std::size_t i = 0; i < k; ++i) {
      const std::uint32_t r = members[i];
      for (std::uint32_t a = arc_begin_[r]; a < arc_begin_[r + 1]; ++a) {
        const Arc& arc = arcs_[a];
        if (inside(arc.target)) continue;
        rhs_[i].c += arc.p * gain_[arc.target].c;
        rhs_[i].t += arc.p * gain_[arc.target].t;
      }
    }
    solve_dense(mat_, rhs_, k);
    for (std::size_t i = 0; i < k; ++i) gain_[randoms_[members[i]]] = rhs_[i];
    // Biases: h(i) = own(i) - g(i) + sum_arcs p (seg - len g(t) + h(t)).
    for (std::size_t i = 0; i < k; ++i) {
      const std::uint32_t r = members[i];
      const Pair& g = gain_[randoms_[r]];
      Pair b{own_[r].c - g.c, own_[r].t - g.t};
      for (std::uint32_t a = arc_begin_[r]; a < arc_begin_[r + 1]; ++a) {
        const Arc& arc = arcs_[a];
        const Pair& gt = gain_[arc.target];
        b.c += arc.p * (arc.seg.c - arc.len * gt.c);
        b.t += arc.p * (arc.seg.t - arc.len * gt.t);
        if (!inside(arc.target)) {
          b.c += arc.p * bias_[arc.target].c;
          b.t += arc.p * bias_[arc.target].t;
        }
      }
      rhs_[i] = b;
    }
    solve_dense(mat2_, rhs_, k);
    for (std::size_t i = 0; i < k; ++i) bias_[randoms_[members[i]]] = rhs_[i];
  }

  /// One improvement at step reward a * cost - b * time: every choice
  /// whose gain can drop switches; only when none can, every choice
  /// whose bias can drop among equal gains switches. Returns false when
  /// nothing switched (the policy is optimal at these weights).
  bool improve(double a, double b) {
    bool switched = false;
    for (NodeId v : choices_) {
      if (g_.in_degree(v) < 2) continue;
      double best = gain_[g_.src(policy_[v])].at(a, b);
      const double tol = kTol * (1.0 + std::abs(best));
      for (EdgeId e : g_.in_edges(v)) {
        const double ge = gain_[g_.src(e)].at(a, b);
        if (ge < best - tol) {
          best = ge;
          policy_[v] = e;
          switched = true;
        }
      }
    }
    if (switched) return true;
    for (NodeId v : choices_) {
      if (g_.in_degree(v) < 2) continue;
      const EdgeId cur = policy_[v];
      const double g0 = gain_[g_.src(cur)].at(a, b);
      const double gtol = kTol * (1.0 + std::abs(g0));
      double best =
          a * cost_[cur] - b * time_[cur] + bias_[g_.src(cur)].at(a, b);
      for (EdgeId e : g_.in_edges(v)) {
        const NodeId u = g_.src(e);
        if (std::abs(gain_[u].at(a, b) - g0) > gtol) continue;
        const double val = a * cost_[e] - b * time_[e] + bias_[u].at(a, b);
        if (val < best - kTol * (1.0 + std::abs(best))) {
          best = val;
          policy_[v] = e;
          switched = true;
        }
      }
    }
    return switched;
  }

  const Digraph& g_;
  const std::vector<double>& cost_;
  const std::vector<double>& time_;
  const std::vector<double>& prob_;
  std::vector<std::uint8_t> kind_;
  std::vector<NodeId> choices_;
  std::vector<NodeId> randoms_;
  std::vector<std::uint32_t> rank_;  ///< node -> index in randoms_
  std::vector<EdgeId> policy_;       ///< choice nodes: the chosen in-edge

  // Evaluation, per node.
  std::vector<std::uint8_t> state_;  ///< 0 new, 1 on the walk, 2 resolved
  std::vector<NodeId> term_;         ///< choice nodes: segment terminal
  std::vector<Pair> seg_;
  std::vector<double> len_;
  std::vector<Pair> gain_;
  std::vector<Pair> bias_;
  std::vector<NodeId> path_;
  double min_class_ratio_ = kInf;  ///< over classes with time > 0
  int evaluations_ = 0;

  // The random chain, per random node (index in randoms_).
  std::vector<Pair> own_;
  std::vector<std::uint32_t> arc_begin_;
  std::vector<Arc> arcs_;
  std::vector<std::uint32_t> comp_;     ///< component of each rank
  std::vector<std::uint32_t> members_;  ///< ranks grouped by component
  std::vector<std::size_t> local_;  ///< rank -> index in members_
  std::vector<double> mat_, mat2_;
  std::vector<Pair> rhs_;
};

}  // namespace

RatioMdpResult min_ratio_mdp(const Digraph& g, const std::vector<double>& cost,
                             const std::vector<double>& time,
                             const std::vector<double>& prob,
                             const std::vector<std::uint8_t>& random) {
  ELRR_REQUIRE(cost.size() == g.num_edges() && time.size() == g.num_edges() &&
                   prob.size() == g.num_edges(),
               "cost/time/prob vector size mismatch");
  ELRR_REQUIRE(random.size() == g.num_nodes(), "random flag size mismatch");
  return Solver(g, cost, time, prob, random).run();
}

}  // namespace elrr::graph
