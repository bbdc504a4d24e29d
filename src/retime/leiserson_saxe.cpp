#include "retime/leiserson_saxe.hpp"

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

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
  // With no register on some cycle no period is achievable; the system
  // at the largest candidate would still bind and return r = 0.
  std::vector<EdgeId> dead;
  const bool live = rrg.is_live(&dead);
  std::string edges;
  for (const EdgeId e : dead) {
    edges += ' ';
    edges += std::to_string(e);
  }
  ELRR_REQUIRE(live, "min-period retiming requires a live circuit "
               "(zero-token cycle through edges", edges, ")");
}

/// A W/D pair (u, v) keyed by its D: the key's unsigned order is D's.
struct PairKey {
  std::uint64_t key;
  NodeId u;
  NodeId v;
};

std::uint64_t order_key(double d) {
  d += 0.0;  // -0.0 becomes +0.0: equal doubles get equal keys
  std::uint64_t bits = 0;
  std::memcpy(&bits, &d, sizeof bits);
  // Flip every bit of a negative value, the sign bit of a positive one.
  return bits ^ ((bits >> 63) != 0 ? ~std::uint64_t{0} : std::uint64_t{1} << 63);
}

/// Sorts the pairs by ascending key. A least-significant-digit radix sort
/// on the keys' upper 32 bits (sign, exponent and 20 bits of mantissa)
/// orders all but D values within ~1e-6 of each other; a comparison sort
/// of each run tied there finishes the job. On the heuristic's circuits
/// every run is one pair long, and std::sort over all pairs, whose
/// comparisons mispredict, was half of min_period_retiming.
void sort_by_key(std::vector<PairKey>& pairs) {
  std::vector<PairKey> buffer(pairs.size());
  for (int shift = 32; shift < 64; shift += 8) {
    std::array<std::size_t, 257> start{};
    for (const PairKey& p : pairs) ++start[((p.key >> shift) & 0xff) + 1];
    // A digit all keys share moves nothing (the exponent's high bits).
    if (std::find(start.begin(), start.end(), pairs.size()) != start.end()) {
      continue;
    }
    for (std::size_t b = 0; b < 256; ++b) start[b + 1] += start[b];
    for (const PairKey& p : pairs) buffer[start[(p.key >> shift) & 0xff]++] = p;
    pairs.swap(buffer);
  }
  for (auto run = pairs.begin(); run != pairs.end();) {
    const auto tie = std::find_if(run, pairs.end(), [&](const PairKey& p) {
      return (p.key >> 32) != (run->key >> 32);
    });
    if (tie - run > 1) {
      std::sort(run, tie, [](const PairKey& a, const PairKey& b) {
        return a.key < b.key;
      });
    }
    run = tie;
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

/// The Leiserson-Saxe constraint systems of every candidate period as
/// one arc set. Constraint r(u) - r(v) <= c is the arc v -> u of weight
/// c (a potential x satisfies it when x(u) <= x(v) + c). The arcs leaving
/// each tail are stored contiguously: the RRG's edges first, binding at
/// every period, then the W/D pair arcs in descending D. Pair (u, v)
/// binds at period P iff D(u, v) > P, i.e. iff the rank of its D among
/// the candidate periods exceeds the probed candidate's index, so the
/// system of a candidate is each tail's prefix of arcs above that index.
class ConstraintSystem {
 public:
  ConstraintSystem(const Rrg& rrg, const WdMatrices& wd);

  /// The distinct D values, ascending: the optimum period is one of them.
  const std::vector<double>& candidates() const { return candidates_; }

  /// Is the system of candidate `c` feasible? Each call warm-starts from
  /// the potential of the latest feasible call (initially 0, the solution
  /// at the largest candidate: no pair binds there and the RRG's arcs
  /// weigh tokens >= 0). A binary search only probes below its feasible
  /// end, so `c` binds a superset of that potential's arcs, and the
  /// potential, made of path lengths of the new system, bounds its
  /// shortest distances from above. Bellman-Ford-Moore (a FIFO queue of
  /// changed nodes, counted in rounds) then converges to the same unique
  /// shortest distances from a virtual source as a cold solve; that
  /// vector becomes the held potential. A cycle of predecessor links is
  /// always negative, whatever the start, and ends an infeasible call at
  /// the round that closes it; more than n rounds is the backstop.
  bool solve(std::size_t c);

  /// The potential of the latest feasible call.
  const std::vector<std::int64_t>& potential() const { return warm_; }

 private:
  static constexpr std::uint32_t kAlways =
      std::numeric_limits<std::uint32_t>::max();

  struct Arc {
    NodeId head;
    std::uint32_t rank;  ///< binds at candidate c iff rank > c
    std::int64_t weight;
  };

  bool has_predecessor_cycle();

  std::vector<double> candidates_;
  /// The arcs of tail t are arcs_[begin_[t]] .. arcs_[begin_[t + 1] - 1];
  /// those binding at warm_ end at warm_end_[t].
  std::vector<std::size_t> begin_;
  std::vector<Arc> arcs_;
  std::vector<std::size_t> warm_end_;
  std::vector<std::int64_t> warm_;
  std::vector<std::int64_t> dist_;
  std::vector<NodeId> pred_;
  std::vector<NodeId> queue_;
  std::vector<NodeId> next_;
  std::vector<std::uint8_t> queued_;
  std::vector<NodeId> mark_;
};

ConstraintSystem::ConstraintSystem(const Rrg& rrg, const WdMatrices& wd) {
  const std::size_t n = rrg.num_nodes();
  std::vector<PairKey> pairs;
  for (std::size_t u = 0; u < n; ++u) {
    for (std::size_t v = 0; v < n; ++v) {
      if (wd.W(u, v) >= kInfW) continue;
      pairs.push_back({order_key(wd.D(u, v)), static_cast<NodeId>(u),
                       static_cast<NodeId>(v)});
    }
  }
  sort_by_key(pairs);
  std::vector<std::uint32_t> rank(pairs.size());
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    if (i == 0 || pairs[i].key != pairs[i - 1].key) {
      candidates_.push_back(wd.D(pairs[i].u, pairs[i].v));
    }
    rank[i] = static_cast<std::uint32_t>(candidates_.size() - 1);
  }

  const Digraph& g = rrg.graph();
  begin_.assign(n + 1, 0);
  for (EdgeId e = 0; e < rrg.num_edges(); ++e) ++begin_[g.dst(e) + 1];
  for (const PairKey& p : pairs) ++begin_[p.v + 1];
  for (std::size_t t = 0; t < n; ++t) begin_[t + 1] += begin_[t];
  arcs_.resize(begin_[n]);
  std::vector<std::size_t> fill(begin_.begin(), begin_.end() - 1);
  // r(src) - r(dst) <= tokens(e)
  for (EdgeId e = 0; e < rrg.num_edges(); ++e) {
    arcs_[fill[g.dst(e)]++] = {g.src(e), kAlways, rrg.tokens(e)};
  }
  warm_end_ = fill;
  // r(u) - r(v) <= W(u, v) - 1 while D(u, v) > P; in descending D.
  for (std::size_t i = pairs.size(); i-- > 0;) {
    const PairKey& p = pairs[i];
    arcs_[fill[p.v]++] = {p.u, rank[i], wd.W(p.u, p.v) - 1};
  }

  warm_.assign(n, 0);
  dist_.resize(n);
  pred_.resize(n);
  queued_.resize(n);
  mark_.resize(n);
}

bool ConstraintSystem::solve(std::size_t c) {
  const std::size_t n = warm_.size();
  dist_ = warm_;
  std::fill(pred_.begin(), pred_.end(), graph::kNoNode);
  std::fill(queued_.begin(), queued_.end(), 0);
  // Only a tail with a newly binding arc can violate the warm potential.
  queue_.clear();
  for (NodeId t = 0; t < n; ++t) {
    if (warm_end_[t] < begin_[t + 1] && arcs_[warm_end_[t]].rank > c) {
      queue_.push_back(t);
      queued_[t] = 1;
    }
  }
  for (std::size_t round = 1; !queue_.empty(); ++round) {
    if (round > n) return false;
    next_.clear();
    for (const NodeId t : queue_) {
      queued_[t] = 0;
      for (std::size_t i = begin_[t]; i < begin_[t + 1] && arcs_[i].rank > c;
           ++i) {
        const Arc& arc = arcs_[i];
        const std::int64_t d = dist_[t] + arc.weight;
        if (d < dist_[arc.head]) {
          dist_[arc.head] = d;
          pred_[arc.head] = t;
          if (queued_[arc.head] == 0) {
            queued_[arc.head] = 1;
            next_.push_back(arc.head);
          }
        }
      }
    }
    if (has_predecessor_cycle()) return false;
    queue_.swap(next_);
  }
  warm_.swap(dist_);
  for (NodeId t = 0; t < n; ++t) {
    while (warm_end_[t] < begin_[t + 1] && arcs_[warm_end_[t]].rank > c) {
      ++warm_end_[t];
    }
  }
  return true;
}

/// O(n): each node is marked by the first walk up the links that
/// reaches it; a walk that meets its own mark has closed a cycle.
bool ConstraintSystem::has_predecessor_cycle() {
  std::fill(mark_.begin(), mark_.end(), graph::kNoNode);
  for (NodeId s = 0; s < mark_.size(); ++s) {
    NodeId v = s;
    while (v != graph::kNoNode && mark_[v] == graph::kNoNode) {
      mark_[v] = s;
      v = pred_[v];
    }
    if (v != graph::kNoNode && mark_[v] == s) return true;
  }
  return false;
}

}  // namespace

RetimingResult min_period_retiming(const Rrg& rrg) {
  check_preconditions(rrg);
  ConstraintSystem system(rrg, compute_wd(rrg));
  const std::vector<double>& candidates = system.candidates();
  ELRR_ASSERT(!candidates.empty(), "no candidate periods");

  // Binary search for the smallest feasible candidate; the largest is
  // feasible without a solve (see ConstraintSystem::solve).
  std::size_t lo = 0, hi = candidates.size() - 1;
  while (lo < hi) {
    const std::size_t mid = (lo + hi) / 2;
    if (system.solve(mid)) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  RetimingResult result;
  result.period = candidates[lo];
  result.r.assign(system.potential().begin(), system.potential().end());
  return result;
}

}  // namespace elrr::retime
