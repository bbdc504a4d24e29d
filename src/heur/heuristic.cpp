#include "heur/heuristic.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <deque>
#include <limits>
#include <unordered_map>

#include "core/evaluator.hpp"
#include "graph/scc.hpp"
#include "obs/trace.hpp"
#include "retime/leiserson_saxe.hpp"
#include "support/error.hpp"
#include "support/stopwatch.hpp"

namespace elrr {

namespace {

/// Working candidate: a configuration plus its (tau, theta_lp, xi_lp).
struct Candidate {
  RrConfig config;
  RcEvaluation eval;
};

/// FNV-1a over a configuration's tokens and buffers: the memo's key.
std::uint64_t config_hash(const RrConfig& config) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const std::vector<int>* v : {&config.tokens, &config.buffers}) {
    for (int x : *v) {
      h ^= static_cast<std::uint32_t>(x);
      h *= 0x100000001b3ULL;
    }
  }
  return h;
}

class Search {
 public:
  static constexpr int kExhausted = -1;  ///< a new configuration, no budget
  static constexpr int kIllegal = -2;    ///< fails validate_config

  Search(const Rrg& rrg, const HeuristicOptions& options,
         const detail::ProbeObserver& observe)
      : evaluator_(rrg), options_(options), observe_(observe) {}

  const ConfigEvaluator& evaluator() const { return evaluator_; }
  int lp_evals() const { return lp_evals_; }
  /// Every configuration evaluated so far; references stay valid.
  const std::deque<Candidate>& seen() const { return seen_; }

  bool budget_left() const { return lp_evals_ < options_.max_lp_evals; }

  /// Index in `seen()` of `config`, checked and evaluated on first sight
  /// (a memo hit was checked then): kIllegal when it is not a legal
  /// configuration, kExhausted when it is new and the budget is spent.
  int probe(const RrConfig& config) {
    const std::uint64_t key = config_hash(config);
    const auto [first, last] = memo_.equal_range(key);
    for (auto it = first; it != last; ++it) {
      if (seen_[it->second].config == config) return it->second;
    }
    if (!evaluator_.check(config)) return kIllegal;
    if (!budget_left()) return kExhausted;
    ++lp_evals_;
    Candidate c;
    c.config = config;
    {
      OBS_SPAN("heur.eval");
      c.eval = evaluator_.evaluate(config);
    }
    if (observe_) observe_(c.config, c.eval);
    const int index = static_cast<int>(seen_.size());
    seen_.push_back(std::move(c));
    memo_.emplace(key, index);
    return index;
  }

 private:
  ConfigEvaluator evaluator_;
  const HeuristicOptions& options_;
  const detail::ProbeObserver& observe_;
  std::deque<Candidate> seen_;
  std::unordered_multimap<std::uint64_t, int> memo_;
  int lp_evals_ = 0;
};

/// Zero-buffer edges connecting consecutive nodes of the critical path.
std::vector<EdgeId> critical_edges(const Rrg& rrg,
                                   const ConfigEvaluator& evaluator,
                                   const RrConfig& config) {
  const CycleTimeResult ct = evaluator.cycle_time(config);
  std::vector<EdgeId> edges;
  const Digraph& g = rrg.graph();
  for (std::size_t i = 0; i + 1 < ct.critical_path.size(); ++i) {
    const NodeId u = ct.critical_path[i];
    const NodeId v = ct.critical_path[i + 1];
    for (EdgeId e : g.out_edges(u)) {
      if (g.dst(e) == v && config.buffers[e] == 0) {
        edges.push_back(e);
        break;
      }
    }
  }
  return edges;
}

/// Single-node retiming move: tokens shift by `d` across node n and the
/// elastic buffers move with them (clamped to the legal floor).
RrConfig retime_move(const Rrg& rrg, const RrConfig& config, NodeId n,
                     int d) {
  RrConfig out = config;
  const Digraph& g = rrg.graph();
  for (EdgeId e : g.in_edges(n)) {
    if (g.src(e) == n) continue;  // self loop: unchanged by retiming
    out.tokens[e] += d;
    out.buffers[e] =
        std::max({out.buffers[e] + d, out.tokens[e], 0});
  }
  for (EdgeId e : g.out_edges(n)) {
    if (g.dst(e) == n) continue;
    out.tokens[e] -= d;
    out.buffers[e] =
        std::max({out.buffers[e] - d, out.tokens[e], 0});
  }
  return out;
}

}  // namespace

HeuristicResult heur_eff_cyc(const Rrg& rrg, const HeuristicOptions& options) {
  return detail::heur_eff_cyc(rrg, options, {});
}

namespace detail {

HeuristicResult heur_eff_cyc(const Rrg& rrg, const HeuristicOptions& options,
                             const ProbeObserver& observe) {
  OBS_SPAN("heur.eff_cyc");
  Stopwatch watch;
  rrg.validate();
  ELRR_REQUIRE(graph::is_strongly_connected(rrg.graph()),
               "the heuristic requires a strongly connected RRG");
  ELRR_REQUIRE(options.max_lp_evals > 0, "LP budget must be positive");

  Search search(rrg, options, observe);

  // --- seeds -------------------------------------------------------
  int best = search.probe(initial_config(rrg));
  ELRR_ASSERT(best >= 0, "identity probe cannot exhaust the budget");

  const bool classical = [&] {
    for (EdgeId e = 0; e < rrg.num_edges(); ++e) {
      if (rrg.tokens(e) < 0) return false;
    }
    return true;
  }();
  if (classical) {
    const retime::RetimingResult ls = [&] {
      OBS_SPAN("heur.seed");
      return retime::min_period_retiming(rrg);
    }();
    const int idx = search.probe(apply_retiming(rrg, ls.r, false));
    if (idx >= 0 &&
        search.seen()[idx].eval.xi_lp < search.seen()[best].eval.xi_lp) {
      best = idx;
    }
  }

  // --- greedy recycling walk ---------------------------------------
  // From the best seed, sweep tau downward. Each round cuts the current
  // critical path with the move of smallest resulting xi_lp, choosing
  // per critical edge (u, v) among three cuts:
  //  * recycle: insert a bubble on the edge (cheap, costs throughput);
  //  * retime the head: r(v) += 1 pulls a token-carrying EB onto every
  //    input of v (cuts the edge without adding latency elsewhere);
  //  * retime the tail: r(u) -= 1 pushes an EB onto every output of u.
  // Every probe stays recorded for the final Pareto filter.
  int cursor = best;
  const double beta_max = rrg.max_delay();
  std::vector<int> visited{cursor};
  for (int round = 0; round < options.max_bubble_rounds; ++round) {
    const Candidate& current = search.seen()[cursor];
    if (current.eval.tau <= beta_max + 1e-9) break;
    std::vector<EdgeId> edges =
        critical_edges(rrg, search.evaluator(), current.config);
    if (edges.empty()) break;
    if (static_cast<int>(edges.size()) > options.max_edges_per_round) {
      // Evenly spaced subsample so both ends of the path stay covered.
      std::vector<EdgeId> sample;
      const std::size_t want =
          static_cast<std::size_t>(options.max_edges_per_round);
      for (std::size_t i = 0; i < want; ++i) {
        sample.push_back(edges[i * (edges.size() - 1) / (want - 1)]);
      }
      sample.erase(std::unique(sample.begin(), sample.end()), sample.end());
      edges = std::move(sample);
    }
    int round_best = -1;
    const auto consider = [&](const RrConfig& next) {
      const int idx = search.probe(next);
      if (idx == Search::kIllegal) return true;
      if (idx == Search::kExhausted) return false;
      if (round_best < 0 || search.seen()[idx].eval.xi_lp <
                                search.seen()[round_best].eval.xi_lp) {
        round_best = idx;
      }
      return true;
    };
    const Digraph& g = rrg.graph();
    for (EdgeId e : edges) {
      RrConfig bubble = current.config;
      ++bubble.buffers[e];
      if (!consider(bubble)) break;
      if (!consider(retime_move(rrg, current.config, g.dst(e), 1))) break;
      if (!consider(retime_move(rrg, current.config, g.src(e), -1))) break;
    }
    if (round_best < 0) break;
    // Retiming moves can revisit an earlier cursor; stop on a cycle.
    if (std::find(visited.begin(), visited.end(), round_best) !=
        visited.end()) {
      break;
    }
    cursor = round_best;
    visited.push_back(cursor);
    if (search.seen()[cursor].eval.xi_lp < search.seen()[best].eval.xi_lp) {
      best = cursor;
    }
    if (!search.budget_left()) break;
  }

  // --- polish ------------------------------------------------------
  // First-improvement descent around the best configuration: single-node
  // +-1 retimings and single-edge bubble removals.
  if (options.polish) {
    for (int round = 0; round < options.max_polish_rounds; ++round) {
      bool improved = false;
      const Candidate& pivot = search.seen()[best];
      for (NodeId n = 0; n < rrg.num_nodes() && !improved; ++n) {
        for (int d : {1, -1}) {
          const int idx = search.probe(retime_move(rrg, pivot.config, n, d));
          if (idx == Search::kIllegal) continue;
          if (idx == Search::kExhausted) break;
          if (search.seen()[idx].eval.xi_lp <
              pivot.eval.xi_lp - 1e-12) {
            best = idx;
            improved = true;
            break;
          }
        }
      }
      for (EdgeId e = 0; e < rrg.num_edges() && !improved; ++e) {
        const Candidate& pivot2 = search.seen()[best];
        const int floor =
            std::max(pivot2.config.tokens[e], 0);
        if (pivot2.config.buffers[e] <= floor) continue;
        RrConfig next = pivot2.config;
        --next.buffers[e];
        const int idx = search.probe(next);
        if (idx < 0) break;
        if (search.seen()[idx].eval.xi_lp < pivot2.eval.xi_lp - 1e-12) {
          best = idx;
          improved = true;
        }
      }
      if (!improved || !search.budget_left()) break;
    }
  }

  // --- Pareto filter -----------------------------------------------
  HeuristicResult result;
  result.lp_evals = search.lp_evals();
  result.points.reserve(search.seen().size());
  for (const Candidate& c : search.seen()) {
    // exact = false: a heuristic point carries no optimality proof.
    result.points.push_back(
        {c.config, c.eval.tau, c.eval.theta_lp, c.eval.xi_lp, false});
  }
  result.best_index = keep_pareto_frontier(result.points);
  ELRR_ASSERT(!result.points.empty(), "frontier cannot be empty");
  result.seconds = watch.seconds();
  return result;
}

}  // namespace detail

}  // namespace elrr
