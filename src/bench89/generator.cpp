#include "bench89/generator.hpp"

#include <algorithm>
#include <numeric>

#include "graph/bellman_ford.hpp"
#include "graph/scc.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"
#include "support/strings.hpp"

namespace elrr::bench89 {

const std::vector<CircuitSpec>& table2_specs() {
  // Columns |N1|, |N2|, |E| of Table 2 (paper order).
  static const std::vector<CircuitSpec> specs = {
      {"s208", 7, 1, 9},      {"s641", 206, 15, 270}, {"s27", 9, 5, 24},
      {"s444", 45, 13, 82},   {"s838", 7, 1, 9},      {"s386", 36, 12, 131},
      {"s344", 122, 13, 176}, {"s400", 37, 9, 66},    {"s526", 43, 7, 71},
      {"s382", 35, 7, 60},    {"s420", 7, 1, 9},      {"s832", 76, 41, 462},
      {"s1488", 85, 48, 572}, {"s510", 63, 40, 407},  {"s953", 232, 36, 371},
      {"s713", 229, 27, 341}, {"s1494", 88, 48, 572}, {"s820", 72, 38, 424},
  };
  return specs;
}

const CircuitSpec& spec_by_name(const std::string& name) {
  for (const CircuitSpec& spec : table2_specs()) {
    if (spec.name == name) return spec;
  }
  throw InvalidInputError("unknown Table-2 circuit: " + name);
}

Digraph generate_structure(const CircuitSpec& spec, std::uint64_t seed) {
  const int n = spec.n_simple + spec.n_early;
  ELRR_REQUIRE(n >= 2, "need at least two nodes, spec gives ", n);
  ELRR_REQUIRE(spec.n_edges >= n,
               "need at least n edges for strong connectivity: |E|=",
               spec.n_edges, " < |N|=", n);
  ELRR_REQUIRE(spec.n_early <= spec.n_edges - n,
               "cannot give ", spec.n_early,
               " nodes a second input with only ", spec.n_edges - n,
               " extra edges");

  Rng rng(hash_name(spec.name) ^ seed);
  Digraph g(static_cast<std::size_t>(n));

  // Backbone: a random Hamiltonian cycle (strong connectivity with n
  // edges). Its traversal order doubles as a "level" order: real ISCAS89
  // SCCs are level-structured (combinational logic flows forward between
  // registers; cycles cross register boundaries), so extra edges are
  // mostly short forward chords and only occasionally feedback -- this
  // keeps the number of distinct short cycles realistic, which in turn
  // keeps the paper's 25% token density achievable after liveness repair.
  std::vector<NodeId> order(static_cast<std::size_t>(n));
  std::iota(order.begin(), order.end(), 0u);
  for (std::size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1],
              order[static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::int64_t>(i) - 1))]);
  }
  std::vector<std::size_t> pos(static_cast<std::size_t>(n));
  for (std::size_t i = 0; i < order.size(); ++i) pos[order[i]] = i;
  for (std::size_t i = 0; i < order.size(); ++i) {
    g.add_edge(order[i], order[(i + 1) % order.size()]);
  }

  const int extras = spec.n_edges - n;
  const std::int64_t window =
      std::max<std::int64_t>(2, n / 6);  // fan-in locality
  const auto has_edge = [&](NodeId u, NodeId v) {
    for (EdgeId e : g.out_edges(u)) {
      if (g.dst(e) == v) return true;
    }
    return false;
  };
  /// Picks a source for an extra edge into `dst`: usually a node slightly
  /// earlier in level order (combinational chord), sometimes later
  /// (feedback path).
  const auto add_extra_into = [&](NodeId dst) {
    const std::int64_t p = static_cast<std::int64_t>(pos[dst]);
    for (int attempt = 0; attempt < 96; ++attempt) {
      const bool forward = rng.bernoulli(0.85);
      std::int64_t src_pos;
      if (forward) {
        const std::int64_t lo = std::max<std::int64_t>(0, p - window);
        if (lo >= p) continue;  // dst is at level 0: no forward source
        src_pos = rng.uniform_int(lo, p - 1);
      } else {
        src_pos = rng.uniform_int(0, n - 1);
      }
      const NodeId src = order[static_cast<std::size_t>(src_pos)];
      if (src == dst) continue;
      if (attempt < 64 && has_edge(src, dst)) continue;  // prefer simple
      g.add_edge(src, dst);
      return;
    }
    // Dense corner: accept a parallel edge (RRGs are multigraphs).
    g.add_edge((dst + 1) % static_cast<NodeId>(n), dst);
  };

  // The first n_early extras target distinct nodes so that at least
  // n_early nodes end up with >= 2 inputs.
  std::vector<NodeId> early_targets = order;
  for (std::size_t i = early_targets.size(); i > 1; --i) {
    std::swap(early_targets[i - 1],
              early_targets[static_cast<std::size_t>(
                  rng.uniform_int(0, static_cast<std::int64_t>(i) - 1))]);
  }
  early_targets.resize(static_cast<std::size_t>(spec.n_early));

  int added = 0;
  for (NodeId target : early_targets) {
    add_extra_into(target);
    ++added;
  }
  for (; added < extras; ++added) {
    add_extra_into(static_cast<NodeId>(rng.uniform_int(0, n - 1)));
  }

  ELRR_ASSERT(g.num_edges() == static_cast<std::size_t>(spec.n_edges),
              "edge count mismatch");
  ELRR_ASSERT(graph::is_strongly_connected(g), "generator lost connectivity");
  return g;
}

Rrg annotate(const Digraph& structure, int n_early,
             const AnnotateOptions& options, std::uint64_t seed) {
  Rng rng(seed ^ 0xabcdef1234567890ULL);
  Rrg rrg;

  // Delays uniform in (0, 20] (Section 5).
  for (NodeId v = 0; v < structure.num_nodes(); ++v) {
    rrg.add_node(indexed_name('g', v),
                 rng.uniform_open_closed(options.delay_lo, options.delay_hi));
  }
  // Tokens with probability 0.25; R = R0 ("originally RRGs have no
  // bubbles", so xi* equals the cycle time).
  for (EdgeId e = 0; e < structure.num_edges(); ++e) {
    const int token = rng.bernoulli(options.token_prob) ? 1 : 0;
    rrg.add_edge(structure.src(e), structure.dst(e), token, token);
  }
  // Liveness repair: every cycle must carry a token. A token-free cycle
  // is a non-positive cycle of the token weights.
  std::vector<std::int64_t> weights(rrg.num_edges());
  while (true) {
    for (EdgeId e = 0; e < rrg.num_edges(); ++e) weights[e] = rrg.tokens(e);
    std::vector<EdgeId> witness;
    if (!graph::has_nonpositive_cycle(structure, weights, &witness)) break;
    const EdgeId fix = witness[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(witness.size()) - 1))];
    rrg.set_tokens(fix, 1);
    rrg.set_buffers(fix, 1);
  }

  // Mark exactly n_early multi-input nodes as early evaluation, with
  // random branch probabilities.
  std::vector<NodeId> candidates;
  for (NodeId v = 0; v < rrg.num_nodes(); ++v) {
    if (structure.in_degree(v) >= 2) candidates.push_back(v);
  }
  ELRR_REQUIRE(static_cast<int>(candidates.size()) >= n_early,
               "structure has only ", candidates.size(),
               " multi-input nodes, need ", n_early);
  for (std::size_t i = candidates.size(); i > 1; --i) {
    std::swap(candidates[i - 1],
              candidates[static_cast<std::size_t>(
                  rng.uniform_int(0, static_cast<std::int64_t>(i) - 1))]);
  }
  for (int k = 0; k < n_early; ++k) {
    const NodeId v = candidates[static_cast<std::size_t>(k)];
    rrg.set_kind(v, NodeKind::kEarly);
    const auto probs =
        rng.simplex(structure.in_degree(v), options.min_gamma);
    std::size_t idx = 0;
    for (EdgeId e : structure.in_edges(v)) rrg.set_gamma(e, probs[idx++]);
  }

  rrg.validate();
  return rrg;
}

Rrg make_table2_rrg(const CircuitSpec& spec, std::uint64_t seed,
                    const AnnotateOptions& options) {
  const Digraph structure = generate_structure(spec, seed);
  return annotate(structure, spec.n_early, options,
                  hash_name(spec.name) ^ (seed * 0x9e3779b97f4a7c15ULL));
}

}  // namespace elrr::bench89
