#include "sim/markov.hpp"

#include <cmath>
#include <unordered_map>
#include <vector>

#include "sim/flat_kernel.hpp"
#include "support/error.hpp"

namespace elrr::sim {

namespace {

struct ByteHash {
  std::size_t operator()(const std::vector<std::uint8_t>& bytes) const {
    std::size_t h = 0xcbf29ce484222325ULL;
    for (std::uint8_t b : bytes) {
      h ^= b;
      h *= 0x100000001b3ULL;
    }
    return h;
  }
};

struct Transition {
  std::uint32_t next;
  double prob;
};

}  // namespace

/// Breadth-first enumeration of the reachable state space + damped power
/// iteration. The choosers are plain lambdas -- the enumerator dictates
/// every draw, so chooser dispatch is never the bottleneck here.
MarkovResult exact_throughput(const Rrg& rrg, const MarkovOptions& options) {
  const FlatKernel kernel(rrg);
  const Digraph& g = rrg.graph();
  const double num_nodes = static_cast<double>(rrg.num_nodes());

  MarkovResult result;

  std::unordered_map<std::vector<std::uint8_t>, std::uint32_t, ByteHash> ids;
  std::vector<FlatState> states;
  std::vector<std::vector<Transition>> transitions;
  std::vector<double> expected_firings;  // per state, per cycle
  const std::size_t transition_cap = options.max_states * 8;

  const auto intern = [&](const FlatState& state) -> std::uint32_t {
    auto bytes = kernel.encode(state);
    const auto it = ids.find(bytes);
    if (it != ids.end()) return it->second;
    const auto id = static_cast<std::uint32_t>(states.size());
    ids.emplace(std::move(bytes), id);
    states.push_back(state);
    return id;
  };

  intern(kernel.initial_state());
  std::size_t num_transitions = 0;

  for (std::uint32_t id = 0; id < states.size(); ++id) {
    if (states.size() > options.max_states ||
        num_transitions > transition_cap) {
      return result;  // ok == false: state space too large
    }
    const FlatState base = states[id];  // copy: `states` may reallocate
    const std::vector<NodeId> sampling = kernel.sampling_nodes(base);
    const std::vector<NodeId> latency = kernel.latency_nodes(base);

    // Enumerate all guard * latency draw combinations as one mixed-radix
    // counter: positions [0, sampling.size()) choose guards (radix =
    // in-degree), the rest choose telescopic latencies (radix 2, digit 1
    // = slow). A draw that the step does not consume (the node does not
    // fire) splits the transition into branches with identical successor
    // states; the chain aggregates their probability mass, so the result
    // is unchanged.
    const std::size_t dims = sampling.size() + latency.size();
    std::vector<std::size_t> combo(dims, 0);
    std::vector<Transition> outgoing;
    double rate = 0.0;
    while (true) {
      double prob = 1.0;
      for (std::size_t i = 0; i < sampling.size(); ++i) {
        const EdgeId e = g.in_edges(sampling[i])[combo[i]];
        prob *= rrg.gamma(e);
      }
      for (std::size_t i = 0; i < latency.size(); ++i) {
        const double fast = rrg.telescopic(latency[i]).fast_prob;
        prob *= combo[sampling.size() + i] == 0 ? fast : 1.0 - fast;
      }
      FlatState next = base;
      const auto chooser = [&](NodeId n) -> std::size_t {
        for (std::size_t i = 0; i < sampling.size(); ++i) {
          if (sampling[i] == n) return combo[i];
        }
        ELRR_ASSERT(false, "chooser called for non-sampling node");
        return 0;
      };
      const auto latency_chooser = [&](NodeId n) -> bool {
        for (std::size_t i = 0; i < latency.size(); ++i) {
          if (latency[i] == n) return combo[sampling.size() + i] != 0;
        }
        ELRR_ASSERT(false, "latency chooser called for busy node");
        return false;
      };
      const std::uint32_t firings =
          kernel.step(next, chooser, latency_chooser);
      rate += prob * static_cast<double>(firings);
      outgoing.push_back({intern(next), prob});

      // Advance the mixed-radix combination counter.
      std::size_t i = 0;
      for (; i < dims; ++i) {
        const std::size_t radix =
            i < sampling.size() ? g.in_degree(sampling[i]) : 2;
        if (++combo[i] < radix) break;
        combo[i] = 0;
      }
      if (i == dims) break;
    }
    num_transitions += outgoing.size();
    transitions.push_back(std::move(outgoing));
    expected_firings.push_back(rate);
  }

  const std::size_t n = states.size();
  // Damped power iteration from the initial state.
  std::vector<double> mu(n, 0.0), next_mu(n, 0.0);
  mu[0] = 1.0;
  const double d = options.damping;
  std::size_t iter = 0;
  for (; iter < options.max_iterations; ++iter) {
    std::fill(next_mu.begin(), next_mu.end(), 0.0);
    for (std::size_t s = 0; s < n; ++s) {
      if (mu[s] == 0.0) continue;
      next_mu[s] += d * mu[s];
      const double mass = (1.0 - d) * mu[s];
      for (const Transition& t : transitions[s]) {
        next_mu[t.next] += mass * t.prob;
      }
    }
    double delta = 0.0;
    for (std::size_t s = 0; s < n; ++s) delta += std::abs(next_mu[s] - mu[s]);
    mu.swap(next_mu);
    if (delta < options.tolerance) break;
  }

  double theta = 0.0;
  for (std::size_t s = 0; s < n; ++s) theta += mu[s] * expected_firings[s];
  result.ok = true;
  result.theta = theta / num_nodes;
  result.num_states = n;
  result.num_transitions = num_transitions;
  result.iterations = iter;
  return result;
}

}  // namespace elrr::sim
