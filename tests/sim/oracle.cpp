#include "tests/sim/oracle.hpp"

#include <algorithm>
#include <cmath>
#include <string>
#include <unordered_map>

#include "graph/topo.hpp"
#include "sim/choosers.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"
#include "support/stats.hpp"

namespace elrr::sim {

namespace {
/// Deposit one token at the consumer side of an edge, annihilating against
/// pending anti-tokens first.
void deposit(EdgeState& edge) {
  if (edge.anti > 0) {
    --edge.anti;
  } else {
    ++edge.ready;
    ELRR_ASSERT(edge.ready < kTokenQueueCap,
                "unbounded token accumulation: is the RRG strongly "
                "connected?");
  }
}
}  // namespace

std::vector<std::uint8_t> SyncState::encode() const {
  std::vector<std::uint8_t> bytes;
  bytes.reserve(edges.size() * 5 + pending_guard.size() * 5);
  for (const EdgeState& e : edges) {
    // Ready/anti counts stay small in live strongly connected systems
    // (bounded by cycle token sums); 16 bits are plenty, asserted below.
    ELRR_ASSERT(e.ready < 0x8000 && e.anti < 0x8000,
                "state encoding overflow");
    bytes.push_back(static_cast<std::uint8_t>(e.ready & 0xff));
    bytes.push_back(static_cast<std::uint8_t>(e.ready >> 8));
    bytes.push_back(static_cast<std::uint8_t>(e.anti & 0xff));
    bytes.push_back(static_cast<std::uint8_t>(e.anti >> 8));
    std::uint8_t packed = 0;
    int bit = 0;
    for (std::uint8_t inflight : e.inflight) {
      packed = static_cast<std::uint8_t>(packed | (inflight << bit));
      if (++bit == 8) {
        bytes.push_back(packed);
        packed = 0;
        bit = 0;
      }
    }
    if (bit != 0) bytes.push_back(packed);
  }
  for (const std::uint32_t g : pending_guard) {
    for (int shift = 0; shift < 32; shift += 8) {
      bytes.push_back(static_cast<std::uint8_t>((g >> shift) & 0xff));
    }
  }
  bytes.insert(bytes.end(), busy.begin(), busy.end());
  return bytes;
}

Kernel::Kernel(const Rrg& rrg) : rrg_(rrg) {
  rrg_.validate();
  const auto order = graph::topological_order(
      rrg_.graph(), [&](EdgeId e) { return rrg_.buffers(e) == 0; });
  ELRR_ASSERT(order.has_value(),
              "live RRG cannot have a zero-buffer cycle");
  comb_order_ = *order;
  for (NodeId n = 0; n < rrg_.num_nodes(); ++n) {
    if (rrg_.is_early(n)) early_nodes_.push_back(n);
    if (rrg_.is_telescopic(n)) telescopic_nodes_.push_back(n);
  }
}

SyncState Kernel::initial_state() const {
  SyncState state;
  state.edges.resize(rrg_.num_edges());
  for (EdgeId e = 0; e < rrg_.num_edges(); ++e) {
    EdgeState& edge = state.edges[e];
    edge.inflight.assign(static_cast<std::size_t>(rrg_.buffers(e)), 0);
    edge.ready = std::max(rrg_.tokens(e), 0);
    edge.anti = std::max(-rrg_.tokens(e), 0);
  }
  state.pending_guard.assign(rrg_.num_nodes(), kNoGuard);
  state.busy.assign(rrg_.num_nodes(), 0);
  return state;
}

std::vector<NodeId> Kernel::sampling_nodes(const SyncState& state) const {
  std::vector<NodeId> nodes;
  for (NodeId n : early_nodes_) {
    if (state.pending_guard[n] == kNoGuard && state.busy[n] == 0) {
      nodes.push_back(n);
    }
  }
  return nodes;
}

std::vector<NodeId> Kernel::latency_nodes(const SyncState& state) const {
  std::vector<NodeId> nodes;
  for (NodeId n : telescopic_nodes_) {
    if (state.busy[n] == 0) nodes.push_back(n);
  }
  return nodes;
}

std::uint32_t Kernel::step(SyncState& state, const GuardChooser& choose_guard,
                           const LatencyChooser& choose_latency,
                           std::uint8_t* fired) const {
  const Digraph& g = rrg_.graph();
  std::uint32_t total_firings = 0;
  if (fired != nullptr) std::fill(fired, fired + rrg_.num_nodes(), 0);

  for (NodeId n : comb_order_) {
    if (state.busy[n] > 0) continue;  // mid slow telescopic operation
    const auto& inputs = g.in_edges(n);
    bool fires = false;
    if (!rrg_.is_early(n)) {
      fires = true;
      for (EdgeId e : inputs) {
        if (state.edges[e].ready <= 0) {
          fires = false;
          break;
        }
      }
      if (fires) {
        for (EdgeId e : inputs) --state.edges[e].ready;
      }
    } else {
      std::uint32_t guard = state.pending_guard[n];
      if (guard == kNoGuard) {
        const std::size_t pos = choose_guard(n);
        ELRR_ASSERT(pos < inputs.size(), "guard chooser out of range");
        guard = static_cast<std::uint32_t>(pos);
        state.pending_guard[n] = guard;
      }
      const EdgeId guard_edge = inputs[static_cast<std::size_t>(guard)];
      if (state.edges[guard_edge].ready > 0) {
        fires = true;
        state.pending_guard[n] = kNoGuard;  // firing completes the guard
        for (std::size_t pos = 0; pos < inputs.size(); ++pos) {
          EdgeState& edge = state.edges[inputs[pos]];
          if (pos == static_cast<std::size_t>(guard)) {
            --edge.ready;
          } else if (edge.ready > 0) {
            --edge.ready;  // late token already there: cancel now
          } else {
            ++edge.anti;  // anti-token awaits the straggler
            ELRR_ASSERT(edge.anti < kTokenQueueCap, "anti-token runaway");
          }
        }
      }
    }

    if (fires) {
      if (fired != nullptr) fired[n] = 1;
      ++total_firings;
      const bool slow = rrg_.is_telescopic(n) && choose_latency &&
                        choose_latency(n);
      if (slow) {
        // Busy for slow_extra further cycles; outputs withheld until the
        // countdown (decremented at each end-of-cycle) reaches 1.
        state.busy[n] =
            static_cast<std::uint8_t>(rrg_.telescopic(n).slow_extra + 1);
      } else {
        for (EdgeId e : g.out_edges(n)) {
          EdgeState& edge = state.edges[e];
          if (rrg_.buffers(e) == 0) {
            deposit(edge);  // combinational: consumable this very cycle
          } else {
            ELRR_ASSERT(edge.inflight.back() == 0,
                        "double injection into EB chain");
            edge.inflight.back() = 1;
          }
        }
      }
    }
  }

  // End of cycle: advance every EB chain by one stage.
  for (EdgeState& edge : state.edges) {
    if (edge.inflight.empty()) continue;
    if (edge.inflight.front() != 0) deposit(edge);
    for (std::size_t k = 0; k + 1 < edge.inflight.size(); ++k) {
      edge.inflight[k] = edge.inflight[k + 1];
    }
    edge.inflight.back() = 0;
  }
  // Slow telescopic countdowns; release the withheld outputs when the
  // countdown hits 1 (they are registered, so an EB chain receives them
  // *after* this cycle's shift: total added latency is exactly
  // slow_extra on every path, and the node refires 1 + slow_extra cycles
  // after the slow firing).
  for (NodeId n : telescopic_nodes_) {
    if (state.busy[n] == 0) continue;
    if (--state.busy[n] == 1) {
      for (EdgeId e : g.out_edges(n)) {
        EdgeState& edge = state.edges[e];
        if (rrg_.buffers(e) == 0) {
          deposit(edge);  // consumable next cycle (registered release)
        } else {
          ELRR_ASSERT(edge.inflight.back() == 0,
                      "double injection into EB chain");
          edge.inflight.back() = 1;
        }
      }
    }
  }
  return total_firings;
}

SyncState to_sync(const FlatKernel& kernel, const FlatState& state) {
  const Rrg& rrg = kernel.rrg();
  SyncState sync;
  sync.edges.resize(rrg.num_edges());
  for (EdgeId e = 0; e < rrg.num_edges(); ++e) {
    EdgeState& edge = sync.edges[e];
    const std::int32_t tokens = kernel.edge_tokens(state, e);
    edge.ready = std::max(tokens, 0);
    edge.anti = std::max(-tokens, 0);
    for (int k = 0; k < rrg.buffers(e); ++k) {
      edge.inflight.push_back(kernel.in_flight(state, e, k) ? 1 : 0);
    }
  }
  sync.pending_guard = state.pending_guard;
  sync.busy = state.busy;
  return sync;
}

SimResult simulate_on_oracle(const Rrg& rrg, const SimOptions& options) {
  const Kernel kernel(rrg);
  const GuardTable guards(rrg);
  const LatencyTable latencies(rrg);
  RunningStats across_runs;
  for (std::size_t run = 0; run < options.runs; ++run) {
    // The production driver's streams: one master per run seed, split
    // once per node in node order.
    Rng master(run_seed(options.seed, run));
    std::vector<Rng> streams;
    for (NodeId n = 0; n < rrg.num_nodes(); ++n) {
      streams.push_back(master.split());
    }
    const Kernel::GuardChooser guard = [&](NodeId n) {
      return guards.sample(n, streams[n]);
    };
    const Kernel::LatencyChooser latency = [&](NodeId n) {
      return latencies.sample(n, streams[n]);
    };
    SyncState state = kernel.initial_state();
    for (std::size_t t = 0; t < options.warmup_cycles; ++t) {
      kernel.step(state, guard, latency);
    }
    std::uint64_t firings = 0;
    for (std::size_t t = 0; t < options.measure_cycles; ++t) {
      firings += kernel.step(state, guard, latency);
    }
    across_runs.add(static_cast<double>(firings) /
                    (static_cast<double>(options.measure_cycles) *
                     static_cast<double>(rrg.num_nodes())));
  }
  SimResult result;
  result.theta = across_runs.mean();
  result.stderr_theta = across_runs.stderr_mean();
  result.cycles = options.runs * options.measure_cycles;
  return result;
}

MarkovResult exact_throughput_on_oracle(const Rrg& rrg,
                                        const MarkovOptions& options) {
  // The production enumerator's arithmetic, step for step: states in
  // breadth-first discovery order, draw combinations as a mixed-radix
  // counter (guards first, then latencies), damped power iteration.
  const Kernel kernel(rrg);
  const Digraph& g = rrg.graph();
  std::unordered_map<std::string, std::uint32_t> ids;
  std::vector<SyncState> states;
  std::vector<std::vector<std::pair<std::uint32_t, double>>> transitions;
  std::vector<double> expected_firings;
  const auto intern = [&](const SyncState& state) {
    const std::vector<std::uint8_t> bytes = state.encode();
    const auto [it, fresh] =
        ids.emplace(std::string(bytes.begin(), bytes.end()),
                    static_cast<std::uint32_t>(states.size()));
    if (fresh) states.push_back(state);
    return it->second;
  };
  intern(kernel.initial_state());
  MarkovResult result;
  std::size_t num_transitions = 0;
  for (std::uint32_t id = 0; id < states.size(); ++id) {
    if (states.size() > options.max_states ||
        num_transitions > options.max_states * 8) {
      return result;
    }
    const SyncState base = states[id];
    const std::vector<NodeId> sampling = kernel.sampling_nodes(base);
    const std::vector<NodeId> latency = kernel.latency_nodes(base);
    const std::size_t dims = sampling.size() + latency.size();
    std::vector<std::size_t> combo(dims, 0);
    std::vector<std::pair<std::uint32_t, double>> outgoing;
    double rate = 0.0;
    while (true) {
      double prob = 1.0;
      for (std::size_t i = 0; i < sampling.size(); ++i) {
        prob *= rrg.gamma(g.in_edges(sampling[i])[combo[i]]);
      }
      for (std::size_t i = 0; i < latency.size(); ++i) {
        const double fast = rrg.telescopic(latency[i]).fast_prob;
        prob *= combo[sampling.size() + i] == 0 ? fast : 1.0 - fast;
      }
      const auto digit = [&](const std::vector<NodeId>& nodes,
                             std::size_t offset, NodeId n) {
        const auto it = std::find(nodes.begin(), nodes.end(), n);
        ELRR_ASSERT(it != nodes.end(), "draw for a node that cannot draw");
        return combo[offset + static_cast<std::size_t>(it - nodes.begin())];
      };
      SyncState next = base;
      const std::uint32_t firings = kernel.step(
          next, [&](NodeId n) { return digit(sampling, 0, n); },
          [&](NodeId n) { return digit(latency, sampling.size(), n) != 0; });
      rate += prob * static_cast<double>(firings);
      outgoing.emplace_back(intern(next), prob);
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
      for (const auto& [to, prob] : transitions[s]) {
        next_mu[to] += mass * prob;
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
  result.theta = theta / static_cast<double>(rrg.num_nodes());
  result.num_states = n;
  result.num_transitions = num_transitions;
  result.iterations = iter;
  return result;
}

}  // namespace elrr::sim
