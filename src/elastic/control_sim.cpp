#include "elastic/control_sim.hpp"

#include <algorithm>

#include "graph/topo.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"
#include "support/stats.hpp"

namespace elrr::elastic {

namespace {

constexpr std::int32_t kQueueCap = 1 << 20;

/// One channel: R(e) EB stages. stages[0] is producer-side; the *last*
/// stage is the consumer interface (its occupancy is the channel's
/// registered "valid", and consuming pops it, so back-pressure propagates
/// stage by stage). Wires (R = 0) use the `wire` queue instead, with the
/// backlog-at-consumer convention of footnote 1.
struct ChannelState {
  std::vector<std::int32_t> occ;   ///< per-stage occupancy (current)
  std::vector<std::int32_t> prev;  ///< cycle-start snapshot (registered)
  std::int32_t wire = 0;           ///< tokens on a zero-latency channel
  std::int32_t anti = 0;           ///< pending anti-tokens at the consumer

  bool buffered() const { return !occ.empty(); }

  /// Registered valid: does the consumer see a token this cycle?
  bool valid() const { return buffered() ? prev.back() > 0 : wire > 0; }

  /// Consumer pops one visible token.
  void consume() {
    if (buffered()) {
      --occ.back();
    } else {
      --wire;
    }
  }

  /// Token arrives at the consumer interface of a wire.
  void deposit_wire() {
    if (anti > 0) {
      --anti;
    } else {
      ++wire;
      ELRR_ASSERT(wire < kQueueCap, "control-sim token runaway");
    }
  }

  /// Annihilate tokens sitting at the consumer interface against
  /// pending anti-tokens.
  void cancel() {
    if (buffered()) {
      while (!occ.empty() && occ.back() > 0 && anti > 0) {
        --occ.back();
        --anti;
      }
    } else {
      while (wire > 0 && anti > 0) {
        --wire;
        --anti;
      }
    }
  }
};

class ControlNetwork {
 public:
  ControlNetwork(const Rrg& rrg, int capacity,
                 const std::vector<int>& per_edge = {})
      : rrg_(rrg) {
    ELRR_REQUIRE(capacity >= 1, "EB capacity must be at least 1");
    ELRR_REQUIRE(per_edge.empty() || per_edge.size() == rrg.num_edges(),
                 "per-edge capacity vector size mismatch");
    capacity_.assign(rrg.num_edges(), capacity);
    for (EdgeId e = 0; e < rrg.num_edges() && !per_edge.empty(); ++e) {
      if (rrg.buffers(e) == 0) continue;  // wires have no stages
      ELRR_REQUIRE(per_edge[e] >= 1, "EB capacity must be at least 1 on edge ",
                   e);
      capacity_[e] = per_edge[e];
    }
    rrg_.validate();
    const auto order = graph::topological_order(
        rrg_.graph(), [&](EdgeId e) { return rrg_.buffers(e) == 0; });
    ELRR_ASSERT(order.has_value(), "zero-buffer cycle in live RRG");
    comb_order_ = *order;
    reset();
  }

  void reset() {
    channels_.assign(rrg_.num_edges(), {});
    for (EdgeId e = 0; e < rrg_.num_edges(); ++e) {
      ChannelState& ch = channels_[e];
      ch.occ.assign(static_cast<std::size_t>(rrg_.buffers(e)), 0);
      // Initial tokens fill the stages nearest the consumer, one each
      // (R0 <= R guarantees they fit even at capacity 1).
      int tokens = std::max(rrg_.tokens(e), 0);
      for (std::size_t k = ch.occ.size(); k > 0 && tokens > 0; --k, --tokens) {
        ch.occ[k - 1] = 1;
      }
      if (!ch.buffered()) ch.wire = std::max(rrg_.tokens(e), 0);
      ch.anti = std::max(-rrg_.tokens(e), 0);
      ch.cancel();
      ch.prev = ch.occ;
    }
    pending_guard_.assign(rrg_.num_nodes(), -1);
    busy_.assign(rrg_.num_nodes(), 0);
    release_.assign(rrg_.num_nodes(), 0);
  }

  /// One clock cycle; returns the number of node firings.
  /// `choose_latency` is consulted when a telescopic node fires (true =
  /// slow): the unit goes busy for slow_extra cycles and its outputs are
  /// withheld; the release itself waits for output room (backpressure
  /// stalls a slow completion like any other transfer).
  template <class GuardFn, class LatencyFn>
  std::uint32_t step(GuardFn&& choose_guard, LatencyFn&& choose_latency) {
    const Digraph& g = rrg_.graph();
    for (ChannelState& ch : channels_) ch.prev = ch.occ;
    std::uint32_t firings = 0;

    for (NodeId n : comb_order_) {
      const auto& inputs = g.in_edges(n);
      const auto& outputs = g.out_edges(n);

      // Lazy producer: every buffered output needs room in its first
      // stage as seen at the cycle start (registered stop signal).
      bool outputs_ready = true;
      for (EdgeId e : outputs) {
        if (channels_[e].buffered() && channels_[e].prev[0] >= capacity_[e]) {
          outputs_ready = false;
          break;
        }
      }

      // A telescopic node mid slow operation: it neither samples guards
      // nor fires. A finished slow operation (release pending) must
      // deposit its withheld outputs -- against the same registered
      // backpressure -- before the unit frees up.
      if (busy_[n] > 0) continue;
      if (release_[n] != 0) {
        if (outputs_ready) {
          for (EdgeId e : outputs) {
            ChannelState& ch = channels_[e];
            if (ch.buffered()) {
              ++ch.occ[0];
              ELRR_ASSERT(ch.occ[0] <= capacity_[e], "EB overflow");
            } else {
              ch.deposit_wire();
            }
          }
          release_[n] = 0;
        }
        continue;  // the unit is occupied either way this cycle
      }

      bool fires = false;
      if (!rrg_.is_early(n)) {
        fires = outputs_ready;
        for (EdgeId e : inputs) {
          if (!channels_[e].valid()) {
            fires = false;
            break;
          }
        }
        if (fires) {
          for (EdgeId e : inputs) channels_[e].consume();
        }
      } else {
        std::int32_t guard = pending_guard_[n];
        if (guard < 0) {
          const std::size_t pos = choose_guard(n);
          ELRR_ASSERT(pos < inputs.size(), "guard out of range");
          guard = static_cast<std::int32_t>(pos);
          pending_guard_[n] = guard;
        }
        const EdgeId guard_edge = inputs[static_cast<std::size_t>(guard)];
        if (channels_[guard_edge].valid() && outputs_ready) {
          fires = true;
          pending_guard_[n] = -1;
          for (std::size_t pos = 0; pos < inputs.size(); ++pos) {
            ChannelState& ch = channels_[inputs[pos]];
            if (pos == static_cast<std::size_t>(guard) || ch.valid()) {
              ch.consume();  // guard token, or late token cancelled now
            } else {
              ++ch.anti;
              ELRR_ASSERT(ch.anti < kQueueCap, "anti-token runaway");
            }
          }
        }
      }

      if (fires) {
        ++firings;
        const bool slow = rrg_.is_telescopic(n) && choose_latency(n);
        if (slow) {
          busy_[n] =
              static_cast<std::int32_t>(rrg_.telescopic(n).slow_extra);
          release_[n] = 1;
        } else {
          for (EdgeId e : outputs) {
            ChannelState& ch = channels_[e];
            if (ch.buffered()) {
              ++ch.occ[0];
              ELRR_ASSERT(ch.occ[0] <= capacity_[e], "EB overflow");
            } else {
              ch.deposit_wire();  // combinational: consumable downstream now
            }
          }
        }
      }
    }

    // Advance EB chains with registered backpressure: a token moves from
    // stage k to k+1 iff stage k held one at the cycle start and stage
    // k+1 had room at the cycle start. The last stage only drains by
    // consumption (or anti-token cancellation) above.
    for (EdgeId e = 0; e < rrg_.num_edges(); ++e) {
      ChannelState& ch = channels_[e];
      if (!ch.buffered()) continue;
      for (std::size_t k = ch.occ.size() - 1; k > 0; --k) {
        if (ch.prev[k - 1] > 0 && ch.prev[k] < capacity_[e]) {
          --ch.occ[k - 1];
          ++ch.occ[k];
        }
      }
      ch.cancel();
    }
    for (NodeId n = 0; n < rrg_.num_nodes(); ++n) {
      if (busy_[n] > 0) --busy_[n];
    }
    return firings;
  }

 private:
  Rrg rrg_;
  std::vector<int> capacity_;
  std::vector<NodeId> comb_order_;
  std::vector<ChannelState> channels_;
  std::vector<std::int32_t> pending_guard_;
  std::vector<std::int32_t> busy_;     ///< remaining slow cycles
  std::vector<std::int32_t> release_;  ///< withheld outputs pending
};

}  // namespace

sim::SimResult simulate_control_throughput(const Rrg& rrg,
                                           const ControlSimOptions& options) {
  ELRR_REQUIRE(options.measure_cycles > 0, "measure_cycles must be positive");
  ELRR_REQUIRE(options.runs > 0, "need at least one run");

  ControlNetwork network(rrg, options.capacity, options.per_edge_capacity);
  std::vector<std::vector<double>> weights(rrg.num_nodes());
  for (NodeId n = 0; n < rrg.num_nodes(); ++n) {
    if (!rrg.is_early(n)) continue;
    for (EdgeId e : rrg.graph().in_edges(n)) {
      weights[n].push_back(rrg.gamma(e));
    }
  }

  RunningStats across_runs;
  std::size_t total_cycles = 0;
  for (std::size_t run = 0; run < options.runs; ++run) {
    Rng master(options.seed + 0x9e37U * run);
    std::vector<Rng> streams;
    streams.reserve(rrg.num_nodes());
    for (std::size_t n = 0; n < rrg.num_nodes(); ++n) {
      streams.push_back(master.split());
    }
    const auto chooser = [&](NodeId n) {
      return streams[n].discrete(weights[n]);
    };
    const auto latency = [&](NodeId n) {
      return streams[n].uniform01() >= rrg.telescopic(n).fast_prob;
    };

    network.reset();
    for (std::size_t t = 0; t < options.warmup_cycles; ++t) {
      network.step(chooser, latency);
    }
    std::uint64_t firings = 0;
    for (std::size_t t = 0; t < options.measure_cycles; ++t) {
      firings += network.step(chooser, latency);
    }
    across_runs.add(static_cast<double>(firings) /
                    (static_cast<double>(options.measure_cycles) *
                     static_cast<double>(rrg.num_nodes())));
    total_cycles += options.measure_cycles;
  }

  sim::SimResult result;
  result.theta = across_runs.mean();
  result.stderr_theta = across_runs.stderr_mean();
  result.cycles = total_cycles;
  return result;
}

}  // namespace elrr::elastic
