#pragma once

/// \file oracle.hpp
/// The reference implementation of the synchronous execution semantics
/// (the model is documented in src/sim/flat_kernel.hpp): readable,
/// assert-heavy, std::function choosers, per-edge `inflight` vectors. It
/// is the oracle of the differential suites -- flat, fleet, telescopic
/// and Markov -- which assert that sim::FlatKernel, the production
/// kernel, agrees with it bit for bit. Nothing in src/ uses it.
///
/// Next to the kernel: the readout of a FlatState in this
/// representation (to_sync), the Monte-Carlo driver on this kernel
/// (simulate_on_oracle, the same per-run streams and table arithmetic as
/// simulate_throughput) and the Markov enumeration on it
/// (exact_throughput_on_oracle).

#include <cstdint>
#include <functional>
#include <vector>

#include "core/rrg.hpp"
#include "sim/flat_kernel.hpp"
#include "sim/markov.hpp"
#include "sim/simulator.hpp"

namespace elrr::sim {

/// Dynamic state of one channel.
struct EdgeState {
  /// inflight[k] == 1 iff a token arrives at the consumer after k+1
  /// end-of-cycle boundaries. Size == R(e); at most one injection per
  /// cycle, so entries are 0/1.
  std::vector<std::uint8_t> inflight;
  std::int32_t ready = 0;  ///< tokens consumable this cycle
  std::int32_t anti = 0;   ///< pending anti-tokens

  bool operator==(const EdgeState&) const = default;
};

/// Full synchronous state.
struct SyncState {
  std::vector<EdgeState> edges;
  /// Per node: for early nodes, the in-edge *position* (index into
  /// in_edges(n)) currently awaited, or kNoGuard if the next firing's
  /// guard has not been sampled yet. Always kNoGuard for simple nodes.
  std::vector<std::uint32_t> pending_guard;
  /// Per node: remaining busy cycles of a slow telescopic operation
  /// (0 = idle). Set to slow_extra + 1 at the slow firing; the withheld
  /// outputs are released when the countdown reaches 1. Always 0 for
  /// non-telescopic nodes.
  std::vector<std::uint8_t> busy;

  bool operator==(const SyncState&) const = default;

  /// Compact byte encoding for hashing / state enumeration.
  std::vector<std::uint8_t> encode() const;
};

/// Precomputed structure shared by all steps on one RRG.
///
/// Holds a *reference* to the graph: the Rrg must outlive the kernel and
/// stay structurally unchanged while the kernel is in use (constructing
/// from a temporary is rejected at compile time).
class Kernel {
 public:
  explicit Kernel(const Rrg& rrg);
  Kernel(Rrg&&) = delete;  // would dangle: the kernel keeps a reference

  const Rrg& rrg() const { return rrg_; }

  SyncState initial_state() const;

  /// Early nodes that will sample a guard during the next step from
  /// `state` (pending_guard == kNoGuard and not busy). Order matches
  /// `early_nodes()`.
  std::vector<NodeId> sampling_nodes(const SyncState& state) const;

  /// Telescopic nodes that may fire (and hence sample a latency) during
  /// the next step from `state` (busy == 0). Order matches
  /// `telescopic_nodes()`.
  std::vector<NodeId> latency_nodes(const SyncState& state) const;

  /// Chooses the guard (position within in_edges(n)) for node n.
  using GuardChooser = std::function<std::size_t(NodeId)>;
  /// Chooses the latency of a telescopic firing: true = slow path.
  using LatencyChooser = std::function<bool(NodeId)>;

  /// Advances one clock cycle in place and returns the number of nodes
  /// that fired. `choose_latency` is consulted only for telescopic nodes
  /// at the moment they fire; the default (empty) chooser means every
  /// firing takes the fast path. When `fired` is non-null it must point
  /// at num_nodes() bytes; the step overwrites it with per-node 0/1
  /// firing flags (no allocation -- callers reuse one buffer across
  /// cycles).
  std::uint32_t step(SyncState& state, const GuardChooser& choose_guard,
                     const LatencyChooser& choose_latency = {},
                     std::uint8_t* fired = nullptr) const;

  const std::vector<NodeId>& early_nodes() const { return early_nodes_; }
  const std::vector<NodeId>& telescopic_nodes() const {
    return telescopic_nodes_;
  }
  const std::vector<NodeId>& comb_order() const { return comb_order_; }

 private:
  const Rrg& rrg_;
  std::vector<NodeId> comb_order_;   ///< topological over R=0 edges
  std::vector<NodeId> early_nodes_;
  std::vector<NodeId> telescopic_nodes_;
};

/// `state` in the oracle's representation (EdgeId order, ready/anti
/// split, one inflight entry per EB stage).
SyncState to_sync(const FlatKernel& kernel, const FlatState& state);

/// simulate_throughput on the oracle kernel: every run draws the same
/// per-node streams through the same chooser tables, and runs merge in
/// run order, so theta and its standard error are bit-identical to the
/// production driver's.
SimResult simulate_on_oracle(const Rrg& rrg, const SimOptions& options);

/// exact_throughput's enumeration and power iteration on the oracle
/// kernel.
MarkovResult exact_throughput_on_oracle(const Rrg& rrg,
                                        const MarkovOptions& options = {});

}  // namespace elrr::sim
