#include "sim/flat_kernel.hpp"

#include <algorithm>

#include "graph/topo.hpp"

namespace elrr::sim {

FlatKernel::FlatKernel(const Rrg& rrg) : rrg_(rrg) {
  rrg_.validate();
  num_nodes_ = rrg.num_nodes();
  num_edges_ = static_cast<EdgeId>(rrg.num_edges());
  const Digraph& g = rrg.graph();

  const auto topo = graph::topological_order(
      g, [&](EdgeId e) { return rrg.buffers(e) == 0; });
  ELRR_ASSERT(topo.has_value(), "live RRG cannot have a zero-buffer cycle");

  // Level schedule: level 0 = registered producers (every in-edge
  // buffered), level L+1 = longest zero-buffer chain of length L+1.
  // Stable-sorting the topological order by level keeps it topological
  // (a comb edge strictly raises the consumer's level) while grouping
  // independent nodes: every in-cycle store-to-load chain now spans
  // exactly one level boundary instead of an arbitrary prefix of the
  // firing order.
  std::vector<std::uint32_t> level(num_nodes_, 0);
  for (const NodeId n : *topo) {
    std::uint32_t lv = 0;
    for (const EdgeId e : g.in_edges(n)) {
      if (rrg.buffers(e) == 0) lv = std::max(lv, level[g.src(e)] + 1);
    }
    level[n] = lv;
    num_levels_ = std::max<std::size_t>(num_levels_, lv + 1);
  }
  order_ = *topo;
  std::stable_sort(order_.begin(), order_.end(),
                   [&](NodeId a, NodeId b) { return level[a] < level[b]; });

  // Renumber edges into consumer-contiguous slots: walking the firing
  // order, each node's in-edges (in in_edges(n) order, so guard positions
  // still index straight into the run) claim the next in_degree slots.
  // Every edge has exactly one consumer, so this is a bijection -- and
  // the step's input reads stream the token array front to back.
  slot_of_edge_.assign(num_edges_, 0);
  edge_of_slot_.assign(num_edges_, 0);
  EdgeId next_slot = 0;
  for (const NodeId n : order_) {
    for (const EdgeId e : g.in_edges(n)) {
      slot_of_edge_[e] = next_slot;
      edge_of_slot_[next_slot] = e;
      ++next_slot;
    }
  }
  ELRR_ASSERT(next_slot == num_edges_, "slot renumbering must be a bijection");

  // Build the node program in the same firing order; out-edge slices are
  // slot ids so the inner loop never leaves slot space.
  prog_.reserve(num_nodes_ + 1);
  out_csr_.reserve(num_edges_);
  EdgeId in_base = 0;
  for (const NodeId n : order_) {
    NodeProg p;
    p.node = n;
    p.in_begin = in_base;
    in_base += static_cast<EdgeId>(g.in_degree(n));
    p.out_begin = static_cast<std::uint32_t>(out_csr_.size());
    // The out slice groups combinational edges first, buffered ones last
    // (emit_masked relies on the split; order within a group is free
    // since each out-edge is touched exactly once).
    for (EdgeId e : g.out_edges(n)) {
      if (rrg.buffers(e) == 0) {
        out_csr_.push_back(slot_of_edge_[e]);
        ++p.out_comb;
      }
    }
    for (EdgeId e : g.out_edges(n)) {
      if (rrg.buffers(e) > 0) {
        out_csr_.push_back(slot_of_edge_[e]);
        ++p.out_ring;
      }
    }
    // Out-degree-1 nodes store their slot id inline (see NodeProg).
    if (g.out_degree(n) == 1) {
      const EdgeId e = g.out_edges(n).front();
      p.out_begin = slot_of_edge_[e];
      if (rrg.buffers(e) > 0) p.flags |= NodeProg::kOut1Ring;
    }
    if (rrg.is_early(n)) p.flags |= NodeProg::kEarly;
    if (rrg.is_telescopic(n)) {
      p.slow_countdown =
          static_cast<std::uint8_t>(rrg.telescopic(n).slow_extra + 1);
      telescopic_prog_.push_back(static_cast<std::uint32_t>(prog_.size()));
    }
    prog_.push_back(p);
  }
  NodeProg sentinel;
  sentinel.in_begin = in_base;  // ends the last node's input run
  prog_.push_back(sentinel);
  // Stable NodeId-ordered views (the enumerator / test API).
  for (NodeId n = 0; n < num_nodes_; ++n) {
    if (rrg.is_early(n)) early_nodes_.push_back(n);
    if (rrg.is_telescopic(n)) telescopic_nodes_.push_back(n);
  }

  inject_bit_.assign(num_edges_, 0);
  buffers_.assign(num_edges_, 0);
  for (EdgeId e = 0; e < num_edges_; ++e) {
    buffers_[slot_of_edge_[e]] = rrg.buffers(e);
  }
  for (EdgeId s = 0; s < num_edges_; ++s) {
    const int r = buffers_[s];
    if (r == 0) continue;
    inject_bit_[s] = std::uint64_t{1} << ((r - 1) % 64);
    if (r <= 64) {
      buffered_slots_.push_back(s);
      continue;
    }
    // The words below the producer-side one: ceil(r / 64) - 1 of them.
    const auto words = static_cast<std::uint32_t>((r - 1) / 64);
    deep_chains_.push_back(DeepChain{s, words, deep_words_});
    deep_words_ += words;
  }
}

FlatState FlatKernel::initial_state() const {
  return extract_run(initial_batch_state(1), 0);
}

FlatBatchState FlatKernel::initial_batch_state(std::size_t runs) const {
  ELRR_REQUIRE(runs > 0, "batch needs at least one run");
  FlatBatchState state;
  state.runs = runs;
  state.tokens.resize(num_edges_ * runs);
  state.window.assign(num_edges_ * runs, 0);
  state.deep.assign(deep_words_ * runs, 0);
  for (EdgeId s = 0; s < num_edges_; ++s) {
    for (std::size_t r = 0; r < runs; ++r) {
      state.tokens[s * runs + r] = rrg_.tokens(edge_of_slot_[s]);
    }
  }
  state.pending_guard.assign(num_nodes_ * runs, kNoGuard);
  state.busy.assign(num_nodes_ * runs, 0);
  return state;
}

FlatState FlatKernel::extract_run(const FlatBatchState& state,
                                  std::size_t run) const {
  ELRR_REQUIRE(run < state.runs, "run index out of range");
  const auto lane = [&](const auto& lanes, auto& out) {
    out.resize(lanes.size() / state.runs);
    for (std::size_t i = 0; i < out.size(); ++i) {
      out[i] = lanes[i * state.runs + run];
    }
  };
  FlatState flat;
  lane(state.tokens, flat.tokens);
  lane(state.window, flat.window);
  lane(state.deep, flat.deep);
  lane(state.pending_guard, flat.pending_guard);
  lane(state.busy, flat.busy);
  return flat;
}

std::uint64_t FlatKernel::chain_word(const FlatState& state, EdgeId s,
                                     std::size_t j) const {
  const auto deep = std::lower_bound(
      deep_chains_.begin(), deep_chains_.end(), s,
      [](const DeepChain& d, EdgeId slot) { return d.slot < slot; });
  if (deep == deep_chains_.end() || deep->slot != s || j == deep->words) {
    return state.window[s];
  }
  return state.deep[deep->first + j];
}

bool FlatKernel::in_flight(const FlatState& state, EdgeId e, int k) const {
  const EdgeId s = slot_of_edge_[e];
  ELRR_REQUIRE(k >= 0 && k < buffers_[s], "EB stage out of range");
  const auto stage = static_cast<std::size_t>(k);
  return ((chain_word(state, s, stage / 64) >> (stage % 64)) & 1) != 0;
}

std::vector<std::uint8_t> FlatKernel::encode(const FlatState& state) const {
  std::vector<std::uint8_t> bytes;
  bytes.reserve(num_edges_ * 5 + num_nodes_ * 5);
  for (EdgeId e = 0; e < num_edges_; ++e) {
    const EdgeId s = slot_of_edge_[e];
    const std::int32_t ready = std::max(state.tokens[s], 0);
    const std::int32_t anti = std::max(-state.tokens[s], 0);
    ELRR_ASSERT(ready < 0x8000 && anti < 0x8000, "state encoding overflow");
    bytes.push_back(static_cast<std::uint8_t>(ready & 0xff));
    bytes.push_back(static_cast<std::uint8_t>(ready >> 8));
    bytes.push_back(static_cast<std::uint8_t>(anti & 0xff));
    bytes.push_back(static_cast<std::uint8_t>(anti >> 8));
    // The chain's R(e) stage bits, stage 0 first, in byte groups (a group
    // never straddles two 64-bit words).
    for (int base = 0; base < buffers_[s]; base += 8) {
      const auto stage = static_cast<std::size_t>(base);
      bytes.push_back(static_cast<std::uint8_t>(
          (chain_word(state, s, stage / 64) >> (stage % 64)) & 0xff));
    }
  }
  for (const std::uint32_t guard : state.pending_guard) {
    for (int shift = 0; shift < 32; shift += 8) {
      bytes.push_back(static_cast<std::uint8_t>((guard >> shift) & 0xff));
    }
  }
  bytes.insert(bytes.end(), state.busy.begin(), state.busy.end());
  return bytes;
}

std::vector<NodeId> FlatKernel::sampling_nodes(const FlatState& state) const {
  std::vector<NodeId> nodes;
  for (NodeId n : early_nodes_) {
    if (state.pending_guard[n] == kNoGuard && state.busy[n] == 0) {
      nodes.push_back(n);
    }
  }
  return nodes;
}

std::vector<NodeId> FlatKernel::latency_nodes(const FlatState& state) const {
  std::vector<NodeId> nodes;
  for (NodeId n : telescopic_nodes_) {
    if (state.busy[n] == 0) nodes.push_back(n);
  }
  return nodes;
}

}  // namespace elrr::sim
