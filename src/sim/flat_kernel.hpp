#pragma once

/// \file flat_kernel.hpp
/// The simulation kernel: one clock cycle of an elastic system with early
/// evaluation, laid out for throughput. It represents every RRG that
/// Rrg::validate accepts.
///
/// Model (one clock cycle):
///  * every edge e is a FIFO with latency R(e) (its EB chain) and
///    unbounded capacity -- the paper's footnote 1 assumes FIFOs sized so
///    that back-pressure never limits throughput;
///  * tokens ready at the consumer are annihilated 1:1 against pending
///    anti-tokens;
///  * nodes are processed in topological order of the combinational
///    subgraph (R = 0 edges): a token produced onto a zero-latency edge is
///    consumable in the same cycle (combinational propagation);
///  * a simple node fires iff every input edge has a ready token; an
///    early node samples a guard input (probability gamma) *when its
///    previous firing has completed* and fires iff that input has a ready
///    token, sending anti-tokens to the other inputs (DAC'07 semantics);
///    a sampled-but-unsatisfied guard stays pending -- the select token
///    waits for the selected data;
///  * every node fires at most once per cycle (hardware semantics);
///  * initial tokens R0 > 0 start ready; R0 < 0 preloads anti-tokens;
///  * a *telescopic* node (variable latency, the paper's future-work
///    extension) samples its latency when it fires: fast (probability p)
///    behaves normally; slow makes the unit busy for `slow_extra` extra
///    cycles -- it cannot fire again and its outputs are withheld until
///    the busy period ends (results of a slow operation are registered,
///    so consumers see them one EB-chain latency after release).
///
/// The layout:
///
///  * structure of arrays: all edge token counters and node
///    `pending_guard`/`busy` flags live in contiguous vectors (FlatState),
///    so a step streams over dense arrays;
///  * bit-ring channels: an EB chain's occupancy is one uint64 window per
///    edge (bit k set <=> a token arrives at the consumer after k + 1
///    end-of-cycle boundaries). Injection ORs bit R-1, the end-of-cycle
///    advance tests bit 0 and shifts the window right -- O(1) per edge.
///    A chain deeper than 64 EBs keeps its producer-side stages in that
///    window and the 64 * w stages nearest the consumer in w extra words
///    (FlatState::deep), which an end-of-cycle loop of their own advances;
///  * level-scheduled edge renumbering: nodes are sorted into
///    combinational *levels* (registered producers -- no zero-buffer
///    in-edges -- first, then combs by longest zero-buffer distance), and
///    every edge is renumbered to an internal *slot* assigned in consumer
///    order, so each node's in-edges occupy one contiguous slot run.
///    The per-node in-edge CSR indirection collapses into a slot range,
///    input token reads stream the state array front to back, and an
///    in-cycle store-to-load chain spans exactly one level;
///  * per-node programs: kind/degree/latency attributes are packed into
///    dense 24-byte records at construction, so the inner loop never
///    touches Rrg or Digraph;
///  * templated choosers and lane width: step() is a template over the
///    guard/latency chooser types, and step_batch<K> over the lane width,
///    so Monte-Carlo drivers pay zero std::function dispatch (see
///    choosers.hpp) and the K-lane token movement vectorizes; plain
///    lambdas still work for the Markov enumerator.
///
/// tests/sim/oracle.hpp keeps a readable reference implementation of the
/// same transition function; the differential suites assert bit-exact
/// agreement with it per cycle. See src/sim/README.md for the full
/// architecture note.

#include <cstdint>
#include <vector>

#include "core/rrg.hpp"
#include "support/error.hpp"

namespace elrr::sim {

/// pending_guard value of a node with no sampled guard.
inline constexpr std::uint32_t kNoGuard = 0xffffffffu;

/// Runaway-queue guard for ready/anti token counters: a live strongly
/// connected system keeps these bounded; hitting the cap means the RRG is
/// not strongly connected (tokens pile up at a sink-side join forever).
inline constexpr std::int32_t kTokenQueueCap = 1 << 20;

/// Full synchronous state in structure-of-arrays layout; all vectors are
/// sized once by initial_state() and never reallocated by step().
///
/// Per-edge quantities are indexed by the kernel's internal *slot* order
/// (each consumer's in-edges contiguous, consumers in level-scheduled
/// firing order), not by EdgeId; encode() and the edge accessors
/// translate through the kernel's slot permutation.
///
/// Ready and anti-token counters are merged into one signed count per
/// edge: `tokens > 0` is the number of ready tokens, `tokens < 0` minus
/// the number of pending anti-tokens. The merge is lossless because the
/// semantics keep `ready * anti == 0` invariant -- deposits annihilate
/// against pending anti-tokens before becoming ready, and anti-tokens are
/// only minted while no ready token is present. It also makes every token
/// movement a single unconditional +-1: a deposit is ++tokens
/// (annihilation is automatic), and an early firing decrements *all* its
/// inputs (selected token, late-token cancellation and anti-token mint
/// are all -1).
struct FlatState {
  std::vector<std::int32_t> tokens;    ///< per slot: ready (>0) / -anti (<0)
  /// Per slot: the producer-side word of the EB-chain bit ring -- the
  /// whole chain when it has at most 64 EBs.
  std::vector<std::uint64_t> window;
  /// The remaining words of chains deeper than 64 EBs, consumer side
  /// first (empty unless the RRG has such a chain).
  std::vector<std::uint64_t> deep;
  /// Per node: for early nodes, the in-edge *position* (index into
  /// in_edges(n)) currently awaited, or kNoGuard if the next firing's
  /// guard has not been sampled yet. Always kNoGuard for simple nodes.
  std::vector<std::uint32_t> pending_guard;
  /// Per node: remaining busy cycles of a slow telescopic operation
  /// (0 = idle). Set to slow_extra + 1 at the slow firing; the withheld
  /// outputs are released when the countdown reaches 1.
  std::vector<std::uint8_t> busy;

  bool operator==(const FlatState&) const = default;
};

/// Latency chooser that never takes the slow path; the default for
/// non-telescopic workloads (never called for non-telescopic nodes, so it
/// costs nothing). The two-argument form serves step_batch, whose
/// choosers take a run index.
struct NeverSlow {
  bool operator()(NodeId) const { return false; }
  bool operator()(NodeId, std::size_t) const { return false; }
};

/// K interleaved independent runs in one state block: every per-edge /
/// per-node quantity (and every deep-chain word) is stored K-wide (index
/// `id * K + run`, lane-major), so the masked per-lane token updates are
/// contiguous K-vectors the compiler vectorizes. Stepping all runs
/// through one pass amortizes the graph metadata across runs and gives
/// the CPU K independent dependency chains -- the instruction-level
/// analogue of the thread-level multi-run driver (essential on few-core
/// hosts). Runs are bit-exactly the runs the solo path would produce;
/// the differential tests pin that for every supported lane width.
struct FlatBatchState {
  std::size_t runs = 0;
  std::vector<std::int32_t> tokens;
  std::vector<std::uint64_t> window;
  std::vector<std::uint64_t> deep;
  std::vector<std::uint32_t> pending_guard;
  std::vector<std::uint8_t> busy;
};

class FlatKernel {
 public:
  /// Precomputes the flat structure. The Rrg must outlive the kernel and
  /// stay structurally unchanged while the kernel is in use.
  explicit FlatKernel(const Rrg& rrg);
  FlatKernel(Rrg&&) = delete;  // would dangle: the kernel keeps a reference

  const Rrg& rrg() const { return rrg_; }
  std::size_t num_nodes() const { return num_nodes_; }
  std::size_t num_edges() const { return num_edges_; }
  /// Combinational levels of the schedule: level 0 holds the registered
  /// producers (no zero-buffer in-edges), level L+1 the nodes whose
  /// longest zero-buffer chain from level 0 has length L+1.
  std::size_t num_levels() const { return num_levels_; }

  FlatState initial_state() const;

  /// K copies of the initial state, interleaved for step_batch.
  FlatBatchState initial_batch_state(std::size_t runs) const;
  /// One run's state out of a batch (differential tests).
  FlatState extract_run(const FlatBatchState& state, std::size_t run) const;

  /// Edge e's merged token count in `state`: ready tokens (> 0) or minus
  /// pending anti-tokens (< 0).
  std::int32_t edge_tokens(const FlatState& state, EdgeId e) const {
    return state.tokens[slot_of_edge_[e]];
  }
  /// Whether stage k of edge e's EB chain holds a token, 0 <= k < R(e);
  /// stage k reaches the consumer after k + 1 end-of-cycle boundaries.
  bool in_flight(const FlatState& state, EdgeId e, int k) const;

  /// Compact byte encoding for hashing / state enumeration, in EdgeId
  /// order (not slot order).
  std::vector<std::uint8_t> encode(const FlatState& state) const;

  /// Early nodes that will sample a guard during the next step.
  std::vector<NodeId> sampling_nodes(const FlatState& state) const;
  /// Telescopic nodes that may fire (= sample a latency) next step.
  std::vector<NodeId> latency_nodes(const FlatState& state) const;

  const std::vector<NodeId>& early_nodes() const { return early_nodes_; }
  const std::vector<NodeId>& telescopic_nodes() const {
    return telescopic_nodes_;
  }
  /// Firing order: a topological order of the zero-buffer subgraph,
  /// level-scheduled (non-decreasing combinational level).
  const std::vector<NodeId>& comb_order() const { return order_; }

  /// Advances one clock cycle in place; returns the number of firings.
  /// `choose_guard(n) -> std::size_t` and `choose_latency(n) -> bool` are
  /// arbitrary callables (functors from choosers.hpp for the zero-overhead
  /// Monte-Carlo path, lambdas for the Markov enumerator). When `fired` is
  /// non-null it must point at num_nodes() bytes and receives per-node 0/1
  /// firing flags. Never allocates.
  template <class GuardFn, class LatencyFn = NeverSlow>
  std::uint32_t step(FlatState& state, GuardFn&& choose_guard,
                     LatencyFn&& choose_latency = {},
                     std::uint8_t* fired = nullptr) const {
    // Graphs without telescopic nodes (the common case) take a
    // specialization with no busy checks and no countdown pass; drivers
    // that only need the firing total skip the per-node flag stores.
    if (telescopic_nodes_.empty()) {
      return fired == nullptr
                 ? step_impl<false, false>(state, choose_guard,
                                           choose_latency, nullptr)
                 : step_impl<false, true>(state, choose_guard, choose_latency,
                                          fired);
    }
    return fired == nullptr
               ? step_impl<true, false>(state, choose_guard, choose_latency,
                                        nullptr)
               : step_impl<true, true>(state, choose_guard, choose_latency,
                                       fired);
  }

  /// Advances one clock cycle of K interleaved runs in place and adds
  /// each run's firing count to totals[0..K). `choose_guard(n, run)` and
  /// `choose_latency(n, run)` must draw from run-private streams.
  /// K is the lane width (any of the driver's widths -- 4, 8, 16 -- or a
  /// remainder width); lanes are bit-exactly solo runs for every width.
  /// Telescopic graphs are supported: each lane carries its own busy
  /// countdown and withheld-output release, exactly mirroring the solo
  /// path run by run (the differential tests pin this down). As with the
  /// solo step, the common non-telescopic case compiles to a
  /// specialization with no busy checks and no countdown pass.
  template <std::size_t K, class GuardFn, class LatencyFn = NeverSlow>
  void step_batch(FlatBatchState& state, GuardFn&& choose_guard,
                  std::uint64_t* totals, LatencyFn&& choose_latency = {}) const {
    ELRR_HOT_ASSERT(state.runs == K, "batch shape mismatch");
    if (telescopic_nodes_.empty()) {
      step_batch_impl<K, false>(state, choose_guard, choose_latency, totals);
    } else {
      step_batch_impl<K, true>(state, choose_guard, choose_latency, totals);
    }
  }

 private:
  /// One node's share of the step, in level-scheduled firing order: slot
  /// slices, kind flags and telescopic countdown packed into a single
  /// 24-byte record so the hot loop streams one contiguous array instead
  /// of gathering from parallel per-attribute vectors. prog_ ends in a
  /// sentinel record whose in_begin is num_edges(), so a node's in-degree
  /// is the next record's in_begin minus its own (in_count()).
  struct NodeProg {
    static constexpr std::uint8_t kEarly = 1;    ///< early-evaluation node
    static constexpr std::uint8_t kOut1Ring = 2; ///< sole out-edge is an EB chain

    /// First input slot: the node's in-edges occupy the contiguous slot
    /// run [in_begin, next record's in_begin), in in_edges(n) order (no
    /// CSR indirection on the input side at all).
    std::uint32_t in_begin = 0;
    /// Slice start into out_csr_ -- except for out-degree-1 nodes, where
    /// the field holds the single out slot id directly.
    std::uint32_t out_begin = 0;
    NodeId node = 0;  ///< index into per-node state arrays
    /// Out-degree, split: the node's out_csr_ slice holds its
    /// combinational (R = 0) edges first, then its buffered ones, so
    /// emit needs no per-edge kind lookup.
    std::uint32_t out_comb = 0;
    std::uint32_t out_ring = 0;
    std::uint8_t flags = 0;
    /// slow_extra + 1 for telescopic nodes, 0 otherwise (doubles as the
    /// is-telescopic flag on the firing path; Rrg caps slow_extra at 200).
    std::uint8_t slow_countdown = 0;

    std::uint32_t in_count() const { return this[1].in_begin - in_begin; }
  };
  static_assert(sizeof(NodeProg) == 24, "keep the hot records three words");

  /// A chain deeper than 64 EBs: window[slot] holds its producer-side
  /// stages, the `words` words of FlatState::deep from `first` (times the
  /// lane count in a batch) the 64 * words stages nearest the consumer.
  struct DeepChain {
    EdgeId slot = 0;
    std::uint32_t words = 0;
    std::size_t first = 0;
  };

  /// End-of-cycle advance of the deep chains in a K-lane layout (K = 1
  /// is the solo state): deposit stage 0, then shift every word of the
  /// chain one stage toward the consumer, carrying across word borders.
  template <std::size_t K>
  void advance_deep_chains(std::int32_t* tokens, std::uint64_t* window,
                           std::uint64_t* deep) const {
    for (const DeepChain& d : deep_chains_) {
      std::int32_t* const t = tokens + static_cast<std::size_t>(d.slot) * K;
      std::uint64_t* const top = window + static_cast<std::size_t>(d.slot) * K;
      std::uint64_t* const w = deep + d.first * K;
      for (std::size_t r = 0; r < K; ++r) {
        t[r] += static_cast<std::int32_t>(w[r] & 1);
      }
      for (std::size_t j = 0; j + 1 < d.words; ++j) {
        for (std::size_t r = 0; r < K; ++r) {
          w[j * K + r] = (w[j * K + r] >> 1) | (w[(j + 1) * K + r] << 63);
        }
      }
      std::uint64_t* const last = w + (d.words - 1) * K;
      for (std::size_t r = 0; r < K; ++r) {
        last[r] = (last[r] >> 1) | (top[r] << 63);
        top[r] >>= 1;
      }
    }
  }

  template <std::size_t K, bool kTelescopic, class GuardFn, class LatencyFn>
  void step_batch_impl(FlatBatchState& state, GuardFn&& choose_guard,
                       LatencyFn&& choose_latency,
                       std::uint64_t* totals) const {
    std::int32_t* const __restrict__ tokens = state.tokens.data();
    std::uint64_t* const __restrict__ window = state.window.data();
    std::uint32_t* const __restrict__ pending = state.pending_guard.data();
    std::uint8_t* const __restrict__ busy = state.busy.data();
    const EdgeId* const __restrict__ out_csr = out_csr_.data();
    const std::uint64_t* const __restrict__ inject_bit = inject_bit_.data();

    // Same invariants as the solo path, checked in debug builds only.
    // The emit helpers take the per-lane 0/1 mask explicitly so the
    // telescopic release pass below can reuse them for withheld outputs.
    const auto emit_comb = [&](std::size_t s, const std::int32_t* mask) {
      std::int32_t* const t = tokens + s * K;
      for (std::size_t r = 0; r < K; ++r) {
        t[r] += mask[r];
        ELRR_HOT_ASSERT(t[r] < kTokenQueueCap,
                        "unbounded token accumulation: is the RRG "
                        "strongly connected?");
      }
    };
    const auto emit_ring = [&](std::size_t s, const std::int32_t* mask) {
      const std::uint64_t bit = inject_bit[s];
      std::uint64_t* const w = window + s * K;
      for (std::size_t r = 0; r < K; ++r) {
        ELRR_HOT_ASSERT(mask[r] == 0 || (w[r] & bit) == 0,
                        "double injection into EB chain");
        w[r] |= bit & (0 - static_cast<std::uint64_t>(mask[r]));
      }
    };
    const auto emit_masked = [&](const NodeProg& p, const std::int32_t* mask) {
      if (p.out_comb + p.out_ring == 1) {  // inline slot id
        const auto s = static_cast<std::size_t>(p.out_begin);
        if ((p.flags & NodeProg::kOut1Ring) == 0) {
          emit_comb(s, mask);
        } else {
          emit_ring(s, mask);
        }
        return;
      }
      const EdgeId* out = out_csr + p.out_begin;
      std::uint32_t j = 0;
      for (; j < p.out_comb; ++j) emit_comb(out[j], mask);
      for (; j < p.out_comb + p.out_ring; ++j) emit_ring(out[j], mask);
    };

    const NodeProg* const prog_end = prog_.data() + num_nodes_;
    for (const NodeProg* pp = prog_.data(); pp != prog_end; ++pp) {
      const NodeProg& p = *pp;
      const std::uint32_t in_count = p.in_count();
      std::int32_t fire[K];
      // A lane whose node is mid slow telescopic operation does nothing
      // this cycle: no guard draw, no token consumption, no firing --
      // the per-lane analogue of the solo path's busy skip.
      std::int32_t avail[K];
      if constexpr (kTelescopic) {
        const std::uint8_t* const bz =
            busy + static_cast<std::size_t>(p.node) * K;
        for (std::size_t r = 0; r < K; ++r) {
          avail[r] = static_cast<std::int32_t>(bz[r] == 0);
        }
      }
      // The node's in-edges are one contiguous slot run: its whole input
      // block is the K * in_count lanes starting at in_begin * K.
      std::int32_t* const __restrict__ in =
          tokens + static_cast<std::size_t>(p.in_begin) * K;
      if ((p.flags & NodeProg::kEarly) == 0) {
        if (in_count == 1) {  // the most common shape: a chain node
          for (std::size_t r = 0; r < K; ++r) {
            fire[r] = static_cast<std::int32_t>(in[r] > 0);
            if constexpr (kTelescopic) fire[r] &= avail[r];
            in[r] -= fire[r];
          }
        } else {
          for (std::size_t r = 0; r < K; ++r) {
            fire[r] = kTelescopic ? avail[r] : 1;
          }
          for (std::uint32_t i = 0; i < in_count; ++i) {
            const std::int32_t* const t = in + std::size_t{i} * K;
            for (std::size_t r = 0; r < K; ++r) {
              fire[r] &= static_cast<std::int32_t>(t[r] > 0);
            }
          }
          for (std::uint32_t i = 0; i < in_count; ++i) {
            std::int32_t* const t = in + std::size_t{i} * K;
            for (std::size_t r = 0; r < K; ++r) t[r] -= fire[r];
          }
        }
      } else {
        std::uint32_t* const pg =
            pending + static_cast<std::size_t>(p.node) * K;
        for (std::size_t r = 0; r < K; ++r) {
          if constexpr (kTelescopic) {
            if (avail[r] == 0) {
              fire[r] = 0;
              continue;
            }
          }
          std::uint32_t guard = pg[r];
          if (guard == kNoGuard) {
            const std::size_t pos = choose_guard(p.node, r);
            ELRR_HOT_ASSERT(pos < in_count, "guard chooser out of range");
            guard = static_cast<std::uint32_t>(pos);
          }
          const std::int32_t* const selected = in + std::size_t{guard} * K;
          fire[r] = static_cast<std::int32_t>(selected[r] > 0);
          pg[r] = fire[r] ? kNoGuard : guard;
        }
        for (std::uint32_t i = 0; i < in_count; ++i) {
          std::int32_t* const t = in + std::size_t{i} * K;
          for (std::size_t r = 0; r < K; ++r) t[r] -= fire[r];
        }
      }

      for (std::size_t r = 0; r < K; ++r) {
        totals[r] += static_cast<std::uint64_t>(fire[r]);
      }

      if constexpr (kTelescopic) {
        // A slow draw makes the lane busy and withholds its outputs:
        // clear the lane's emit mask (the firing itself already counted).
        if (p.slow_countdown != 0) {
          std::uint8_t* const bz = busy + static_cast<std::size_t>(p.node) * K;
          for (std::size_t r = 0; r < K; ++r) {
            if (fire[r] != 0 && choose_latency(p.node, r)) {
              bz[r] = p.slow_countdown;
              fire[r] = 0;
            }
          }
        }
      }
      emit_masked(p, fire);
    }

    for (const EdgeId s : buffered_slots_) {
      std::uint64_t* const w = window + static_cast<std::size_t>(s) * K;
      std::int32_t* const t = tokens + static_cast<std::size_t>(s) * K;
      for (std::size_t r = 0; r < K; ++r) {
        t[r] += static_cast<std::int32_t>(w[r] & 1);
        w[r] >>= 1;
      }
    }
    advance_deep_chains<K>(tokens, window, state.deep.data());
    if constexpr (kTelescopic) {
      // Per-lane slow countdowns; release the withheld outputs when a
      // lane's countdown hits 1 (after the shift, exactly like the solo
      // path, so the added latency is slow_extra on every lane).
      for (const std::uint32_t pi : telescopic_prog_) {
        const NodeProg& p = prog_[pi];
        std::uint8_t* const bz = busy + static_cast<std::size_t>(p.node) * K;
        std::int32_t release[K];
        std::int32_t any = 0;
        for (std::size_t r = 0; r < K; ++r) {
          release[r] = 0;
          if (bz[r] != 0 && --bz[r] == 1) {
            release[r] = 1;
            any = 1;
          }
        }
        if (any != 0) emit_masked(p, release);
      }
    }
  }

  template <bool kTelescopic, bool kFired, class GuardFn, class LatencyFn>
  std::uint32_t step_impl(FlatState& state, GuardFn&& choose_guard,
                          LatencyFn&& choose_latency,
                          std::uint8_t* fired) const {
    // __restrict__: the state arrays, CSR arrays and prog records never
    // alias (distinct allocations); without it, every token store forces
    // the compiler to reload the metadata it could have kept in registers
    // (signed/unsigned int arrays may alias under TBAA).
    std::int32_t* const __restrict__ tokens = state.tokens.data();
    std::uint64_t* const __restrict__ window = state.window.data();
    std::uint32_t* const __restrict__ pending = state.pending_guard.data();
    std::uint8_t* const __restrict__ busy = state.busy.data();
    const EdgeId* const __restrict__ out_csr = out_csr_.data();
    const std::uint64_t* const __restrict__ inject_bit = inject_bit_.data();
    std::uint32_t total_firings = 0;

    if constexpr (kFired) std::fill(fired, fired + num_nodes_, 0);

    // Firing decisions are stochastic, so data-dependent branches in the
    // per-edge loops mispredict roughly at the throughput's entropy rate
    // -- on token-level workloads that costs more than the arithmetic.
    // Every token movement below is therefore a masked, unconditional
    // +-fire on the merged counter; the only data-dependent branches left
    // are the ones the semantics require (guard satisfaction, telescopic
    // busy).

    /// Release `fire` (0/1) tokens on every output of p: straight onto
    /// the counter for combinational edges (consumable this very cycle),
    /// into the bit-ring otherwise. Degree-1 nodes carry their single
    /// slot id inline in the prog record (no CSR indirection); the
    /// comb-first slice split means no per-edge kind lookup either.
    const auto emit_masked = [&](const NodeProg& p, std::int32_t fire) {
      const std::uint64_t mask = 0 - static_cast<std::uint64_t>(fire);
      if (p.out_comb + p.out_ring == 1) {
        const auto s = static_cast<EdgeId>(p.out_begin);  // inline slot id
        if ((p.flags & NodeProg::kOut1Ring) == 0) {
          tokens[s] += fire;
          ELRR_HOT_ASSERT(tokens[s] < kTokenQueueCap,
                          "unbounded token accumulation: is the RRG "
                          "strongly connected?");
        } else {
          ELRR_HOT_ASSERT(fire == 0 || (window[s] & inject_bit[s]) == 0,
                          "double injection into EB chain");
          window[s] |= inject_bit[s] & mask;
        }
        return;
      }
      const EdgeId* out = out_csr + p.out_begin;
      std::uint32_t j = 0;
      for (; j < p.out_comb; ++j) {
        tokens[out[j]] += fire;
        ELRR_HOT_ASSERT(tokens[out[j]] < kTokenQueueCap,
                        "unbounded token accumulation: is the RRG strongly "
                        "connected?");
      }
      for (; j < p.out_comb + p.out_ring; ++j) {
        const EdgeId s = out[j];
        ELRR_HOT_ASSERT(fire == 0 || (window[s] & inject_bit[s]) == 0,
                        "double injection into EB chain");
        window[s] |= inject_bit[s] & mask;
      }
    };

    const NodeProg* const prog_end = prog_.data() + num_nodes_;
    for (const NodeProg* pp = prog_.data(); pp != prog_end; ++pp) {
      const NodeProg& p = *pp;
      const NodeId n = p.node;
      if constexpr (kTelescopic) {
        if (busy[n] > 0) continue;  // mid slow telescopic operation
      }
      // Contiguous input slots: the node's whole input block starts at
      // in_begin, one counter per in-edge, in in_edges(n) order (guard
      // positions index straight into it).
      std::int32_t* const __restrict__ in = tokens + p.in_begin;
      const std::uint32_t in_count = p.in_count();
      std::int32_t fire;
      if ((p.flags & NodeProg::kEarly) == 0) {
        // Simple join: fires iff every input has a ready token.
        if (in_count == 1) {  // the most common shape: a chain node
          fire = static_cast<std::int32_t>(in[0] > 0);
          in[0] -= fire;
        } else {
          fire = 1;
          for (std::uint32_t i = 0; i < in_count; ++i) {
            fire &= static_cast<std::int32_t>(in[i] > 0);
          }
          for (std::uint32_t i = 0; i < in_count; ++i) in[i] -= fire;
        }
      } else {
        std::uint32_t guard = pending[n];
        if (guard == kNoGuard) {
          const std::size_t pos = choose_guard(n);
          ELRR_HOT_ASSERT(pos < in_count, "guard chooser out of range");
          guard = static_cast<std::uint32_t>(pos);
        }
        fire = static_cast<std::int32_t>(in[guard] > 0);
        // A satisfied guard resets to kNoGuard (the firing completes it);
        // an unsatisfied one stays pending. Branch-free select.
        pending[n] = fire ? kNoGuard : guard;
        // An early firing decrements every input: the selected token is
        // consumed, a late token is cancelled, a missing one leaves an
        // anti-token -- all -1 on the merged counter.
        for (std::uint32_t i = 0; i < in_count; ++i) {
          in[i] -= fire;
          ELRR_HOT_ASSERT(in[i] > -kTokenQueueCap, "anti-token runaway");
        }
      }

      total_firings += static_cast<std::uint32_t>(fire);
      if constexpr (kFired) fired[n] = static_cast<std::uint8_t>(fire);
      if constexpr (kTelescopic) {
        if (fire != 0 && p.slow_countdown != 0 && choose_latency(n)) {
          // Busy for slow_extra further cycles; outputs withheld until
          // the countdown (decremented each end-of-cycle) reaches 1.
          busy[n] = p.slow_countdown;
          continue;
        }
      }
      emit_masked(p, fire);
    }

    // End of cycle: advance every EB chain by one stage -- deposit the
    // consumer-side bit, then shift the whole window one position. Only
    // buffered edges carry windows; combinational edges have none by
    // construction.
    for (const EdgeId s : buffered_slots_) {
      const std::uint64_t w = window[s];
      tokens[s] += static_cast<std::int32_t>(w & 1);
      window[s] = w >> 1;
    }
    advance_deep_chains<1>(tokens, window, state.deep.data());
    if constexpr (kTelescopic) {
      // Slow telescopic countdowns; release the withheld outputs when the
      // countdown hits 1 (registered: the EB chain receives them after
      // this cycle's shift, so total added latency is exactly slow_extra).
      for (const std::uint32_t pi : telescopic_prog_) {
        const NodeProg& p = prog_[pi];
        if (busy[p.node] == 0) continue;
        if (--busy[p.node] == 1) emit_masked(p, 1);
      }
    }
    return total_firings;
  }

  /// Word j of slot s's EB-chain ring in `state` (bit b is stage
  /// 64 * j + b).
  std::uint64_t chain_word(const FlatState& state, EdgeId s,
                           std::size_t j) const;

  const Rrg& rrg_;
  EdgeId num_edges_ = 0;
  std::size_t num_nodes_ = 0;
  std::size_t num_levels_ = 0;

  /// Nodes in level-scheduled firing order, then the sentinel record.
  std::vector<NodeProg> prog_;
  std::vector<NodeId> order_;   ///< the same order as bare node ids
  std::vector<NodeId> early_nodes_;
  std::vector<NodeId> telescopic_nodes_;
  std::vector<std::uint32_t> telescopic_prog_;  ///< their prog_ positions

  // Slot renumbering: slot = internal edge index (consumer in-edges
  // contiguous, consumers in firing order). slot_of_edge_ / edge_of_slot_
  // translate at the API boundary only; the hot loops live in slot space.
  std::vector<EdgeId> slot_of_edge_;
  std::vector<EdgeId> edge_of_slot_;

  // Out-edge slot ids (sliced per node by NodeProg).
  std::vector<EdgeId> out_csr_;

  // Dense per-slot attributes.
  /// 1 << ((R-1) mod 64): the injection bit in the producer-side window
  /// word; 0 = combinational.
  std::vector<std::uint64_t> inject_bit_;
  std::vector<std::int32_t> buffers_;
  std::vector<EdgeId> buffered_slots_;  ///< slots with 0 < R <= 64, ascending
  std::vector<DeepChain> deep_chains_;  ///< slots with R > 64, ascending
  std::size_t deep_words_ = 0;          ///< FlatState::deep size
};

}  // namespace elrr::sim
