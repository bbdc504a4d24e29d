/// \file flat_kernel_test.cpp
/// The simulation kernel's contract: bit-exact semantic equivalence with
/// the oracle Kernel (tests/sim/oracle.hpp). Randomized differential
/// tests drive both kernels (and the batched variant) through identical
/// chooser sequences on random RRGs mixing early and telescopic nodes,
/// asserting per-cycle firing counts and full states match exactly;
/// driver-level tests pin theta equality between simulate_throughput and
/// the oracle driver, thread-count invariance, and a fixed-seed golden
/// value.

#include "sim/flat_kernel.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "bench89/generator.hpp"
#include "core/figures.hpp"
#include "sim/choosers.hpp"
#include "sim/markov.hpp"
#include "sim/simulator.hpp"
#include "support/rng.hpp"
#include "support/strings.hpp"
#include "tests/sim/oracle.hpp"

namespace elrr::sim {
namespace {

using namespace figures;

/// Random live RRG: ring backbone plus chords; early joins with random
/// gammas; optionally telescopic nodes; buffers up to 3 EBs deep.
Rrg random_rrg(std::uint64_t seed, bool allow_telescopic) {
  elrr::Rng rng(seed * 7907 + 3);
  const std::size_t n = 3 + static_cast<std::size_t>(rng.uniform_int(0, 4));
  Rrg rrg;
  for (std::size_t i = 0; i < n; ++i) {
    rrg.add_node(indexed_name('n', i), 1.0);
  }
  const auto random_edge = [&](NodeId u, NodeId v) {
    const int tokens = static_cast<int>(rng.uniform_int(-1, 2));
    const int buffers =
        std::max(tokens, 0) + static_cast<int>(rng.uniform_int(0, 2));
    rrg.add_edge(u, v, tokens, buffers);
  };
  for (std::size_t i = 0; i < n; ++i) {
    random_edge(static_cast<NodeId>(i), static_cast<NodeId>((i + 1) % n));
  }
  const std::size_t chords =
      1 + static_cast<std::size_t>(rng.uniform_int(0, 3));
  for (std::size_t k = 0; k < chords; ++k) {
    const auto u = static_cast<NodeId>(
        rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
    const auto v = static_cast<NodeId>(
        rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
    random_edge(u, v);
  }
  // Negative preloads must sit on in-edges of early nodes to be
  // meaningful; first pick early joins, then fix up stray anti-tokens.
  for (NodeId v = 0; v < rrg.num_nodes(); ++v) {
    if (rrg.graph().in_degree(v) >= 2 && rng.bernoulli(0.5)) {
      rrg.set_kind(v, NodeKind::kEarly);
      const auto probs = rng.simplex(rrg.graph().in_degree(v), 0.05);
      std::size_t idx = 0;
      for (EdgeId e : rrg.graph().in_edges(v)) rrg.set_gamma(e, probs[idx++]);
    }
  }
  for (EdgeId e = 0; e < rrg.num_edges(); ++e) {
    if (rrg.tokens(e) < 0 && !rrg.is_early(rrg.graph().dst(e))) {
      rrg.set_tokens(e, 0);
    }
  }
  if (allow_telescopic) {
    const auto t = static_cast<NodeId>(
        rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
    rrg.set_telescopic(t, rng.uniform(0.3, 0.9),
                       static_cast<int>(rng.uniform_int(1, 3)));
  }
  std::vector<EdgeId> dead;
  while (!rrg.is_live(&dead)) {
    // Adding (not setting) tokens strictly raises the dead cycle's sum,
    // so the repair terminates even with negative preloads on the cycle.
    const int tokens = rrg.tokens(dead[0]) + 1;
    rrg.set_tokens(dead[0], tokens);
    rrg.set_buffers(dead[0], std::max(tokens, rrg.buffers(dead[0])));
  }
  rrg.validate();
  return rrg;
}

/// Deterministic synthetic choosers shared verbatim by both kernels: the
/// decision depends only on (cycle, node), so the two kernels see
/// identical draw sequences regardless of internal iteration order.
struct SyntheticChoosers {
  const Rrg* rrg;
  int cycle = 0;
  std::size_t guard(NodeId n) const {
    const std::uint64_t h =
        hash_name(std::to_string(cycle) + "g" + std::to_string(n));
    return static_cast<std::size_t>(h % rrg->graph().in_degree(n));
  }
  bool latency(NodeId n) const {
    const std::uint64_t h =
        hash_name(std::to_string(cycle) + "l" + std::to_string(n));
    return (h & 3) == 0;  // slow every ~4th sampled firing
  }
};

/// Differential property: per-cycle firing counts, per-node firing flags
/// and the full synchronous state stay bit-exactly equal between the
/// oracle Kernel and the FlatKernel over a long horizon.
class FlatVsReference : public ::testing::TestWithParam<int> {};

TEST_P(FlatVsReference, BitExactOverHorizon) {
  // Two variants per seed: with and without telescopic nodes; together
  // with the 60-seed range this crosses the >= 100 random-RRG bar.
  for (const bool telescopic : {false, true}) {
    const Rrg rrg =
        random_rrg(static_cast<std::uint64_t>(GetParam()), telescopic);
    const Kernel reference(rrg);
    const FlatKernel flat(rrg);

    SyncState ref_state = reference.initial_state();
    FlatState flat_state = flat.initial_state();
    ASSERT_EQ(to_sync(flat, flat_state), ref_state);

    SyntheticChoosers chooser{&rrg};
    std::vector<std::uint8_t> ref_fired(rrg.num_nodes());
    std::vector<std::uint8_t> flat_fired(rrg.num_nodes());
    const Kernel::GuardChooser ref_guard = [&](NodeId n) {
      return chooser.guard(n);
    };
    const Kernel::LatencyChooser ref_latency = [&](NodeId n) {
      return chooser.latency(n);
    };
    const auto flat_guard = [&](NodeId n) { return chooser.guard(n); };
    const auto flat_latency = [&](NodeId n) { return chooser.latency(n); };

    for (chooser.cycle = 0; chooser.cycle < 200; ++chooser.cycle) {
      const std::uint32_t ref_total =
          reference.step(ref_state, ref_guard, ref_latency, ref_fired.data());
      const std::uint32_t flat_total = flat.step(
          flat_state, flat_guard, flat_latency, flat_fired.data());
      ASSERT_EQ(flat_total, ref_total)
          << "cycle " << chooser.cycle << " telescopic=" << telescopic;
      ASSERT_EQ(flat_fired, ref_fired) << "cycle " << chooser.cycle;
      ASSERT_EQ(to_sync(flat, flat_state), ref_state)
          << "cycle " << chooser.cycle << " telescopic=" << telescopic;
      ASSERT_EQ(flat.encode(flat_state), ref_state.encode())
          << "cycle " << chooser.cycle;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FlatVsReference, ::testing::Range(0, 60));

/// The batched step is run-for-run identical to solo flat stepping, for
/// every lane width the driver instantiates -- telescopic graphs
/// included: each lane's busy countdown, withheld outputs and latency
/// draws mirror the solo path exactly.
template <std::size_t K>
void expect_batch_matches_solo(const Rrg& rrg, bool telescopic) {
  const FlatKernel kernel(rrg);
  const GuardTable guards(rrg);
  const LatencyTable latencies(rrg);
  const std::size_t num_nodes = rrg.num_nodes();

  // Batched: K interleaved runs with run-private streams (RunStreams is
  // the driver's node-major derivation).
  std::uint64_t seeds[K];
  for (std::size_t r = 0; r < K; ++r) {
    seeds[r] = 1000 + 17 * r;
  }
  RunStreams streams(seeds, K, num_nodes);
  const BatchTableGuardChooser batch_guard{&guards, streams.data(), K};
  const BatchTableLatencyChooser batch_latency{&latencies, streams.data(), K};
  FlatBatchState batch = kernel.initial_batch_state(K);
  std::uint64_t batch_totals[K] = {};
  for (int t = 0; t < 300; ++t) {
    kernel.step_batch<K>(batch, batch_guard, batch_totals, batch_latency);
  }

  // Solo: the same K runs one at a time.
  for (std::size_t r = 0; r < K; ++r) {
    elrr::Rng master(1000 + 17 * r);
    std::vector<elrr::Rng> solo_streams;
    for (std::size_t n = 0; n < num_nodes; ++n) {
      solo_streams.push_back(master.split());
    }
    const TableGuardChooser guard{&guards, solo_streams.data()};
    const TableLatencyChooser latency{&latencies, solo_streams.data()};
    FlatState state = kernel.initial_state();
    std::uint64_t total = 0;
    for (int t = 0; t < 300; ++t) total += kernel.step(state, guard, latency);
    EXPECT_EQ(batch_totals[r], total)
        << "run " << r << " K=" << K << " telescopic=" << telescopic;
    EXPECT_EQ(kernel.extract_run(batch, r), state)
        << "run " << r << " K=" << K << " telescopic=" << telescopic;
  }
}

class BatchVsSolo : public ::testing::TestWithParam<int> {};

TEST_P(BatchVsSolo, InterleavedRunsMatchSoloRuns) {
  for (const bool telescopic : {false, true}) {
    const Rrg rrg =
        random_rrg(static_cast<std::uint64_t>(GetParam()), telescopic);
    expect_batch_matches_solo<2>(rrg, telescopic);
    expect_batch_matches_solo<3>(rrg, telescopic);
    expect_batch_matches_solo<4>(rrg, telescopic);
    expect_batch_matches_solo<8>(rrg, telescopic);
    expect_batch_matches_solo<16>(rrg, telescopic);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BatchVsSolo, ::testing::Range(0, 20));

/// The firing order is level-scheduled: a valid topological order of the
/// zero-buffer subgraph in which registered producers (no combinational
/// in-edges) come first and every combinational edge crosses to a
/// strictly later level group.
TEST(FlatKernel, CombOrderIsLevelScheduled) {
  for (int seed = 0; seed < 10; ++seed) {
    const Rrg rrg = random_rrg(static_cast<std::uint64_t>(seed) + 700, true);
    const FlatKernel kernel(rrg);
    const std::vector<NodeId>& order = kernel.comb_order();
    ASSERT_EQ(order.size(), rrg.num_nodes());
    EXPECT_GE(kernel.num_levels(), 1u);

    // Recompute levels independently and check the order is sorted by
    // level (and hence topological: comb edges strictly raise the level).
    std::vector<std::uint32_t> level(rrg.num_nodes(), 0);
    bool changed = true;
    while (changed) {  // fixpoint; comb subgraph is acyclic
      changed = false;
      for (EdgeId e = 0; e < rrg.num_edges(); ++e) {
        if (rrg.buffers(e) != 0) continue;
        const NodeId u = rrg.graph().src(e), v = rrg.graph().dst(e);
        if (level[v] < level[u] + 1) {
          level[v] = level[u] + 1;
          changed = true;
        }
      }
    }
    std::uint32_t max_level = 0;
    for (std::size_t i = 1; i < order.size(); ++i) {
      EXPECT_LE(level[order[i - 1]], level[order[i]]) << "position " << i;
    }
    for (NodeId n = 0; n < rrg.num_nodes(); ++n) {
      max_level = std::max(max_level, level[n]);
    }
    EXPECT_EQ(kernel.num_levels(), max_level + 1);
  }
}

/// Telescopic batched stepping against the oracle kernel, cycle by
/// cycle: every lane of a step_batch advance must reproduce the oracle
/// Kernel's full synchronous state (busy countdowns included) when driven
/// through the same (cycle, node, run)-deterministic chooser sequence.
class TelescopicBatchVsReference : public ::testing::TestWithParam<int> {};

TEST_P(TelescopicBatchVsReference, LanesMatchReferencePerCycle) {
  const Rrg rrg = random_rrg(static_cast<std::uint64_t>(GetParam()), true);
  const FlatKernel flat(rrg);
  const Kernel reference(rrg);
  constexpr std::size_t kRuns = 3;

  const auto guard_for = [&](int cycle, NodeId n, std::size_t run) {
    const std::uint64_t h = hash_name(std::to_string(cycle) + "g" +
                                      std::to_string(n) + "r" +
                                      std::to_string(run));
    return static_cast<std::size_t>(h % rrg.graph().in_degree(n));
  };
  const auto latency_for = [&](int cycle, NodeId n, std::size_t run) {
    const std::uint64_t h = hash_name(std::to_string(cycle) + "l" +
                                      std::to_string(n) + "r" +
                                      std::to_string(run));
    return (h & 3) == 0;  // slow every ~4th sampled firing
  };

  int cycle = 0;
  FlatBatchState batch = flat.initial_batch_state(kRuns);
  std::uint64_t batch_totals[kRuns] = {};
  std::vector<SyncState> ref_states;
  for (std::size_t r = 0; r < kRuns; ++r) {
    ref_states.push_back(reference.initial_state());
  }
  std::uint64_t ref_totals[kRuns] = {};

  for (cycle = 0; cycle < 200; ++cycle) {
    flat.step_batch<kRuns>(
        batch,
        [&](NodeId n, std::size_t run) { return guard_for(cycle, n, run); },
        batch_totals,
        [&](NodeId n, std::size_t run) { return latency_for(cycle, n, run); });
    for (std::size_t r = 0; r < kRuns; ++r) {
      ref_totals[r] += reference.step(
          ref_states[r], [&](NodeId n) { return guard_for(cycle, n, r); },
          [&](NodeId n) { return latency_for(cycle, n, r); });
      ASSERT_EQ(to_sync(flat, flat.extract_run(batch, r)), ref_states[r])
          << "cycle " << cycle << " run " << r;
    }
  }
  for (std::size_t r = 0; r < kRuns; ++r) {
    EXPECT_EQ(batch_totals[r], ref_totals[r]) << "run " << r;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TelescopicBatchVsReference,
                         ::testing::Range(0, 12));

/// Driver-level: simulate_throughput and the oracle driver produce
/// bit-identical theta for fixed seeds.
class FastVsReferenceDriver : public ::testing::TestWithParam<int> {};

TEST_P(FastVsReferenceDriver, ThetaBitExact) {
  for (const bool telescopic : {false, true}) {
    const Rrg rrg = random_rrg(
        static_cast<std::uint64_t>(GetParam()) + 500, telescopic);
    SimOptions options;
    options.seed = 42 + static_cast<std::uint64_t>(GetParam());
    options.warmup_cycles = 200;
    options.measure_cycles = 3000;
    options.runs = 3;
    const SimResult fast = simulate_throughput(rrg, options);
    const SimResult reference = simulate_on_oracle(rrg, options);
    ASSERT_EQ(fast.theta, reference.theta) << "telescopic=" << telescopic;
    ASSERT_EQ(fast.stderr_theta, reference.stderr_theta);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FastVsReferenceDriver, ::testing::Range(0, 8));

/// The same driver-level identity on the generated Table-2 circuits,
/// past the random graphs' sizes: s27, s526 and s1488, and s526 with
/// every 7th node telescopic (fast with probability 0.85, two extra
/// cycles when slow).
TEST(FlatSimulator, Table2CircuitsMatchTheReferencePath) {
  struct Case {
    const char* circuit;
    std::size_t measure_cycles;
    bool telescopic;
  };
  for (const Case c : {Case{"s27", 10000, false}, Case{"s526", 5000, false},
                       Case{"s1488", 1000, false}, Case{"s526", 2000, true}}) {
    Rrg rrg = bench89::make_table2_rrg(bench89::spec_by_name(c.circuit), 1);
    if (c.telescopic) {
      for (NodeId n = 0; n < rrg.num_nodes(); n += 7) {
        rrg.set_telescopic(n, 0.85, 2);
      }
    }
    SimOptions options;
    options.warmup_cycles = 200;
    options.measure_cycles = c.measure_cycles;
    options.runs = 4;
    options.threads = 1;
    const SimResult fast = simulate_throughput(rrg, options);
    const SimResult reference = simulate_on_oracle(rrg, options);
    EXPECT_EQ(fast.theta, reference.theta)
        << c.circuit << " telescopic=" << c.telescopic;
    EXPECT_EQ(fast.stderr_theta, reference.stderr_theta) << c.circuit;
  }
}

TEST(FlatSimulator, ThreadCountNeverChangesTheta) {
  const Rrg rrg = figure1b(0.5, true);
  SimOptions options;
  options.seed = 7;
  options.warmup_cycles = 500;
  options.measure_cycles = 5000;
  options.runs = 6;
  options.threads = 1;
  const SimResult solo = simulate_throughput(rrg, options);
  for (const std::size_t threads : {2u, 4u, 7u}) {
    options.threads = threads;
    const SimResult parallel = simulate_throughput(rrg, options);
    EXPECT_EQ(solo.theta, parallel.theta) << "threads " << threads;
    EXPECT_EQ(solo.stderr_theta, parallel.stderr_theta);
  }
}

/// Reproducibility stays pinned: fixed seed, fixed theta, to the last
/// bit (matches the paper's Section 1.4 value 0.491 for figure 1(b) at
/// alpha = 0.5). If an intentional change to the seed mix, the chooser
/// tables or the kernel semantics moves this value, re-derive it by
/// printing theta at full precision and update the constant -- in the
/// same commit that explains why the streams changed.
inline constexpr double kGoldenTheta = 0.49086000000000002;

TEST(FlatSimulator, GoldenFixedSeedTheta) {
  SimOptions options;
  options.seed = 12345;
  options.warmup_cycles = 1000;
  options.measure_cycles = 20000;
  options.runs = 3;
  const SimResult result = simulate_throughput(figure1b(0.5, true), options);
  // Derived once on the oracle (which the production driver matches
  // bit-exactly); both must keep reproducing it.
  EXPECT_DOUBLE_EQ(result.theta, kGoldenTheta);
  const SimResult reference =
      simulate_on_oracle(figure1b(0.5, true), options);
  EXPECT_DOUBLE_EQ(reference.theta, kGoldenTheta);
}

TEST(FlatSimulator, RunSeedsAreDecorrelated) {
  // The splitmix64 mix must not collide across (seed, run) neighbours the
  // way the old linear mix did: run r of seed s vs run r+1 of nearby
  // seeds, and a spread of low bits.
  EXPECT_NE(run_seed(1, 0), run_seed(1, 1));
  EXPECT_NE(run_seed(1, 1), run_seed(2, 0));
  EXPECT_NE(run_seed(1, 2), run_seed(1 - 0x9e37U, 3));  // old-mix collision
  int differing_bits = 0;
  const std::uint64_t a = run_seed(3, 0), b = run_seed(3, 1);
  for (int bit = 0; bit < 64; ++bit) {
    differing_bits += static_cast<int>(((a ^ b) >> bit) & 1);
  }
  EXPECT_GT(differing_bits, 16);  // avalanche, not a linear nudge
}

TEST(FlatKernel, DeepEbChainRunsPastTheBitRing) {
  // An EB chain deeper than 64 stages spills into FlatState::deep; the
  // ring's period stays exact.
  Rrg rrg;
  const NodeId a = rrg.add_node("a", 1.0);
  const NodeId b = rrg.add_node("b", 1.0);
  rrg.add_edge(a, b, 1, 70);
  rrg.add_edge(b, a, 1, 1);
  SimOptions options;
  options.warmup_cycles = 200;
  options.measure_cycles = 2000;
  options.runs = 1;
  const SimResult result = simulate_throughput(rrg, options);
  // Two tokens on a 71-stage ring fire each node once every ~35.5 cycles.
  EXPECT_NEAR(result.theta, 2.0 / 71.0, 1e-3);
}

TEST(FlatKernel, RejectsTemporaries) {
  // Compile-time property (Kernel(Rrg&&) = delete); spot-check the
  // reference-holding contract at runtime instead.
  const Rrg rrg = figure2(0.9);
  const FlatKernel kernel(rrg);
  EXPECT_EQ(&kernel.rrg(), &rrg);
}

TEST(FlatKernel, ReadoutsAgree) {
  // The per-edge accessors (through the oracle's to_sync) and encode()
  // read the same state, deep chains and pending guards included.
  Rrg rrg = random_rrg(99, true);
  const NodeId a = rrg.add_node("deep_a", 1.0);
  const NodeId b = rrg.add_node("deep_b", 1.0);
  rrg.add_edge(a, b, 2, 130);
  rrg.add_edge(b, a, 1, 3);
  const FlatKernel flat(rrg);
  FlatState state = flat.initial_state();
  SyntheticChoosers chooser{&rrg};
  const auto guard = [&](NodeId n) { return chooser.guard(n); };
  const auto latency = [&](NodeId n) { return chooser.latency(n); };
  for (chooser.cycle = 0; chooser.cycle < 50; ++chooser.cycle) {
    flat.step(state, guard, latency);
    EXPECT_EQ(to_sync(flat, state).encode(), flat.encode(state))
        << "cycle " << chooser.cycle;
  }
}

}  // namespace
}  // namespace elrr::sim
