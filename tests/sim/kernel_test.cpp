#include "tests/sim/oracle.hpp"

#include <gtest/gtest.h>

#include "core/figures.hpp"
#include "support/error.hpp"

namespace elrr::sim {
namespace {

using namespace figures;

Kernel::GuardChooser always(std::size_t pos) {
  return [pos](NodeId) { return pos; };
}

TEST(Kernel, InitialStateTokensAndAntiTokens) {
  const Rrg rrg = figure2(0.9);
  const Kernel kernel(rrg);
  const SyncState s = kernel.initial_state();
  EXPECT_EQ(s.edges[kMF1].ready, 1);
  EXPECT_EQ(s.edges[kMF1].anti, 0);
  EXPECT_EQ(s.edges[kBottom].ready, 0);
  EXPECT_EQ(s.edges[kBottom].anti, 2);  // two anti-tokens
  EXPECT_EQ(s.edges[kTop].inflight.size(), 1u);
  EXPECT_EQ(s.pending_guard[kM], kNoGuard);
}

TEST(Kernel, Figure1aAllNodesFireEveryCycleUnderLateEvaluation) {
  const Rrg rrg = figure1a(0.5, false);
  const Kernel kernel(rrg);
  SyncState s = kernel.initial_state();
  for (int t = 0; t < 20; ++t) {
    EXPECT_EQ(kernel.step(s, always(0)), 5u) << "cycle " << t;
  }
}

TEST(Kernel, Figure2FiresEveryCycleWhenMuxAlwaysPicksTop) {
  // With the guard always on the (alpha) top input, figure 2 sustains
  // Theta = 1 = 1/(3 - 2*1): every node fires every cycle.
  const Rrg rrg = figure2(0.9);
  const Kernel kernel(rrg);
  // Guard position of the top edge within m's input list.
  std::size_t top_pos = 0;
  const auto& inputs = rrg.graph().in_edges(kM);
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    if (inputs[i] == kTop) top_pos = i;
  }
  SyncState s = kernel.initial_state();
  std::uint32_t fired_m = 0;
  std::vector<std::uint8_t> fired(rrg.num_nodes());
  for (int t = 0; t < 30; ++t) {
    kernel.step(s, always(top_pos), {}, fired.data());
    fired_m += fired[kM];
  }
  EXPECT_EQ(fired_m, 30u);
}

TEST(Kernel, Figure2BottomChoiceCostsThreeCycles) {
  // Hand-traced (src/core/README.md): a bottom-guard firing of m completes exactly
  // 3 cycles after the previous firing (anti-tokens must drain first).
  const Rrg rrg = figure2(0.9);
  const Kernel kernel(rrg);
  std::size_t bottom_pos = 0;
  const auto& inputs = rrg.graph().in_edges(kM);
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    if (inputs[i] == kBottom) bottom_pos = i;
  }
  SyncState s = kernel.initial_state();
  std::vector<int> m_fire_cycles;
  std::vector<std::uint8_t> fired(rrg.num_nodes());
  for (int t = 0; t < 12; ++t) {
    kernel.step(s, always(bottom_pos), {}, fired.data());
    if (fired[kM]) {
      m_fire_cycles.push_back(t);
    }
  }
  ASSERT_GE(m_fire_cycles.size(), 3u);
  for (std::size_t i = 1; i < m_fire_cycles.size(); ++i) {
    EXPECT_EQ(m_fire_cycles[i] - m_fire_cycles[i - 1], 3);
  }
}

TEST(Kernel, PendingGuardPersistsUntilSatisfied) {
  const Rrg rrg = figure2(0.9);
  const Kernel kernel(rrg);
  std::size_t bottom_pos = 0;
  const auto& inputs = rrg.graph().in_edges(kM);
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    if (inputs[i] == kBottom) bottom_pos = i;
  }
  SyncState s = kernel.initial_state();
  int chooser_calls = 0;
  const Kernel::GuardChooser counting = [&](NodeId) {
    ++chooser_calls;
    return bottom_pos;
  };
  // m samples once, then waits ~2 more cycles without resampling.
  kernel.step(s, counting);
  EXPECT_EQ(chooser_calls, 1);
  EXPECT_EQ(s.pending_guard[kM], static_cast<std::int8_t>(bottom_pos));
  kernel.step(s, counting);
  EXPECT_EQ(chooser_calls, 1);  // still pending, no resample
}

TEST(Kernel, TokenConservationOnCycles) {
  // Retiming invariant at runtime: total tokens (ready + inflight - anti)
  // around each directed cycle never changes.
  const Rrg rrg = figure2(0.7);
  const Kernel kernel(rrg);
  const auto cycle_sum = [&](const SyncState& s,
                             const std::vector<EdgeId>& cycle) {
    int total = 0;
    for (EdgeId e : cycle) {
      total += s.edges[e].ready - s.edges[e].anti;
      for (auto b : s.edges[e].inflight) total += b;
    }
    return total;
  };
  const std::vector<EdgeId> top_cycle{kMF1, kF1F2, kF2F3, kF3F, kTop};
  const std::vector<EdgeId> bottom_cycle{kMF1, kF1F2, kF2F3, kF3F, kBottom};
  SyncState s = kernel.initial_state();
  EXPECT_EQ(cycle_sum(s, top_cycle), 4);
  EXPECT_EQ(cycle_sum(s, bottom_cycle), 1);
  std::size_t tick = 0;
  const Kernel::GuardChooser alternating = [&](NodeId) -> std::size_t {
    return (tick++ % 3 == 0) ? 0u : 1u;
  };
  for (int t = 0; t < 50; ++t) {
    kernel.step(s, alternating);
    EXPECT_EQ(cycle_sum(s, top_cycle), 4) << "cycle " << t;
    EXPECT_EQ(cycle_sum(s, bottom_cycle), 1) << "cycle " << t;
  }
}

TEST(Kernel, EncodeDistinguishesStates) {
  const Rrg rrg = figure2(0.9);
  const Kernel kernel(rrg);
  SyncState a = kernel.initial_state();
  SyncState b = a;
  EXPECT_EQ(a.encode(), b.encode());
  b.edges[kTop].ready += 1;
  EXPECT_NE(a.encode(), b.encode());
  b = a;
  b.pending_guard[kM] = 1;
  EXPECT_NE(a.encode(), b.encode());
}

TEST(Kernel, SamplingNodesTracksPendingGuards) {
  const Rrg rrg = figure2(0.9);
  const Kernel kernel(rrg);
  SyncState s = kernel.initial_state();
  EXPECT_EQ(kernel.sampling_nodes(s), std::vector<NodeId>{kM});
  s.pending_guard[kM] = 0;
  EXPECT_TRUE(kernel.sampling_nodes(s).empty());
}

}  // namespace
}  // namespace elrr::sim
