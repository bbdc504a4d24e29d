#include "core/rrg.hpp"

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "core/figures.hpp"
#include "support/error.hpp"

namespace elrr {
namespace {

using namespace figures;

TEST(Rrg, BuildAndAccessors) {
  Rrg rrg;
  const NodeId a = rrg.add_node("a", 2.5);
  const NodeId b = rrg.add_node("", 0.0, NodeKind::kEarly);
  EXPECT_EQ(rrg.name(a), "a");
  EXPECT_EQ(rrg.name(b), "n1");
  EXPECT_TRUE(rrg.is_early(b));
  const EdgeId e = rrg.add_edge(a, b, 1, 2, 0.5);
  EXPECT_EQ(rrg.tokens(e), 1);
  EXPECT_EQ(rrg.buffers(e), 2);
  EXPECT_DOUBLE_EQ(rrg.gamma(e), 0.5);
  EXPECT_DOUBLE_EQ(rrg.max_delay(), 2.5);
  EXPECT_DOUBLE_EQ(rrg.total_delay(), 2.5);
}

TEST(Rrg, CopiesShareTheStructureUntilOneChangesIt) {
  const Rrg original = figures::figure2(0.3);
  const std::string dot = original.to_dot();
  EXPECT_FALSE(original.shares_structure());

  Rrg marking = original;  // a new marking keeps sharing
  EXPECT_TRUE(original.shares_structure());
  marking.set_tokens(0, marking.tokens(0) + 1);
  marking.set_buffers(0, marking.buffers(0) + 1);
  EXPECT_TRUE(marking.shares_structure());
  EXPECT_NE(marking.to_dot(), dot);

  // Any structural write copies first; the original never moves.
  Rrg a = original, b = original, c = original, d = original, e = original;
  a.set_gamma(4, 0.25);  // an input of the early node
  b.set_delay(0, 7.0);
  c.set_kind(1, NodeKind::kEarly);
  d.set_telescopic(0, 0.5, 2);
  const NodeId extra = e.add_node("a_longer_name_than_sso_holds", 1.0);
  e.add_edge(extra, 0, 1, 1);
  for (const Rrg* changed : {&a, &b, &c, &d, &e}) {
    EXPECT_FALSE(changed->shares_structure());
    EXPECT_NE(changed->to_dot(), dot);
  }
  EXPECT_EQ(e.name(extra), "a_longer_name_than_sso_holds");
  EXPECT_EQ(e.name(0), original.name(0));
  EXPECT_EQ(e.graph().in_edges(0).back(), e.num_edges() - 1);
  EXPECT_EQ(original.to_dot(), dot);
}

TEST(Rrg, CopiesOnManyThreadsStayIndependent) {
  // Threads copy one graph, change their copies' structure and marking,
  // and drop them in no fixed order; the last copy of a structure may be
  // written in place.
  const Rrg original = figures::figure2(0.3);
  const std::string dot = original.to_dot();
  std::vector<std::string> seen(8);
  {
    std::vector<std::jthread> threads;
    for (std::size_t t = 0; t < seen.size(); ++t) {
      threads.emplace_back([&, t] {
        for (int round = 0; round < 200; ++round) {
          Rrg mine = original;
          Rrg again = mine;
          mine.set_delay(1, static_cast<double>(t));
          again.set_tokens(0, again.tokens(0) + 1);
          again.set_buffers(0, again.buffers(0) + 1);
          mine.set_delay(2, static_cast<double>(round));
          if (round == 199) seen[t] = mine.to_dot() + again.to_dot();
        }
      });
    }
  }
  for (std::size_t t = 0; t < seen.size(); ++t) {
    Rrg mine = original, again = original;
    mine.set_delay(1, static_cast<double>(t));
    mine.set_delay(2, 199.0);
    again.set_tokens(0, again.tokens(0) + 1);
    again.set_buffers(0, again.buffers(0) + 1);
    EXPECT_EQ(seen[t], mine.to_dot() + again.to_dot()) << t;
  }
  EXPECT_EQ(original.to_dot(), dot);
}

TEST(Rrg, RejectsNegativeDelay) {
  Rrg rrg;
  EXPECT_THROW(rrg.add_node("x", -1.0), Error);
}

TEST(Rrg, ValidateBufferTokenRelation) {
  Rrg rrg;
  const NodeId a = rrg.add_node("a", 1.0);
  rrg.add_edge(a, a, 2, 1);  // R < R0
  EXPECT_THROW(rrg.validate(), Error);
}

TEST(Rrg, ValidateEarlyNodeNeedsTwoInputs) {
  Rrg rrg;
  const NodeId a = rrg.add_node("a", 1.0);
  const NodeId mux = rrg.add_node("mux", 0.0, NodeKind::kEarly);
  rrg.add_edge(a, mux, 1, 1, 1.0);
  rrg.add_edge(mux, a, 1, 1);
  EXPECT_THROW(rrg.validate(), Error);
}

TEST(Rrg, ValidateGammaSumsToOne) {
  Rrg rrg;
  const NodeId a = rrg.add_node("a", 1.0);
  const NodeId mux = rrg.add_node("mux", 0.0, NodeKind::kEarly);
  rrg.add_edge(a, mux, 1, 1, 0.4);
  rrg.add_edge(a, mux, 1, 1, 0.4);  // sums to 0.8
  rrg.add_edge(mux, a, 1, 1);
  EXPECT_THROW(rrg.validate(), Error);
}

TEST(Rrg, ValidateLiveness) {
  Rrg rrg;
  const NodeId a = rrg.add_node("a", 1.0);
  const NodeId b = rrg.add_node("b", 1.0);
  rrg.add_edge(a, b, 0, 1);
  rrg.add_edge(b, a, 0, 1);  // cycle with zero tokens: dead
  EXPECT_THROW(rrg.validate(), Error);
  EXPECT_FALSE(rrg.is_live());
  std::vector<EdgeId> dead;
  rrg.is_live(&dead);
  EXPECT_EQ(dead.size(), 2u);
}

TEST(Rrg, AntiTokensAreLegalWhenCyclesStayPositive) {
  const Rrg fig2 = figure2(0.9);
  EXPECT_EQ(fig2.tokens(kBottom), -2);
  EXPECT_NO_THROW(fig2.validate());
}

TEST(CycleTime, Figure1aIsThree) {
  const auto ct = cycle_time(figure1a());
  ASSERT_TRUE(ct.valid);
  EXPECT_DOUBLE_EQ(ct.tau, 3.0);
  // Critical path F1 -> F2 -> F3 (plus zero-delay f, m).
  ASSERT_GE(ct.critical_path.size(), 3u);
  EXPECT_EQ(ct.critical_path[0], kF1);
}

TEST(CycleTime, Figure1bIsOne) {
  const auto ct = cycle_time(figure1b());
  ASSERT_TRUE(ct.valid);
  EXPECT_DOUBLE_EQ(ct.tau, 1.0);
}

TEST(CycleTime, Figure2IsOne) {
  const auto ct = cycle_time(figure2(0.9));
  ASSERT_TRUE(ct.valid);
  EXPECT_DOUBLE_EQ(ct.tau, 1.0);
}

TEST(Retiming, PaperVectorTransformsFigure1aIntoFigure2) {
  // Section 2: r(m) = -2, r(F1) = -2, r(F2) = -1, r(f) = r(F3) = 0.
  const Rrg fig1a = figure1a(0.9);
  std::vector<int> r(5, 0);
  r[kM] = -2;
  r[kF1] = -2;
  r[kF2] = -1;
  const RrConfig config = apply_retiming(fig1a, r);
  const Rrg fig2 = figure2(0.9);
  for (EdgeId e = 0; e < fig1a.num_edges(); ++e) {
    EXPECT_EQ(config.tokens[e], fig2.tokens(e)) << "edge " << e;
    EXPECT_EQ(config.buffers[e], fig2.buffers(e)) << "edge " << e;
  }
  EXPECT_TRUE(validate_config(fig1a, config));
}

TEST(Retiming, GrowBuffersKeepsExistingEbs) {
  const Rrg fig1a = figure1a();
  const std::vector<int> zero(5, 0);
  const RrConfig keep = apply_retiming(fig1a, zero, /*grow_buffers=*/true);
  EXPECT_EQ(keep.buffers, initial_config(fig1a).buffers);
}

TEST(ValidateConfig, RejectsNonRetimingTokenChange) {
  const Rrg fig1a = figure1a();
  RrConfig config = initial_config(fig1a);
  config.tokens[kTop] += 1;  // changes a cycle sum: unreachable
  config.buffers[kTop] += 1;
  std::string why;
  EXPECT_FALSE(validate_config(fig1a, config, &why));
  EXPECT_NE(why.find("not a retiming"), std::string::npos);
}

TEST(ValidateConfig, RejectsDeadResult) {
  // Move the only token off a cycle... not reachable by retiming without
  // breaking liveness: removing all tokens from the bottom cycle.
  const Rrg fig1a = figure1a();
  std::vector<int> r(5, 0);
  r[kF1] = 1;  // R0(m->F1) becomes 0... and R0(F1->F2) becomes -1? No:
  // r moves tokens: m->F1: 1 + r(F1) - r(m) = 2; F1->F2: 0 - 1 = -1.
  const RrConfig config = apply_retiming(fig1a, r);
  // Buffers were set to max(tokens, 0): fine; but bottom cycle token sum
  // is unchanged (retiming preserves it), so this *is* live and valid.
  EXPECT_TRUE(validate_config(fig1a, config));
  // Now force a dead cycle directly.
  RrConfig dead = initial_config(fig1a);
  dead.tokens[kMF1] = 0;
  dead.tokens[kF1F2] = 1;  // shift token into the F1->F2 edge
  dead.buffers[kF1F2] = 1;
  dead.tokens[kBottom] = -1;
  dead.tokens[kTop] = 2;  // keep both f->m cycle-sum changes consistent? No
  std::string why;
  EXPECT_FALSE(validate_config(fig1a, dead, &why));
}

TEST(ApplyConfig, RoundTrip) {
  const Rrg fig1a = figure1a();
  const RrConfig config = initial_config(fig1a);
  const Rrg copy = apply_config(fig1a, config);
  EXPECT_EQ(initial_config(copy).tokens, config.tokens);
  EXPECT_EQ(initial_config(copy).buffers, config.buffers);
}

TEST(EffectiveCycleTime, Definition) {
  EXPECT_DOUBLE_EQ(effective_cycle_time(3.0, 1.0), 3.0);
  EXPECT_NEAR(effective_cycle_time(1.0, 0.491), 2.037, 0.002);  // Sec. 1.4
  EXPECT_THROW(effective_cycle_time(1.0, 0.0), Error);
}

TEST(Dot, MentionsTokensBuffersAndShape) {
  const std::string dot = figure1a().to_dot();
  EXPECT_NE(dot.find("R0=3 R=3"), std::string::npos);
  EXPECT_NE(dot.find("shape=trapezium"), std::string::npos);
}

}  // namespace
}  // namespace elrr
