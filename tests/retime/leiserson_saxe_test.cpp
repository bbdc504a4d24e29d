#include "retime/leiserson_saxe.hpp"

#include <gtest/gtest.h>

#include "core/figures.hpp"
#include "core/opt.hpp"
#include "tests/retime/oracles.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"

namespace elrr::retime {
namespace {

using namespace figures;

TEST(LeisersonSaxe, CorrelatorOptimalPeriodIs13) {
  const Rrg rrg = correlator();
  EXPECT_DOUBLE_EQ(cycle_time(rrg).tau, 24.0);  // the unretimed circuit
  const RetimingResult result = min_period_retiming(rrg);
  EXPECT_DOUBLE_EQ(result.period, 13.0);
  EXPECT_DOUBLE_EQ(retimed_cycle_time(rrg, result.r), 13.0);
}

TEST(LeisersonSaxe, Figure1aCannotBeatThree) {
  // Section 1.2 of the DAC'09 paper: retiming alone is stuck at 3.
  const Rrg rrg = figure1a(0.5, false);
  const RetimingResult result = min_period_retiming(rrg);
  EXPECT_DOUBLE_EQ(result.period, 3.0);
}

TEST(LeisersonSaxe, PeriodNeverBelowMaxDelay) {
  Rrg rrg;
  const NodeId a = rrg.add_node("a", 9.0);
  const NodeId b = rrg.add_node("b", 1.0);
  rrg.add_edge(a, b, 1, 1);
  rrg.add_edge(b, a, 1, 1);
  const RetimingResult result = min_period_retiming(rrg);
  EXPECT_DOUBLE_EQ(result.period, 9.0);
}

TEST(LeisersonSaxe, RejectsAntiTokens) {
  EXPECT_THROW(min_period_retiming(figure2(0.9)), Error);
}

TEST(Feas, AgreesWithOptOnFeasibility) {
  const Rrg rrg = correlator();
  EXPECT_FALSE(feasible_period(rrg, 12.9));
  std::vector<int> r;
  ASSERT_TRUE(feasible_period(rrg, 13.0, &r));
  EXPECT_LE(retimed_cycle_time(rrg, r), 13.0);
  EXPECT_TRUE(feasible_period(rrg, 24.0));
}

// ---------------------------------------------------------------------------
// Properties on random live RRGs:
//  * FEAS and OPT agree;
//  * the MILP MIN_CYC(1) equals the Leiserson-Saxe optimum -- tying the
//    paper's formulation to the classical algorithm.
// ---------------------------------------------------------------------------
class RetimeRandomTest : public ::testing::TestWithParam<int> {};

Rrg random_rrg(Rng& rng) {
  const std::size_t n = 3 + static_cast<std::size_t>(rng.uniform_int(0, 5));
  Rrg rrg;
  for (std::size_t i = 0; i < n; ++i) {
    rrg.add_node("", rng.uniform_open_closed(0.0, 10.0));
  }
  for (std::size_t i = 0; i < n; ++i) {
    const int tokens = static_cast<int>(rng.uniform_int(0, 2));
    rrg.add_edge(static_cast<NodeId>(i), static_cast<NodeId>((i + 1) % n),
                 tokens, tokens);
  }
  const std::size_t extra = static_cast<std::size_t>(rng.uniform_int(1, 5));
  for (std::size_t k = 0; k < extra; ++k) {
    const auto u = static_cast<NodeId>(rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
    const auto v = static_cast<NodeId>(rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
    const int tokens = static_cast<int>(rng.uniform_int(u == v ? 1 : 0, 2));
    rrg.add_edge(u, v, tokens, tokens);
  }
  std::vector<EdgeId> dead;
  while (!rrg.is_live(&dead)) {
    rrg.set_tokens(dead[0], 1);
    rrg.set_buffers(dead[0], 1);
  }
  return rrg;
}

TEST_P(RetimeRandomTest, FeasAgreesWithOpt) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 4409 + 31);
  const Rrg rrg = random_rrg(rng);
  const RetimingResult opt = min_period_retiming(rrg);
  EXPECT_TRUE(feasible_period(rrg, opt.period));
  EXPECT_FALSE(feasible_period(rrg, opt.period - 1e-6));
  EXPECT_LE(retimed_cycle_time(rrg, opt.r), opt.period + 1e-9);
}

TEST_P(RetimeRandomTest, MilpMinCycAtThroughputOneMatches) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 9001 + 77);
  const Rrg rrg = random_rrg(rng);
  const RetimingResult ls = min_period_retiming(rrg);
  const auto milp = min_cyc(rrg, 1.0);
  ASSERT_TRUE(milp.feasible);
  EXPECT_NEAR(milp.objective, ls.period, 1e-6)
      << "MILP and Leiserson-Saxe disagree";
}

INSTANTIATE_TEST_SUITE_P(Seeds, RetimeRandomTest, ::testing::Range(0, 20));

}  // namespace
}  // namespace elrr::retime
