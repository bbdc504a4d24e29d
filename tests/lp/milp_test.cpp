#include "lp/milp.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "support/rng.hpp"

namespace elrr::lp {
namespace {

TEST(Milp, PureLpPassthrough) {
  Model m;
  m.set_sense(Sense::kMaximize);
  const int x = m.add_col(0, 4, 1.0);
  m.add_row(-kInf, 3, {{x, 1.0}});
  const auto r = solve_milp(m);
  ASSERT_EQ(r.status, MilpStatus::kOptimal);
  EXPECT_NEAR(r.objective, 3.0, 1e-8);
  EXPECT_NEAR(r.gap(), 0.0, 1e-9);
}

TEST(Milp, FractionalRelaxationRoundsDown) {
  // max x + y st 2x + 2y <= 3, x,y in {0,1}: LP gives 1.5, ILP gives 1.
  Model m;
  m.set_sense(Sense::kMaximize);
  const int x = m.add_col(0, 1, 1.0, true);
  const int y = m.add_col(0, 1, 1.0, true);
  m.add_row(-kInf, 3, {{x, 2.0}, {y, 2.0}});
  const auto r = solve_milp(m);
  ASSERT_EQ(r.status, MilpStatus::kOptimal);
  EXPECT_NEAR(r.objective, 1.0, 1e-8);
}

TEST(Milp, Knapsack) {
  // Values {60,100,120}, weights {10,20,30}, capacity 50 -> 220.
  Model m;
  m.set_sense(Sense::kMaximize);
  const int a = m.add_col(0, 1, 60, true);
  const int b = m.add_col(0, 1, 100, true);
  const int c = m.add_col(0, 1, 120, true);
  m.add_row(-kInf, 50, {{a, 10.0}, {b, 20.0}, {c, 30.0}});
  const auto r = solve_milp(m);
  ASSERT_EQ(r.status, MilpStatus::kOptimal);
  EXPECT_NEAR(r.objective, 220.0, 1e-7);
  EXPECT_NEAR(r.x[a], 0.0, 1e-9);
  EXPECT_NEAR(r.x[b], 1.0, 1e-9);
  EXPECT_NEAR(r.x[c], 1.0, 1e-9);
}

TEST(Milp, IntegerInfeasibleBand) {
  // 0.4 <= x <= 0.6 with x integer: no integer point.
  Model m;
  const int x = m.add_col(0, 1, 1.0, true);
  m.add_row(0.4, 0.6, {{x, 1.0}});
  EXPECT_EQ(solve_milp(m).status, MilpStatus::kInfeasible);
}

TEST(Milp, MixedIntegerContinuous) {
  // min 3n + c st n + c >= 2.5, c <= 0.7, n integer >= 0
  // -> n = 2, c = 0.5, obj 6.5.
  Model m;
  const int n = m.add_col(0, kInf, 3.0, true);
  const int c = m.add_col(0, 0.7, 1.0);
  m.add_row(2.5, kInf, {{n, 1.0}, {c, 1.0}});
  const auto r = solve_milp(m);
  ASSERT_EQ(r.status, MilpStatus::kOptimal);
  EXPECT_NEAR(r.objective, 6.5, 1e-7);
  EXPECT_NEAR(r.x[n], 2.0, 1e-9);
}

TEST(Milp, NegativeIntegerRange) {
  // max -x st x >= -2.5, x integer in [-10, 10] -> x = -2, obj 2.
  Model m;
  m.set_sense(Sense::kMaximize);
  const int x = m.add_col(-10, 10, -1.0, true);
  m.add_row(-2.5, kInf, {{x, 1.0}});
  const auto r = solve_milp(m);
  ASSERT_EQ(r.status, MilpStatus::kOptimal);
  EXPECT_NEAR(r.objective, 2.0, 1e-8);
}

TEST(Milp, FractionalColumnBoundsTightened) {
  // Integer var with bounds [0.3, 2.7] means effective [1, 2].
  Model m;
  m.set_sense(Sense::kMaximize);
  m.add_col(0.3, 2.7, 1.0, true);
  const auto r = solve_milp(m);
  ASSERT_EQ(r.status, MilpStatus::kOptimal);
  EXPECT_NEAR(r.objective, 2.0, 1e-9);
}

TEST(Milp, NodeLimitReportsFeasibleOrNoSolution) {
  Model m;
  m.set_sense(Sense::kMaximize);
  // A slightly bigger knapsack so the tree is not trivial.
  std::vector<ColEntry> weight;
  elrr::Rng rng(5);
  for (int j = 0; j < 12; ++j) {
    const int c = m.add_col(0, 1, rng.uniform(1, 10), true);
    weight.push_back({c, rng.uniform(1, 10)});
  }
  m.add_row(-kInf, 20, weight);
  MilpOptions options;
  options.max_nodes = 2;
  const auto r = solve_milp(m, options);
  EXPECT_TRUE(r.status == MilpStatus::kFeasible ||
              r.status == MilpStatus::kOptimal ||
              r.status == MilpStatus::kNoSolution);
  if (r.has_solution()) {
    // The incumbent must be genuinely feasible.
    EXPECT_LE(m.max_infeasibility(r.x), 1e-6);
    // And the reported bound must bracket it.
    EXPECT_GE(r.best_bound, r.objective - 1e-6);
  }
}

// ---------------------------------------------------------------------------
// Property: B&B result equals brute-force enumeration on small pure-integer
// models with bounded boxes.
// ---------------------------------------------------------------------------

/// Best objective over every integer point of a pure-integer model's
/// (finite) column box, in minimize sense; kInf when none is feasible.
double brute_force_optimum(const Model& m) {
  const int n_cols = m.num_cols();
  const double flip = m.sense() == Sense::kMaximize ? -1.0 : 1.0;
  double best = kInf;
  std::vector<double> x(static_cast<std::size_t>(n_cols));
  for (int j = 0; j < n_cols; ++j) {
    x[static_cast<std::size_t>(j)] = m.col(j).lo;
  }
  while (true) {
    if (m.max_infeasibility(x) < 1e-9) {
      best = std::min(best, flip * m.objective_value(x));
    }
    int j = 0;
    while (j < n_cols) {
      double& v = x[static_cast<std::size_t>(j)];
      if (++v <= m.col(j).hi) break;
      v = m.col(j).lo;
      ++j;
    }
    if (j == n_cols) break;
  }
  return best;
}

class MilpRandomTest : public ::testing::TestWithParam<int> {};

TEST_P(MilpRandomTest, MatchesBruteForce) {
  elrr::Rng rng(static_cast<std::uint64_t>(GetParam()) * 6151 + 17);
  const int n_cols = 2 + static_cast<int>(rng.uniform_int(0, 2));
  const int n_rows = 1 + static_cast<int>(rng.uniform_int(0, 3));

  Model m;
  if (rng.bernoulli(0.5)) m.set_sense(Sense::kMaximize);
  for (int j = 0; j < n_cols; ++j) {
    const int lo = static_cast<int>(rng.uniform_int(-2, 1));
    const int hi = lo + static_cast<int>(rng.uniform_int(1, 4));
    m.add_col(lo, hi, rng.uniform(-3, 3), true);
  }
  for (int i = 0; i < n_rows; ++i) {
    std::vector<ColEntry> entries;
    for (int j = 0; j < n_cols; ++j) {
      if (rng.bernoulli(0.8)) entries.push_back({j, rng.uniform(-2, 2)});
    }
    const double b = rng.uniform(-3, 5);
    if (rng.bernoulli(0.5)) m.add_row(-kInf, b, std::move(entries));
    else m.add_row(b, kInf, std::move(entries));
  }

  const double flip = m.sense() == Sense::kMaximize ? -1.0 : 1.0;
  const double best = brute_force_optimum(m);
  const auto r = solve_milp(m);
  if (best == kInf) {
    EXPECT_EQ(r.status, MilpStatus::kInfeasible)
        << "brute force found no feasible point but solver said "
        << to_string(r.status);
  } else {
    ASSERT_EQ(r.status, MilpStatus::kOptimal) << to_string(r.status);
    EXPECT_NEAR(flip * r.objective, best, 1e-6);
    EXPECT_LE(m.max_infeasibility(r.x), 1e-6);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MilpRandomTest, ::testing::Range(0, 60));

/// A multi-dimensional 0/1 knapsack with nearly equal values grows a wide
/// best-first tree, and 300 rows make each parent snapshot ~42 KB, so
/// the open list outgrows kNodeSnapshotBudgetBytes: one search solves
/// some nodes from their parent's snapshot and replays the rest from the
/// root. Both paths must reach the brute-force optimum.
class MilpSnapshotBudgetTest : public ::testing::TestWithParam<int> {};

TEST_P(MilpSnapshotBudgetTest, OutgrownBudgetStillMatchesBruteForce) {
  elrr::Rng rng(static_cast<std::uint64_t>(GetParam()) * 7919 + 3);
  const int n_cols = 12;
  Model m;
  m.set_sense(Sense::kMaximize);
  for (int j = 0; j < n_cols; ++j) m.add_col(0, 1, rng.uniform(1, 1.1), true);
  for (int i = 0; i < 300; ++i) {
    std::vector<ColEntry> entries;
    double total = 0.0;
    for (int j = 0; j < n_cols; ++j) {
      const double a = rng.uniform(1, 2);
      total += a;
      entries.push_back({j, a});
    }
    // Three binding capacities; the other rows only widen the tableau.
    const double cap = total * (i < 3 ? rng.uniform(0.4, 0.6)
                                      : rng.uniform(0.8, 1.2));
    m.add_row(-kInf, cap, std::move(entries));
  }

  const MilpResult r = solve_milp(m);
  ASSERT_EQ(r.status, MilpStatus::kOptimal) << to_string(r.status);
  EXPECT_NEAR(-r.objective, brute_force_optimum(m), 1e-6);
  EXPECT_LE(m.max_infeasibility(r.x), 1e-6);
  EXPECT_GT(r.warm_nodes, 0);
  EXPECT_GT(r.replayed_nodes, 0);
  EXPECT_EQ(r.warm_nodes + r.replayed_nodes + 1, r.nodes);
  EXPECT_GT(r.peak_snapshot_bytes, 0);
  EXPECT_LE(r.peak_snapshot_bytes, kNodeSnapshotBudgetBytes);
}

// Seeds whose trees outgrow the budget (the test asserts it) and solve in
// milliseconds.
INSTANTIATE_TEST_SUITE_P(Seeds, MilpSnapshotBudgetTest,
                         ::testing::Values(0, 2, 5, 8));

}  // namespace
}  // namespace elrr::lp
