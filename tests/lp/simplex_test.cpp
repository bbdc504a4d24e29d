#include "lp/simplex.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "support/rng.hpp"

namespace elrr::lp {
namespace {

LpResult solve(const Model& m) {
  SimplexSolver solver(m);
  return solver.solve();
}

TEST(Simplex, TextbookMax) {
  // max 3x + 5y  st  x <= 4, 2y <= 12, 3x + 2y <= 18  ->  (2, 6), obj 36.
  Model m;
  m.set_sense(Sense::kMaximize);
  const int x = m.add_col(0, kInf, 3.0);
  const int y = m.add_col(0, kInf, 5.0);
  m.add_row(-kInf, 4, {{x, 1.0}});
  m.add_row(-kInf, 12, {{y, 2.0}});
  m.add_row(-kInf, 18, {{x, 3.0}, {y, 2.0}});
  const auto r = solve(m);
  ASSERT_EQ(r.status, LpStatus::kOptimal);
  EXPECT_NEAR(r.objective, 36.0, 1e-8);
  EXPECT_NEAR(r.x[0], 2.0, 1e-8);
  EXPECT_NEAR(r.x[1], 6.0, 1e-8);
}

TEST(Simplex, MinimizationWithEqualities) {
  // min x + 2y  st  x + y = 3, x - y <= 1  ->  x = 2, y = 1? No:
  // minimize => push y down: y >= (3-x) with x <= y+1 => x=2,y=1 obj 4;
  // but y can't go lower since x+y=3 and x-y<=1 bound x <= 2.
  Model m;
  const int x = m.add_col(0, kInf, 1.0);
  const int y = m.add_col(0, kInf, 2.0);
  m.add_row(3, 3, {{x, 1.0}, {y, 1.0}});
  m.add_row(-kInf, 1, {{x, 1.0}, {y, -1.0}});
  const auto r = solve(m);
  ASSERT_EQ(r.status, LpStatus::kOptimal);
  EXPECT_NEAR(r.objective, 4.0, 1e-8);
  EXPECT_NEAR(r.x[0], 2.0, 1e-8);
  EXPECT_NEAR(r.x[1], 1.0, 1e-8);
}

TEST(Simplex, BoundsOnlyNoRows) {
  Model m;
  m.add_col(-1, 5, 2.0);
  m.add_col(-3, 4, -1.0);
  const auto r = solve(m);
  ASSERT_EQ(r.status, LpStatus::kOptimal);
  EXPECT_NEAR(r.objective, 2.0 * -1 + -1.0 * 4, 1e-9);
}

TEST(Simplex, FreeVariable) {
  // min x st x + y = 2, y in [0, 1], x free -> x = 1.
  Model m;
  const int x = m.add_col(-kInf, kInf, 1.0);
  const int y = m.add_col(0, 1, 0.0);
  m.add_row(2, 2, {{x, 1.0}, {y, 1.0}});
  const auto r = solve(m);
  ASSERT_EQ(r.status, LpStatus::kOptimal);
  EXPECT_NEAR(r.x[0], 1.0, 1e-8);
}

TEST(Simplex, FreeVariableBothSigns) {
  // max x st x <= -5 (free var must go negative).
  Model m;
  m.set_sense(Sense::kMaximize);
  const int x = m.add_col(-kInf, kInf, 1.0);
  m.add_row(-kInf, -5, {{x, 1.0}});
  const auto r = solve(m);
  ASSERT_EQ(r.status, LpStatus::kOptimal);
  EXPECT_NEAR(r.objective, -5.0, 1e-8);
}

TEST(Simplex, InfeasibleRows) {
  Model m;
  const int x = m.add_col(0, 10, 1.0);
  m.add_row(5, kInf, {{x, 1.0}});
  m.add_row(-kInf, 3, {{x, 1.0}});
  EXPECT_EQ(solve(m).status, LpStatus::kInfeasible);
}

TEST(Simplex, InfeasibleBounds) {
  Model m;
  const int x = m.add_col(4, 10, 0.0);
  const int y = m.add_col(4, 10, 0.0);
  m.add_row(-kInf, 6, {{x, 1.0}, {y, 1.0}});
  EXPECT_EQ(solve(m).status, LpStatus::kInfeasible);
}

TEST(Simplex, Unbounded) {
  Model m;
  m.set_sense(Sense::kMaximize);
  const int x = m.add_col(0, kInf, 1.0);
  const int y = m.add_col(0, kInf, 0.0);
  m.add_row(-kInf, 5, {{x, 1.0}, {y, -1.0}});
  EXPECT_EQ(solve(m).status, LpStatus::kUnbounded);
}

TEST(Simplex, RangedRow) {
  // min x + y st 2 <= x + y <= 4, x <= 1 -> (1, 1).
  Model m;
  const int x = m.add_col(0, 1, 1.0);
  const int y = m.add_col(0, kInf, 1.0);
  m.add_row(2, 4, {{x, 1.0}, {y, 1.0}});
  const auto r = solve(m);
  ASSERT_EQ(r.status, LpStatus::kOptimal);
  EXPECT_NEAR(r.objective, 2.0, 1e-8);
}

TEST(Simplex, NegativeLowerBounds) {
  // min x + y st x + y >= -3, x,y in [-5, 5] -> obj -3? No: both can go to
  // -5 only if sum >= -3 violated; optimum on the row: obj = -3.
  Model m;
  m.add_col(-5, 5, 1.0);
  m.add_col(-5, 5, 1.0);
  m.add_row(-3, kInf, {{0, 1.0}, {1, 1.0}});
  const auto r = solve(m);
  ASSERT_EQ(r.status, LpStatus::kOptimal);
  EXPECT_NEAR(r.objective, -3.0, 1e-8);
}

TEST(Simplex, DegenerateVertexTerminates) {
  // Classic degeneracy: multiple constraints through one vertex.
  Model m;
  m.set_sense(Sense::kMaximize);
  const int x = m.add_col(0, kInf, 1.0);
  const int y = m.add_col(0, kInf, 1.0);
  m.add_row(-kInf, 1, {{x, 1.0}});
  m.add_row(-kInf, 1, {{y, 1.0}});
  m.add_row(-kInf, 2, {{x, 1.0}, {y, 1.0}});
  m.add_row(-kInf, 2, {{x, 2.0}, {y, 2.0}});
  const auto r = solve(m);
  ASSERT_EQ(r.status, LpStatus::kOptimal);
  EXPECT_NEAR(r.objective, 1.0, 1e-8);
}

TEST(Simplex, FixedVariables) {
  Model m;
  const int x = m.add_col(3, 3, 1.0);
  const int y = m.add_col(0, kInf, 1.0);
  m.add_row(5, kInf, {{x, 1.0}, {y, 1.0}});
  const auto r = solve(m);
  ASSERT_EQ(r.status, LpStatus::kOptimal);
  EXPECT_NEAR(r.x[0], 3.0, 1e-9);
  EXPECT_NEAR(r.x[1], 2.0, 1e-8);
}

TEST(Simplex, WarmRestartMatchesFreshSolve) {
  // Solve, tighten a bound, dual-resolve; compare with a from-scratch run.
  Model m;
  m.set_sense(Sense::kMaximize);
  const int x = m.add_col(0, 10, 3.0);
  const int y = m.add_col(0, 10, 2.0);
  m.add_row(-kInf, 14, {{x, 2.0}, {y, 1.0}});
  m.add_row(-kInf, 9, {{x, 1.0}, {y, 1.0}});

  SimplexSolver warm(m);
  ASSERT_EQ(warm.solve().status, LpStatus::kOptimal);
  warm.set_col_bounds(x, 0, 2);
  const auto warm_result = warm.resolve();

  Model m2 = m;
  m2.set_col_bounds(x, 0, 2);
  const auto fresh = solve(m2);

  ASSERT_EQ(warm_result.status, LpStatus::kOptimal);
  ASSERT_EQ(fresh.status, LpStatus::kOptimal);
  EXPECT_NEAR(warm_result.objective, fresh.objective, 1e-7);
}

TEST(Simplex, SaveRestoreRoundTrip) {
  Model m;
  m.set_sense(Sense::kMaximize);
  const int x = m.add_col(0, 10, 1.0);
  m.add_row(-kInf, 7, {{x, 1.0}});
  SimplexSolver solver(m);
  ASSERT_EQ(solver.solve().status, LpStatus::kOptimal);
  const auto state = solver.save_state();

  solver.set_col_bounds(x, 0, 3);
  ASSERT_EQ(solver.resolve().status, LpStatus::kOptimal);
  EXPECT_NEAR(solver.structural_values()[0], 3.0, 1e-8);

  solver.restore_state(state);
  const auto r = solver.resolve();
  ASSERT_EQ(r.status, LpStatus::kOptimal);
  EXPECT_NEAR(r.objective, 7.0, 1e-8);
}

void expect_same_lp(const LpResult& a, const LpResult& b) {
  ASSERT_EQ(a.status, b.status);
  EXPECT_EQ(a.objective, b.objective);
  EXPECT_EQ(a.x, b.x);
}

// The tableau stores only the nonbasic columns, so it is empty for a
// model with rows but no structural column. resolve() must still
// re-optimize from the factorized basis instead of taking the empty
// tableau for a missing one and solving cold.
TEST(Simplex, ResolveOnAZeroColumnModelMatchesAFreshSolve) {
  Model m;
  m.add_row(-1.0, 1.0, {});
  m.add_row(0.0, kInf, {});
  SimplexSolver warm(m);
  ASSERT_EQ(warm.solve().status, LpStatus::kOptimal);

  // Row 0's range excludes its only activity, 0: a dual verdict, proven
  // by a Farkas row (a cold solve would not be marked certified).
  warm.set_row_bounds(0, 0.5, 2.0);
  m.set_row_bounds(0, 0.5, 2.0);
  const LpResult infeasible = warm.resolve();
  expect_same_lp(infeasible, solve(m));
  EXPECT_TRUE(infeasible.certified);
  EXPECT_EQ(warm.infeasible_certified(), 1);
  EXPECT_EQ(warm.infeasible_cold(), 0);

  warm.set_row_bounds(0, -2.0, 0.0);
  m.set_row_bounds(0, -2.0, 0.0);
  expect_same_lp(warm.resolve(), solve(m));
}

// Columns but no row: the tableau is empty the other way round. After a
// bound change a warm resolve() needs no iteration (each column stays at
// its optimal bound); a cold solve would flip columns off their initial
// bounds again.
TEST(Simplex, ResolveOnAZeroRowModelMatchesAFreshSolve) {
  Model m;
  m.set_sense(Sense::kMaximize);
  const int x = m.add_col(0.0, 4.0, 1.0);
  const int y = m.add_col(-kInf, 3.0, 2.0);
  const int z = m.add_col(-1.0, 1.0, -1.0);
  SimplexSolver warm(m);
  ASSERT_EQ(warm.solve().status, LpStatus::kOptimal);
  const std::int64_t solved = warm.total_iterations();
  ASSERT_GT(solved, 0);

  const struct { int col; double lo, hi; } changes[] = {
      {x, 0.0, 2.5}, {y, -5.0, 1.5}, {z, -0.25, 1.0}};
  for (const auto& c : changes) {
    warm.set_col_bounds(c.col, c.lo, c.hi);
    m.set_col_bounds(c.col, c.lo, c.hi);
    expect_same_lp(warm.resolve(), solve(m));
  }
  EXPECT_EQ(warm.total_iterations(), solved);
}

// ---------------------------------------------------------------------------
// Property tests on random LPs: the returned point must be feasible and its
// objective must not be beaten by random feasible sampling. Warm-started
// re-solves after random bound tightening must match fresh solves.
// ---------------------------------------------------------------------------

class SimplexRandomTest : public ::testing::TestWithParam<int> {};

Model random_bounded_lp(elrr::Rng& rng, int n_cols, int n_rows) {
  Model m;
  if (rng.bernoulli(0.5)) m.set_sense(Sense::kMaximize);
  for (int j = 0; j < n_cols; ++j) {
    const double lo = rng.uniform(-4, 0);
    const double hi = lo + rng.uniform(0, 6);
    m.add_col(lo, hi, rng.uniform(-3, 3));
  }
  for (int i = 0; i < n_rows; ++i) {
    std::vector<ColEntry> entries;
    for (int j = 0; j < n_cols; ++j) {
      if (rng.bernoulli(0.7)) entries.push_back({j, rng.uniform(-2, 2)});
    }
    const int kind = static_cast<int>(rng.uniform_int(0, 2));
    const double b = rng.uniform(-4, 6);
    if (kind == 0) m.add_row(-kInf, b, std::move(entries));
    else if (kind == 1) m.add_row(b - rng.uniform(0, 4), b, std::move(entries));
    else m.add_row(b, kInf, std::move(entries));
  }
  return m;
}

TEST_P(SimplexRandomTest, FeasibleAndNotBeatenBySampling) {
  elrr::Rng rng(static_cast<std::uint64_t>(GetParam()) * 7919 + 3);
  const int n_cols = 2 + static_cast<int>(rng.uniform_int(0, 5));
  const int n_rows = 1 + static_cast<int>(rng.uniform_int(0, 6));
  const Model m = random_bounded_lp(rng, n_cols, n_rows);

  const auto r = solve(m);
  ASSERT_TRUE(r.status == LpStatus::kOptimal ||
              r.status == LpStatus::kInfeasible)
      << to_string(r.status);

  // Monte-Carlo feasible points.
  const double flip = m.sense() == Sense::kMaximize ? -1.0 : 1.0;
  double best_sampled = kInf;
  for (int trial = 0; trial < 3000; ++trial) {
    std::vector<double> x(static_cast<std::size_t>(n_cols));
    for (int j = 0; j < n_cols; ++j) {
      x[static_cast<std::size_t>(j)] = rng.uniform(m.col(j).lo, m.col(j).hi);
    }
    if (m.max_infeasibility(x) < 1e-9) {
      best_sampled = std::min(best_sampled, flip * m.objective_value(x));
    }
  }

  if (r.status == LpStatus::kInfeasible) {
    EXPECT_EQ(best_sampled, kInf)
        << "solver said infeasible but sampling found a feasible point";
  } else {
    EXPECT_LE(m.max_infeasibility(r.x), 1e-6);
    EXPECT_LE(flip * r.objective, best_sampled + 1e-6)
        << "sampling found a better feasible point than 'optimal'";
  }
}

TEST_P(SimplexRandomTest, WarmResolveMatchesFresh) {
  elrr::Rng rng(static_cast<std::uint64_t>(GetParam()) * 104729 + 11);
  const int n_cols = 2 + static_cast<int>(rng.uniform_int(0, 4));
  const int n_rows = 1 + static_cast<int>(rng.uniform_int(0, 5));
  Model m = random_bounded_lp(rng, n_cols, n_rows);

  SimplexSolver warm(m);
  const auto first = warm.solve();
  if (first.status != LpStatus::kOptimal) return;

  // Tighten 1-2 random columns, exactly like branch & bound would.
  for (int k = 0; k < 2; ++k) {
    const int j = static_cast<int>(rng.uniform_int(0, n_cols - 1));
    const Column& c = m.col(j);
    const double mid = (c.lo + c.hi) / 2;
    if (rng.bernoulli(0.5)) {
      m.set_col_bounds(j, c.lo, mid);
      warm.set_col_bounds(j, c.lo, mid);
    } else {
      m.set_col_bounds(j, mid, c.hi);
      warm.set_col_bounds(j, mid, c.hi);
    }
  }
  const auto resolved = warm.resolve();
  const auto fresh = solve(m);
  ASSERT_EQ(resolved.status, fresh.status)
      << to_string(resolved.status) << " vs " << to_string(fresh.status);
  if (fresh.status == LpStatus::kOptimal) {
    EXPECT_NEAR(resolved.objective, fresh.objective, 1e-6);
    EXPECT_LE(m.max_infeasibility(resolved.x), 1e-6);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SimplexRandomTest, ::testing::Range(0, 60));

}  // namespace
}  // namespace elrr::lp
