/// \file session_test.cpp
/// The persistent MILP session's exactness contract: warm-off solves are
/// bit-identical to stateless solve_milp, warm-on solves are pinned to
/// the cold path across bound sweeps and full Pareto walks (frontier and
/// argmin, all MILPs proven exact), and the `milp.warm` fail point is
/// contained inside the session -- a corrupt basis snapshot degrades to
/// a cold solve without changing a single bit of the results.

#include "lp/session.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <iterator>
#include <vector>

#include "bench89/generator.hpp"
#include "core/opt.hpp"
#include "lp/milp.hpp"
#include "support/failpoint.hpp"

namespace elrr::lp {
namespace {

/// A real walk-step MILP (the s208 MIN_CYC model at x = 1): small enough
/// that every solve proves optimality, rich enough to exercise the
/// integer machinery (39 columns, 60 rows, integral buffer counts).
Model step_model(const char* circuit = "s208", double x = 1.0) {
  const Rrg rrg =
      bench89::make_table2_rrg(bench89::spec_by_name(circuit), 1);
  return build_min_cyc_model(rrg, x);
}

void expect_same_result(const MilpResult& a, const MilpResult& b,
                        const char* what) {
  ASSERT_EQ(a.status, b.status) << what;
  EXPECT_EQ(a.objective, b.objective) << what;
  ASSERT_EQ(a.x.size(), b.x.size()) << what;
  for (std::size_t j = 0; j < a.x.size(); ++j) {
    EXPECT_EQ(a.x[j], b.x[j]) << what << " col " << j;
  }
}

/// The bound sweep both differential tests drive: a handful of row-bound
/// retargets on the same rows a Pareto walk's x-parameterization moves.
const double kSweep[] = {1.0, 1.1, 1.3, 1.15, 2.0, 1.05};

TEST(MilpSession, WarmOffIsBitIdenticalToSolveMilp) {
  Model reference = step_model();
  MilpSession session(step_model());
  session.set_warm(false);
  for (const double scale : kSweep) {
    // Retarget a few G rows the way solve_rr_session retargets the
    // x-dependent throughput rows.
    for (int i = 0; i < reference.num_rows(); i += 7) {
      const double lo = reference.row(i).lo;
      if (!std::isfinite(lo) || lo == reference.row(i).hi) continue;
      reference.set_row_bounds(i, lo - (scale - 1.0), reference.row(i).hi);
      session.set_row_bounds(i, lo - (scale - 1.0), reference.row(i).hi);
    }
    expect_same_result(session.solve(), solve_milp(reference), "warm-off");
  }
  EXPECT_EQ(session.stats().solves, static_cast<std::int64_t>(std::size(kSweep)));
  EXPECT_EQ(session.stats().warm_attempts, 0);
  EXPECT_EQ(session.stats().cold_solves, session.stats().solves);
}

TEST(MilpSession, WarmSolvesMatchColdAcrossABoundSweep) {
  // What warm starts are allowed to change: the *vertex* the simplex
  // lands on among tied/degenerate optima, i.e. low bits of continuous
  // coordinates and the objective's last ulp. What they must preserve:
  // proven optimality and every integer decision, bit for bit -- the
  // walk recomputes tau/theta/xi from the integral buffer counts, which
  // is how the walk-level differentials below get full bit-identity.
  Model reference = step_model();
  MilpSession session(step_model());  // warm on by default
  for (const double scale : kSweep) {
    for (int i = 0; i < reference.num_rows(); i += 7) {
      const double lo = reference.row(i).lo;
      if (!std::isfinite(lo) || lo == reference.row(i).hi) continue;
      reference.set_row_bounds(i, lo - (scale - 1.0), reference.row(i).hi);
      session.set_row_bounds(i, lo - (scale - 1.0), reference.row(i).hi);
    }
    const MilpResult warm = session.solve();
    const MilpResult cold = solve_milp(reference);
    ASSERT_EQ(warm.status, MilpStatus::kOptimal);
    ASSERT_EQ(cold.status, MilpStatus::kOptimal);
    EXPECT_NEAR(warm.objective, cold.objective,
                1e-9 * (1.0 + std::abs(cold.objective)));
    ASSERT_EQ(warm.x.size(), cold.x.size());
    for (std::size_t j = 0; j < warm.x.size(); ++j) {
      if (session.model().col(static_cast<int>(j)).is_integer) {
        EXPECT_EQ(warm.x[j], cold.x[j]) << "integer col " << j;
      }
    }
  }
  // The sweep must actually have exercised the warm path, or this test
  // proves nothing.
  EXPECT_GT(session.stats().warm_attempts, 0);
  EXPECT_GT(session.stats().warm_roots, 0);
  EXPECT_EQ(session.stats().warm_fallbacks, 0);
}

/// The root relaxations of a walk's re-targeted MIN_CYC(x) steps on a
/// mid-size circuit (s526, eight adjacent x): warm re-optimization
/// reaches the cold optimum value at every step. Vertices may differ
/// among ties, so values are compared at solver tolerance.
TEST(MilpSession, WarmRootRelaxationsMatchColdAcrossTheMinCycSweep) {
  const Rrg rrg = bench89::make_table2_rrg(bench89::spec_by_name("s526"), 1);
  const double xs[] = {1.0, 1.03, 1.06, 1.1, 1.14, 1.19, 1.25, 1.31};
  const Model base = build_min_cyc_model(rrg, xs[0]);
  Model relaxed;
  relaxed.set_sense(base.sense());
  for (int j = 0; j < base.num_cols(); ++j) {
    const Column& c = base.col(j);
    relaxed.add_col(c.lo, c.hi, c.obj, false, c.name);
  }
  for (int i = 0; i < base.num_rows(); ++i) {
    const Row& row = base.row(i);
    relaxed.add_row(row.lo, row.hi, row.entries, row.name);
  }
  std::vector<double> objectives[2];
  for (const bool warm : {false, true}) {
    MilpSession session(relaxed);
    session.set_warm(warm);
    for (const double x : xs) {
      const Model next = build_min_cyc_model(rrg, x);
      for (int i = 0; i < next.num_rows(); ++i) {
        if (next.row(i).lo != base.row(i).lo ||
            next.row(i).hi != base.row(i).hi) {
          session.set_row_bounds(i, next.row(i).lo, next.row(i).hi);
        }
      }
      const MilpResult solved = session.solve();
      ASSERT_EQ(solved.status, MilpStatus::kOptimal) << "x " << x;
      objectives[warm].push_back(solved.objective);
    }
    if (warm) {
      EXPECT_GT(session.stats().warm_roots, 0);
    }
  }
  for (std::size_t k = 0; k < std::size(xs); ++k) {
    EXPECT_NEAR(objectives[1][k], objectives[0][k],
                1e-9 * (1.0 + std::abs(objectives[0][k])))
        << "x " << xs[k];
  }
}

TEST(MilpSession, InvalidateWarmForcesAColdSolve) {
  MilpSession session(step_model());
  (void)session.solve();
  const std::int64_t cold_before = session.stats().cold_solves;
  session.invalidate_warm();
  expect_same_result(session.solve(), solve_milp(session.model()),
                     "post-invalidate");
  EXPECT_EQ(session.stats().cold_solves, cold_before + 1);
}

TEST(MilpSession, WarmFailPointFallsBackToAColdSolveInvisibly) {
  failpoint::configure("milp.warm=once");
  MilpSession session(step_model());
  const MilpResult first = session.solve();   // no warm state yet: cold
  const MilpResult second = session.solve();  // warm restore trips -> cold
  const MilpResult third = session.solve();   // warm path healthy again
  failpoint::reset();
  expect_same_result(first, second, "fallback solve");
  expect_same_result(first, third, "recovered solve");
  EXPECT_GE(session.stats().warm_fallbacks, 1);
  expect_same_result(first, solve_milp(session.model()), "vs stateless");
}

// ------------------------------------------------- walk-level differential

OptOptions walk_options(bool warm) {
  OptOptions options;
  options.epsilon = 0.05;
  options.milp.time_limit_s = 30.0;  // never reached on these circuits
  options.milp_warm = warm;
  return options;
}

void expect_same_frontier(const MinEffCycResult& warm,
                          const MinEffCycResult& cold, const char* circuit) {
  // all_exact is the precondition of the bit-identity contract: a
  // budget-hit MILP returns a wall-clock-dependent incumbent and the
  // comparison below would be meaningless (see src/lp/README.md).
  ASSERT_TRUE(warm.all_exact) << circuit;
  ASSERT_TRUE(cold.all_exact) << circuit;
  ASSERT_EQ(warm.points.size(), cold.points.size()) << circuit;
  EXPECT_EQ(warm.best_index, cold.best_index) << circuit;
  EXPECT_EQ(warm.milp_calls, cold.milp_calls) << circuit;
  for (std::size_t i = 0; i < warm.points.size(); ++i) {
    EXPECT_EQ(warm.points[i].tau, cold.points[i].tau) << circuit << " #" << i;
    EXPECT_EQ(warm.points[i].theta_lp, cold.points[i].theta_lp)
        << circuit << " #" << i;
    EXPECT_EQ(warm.points[i].xi_lp, cold.points[i].xi_lp)
        << circuit << " #" << i;
    EXPECT_TRUE(warm.points[i].config == cold.points[i].config)
        << circuit << " #" << i;
  }
}

/// A model with the transposed shape of `model` (rows and columns
/// swapped): its nonbasic tableau has the same m x n size.
Model transposed_shape(const Model& model) {
  Model other;
  for (int j = 0; j < model.num_rows(); ++j) other.add_col(0.0, 1.0, -1.0);
  for (int i = 0; i < model.num_cols(); ++i) {
    other.add_row(-kInf, 1.0,
                  {{i % other.num_cols(), 1.0},
                   {(i + 1) % other.num_cols(), 1.0}});
  }
  return other;
}

TEST(MilpSession, StateOfAnotherShapeTakesTheColdPath) {
  const Model model = step_model();
  const Model other = transposed_shape(model);
  SimplexSolver other_engine(other);
  ASSERT_EQ(other_engine.solve().status, LpStatus::kOptimal);
  const SimplexSolver::State foreign = other_engine.save_state();
  ASSERT_EQ(foreign.tab.size(), static_cast<std::size_t>(model.num_rows()) *
                                    static_cast<std::size_t>(model.num_cols()));

  MilpOptions options;
  options.time_limit_s = 60.0;
  SimplexSolver engine(model);
  detail::WarmContext ctx;
  ctx.engine = &engine;
  ctx.root_state = &foreign;
  const MilpResult warm = detail::solve_branch_and_bound(model, options, &ctx);
  // The flag MilpSession counts as a warm fallback.
  EXPECT_TRUE(ctx.failpoint_fallback);
  EXPECT_FALSE(ctx.warm_root_used);

  const MilpResult cold = solve_milp(model, options);
  expect_same_result(warm, cold, "foreign-shaped state");
  EXPECT_EQ(warm.nodes, cold.nodes);
  EXPECT_EQ(warm.lp_iterations, cold.lp_iterations);
}

TEST(MilpSession, WarmWalksAreBitIdenticalToColdWalks) {
  for (const char* circuit : {"s838", "s208", "s420"}) {
    const Rrg rrg =
        bench89::make_table2_rrg(bench89::spec_by_name(circuit), 1);
    const MinEffCycResult warm = min_eff_cyc(rrg, walk_options(true));
    const MinEffCycResult cold = min_eff_cyc(rrg, walk_options(false));
    expect_same_frontier(warm, cold, circuit);
  }
}

TEST(MilpSession, WarmWalkActuallyRunsWarm) {
  // Guard against the differential above silently comparing cold to
  // cold: a warm walk's session must report warm re-optimizations.
  const Rrg rrg = bench89::make_table2_rrg(bench89::spec_by_name("s420"), 1);
  ParetoWalk walk(rrg, walk_options(true));
  while (walk.advance()) {
  }
  const SessionStats stats = walk.milp_stats();
  EXPECT_GT(stats.solves, 1);
  EXPECT_GT(stats.warm_attempts, 0);
  EXPECT_GT(stats.warm_roots, 0);

  ParetoWalk cold_walk(rrg, walk_options(false));
  while (cold_walk.advance()) {
  }
  EXPECT_EQ(cold_walk.milp_stats().warm_attempts, 0);
}

TEST(MilpSession, StatsCountHowEachNodeWasSolved) {
  // Every node below a search's root starts from its parent's snapshot or
  // replays from the root; the session sums both per solve and keeps the
  // largest snapshot footprint, which the budget caps.
  const Rrg rrg = bench89::make_table2_rrg(bench89::spec_by_name("s420"), 1);
  ParetoWalk walk(rrg, walk_options(true));
  while (walk.advance()) {
  }
  const SessionStats stats = walk.milp_stats();
  EXPECT_GT(stats.warm_nodes, 0);
  // Each solve has at most one root node, which is neither.
  EXPECT_LE(stats.warm_nodes + stats.replayed_nodes, stats.nodes);
  EXPECT_GE(stats.warm_nodes + stats.replayed_nodes,
            stats.nodes - stats.solves);
  EXPECT_GT(stats.peak_snapshot_bytes, 0);
  EXPECT_LE(stats.peak_snapshot_bytes, kNodeSnapshotBudgetBytes);

  MilpSession session(step_model());
  const MilpResult first = session.solve();
  session.set_row_bounds(0, session.model().row(0).lo,
                         session.model().row(0).hi);
  const MilpResult second = session.solve();
  ASSERT_EQ(first.status, MilpStatus::kOptimal);
  EXPECT_GT(first.warm_nodes, 0);
  EXPECT_EQ(first.warm_nodes + first.replayed_nodes + 1, first.nodes);
  EXPECT_EQ(session.stats().warm_nodes, first.warm_nodes + second.warm_nodes);
  EXPECT_EQ(session.stats().replayed_nodes,
            first.replayed_nodes + second.replayed_nodes);
  EXPECT_EQ(session.stats().peak_snapshot_bytes,
            std::max(first.peak_snapshot_bytes, second.peak_snapshot_bytes));
}

TEST(MilpSession, WalkSurvivesWarmFailPointsBitExactly) {
  // The fail point models stale/corrupt basis snapshots mid-walk; the
  // session absorbs every trip and the frontier must not move at all.
  const Rrg rrg = bench89::make_table2_rrg(bench89::spec_by_name("s208"), 1);
  const MinEffCycResult oracle = min_eff_cyc(rrg, walk_options(false));

  failpoint::configure("milp.warm=once");
  ParetoWalk walk(rrg, walk_options(true));
  while (walk.advance()) {
  }
  const MinEffCycResult chaotic = walk.finish();
  const SessionStats stats = walk.milp_stats();
  failpoint::reset();

  EXPECT_GE(stats.warm_fallbacks, 1)
      << stats.warm_attempts
      << " warm attempts and the fail point never fired -- not wired";
  expect_same_frontier(chaotic, oracle, "s208 under milp.warm chaos");
}

}  // namespace
}  // namespace elrr::lp
