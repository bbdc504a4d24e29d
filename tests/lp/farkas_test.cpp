/// \file farkas_test.cpp
/// Infeasibility certificates in SimplexSolver::resolve(). A dual-simplex
/// "infeasible" verdict prunes a branch & bound subtree, so resolve()
/// proves it with a Farkas row recomputed from the original matrix and
/// falls back to a cold solve() only when that check is inconclusive.
/// The differential here replays random branch & bound dives on
/// walk-shaped models (free columns, integral buffer counts) and asserts
/// every warm verdict equals a fresh cold solve on the same bounds; the
/// hand-built models pin both sides of the certificate.

#include "lp/simplex.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "bench89/generator.hpp"
#include "core/opt.hpp"
#include "lp/milp.hpp"
#include "lp/mps.hpp"
#include "lp/session.hpp"
#include "support/rng.hpp"

namespace elrr::lp {
namespace {

Model golden_model(const std::string& file) {
  std::ifstream in(std::string(ELRR_LP_GOLDEN_DIR) + "/" + file);
  EXPECT_TRUE(in.good()) << "missing golden file " << file;
  std::ostringstream os;
  os << in.rdbuf();
  return from_mps(os.str());
}

Model walk_model(const char* circuit, double x) {
  const Rrg rrg =
      bench89::make_table2_rrg(bench89::spec_by_name(circuit), 1);
  return build_min_cyc_model(rrg, x);
}

struct DiveTally {
  int verdicts = 0;
  int infeasible = 0;
  int certified = 0;  ///< infeasible verdicts flagged LpResult::certified
};

/// Random branch & bound dives: each restores the root basis, then
/// tightens one integer column per level -- a floor/ceil split of the
/// node LP's fractional value, or a random split or fix when the value
/// is integral -- and re-solves warm. Every verdict must equal a fresh
/// SimplexSolver::solve() on a model carrying the same bounds.
void run_dives(const Model& model, std::uint64_t seed, int dives,
               SimplexSolver& warm, DiveTally& tally, const char* what) {
  std::vector<int> int_cols;
  for (int j = 0; j < model.num_cols(); ++j) {
    if (model.col(j).is_integer) int_cols.push_back(j);
  }
  ASSERT_FALSE(int_cols.empty()) << what;
  const LpResult root = warm.solve();
  ASSERT_EQ(root.status, LpStatus::kOptimal) << what;
  const SimplexSolver::State root_state = warm.save_state();

  Rng rng(seed);
  for (int dive = 0; dive < dives; ++dive) {
    warm.restore_state(root_state);
    Model node = model;
    std::vector<double> x = root.x;
    for (int depth = 0; depth < 16; ++depth) {
      const int j = int_cols[static_cast<std::size_t>(rng.uniform_int(
          0, static_cast<std::int64_t>(int_cols.size()) - 1))];
      const double lo = node.col(j).lo;
      const double hi = node.col(j).hi;
      const double v = x[static_cast<std::size_t>(j)];
      double new_lo = lo, new_hi = hi;
      if (std::abs(v - std::round(v)) > 1e-6) {
        if (rng.bernoulli(0.5)) new_hi = std::floor(v);
        else new_lo = std::ceil(v);
      } else {
        // Integral already: split away from the current value, or pin a
        // value as the rounding heuristic does.
        const double top = std::isfinite(hi) ? hi : std::round(v) + 3.0;
        const double pick = std::round(rng.uniform(lo, top));
        const int kind = static_cast<int>(rng.uniform_int(0, 2));
        if (kind == 0) new_hi = std::min(pick, std::round(v) - 1.0);
        else if (kind == 1) new_lo = std::max(pick, std::round(v) + 1.0);
        else new_lo = new_hi = pick;
      }
      new_lo = std::max(new_lo, lo);
      new_hi = std::min(new_hi, hi);
      if (new_lo > new_hi) continue;
      node.set_col_bounds(j, new_lo, new_hi);
      warm.set_col_bounds(j, new_lo, new_hi);

      const LpResult resolved = warm.resolve();
      SimplexSolver cold(node);
      const LpResult fresh = cold.solve();
      ++tally.verdicts;
      ASSERT_EQ(resolved.status, fresh.status)
          << what << " dive " << dive << " depth " << depth << ": "
          << to_string(resolved.status) << " vs " << to_string(fresh.status);
      if (fresh.status != LpStatus::kOptimal) {
        ++tally.infeasible;
        if (resolved.certified) ++tally.certified;
        break;
      }
      EXPECT_NEAR(resolved.objective, fresh.objective,
                  1e-6 * std::max(1.0, std::abs(fresh.objective)))
          << what << " dive " << dive << " depth " << depth;
      x = resolved.x;
    }
  }
}

TEST(Farkas, WarmVerdictsMatchColdSolvesOnWalkModels) {
  struct Case {
    const char* what;
    Model model;
  };
  const Case cases[] = {
      {"golden s208 x=1", golden_model("s208_min_cyc_x1.mps")},
      {"golden s420 x=1.25", golden_model("s420_min_cyc_x1.25.mps")},
      {"s838 x=1", walk_model("s838", 1.0)},
      {"s838 x=1.5", walk_model("s838", 1.5)},
      {"s420 x=2", walk_model("s420", 2.0)},
  };
  DiveTally total;
  std::int64_t certified = 0, cold = 0;
  std::uint64_t seed = 17;
  for (const Case& c : cases) {
    SimplexSolver warm(c.model);
    DiveTally tally;
    run_dives(c.model, seed++, 40, warm, tally, c.what);
    if (HasFatalFailure()) return;
    // Every infeasible verdict is accounted for exactly once.
    EXPECT_EQ(warm.infeasible_certified(), tally.certified) << c.what;
    EXPECT_LE(warm.infeasible_certified() + warm.infeasible_cold(),
              tally.infeasible)
        << c.what;
    certified += warm.infeasible_certified();
    cold += warm.infeasible_cold();
    total.verdicts += tally.verdicts;
    total.infeasible += tally.infeasible;
  }
  // Not vacuous: the dives reached infeasible nodes and the certificate
  // proved them.
  EXPECT_GT(total.infeasible, 20);
  EXPECT_GT(certified, 0);
  RecordProperty("verdicts", total.verdicts);
  RecordProperty("certified", static_cast<int>(certified));
  RecordProperty("cold", static_cast<int>(cold));
}

TEST(Farkas, BranchAndBoundStatsCarryCertificates) {
  // solve_milp reports the certificates its nodes used, and a session
  // accumulates them next to nodes and iterations.
  const Model model = golden_model("s420_min_cyc_x1.25.mps");
  MilpOptions options;
  options.time_limit_s = 60.0;
  const MilpResult direct = solve_milp(model, options);
  ASSERT_EQ(direct.status, MilpStatus::kOptimal);
  EXPECT_GT(direct.infeasible_certified, 0);

  MilpSession session(model, options);
  const MilpResult first = session.solve();
  const MilpResult second = session.solve();
  EXPECT_EQ(first.infeasible_certified, direct.infeasible_certified);
  EXPECT_EQ(session.stats().infeasible_certified,
            first.infeasible_certified + second.infeasible_certified);
  EXPECT_EQ(session.stats().infeasible_cold,
            first.infeasible_cold + second.infeasible_cold);
}

/// min x + y  s.t.  x + y <= 1,  x in [0, +inf),  y in [0, 10]. Raising
/// both lower bounds to a sum above 1 makes the dual simplex declare the
/// row infeasible. The Farkas row is (x, y, slack) -> (-1, -1, 1): x's
/// upper bound is infinite, so only one side of the interval is finite,
/// and that side clears 0 by `excess`.
Model box_row_model() {
  Model m;
  m.add_col(0.0, kInf, 1.0, false, "x");
  m.add_col(0.0, 10.0, 1.0, false, "y");
  m.add_row(-kInf, 1.0, {{0, 1.0}, {1, 1.0}}, "cap");
  return m;
}

LpResult warm_tightened(SimplexSolver& solver, double excess) {
  EXPECT_EQ(solver.solve().status, LpStatus::kOptimal);
  solver.set_col_bounds(0, 0.5, kInf);
  solver.set_col_bounds(1, 0.5 + excess, 10.0);
  return solver.resolve();
}

TEST(Farkas, ClearMarginIsCertifiedWithoutAColdSolve) {
  SimplexSolver solver(box_row_model());
  const LpResult r = warm_tightened(solver, 0.25);
  EXPECT_EQ(r.status, LpStatus::kInfeasible);
  EXPECT_TRUE(r.certified);
  EXPECT_EQ(solver.infeasible_certified(), 1);
  EXPECT_EQ(solver.infeasible_cold(), 0);
}

TEST(Farkas, InconclusiveCertificateFallsBackToAColdSolve) {
  // The row is violated by 3e-7: past the 1e-7 feasibility tolerance, so
  // the dual simplex gives up, but inside the certificate's scaled margin
  // (64 * 1e-7), and the other side of the interval is unbounded through
  // x's infinite upper bound. The verdict must come from a cold solve,
  // and it must match a fresh solver on the same bounds.
  Model model = box_row_model();
  SimplexSolver solver(model);
  const double excess = 3e-7;
  const LpResult r = warm_tightened(solver, excess);
  EXPECT_FALSE(r.certified);
  EXPECT_EQ(solver.infeasible_certified(), 0);
  EXPECT_EQ(solver.infeasible_cold(), 1);

  model.set_col_bounds(0, 0.5, kInf);
  model.set_col_bounds(1, 0.5 + excess, 10.0);
  SimplexSolver fresh(model);
  EXPECT_EQ(r.status, fresh.solve().status);
  EXPECT_EQ(r.status, LpStatus::kInfeasible);
}

TEST(Farkas, FeasibleNodeIsNeverCertified) {
  // Tightening that leaves the row satisfiable: the dual simplex finds
  // the new optimum and no certificate is attempted.
  SimplexSolver solver(box_row_model());
  ASSERT_EQ(solver.solve().status, LpStatus::kOptimal);
  solver.set_col_bounds(1, 0.75, 10.0);
  const LpResult r = solver.resolve();
  ASSERT_EQ(r.status, LpStatus::kOptimal);
  EXPECT_NEAR(r.objective, 0.75, 1e-12);
  EXPECT_FALSE(r.certified);
  EXPECT_EQ(solver.infeasible_certified() + solver.infeasible_cold(), 0);
}

}  // namespace
}  // namespace elrr::lp
