#include "core/opt.hpp"

#include <algorithm>
#include <cmath>

#include "core/tgmg.hpp"
#include "graph/bellman_ford.hpp"
#include "graph/scc.hpp"
#include "support/error.hpp"
#include "support/stopwatch.hpp"

namespace elrr {

namespace {

/// Which quantity is the decision variable (the other one is a constant).
enum class Objective { kMinTau, kMinX };

/// One row whose lower bound depends on the budget x (kMinTau folds
/// "x * tokens" into the right-hand side): lo(x) = lo_base - x * coef.
/// Recording these is what lets a session re-target the model for a new
/// x by moving a handful of row bounds instead of rebuilding it.
struct XRow {
  int row = -1;
  double lo_base = 0.0;
  double coef = 0.0;
};

/// Column layout of the RR MILP, built once per solve.
struct RrModel {
  lp::Model model;
  std::vector<int> buf_col;   ///< R'(e), integer
  std::vector<int> r_col;     ///< retiming (continuous; integrality free)
  int tau_col = -1;           ///< only for kMinTau
  int x_col = -1;             ///< only for kMinX
  std::vector<XRow> x_rows;   ///< kMinTau rows parameterized by x
};

/// Builds the MILP of Section 4 in the sigma-tilde form (see opt.hpp).
/// `x_fixed` is used when objective == kMinTau; `tau_fixed` when kMinX
/// (with `x_upper` a valid upper bound on the optimal x).
RrModel build_rr_model(const Rrg& rrg, Objective objective, double x_fixed,
                       double tau_fixed, double x_upper) {
  const Digraph& g = rrg.graph();
  const double tau_star = std::max(rrg.total_delay(), 1e-9);  // big-M
  const double beta_max = rrg.max_delay();

  RrModel rr;
  lp::Model& m = rr.model;
  m.set_sense(lp::Sense::kMinimize);

  if (objective == Objective::kMinTau) {
    rr.tau_col = m.add_col(beta_max, tau_star, 1.0, false, "tau");
  } else if (objective == Objective::kMinX) {
    rr.x_col = m.add_col(1.0, x_upper, 1.0, false, "x");
  }

  // Buffer counts R'(e): the integer decisions.
  rr.buf_col.reserve(rrg.num_edges());
  for (EdgeId e = 0; e < rrg.num_edges(); ++e) {
    rr.buf_col.push_back(
        m.add_col(0.0, lp::kInf, 0.0, true, "R_" + std::to_string(e)));
  }
  // Retiming potentials (continuous; see recover_retiming).
  rr.r_col.reserve(rrg.num_nodes());
  for (NodeId n = 0; n < rrg.num_nodes(); ++n) {
    rr.r_col.push_back(
        m.add_col(-lp::kInf, lp::kInf, 0.0, false, "r_" + rrg.name(n)));
  }
  m.set_col_bounds(rr.r_col[0], 0.0, 0.0);

  // Arrival times t(n) in [beta(n), tau]; for kMinTau the upper bound is a
  // row against the tau variable.
  std::vector<int> t_col(rrg.num_nodes());
  for (NodeId n = 0; n < rrg.num_nodes(); ++n) {
    const double hi =
        objective == Objective::kMinTau ? tau_star : tau_fixed;
    if (hi < rrg.delay(n)) {
      // tau below a node delay: trivially infeasible; encode it honestly.
      t_col[n] = m.add_col(rrg.delay(n), rrg.delay(n), 0.0, false);
      m.add_row(1.0, 1.0, {{t_col[n], 0.0}}, "infeasible_tau");
      continue;
    }
    t_col[n] = m.add_col(rrg.delay(n), hi, 0.0, false, "t_" + rrg.name(n));
    if (objective == Objective::kMinTau) {
      m.add_row(-lp::kInf, 0.0, {{t_col[n], 1.0}, {rr.tau_col, -1.0}},
                "clk_" + rrg.name(n));
    }
  }

  // Path constraints (Lemma 2.1, compact node-arrival form):
  //   t(v) >= t(u) + beta(v) - tau* R'(e).
  for (EdgeId e = 0; e < rrg.num_edges(); ++e) {
    const NodeId u = g.src(e);
    const NodeId v = g.dst(e);
    m.add_row(rrg.delay(v), lp::kInf,
              {{t_col[v], 1.0}, {t_col[u], -1.0}, {rr.buf_col[e], tau_star}},
              "path_" + std::to_string(e));
  }

  // Chain cuts: for a combinational chain with delay sum S over edges E',
  //   tau + S * sum_{e in E'} R'(e) >= S
  // is valid for every integer solution (any buffer kills the chain;
  // none means tau >= S) and dramatically tightens the LP relaxation,
  // whose big-M path rows otherwise admit tiny fractional buffers. Cuts
  // are emitted for every edge (2-node chains) and for adjacent edge
  // pairs (3-node chains), capped to keep dense models small.
  const auto add_chain_cut = [&](double delay_sum,
                                 std::vector<lp::ColEntry> buf_entries,
                                 const std::string& name) {
    for (auto& entry : buf_entries) entry.coef = delay_sum;
    if (objective == Objective::kMinTau) {
      buf_entries.push_back({rr.tau_col, 1.0});
      m.add_row(delay_sum, lp::kInf, std::move(buf_entries), name);
    } else {
      m.add_row(delay_sum - tau_fixed, lp::kInf, std::move(buf_entries),
                name);
    }
  };
  for (EdgeId e = 0; e < rrg.num_edges(); ++e) {
    const double s = rrg.delay(g.src(e)) + rrg.delay(g.dst(e));
    if (s <= 0.0) continue;
    add_chain_cut(s, {{rr.buf_col[e], 0.0}}, "cut2_" + std::to_string(e));
  }
  const std::size_t cut3_cap = 6 * rrg.num_edges();
  std::size_t cut3_count = 0;
  for (NodeId v = 0; v < rrg.num_nodes() && cut3_count < cut3_cap; ++v) {
    for (EdgeId e_in : g.in_edges(v)) {
      for (EdgeId e_out : g.out_edges(v)) {
        if (cut3_count >= cut3_cap) break;
        if (e_in == e_out) continue;  // self loop pairs add nothing
        const double s = rrg.delay(g.src(e_in)) + rrg.delay(v) +
                         rrg.delay(g.dst(e_out));
        if (s <= 0.0) continue;
        add_chain_cut(s, {{rr.buf_col[e_in], 0.0}, {rr.buf_col[e_out], 0.0}},
                      "cut3_" + std::to_string(cut3_count));
        ++cut3_count;
      }
    }
  }

  // Retiming coupling: R'(e) + r(u) - r(v) >= R0(e).
  for (EdgeId e = 0; e < rrg.num_edges(); ++e) {
    const NodeId u = g.src(e);
    const NodeId v = g.dst(e);
    std::vector<lp::ColEntry> entries{{rr.buf_col[e], 1.0}};
    if (u != v) {
      entries.push_back({rr.r_col[u], 1.0});
      entries.push_back({rr.r_col[v], -1.0});
    }
    m.add_row(static_cast<double>(rrg.tokens(e)), lp::kInf,
              std::move(entries), "rc_" + std::to_string(e));
  }

  // Throughput constraints (5)-(10) in sigma-tilde form; "x * R0(e)" is a
  // coefficient on the x column (kMinX) or folded into the bound (kMinTau).
  std::vector<int> sigma(rrg.num_nodes());
  for (NodeId n = 0; n < rrg.num_nodes(); ++n) {
    sigma[n] = m.add_col(-lp::kInf, lp::kInf, 0.0, false,
                         "sg_" + rrg.name(n));
  }
  m.set_col_bounds(sigma[0], 0.0, 0.0);

  // Per early node: the s firing count; per early input edge: auxR, aux0.
  std::vector<int> s_col(rrg.num_nodes(), -1);
  std::vector<int> auxr_col(rrg.num_edges(), -1);
  std::vector<int> aux0_col(rrg.num_edges(), -1);
  for (NodeId n = 0; n < rrg.num_nodes(); ++n) {
    if (!rrg.is_early(n)) continue;
    s_col[n] = m.add_col(-lp::kInf, lp::kInf, 0.0, false,
                         "ss_" + rrg.name(n));
    for (EdgeId e : g.in_edges(n)) {
      auxr_col[e] = m.add_col(-lp::kInf, lp::kInf, 0.0, false,
                              "ar_" + std::to_string(e));
      aux0_col[e] = m.add_col(-lp::kInf, lp::kInf, 0.0, false,
                              "a0_" + std::to_string(e));
    }
  }

  const auto add_with_x = [&](double lo, std::vector<lp::ColEntry> entries,
                              double x_coef_tokens, const std::string& name) {
    // Adds a row  lo <= entries + x * x_coef_tokens  treating x as either
    // the x column (kMinX) or the constant x_fixed (kMinTau).
    if (objective == Objective::kMinX) {
      if (x_coef_tokens != 0.0) entries.push_back({rr.x_col, x_coef_tokens});
      rr.model.add_row(lo, lp::kInf, std::move(entries), name);
    } else {
      const int row = rr.model.add_row(lo - x_fixed * x_coef_tokens,
                                       lp::kInf, std::move(entries), name);
      if (x_coef_tokens != 0.0) rr.x_rows.push_back({row, lo, x_coef_tokens});
    }
  };

  for (EdgeId e = 0; e < rrg.num_edges(); ++e) {
    const NodeId u = g.src(e);
    const NodeId v = g.dst(e);
    if (!rrg.is_early(v)) {
      // (5): x R0(e) + sg(u) - sg(v) - R'(e) >= service(v).
      // NOTE: the paper prints "sigma(v) - sigma(u)" in (5), but the LP (4)
      // it is derived from has mhat(e) = m0(e) + sigma(u) - sigma(v), and
      // (6)-(10) follow that orientation. With only simple nodes the flip
      // is harmless (sigma is free, so sigma -> -sigma maps one system to
      // the other), but mixed with (6)-(10) it is unsound; we use the
      // (4)-consistent orientation. See src/core/README.md, note 1.
      // A telescopic consumer adds its expected extra service latency
      // (1-p) * slow_extra to the edge's pipeline latency.
      std::vector<lp::ColEntry> entries{{rr.buf_col[e], -1.0}};
      if (u != v) {
        entries.push_back({sigma[u], 1.0});
        entries.push_back({sigma[v], -1.0});
      }
      add_with_x(rrg.service(v), std::move(entries),
                 static_cast<double>(rrg.tokens(e)),
                 "thr5_" + std::to_string(e));
    } else {
      // (6): sg(u) - auxR(e) - R'(e) >= 0.
      m.add_row(0.0, lp::kInf,
                {{sigma[u], 1.0}, {auxr_col[e], -1.0}, {rr.buf_col[e], -1.0}},
                "thr6_" + std::to_string(e));
      // (10): x R0(e) + auxR(e) - aux0(e) >= 0.
      add_with_x(0.0, {{auxr_col[e], 1.0}, {aux0_col[e], -1.0}},
                 static_cast<double>(rrg.tokens(e)),
                 "thr10_" + std::to_string(e));
      // (9): s(v) - aux0(e) >= 0.
      m.add_row(0.0, lp::kInf, {{s_col[v], 1.0}, {aux0_col[e], -1.0}},
                "thr9_" + std::to_string(e));
    }
  }
  for (NodeId n = 0; n < rrg.num_nodes(); ++n) {
    if (!rrg.is_early(n)) continue;
    // (7): sum_e gamma(e) aux0(e) - sg(n) >= service(n)  (gammas sum to
    // one; the paper's right-hand side is 0 because it has no telescopic
    // nodes -- delta(n) = 0 for every early node).
    std::vector<lp::ColEntry> entries;
    for (EdgeId e : g.in_edges(n)) {
      entries.push_back({aux0_col[e], rrg.gamma(e)});
    }
    entries.push_back({sigma[n], -1.0});
    m.add_row(rrg.service(n), lp::kInf, std::move(entries),
              "thr7_" + rrg.name(n));
    // (8): x + sg(n) - s(n) >= 1.
    add_with_x(1.0, {{sigma[n], 1.0}, {s_col[n], -1.0}}, 1.0,
               "thr8_" + rrg.name(n));
  }

  // Busy throttle of telescopic *simple* nodes (early ones are throttled
  // through (7)-(8) above): a unit-delay self-loop with one token in
  // sigma-tilde form, collapsing to x >= 1 + service(n).
  for (NodeId n = 0; n < rrg.num_nodes(); ++n) {
    if (!rrg.is_telescopic(n) || rrg.is_early(n)) continue;
    const int tl = m.add_col(-lp::kInf, lp::kInf, 0.0, false,
                             "tl_" + rrg.name(n));
    m.add_row(1.0, lp::kInf, {{sigma[n], 1.0}, {tl, -1.0}},
              "tlf_" + rrg.name(n));
    add_with_x(rrg.service(n), {{tl, 1.0}, {sigma[n], -1.0}}, 1.0,
               "tlb_" + rrg.name(n));
  }

  return rr;
}

/// Shared MILP postlude: status mapping, buffer extraction, retiming
/// recovery and config validation (identical for the stateless and the
/// session path -- bit-identity of the walk hinges on that).
RcSolveResult finish_rr(const Rrg& rrg, const std::vector<int>& buf_col,
                        const lp::MilpResult& milp) {
  RcSolveResult result;
  if (!milp.has_solution()) {
    // `exact` on an infeasible answer means the negative verdict is
    // proven: either genuine infeasibility or a futile-bound proof (no
    // solution as good as the cutoff), as opposed to a budget running out
    // before any incumbent appeared.
    result.exact = milp.status == lp::MilpStatus::kInfeasible ||
                   milp.status == lp::MilpStatus::kFutile;
    return result;
  }
  result.feasible = true;
  result.exact = milp.status == lp::MilpStatus::kOptimal;
  result.objective = milp.objective;

  std::vector<int> buffers(rrg.num_edges());
  for (EdgeId e = 0; e < rrg.num_edges(); ++e) {
    buffers[e] =
        static_cast<int>(std::llround(milp.x[static_cast<std::size_t>(buf_col[e])]));
    ELRR_ASSERT(buffers[e] >= 0, "negative buffer count from MILP");
  }
  const std::vector<int> r = recover_retiming(rrg, buffers);
  const RrConfig config = [&] {
    RrConfig c;
    c.buffers = buffers;
    c.tokens.resize(rrg.num_edges());
    const Digraph& g = rrg.graph();
    for (EdgeId e = 0; e < rrg.num_edges(); ++e) {
      c.tokens[e] = rrg.tokens(e) + r[g.dst(e)] - r[g.src(e)];
    }
    return c;
  }();
  std::string why;
  ELRR_ASSERT(validate_config(rrg, config, &why),
              "MILP produced an invalid RC: ", why);
  result.config = config;
  return result;
}

RcSolveResult solve_rr(const Rrg& rrg, Objective objective, double x_fixed,
                       double tau_fixed, double x_upper,
                       const OptOptions& options) {
  rrg.validate();
  ELRR_REQUIRE(graph::is_strongly_connected(rrg.graph()),
               "the optimizer requires a strongly connected RRG "
               "(extract the largest SCC first)");
  if (objective != Objective::kMinX) {
    ELRR_REQUIRE(x_fixed >= 1.0, "throughput target requires x >= 1, got ",
                 x_fixed);
  }

  RrModel rr = build_rr_model(rrg, objective, x_fixed, tau_fixed, x_upper);
  const lp::MilpResult milp = lp::solve_milp(rr.model, options.milp);
  return finish_rr(rrg, rr.buf_col, milp);
}

}  // namespace

namespace detail {

/// The walk's persistent MILP state: the x-parameterized MIN_TAU model
/// built once per circuit (at x = 0, so every recorded lo_base is the
/// unshifted bound) plus the lp::MilpSession holding the warm basis.
struct WalkMilp {
  std::vector<int> buf_col;
  std::vector<XRow> x_rows;
  lp::MilpSession session;

  WalkMilp(RrModel&& rr, const lp::MilpOptions& milp_options)
      : buf_col(std::move(rr.buf_col)),
        x_rows(std::move(rr.x_rows)),
        session(std::move(rr.model), milp_options) {}
};

}  // namespace detail

namespace {

/// MIN_CYC(x) through the walk's session: re-target the x-dependent row
/// bounds (the exact same "lo - x * coef" expression solve_rr's builder
/// evaluates, so the parameterized model is bit-identical to a freshly
/// built one), thread the step's cutoffs/budget through, solve.
RcSolveResult solve_rr_session(const Rrg& rrg, detail::WalkMilp& wm,
                               double x, const lp::MilpOptions& step_milp) {
  ELRR_REQUIRE(x >= 1.0, "throughput target requires x >= 1, got ", x);
  for (const XRow& xr : wm.x_rows) {
    wm.session.set_row_bounds(xr.row, xr.lo_base - x * xr.coef, lp::kInf);
  }
  wm.session.set_cutoffs(step_milp.target_obj, step_milp.futile_bound);
  wm.session.set_time_limit(step_milp.time_limit_s);
  return finish_rr(rrg, wm.buf_col, wm.session.solve());
}

/// MAX_THR(tau) on an already-rewritten RRG. With a session (`wm`), the
/// bisection's decision probes -- which are MIN_CYC solves of the same
/// x-parameterized model -- run through it; the direct min-x attempt
/// keeps its own cold solve (its model depends on tau structurally, so
/// no basis carries over).
/// `cancelled` (may be empty) is polled before every solve; when it
/// returns true MAX_THR stops and returns the best configuration it
/// holds (at worst the fallback), marked inexact.
RcSolveResult max_thr_impl(const Rrg& rrg, double tau,
                           const OptOptions& options, detail::WalkMilp* wm,
                           const std::function<bool()>& cancelled) {
  rrg.validate();
  if (tau < rrg.max_delay() - 1e-9) {
    return {};  // a single node's delay already exceeds tau
  }

  // Feasible fallback: one buffer more than tokens everywhere pipelines
  // every edge, meeting any tau >= beta_max; its LP bound caps x.
  RrConfig fallback = initial_config(rrg);
  for (EdgeId e = 0; e < rrg.num_edges(); ++e) {
    fallback.buffers[e] = std::max(rrg.tokens(e), 0) + 1;
  }
  const double theta_fb = evaluate_config(rrg, fallback).theta_lp;
  ELRR_ASSERT(theta_fb > 0.0, "fallback configuration has zero throughput");
  const double x_upper = 1.0 / theta_fb + 1.0;

  // First attempt: the direct min-x MILP (the paper's formulation) on a
  // slice of the budget. Hard instances starve it of incumbents, in which
  // case we fall back to bisection below.
  OptOptions slice = options;
  slice.treat_all_simple = false;
  slice.milp.time_limit_s =
      options.milp.time_limit_s > 0
          ? std::min(options.milp.time_limit_s / 3.0, 5.0)
          : 5.0;
  RcSolveResult best;
  best.feasible = true;
  best.exact = true;
  best.config = fallback;
  double hi = 1.0 / theta_fb;
  const auto stop = [&] {
    if (!cancelled || !cancelled()) return false;
    best.exact = false;
    best.objective = hi;
    return true;
  };
  if (stop()) return best;
  {
    RcSolveResult direct =
        solve_rr(rrg, Objective::kMinX, 0.0, tau, x_upper, slice);
    if (direct.feasible && direct.exact) return direct;
    if (direct.feasible) {
      // Unproven incumbent: keep it as the bisection's starting witness.
      best.config = direct.config;
      hi = 1.0 / evaluate_config(rrg, direct.config).theta_lp;
    }
  }

  // Bisection on x. Each probe solves MIN_CYC(x) as a *decision* problem
  // using the MILP cutoffs: stop as soon as some configuration reaches
  // cycle time tau (yes) or as soon as the proven bound exceeds tau (no).
  // Feasibility is monotone in x, and each yes-witness's own LP bound
  // snaps the upper end down to an achieved throughput, so convergence
  // takes only a handful of probes (configurations are discrete).
  OptOptions probe = options;
  probe.treat_all_simple = false;
  probe.milp.target_obj = tau + 1e-9;
  probe.milp.futile_bound = tau + 1e-7;
  // Each probe is a decision problem with early-exit cutoffs; verdicts
  // that outlive this budget are conservatively "no" and drop exactness,
  // so a short leash is safe and keeps the bisection responsive.
  probe.milp.time_limit_s =
      options.milp.time_limit_s > 0
          ? std::min(options.milp.time_limit_s / 6.0, 3.0)
          : 3.0;
  enum class Verdict { kYes, kNo, kUnknownNo };
  const auto probe_at = [&](double x, RcSolveResult* witness) {
    RcSolveResult r =
        wm != nullptr
            ? solve_rr_session(rrg, *wm, x, probe.milp)
            : solve_rr(rrg, Objective::kMinTau, x, 0.0, 0.0, probe);
    if (r.feasible && r.objective <= tau + 1e-6) {
      *witness = r;
      return Verdict::kYes;  // the witness itself proves the yes
    }
    if (r.exact) {
      return Verdict::kNo;  // proven: min cycle time at this x exceeds tau
    }
    return Verdict::kUnknownNo;  // budget ran out; conservatively "no"
  };

  // Theta = 1 short-circuit: the most common endpoint of the Pareto walk.
  if (stop()) return best;
  {
    RcSolveResult witness;
    const Verdict at_one = probe_at(1.0, &witness);
    if (at_one == Verdict::kYes) {
      witness.objective = 1.0;
      return witness;
    }
    best.exact &= at_one == Verdict::kNo;
  }

  double lo = 1.0;
  constexpr double kTol = 1e-7;
  constexpr int kMaxProbes = 30;
  for (int probes = 0;
       hi - lo > kTol * std::max(1.0, hi) && probes < kMaxProbes;
       ++probes) {
    if (stop()) return best;
    const double mid = 0.5 * (lo + hi);
    RcSolveResult witness;
    const Verdict v = probe_at(mid, &witness);
    if (v == Verdict::kYes) {
      best.config = witness.config;
      // Snap to the witness's actual LP bound (<= mid by construction).
      const double achieved = evaluate_config(rrg, witness.config).theta_lp;
      hi = std::min(mid, 1.0 / achieved);
    } else {
      best.exact &= v == Verdict::kNo;
      lo = mid;
    }
  }
  best.objective = hi;
  return best;
}

}  // namespace

Rrg as_all_simple(const Rrg& rrg) {
  Rrg out = rrg;
  for (NodeId n = 0; n < out.num_nodes(); ++n) {
    out.set_kind(n, NodeKind::kSimple);
  }
  return out;
}

std::vector<int> recover_retiming(const Rrg& rrg,
                                  const std::vector<int>& buffers) {
  ELRR_REQUIRE(buffers.size() == rrg.num_edges(), "buffer vector mismatch");
  std::vector<std::int64_t> w(rrg.num_edges());
  for (EdgeId e = 0; e < rrg.num_edges(); ++e) {
    w[e] = static_cast<std::int64_t>(buffers[e]) - rrg.tokens(e);
  }
  const auto sol = graph::solve_difference_constraints(rrg.graph(), w);
  ELRR_ASSERT(sol.feasible,
              "buffer counts do not support any retiming (R' < R0' on some "
              "cycle)");
  std::vector<int> r(rrg.num_nodes());
  for (NodeId n = 0; n < rrg.num_nodes(); ++n) {
    r[n] = static_cast<int>(sol.potential[n]);
  }
  return r;
}

RcSolveResult min_cyc(const Rrg& rrg, double x, const OptOptions& options) {
  if (options.treat_all_simple) {
    return solve_rr(as_all_simple(rrg), Objective::kMinTau, x, 0.0, 0.0,
                    options);
  }
  return solve_rr(rrg, Objective::kMinTau, x, 0.0, 0.0, options);
}

lp::Model build_min_cyc_model(const Rrg& input, double x,
                              const OptOptions& options) {
  const Rrg rrg = options.treat_all_simple ? as_all_simple(input) : input;
  rrg.validate();
  ELRR_REQUIRE(graph::is_strongly_connected(rrg.graph()),
               "the optimizer requires a strongly connected RRG "
               "(extract the largest SCC first)");
  ELRR_REQUIRE(x >= 1.0, "throughput target requires x >= 1, got ", x);
  return std::move(build_rr_model(rrg, Objective::kMinTau, x, 0.0, 0.0).model);
}

RcSolveResult max_thr(const Rrg& input, double tau,
                      const OptOptions& options) {
  const Rrg rrg = options.treat_all_simple ? as_all_simple(input) : input;
  return max_thr_impl(rrg, tau, options, nullptr, {});
}

std::size_t keep_pareto_frontier(std::vector<ParetoPoint>& points) {
  std::sort(points.begin(), points.end(),
            [](const ParetoPoint& a, const ParetoPoint& b) {
              if (a.tau != b.tau) return a.tau < b.tau;
              return a.theta_lp > b.theta_lp;
            });
  std::vector<ParetoPoint> frontier;
  double best_theta = -1.0;
  for (ParetoPoint& point : points) {
    if (point.theta_lp > best_theta + 1e-12) {
      best_theta = point.theta_lp;
      frontier.push_back(std::move(point));
    }
  }
  points = std::move(frontier);
  std::size_t best = 0;
  for (std::size_t i = 1; i < points.size(); ++i) {
    if (points[i].xi_lp < points[best].xi_lp) best = i;
  }
  return best;
}

std::vector<std::size_t> MinEffCycResult::k_best(std::size_t k) const {
  std::vector<std::size_t> order(points.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return points[a].xi_lp < points[b].xi_lp;
  });
  if (order.size() > k) order.resize(k);
  return order;
}

ParetoWalk::ParetoWalk(const Rrg& input, const OptOptions& options)
    : rrg_(options.treat_all_simple ? as_all_simple(input) : input),
      options_(options) {
  rrg_.validate();
  // From here on options_ carries the rewrite already applied.
  options_.treat_all_simple = false;
  ELRR_REQUIRE(options_.epsilon > 0.0, "epsilon must be positive");
  // Telescopic nodes cap the achievable throughput below 1; the walk
  // terminates at the cap instead of Theta = 1.
  cap_ = throughput_cap(rrg_);
  max_iters_ = static_cast<int>(std::ceil(1.0 / options_.epsilon)) + 4;
}

// Out of line: detail::WalkMilp is incomplete in the header.
ParetoWalk::~ParetoWalk() = default;

detail::WalkMilp& ParetoWalk::milp_session() {
  if (!milp_) {
    // Built once, at x = 0, so every x-dependent row records its
    // unshifted lo_base; solve_rr_session re-targets those bounds before
    // every solve, so the placeholder bounds never reach the solver.
    milp_ = std::make_unique<detail::WalkMilp>(
        build_rr_model(rrg_, Objective::kMinTau, 0.0, 0.0, 0.0),
        options_.milp);
    milp_->session.set_warm(options_.milp_warm);
    milp_->session.set_seed_incumbent(options_.milp_warm);
  }
  return *milp_;
}

lp::SessionStats ParetoWalk::milp_stats() const {
  return milp_ ? milp_->session.stats() : lp::SessionStats{};
}

ParetoPoint ParetoWalk::record(const RcSolveResult& solve) {
  all_exact_ &= solve.exact;
  ParetoPoint point;
  point.config = solve.config;
  point.exact = solve.exact;
  const RcEvaluation eval = evaluate_config(rrg_, solve.config);
  point.tau = eval.tau;
  point.theta_lp = eval.theta_lp;
  point.xi_lp = eval.xi_lp;
  // Deduplicate identical configurations (the walk revisits them when a
  // step lands on the previous incumbent); the emitted point is returned
  // either way so streaming callers see every step.
  for (const ParetoPoint& existing : points_) {
    if (existing.config == point.config) return point;
  }
  points_.push_back(point);
  return point;
}

void ParetoWalk::set_xi_hint(double xi_observed) {
  xi_hint_ =
      std::isfinite(xi_observed) && xi_observed > 0.0 ? xi_observed : 0.0;
}

bool ParetoWalk::cancel_requested() {
  cancel_fired_ = cancel_fired_ || (cancelled_ && cancelled_());
  return cancel_fired_;
}

std::optional<ParetoPoint> ParetoWalk::advance() {
  if (state_ == State::kIdentity) {
    // The identity configuration is itself a valid RC; recording it
    // guarantees the result is never worse than doing nothing even when
    // every MILP budget is exhausted (and it is the natural Theta = 1
    // endpoint the paper's walk finishes on).
    state_ = State::kFirstMaxThr;
    RcSolveResult identity;
    identity.feasible = true;
    identity.exact = true;
    identity.config = initial_config(rrg_);
    return record(identity);
  }
  if (state_ == State::kFirstMaxThr) {
    // tau = beta_max; RC = MAX_THR(tau).
    state_ = State::kStep;
    const RcSolveResult first = max_thr_impl(
        rrg_, rrg_.max_delay(), options_, &milp_session(),
        [this] { return cancel_requested(); });
    ++milp_calls_;
    ELRR_ASSERT(first.feasible, "MAX_THR(beta_max) must be feasible");
    last_ = record(first);
    return last_;
  }
  while (state_ == State::kStep) {
    if (iter_ >= max_iters_ || last_.theta_lp >= cap_ - 1e-9) {
      state_ = State::kDone;
      break;
    }
    ++iter_;
    // Theta = Theta_lp(RC) + eps, monotonically increasing so the walk
    // always terminates even when a step lands on the same configuration.
    target_ = std::min(
        cap_, std::max(last_.theta_lp + options_.epsilon,
                       target_ + options_.epsilon));
    OptOptions step = options_;
    if (xi_hint_ > 0.0) {
      // Feedback pruning: only a configuration with tau <= xi * theta can
      // beat an observed effective cycle time xi at this step's theta
      // target. An incumbent that good ends the branch & bound early
      // (target_obj); a proof that none exists makes the step futile
      // (futile_bound) and the walk moves on to the next target. Same
      // cutoff discipline as max_thr's decision probes.
      const double beat = xi_hint_ * target_;
      step.milp.target_obj = beat + 1e-9;
      step.milp.futile_bound = beat + 1e-7;
    }
    const RcSolveResult mc =
        solve_rr_session(rrg_, milp_session(), 1.0 / target_, step.milp);
    ++milp_calls_;
    if (!mc.feasible) {
      if (xi_hint_ > 0.0 && mc.exact) {
        // Proven futile against the hint (or genuinely infeasible): the
        // step is dominated by what the caller already holds; skip it
        // and keep walking the theta targets.
        ++pruned_steps_;
        continue;
      }
      all_exact_ = false;
      state_ = State::kDone;
      break;
    }
    if (options_.polish) {
      const double tau_next = evaluate_config(rrg_, mc.config).tau;
      const RcSolveResult mt =
          max_thr_impl(rrg_, tau_next, options_, &milp_session(),
                       [this] { return cancel_requested(); });
      ++milp_calls_;
      if (!mt.feasible) {
        all_exact_ = false;
        state_ = State::kDone;
        break;
      }
      last_ = record(mt);
    } else {
      last_ = record(mc);
    }
    return last_;
  }
  return std::nullopt;
}

MinEffCycResult ParetoWalk::finish() const {
  MinEffCycResult result;
  result.points = points_;
  result.milp_calls = milp_calls_;
  result.all_exact = all_exact_;
  result.best_index = keep_pareto_frontier(result.points);
  result.seconds = watch_.seconds();
  return result;
}

MinEffCycResult min_eff_cyc(const Rrg& input, const OptOptions& options) {
  // min_eff_cyc *is* a ParetoWalk replayed to completion -- the walk's
  // streaming contract (finish() == this function) holds by construction.
  ParetoWalk walk(input, options);
  while (walk.advance().has_value()) {
  }
  return walk.finish();
}

}  // namespace elrr
