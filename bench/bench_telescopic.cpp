/// \file bench_telescopic.cpp
/// Ablation for the telescopic-node extension (the paper's Section 6
/// future work: "the proposed model can be extended to handle telescopic
/// nodes, i.e., nodes with variable combinational delays").
///
/// Three experiments on the paper's running example (Figure 1a, alpha =
/// 0.9) with the pipeline stage F2 made telescopic:
///   A. model validation: LP bound vs exact Markov vs Monte-Carlo across
///      a (fast_prob, slow_extra) grid -- shape: throughput falls with
///      expected service (1-p)*e, LP stays an upper bound;
///   B. optimization: xi_lp of MIN_EFF_CYC vs the pessimistic design
///      clocked at the worst-case delay -- shape: telescopic wins
///      whenever p is high enough that the stolen cycles cost less than
///      the stretched clock;
///   C. the busy-period cap 1/(1 + (1-p)e) vs what the optimizer
///      actually reaches.

#include <cstdio>
#include <vector>

#include "core/analysis.hpp"
#include "core/figures.hpp"
#include "core/opt.hpp"
#include "core/rrg.hpp"
#include "core/tgmg.hpp"
#include "sim/fleet.hpp"
#include "sim/markov.hpp"

using namespace elrr;
using namespace elrr::figures;

namespace {

Rrg with_telescopic_f2(double p, int e, double alpha = 0.9) {
  Rrg rrg = figure1a(alpha);
  rrg.set_telescopic(kF2, p, e);
  return rrg;
}

}  // namespace

int main() {
  std::printf("=====================================================================\n");
  std::printf("ElasticRR | telescopic nodes (Section 6 extension), figure 1a base\n");
  std::printf("=====================================================================\n");

  std::printf("\n-- A. throughput model: LP bound vs Markov vs simulation --\n");
  std::printf("%6s %6s %9s %10s %10s %10s\n", "p", "extra", "cap",
              "Theta_lp", "Th_markov", "Th_sim");
  // The whole (p, extra) grid is one fleet workload: every grid point's
  // replications run batched (telescopic graphs included) across all
  // cores, instead of one solo simulation per point.
  const int extras[] = {1, 2, 4};
  const double probs[] = {0.5, 0.7, 0.9, 0.95};
  std::vector<Rrg> grid;
  for (const int extra : extras) {
    for (const double p : probs) grid.push_back(with_telescopic_f2(p, extra));
  }
  sim::SimOptions sopt;
  sopt.measure_cycles = 20000;
  sim::SimFleet fleet(0);
  std::vector<sim::SimTicket> tickets;
  for (const Rrg& rrg : grid) {
    tickets.push_back(fleet.submit_async(Rrg(rrg), sopt));
  }
  std::size_t point = 0;
  for (const int extra : extras) {
    for (const double p : probs) {
      const Rrg& rrg = grid[point];
      const double lp = throughput_upper_bound(rrg);
      const auto mc = sim::exact_throughput(rrg);
      std::printf("%6.2f %6d %9.3f %10.4f %10.4f %10.4f%s\n", p, extra,
                  throughput_cap(rrg), lp, mc.ok ? mc.theta : -1.0,
                  fleet.wait(tickets[point]).theta, mc.ok && mc.theta > lp + 1e-9 ? "  !" : "");
      ++point;
    }
  }

  std::printf("\n-- B. telescopic-aware RR vs pessimistic worst-case clocking --\n");
  std::printf("(F2 fast delay 1, worst-case delay 1 + extra; alpha = 0.9)\n");
  std::printf("%6s %6s %12s %12s %10s\n", "p", "extra", "xi_pess",
              "xi_telescopic", "gain(%)");
  for (const int extra : {1, 2, 4}) {
    for (const double p : {0.5, 0.7, 0.9, 0.95}) {
      Rrg pess = figure1a(0.9);
      pess.set_delay(kF2, 1.0 + extra);
      const MinEffCycResult rp = min_eff_cyc(pess);

      const Rrg tele = with_telescopic_f2(p, extra);
      const MinEffCycResult rt = min_eff_cyc(tele);

      const double gain = (rp.best().xi_lp - rt.best().xi_lp) /
                          rp.best().xi_lp * 100.0;
      std::printf("%6.2f %6d %12.3f %12.3f %10.1f\n", p, extra,
                  rp.best().xi_lp, rt.best().xi_lp, gain);
    }
  }

  std::printf("\n-- C. Pareto frontier under a telescopic cap (p=0.8, e=2) --\n");
  const Rrg rrg = with_telescopic_f2(0.8, 2);
  std::printf("cap = %.3f\n", throughput_cap(rrg));
  const MinEffCycResult result = min_eff_cyc(rrg);
  std::printf("%4s %8s %10s %10s\n", "#", "tau", "Theta_lp", "xi_lp");
  for (std::size_t i = 0; i < result.points.size(); ++i) {
    const ParetoPoint& pt = result.points[i];
    std::printf("%4zu %8.2f %10.4f %10.4f%s\n", i, pt.tau, pt.theta_lp,
                pt.xi_lp, i == result.best_index ? "  <== best" : "");
  }
  return 0;
}
